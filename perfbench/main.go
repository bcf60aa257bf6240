// Command perfbench is the repository's benchmark: it drives a live
// beaconserved with open-loop traffic and times full paper
// reproductions in fresh processes, checks every output, and prints
// one JSON line of metrics. See README.md for the workloads and the
// metrics each one reports.
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runOpts is one invocation's settings.
type runOpts struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	conns     int    // generator connections and in-flight slots
	daemonBin string // beaconserved binary
	self      string // this binary, for child processes
	outDir    string // where traced runs write their spans
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o     runOpts
		trace int
		child string
	)
	fs.StringVar(&o.workload, "workload", "", "serve-hit, serve-miss or reproduce")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&o.daemonBin, "daemon", ".bench_build/beaconserved", "beaconserved binary")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for span files")
	declPath := fs.String("declared", "BENCHMARK.json", "benchmark declaration the output must match")
	fs.StringVar(&child, "child", "", "internal: run a child mode")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if child != "" {
		return childMain(child)
	}
	o.trace = trace == 1
	// The generator shares the CPUs with the daemon it measures; a lazier
	// collector keeps its own GC from stealing them.
	debug.SetGCPercent(400)
	o.conns = runtime.NumCPU()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.self = self
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if _, known := serveSpecs[o.workload]; !known && o.workload != "reproduce" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (serve-hit, serve-miss, reproduce)\n", o.workload)
		return 2
	}
	decl, err := loadDeclared(*declPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.workload != "reproduce" {
		if _, err := os.Stat(o.daemonBin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: daemon binary:", err)
			return 1
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	calBefore := calibrate()
	var res *result
	if o.trace {
		res, err = traceRun(ctx, o)
	} else if spec, ok := serveSpecs[o.workload]; ok {
		res, err = serveE2E(ctx, spec, o)
	} else {
		res, err = reproduceE2E(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	calAfter := calibrate()
	res.note("host.calib_ms before %.3f after %.3f (fixed loop; a shift in both marks host drift)", ms(calBefore), ms(calAfter))
	want := decl.EndToEnd
	if o.trace {
		res.set("host.calib_ms", ms(calBefore+calAfter)/2, "ms")
		want = decl.PerLayer
	}
	if err := res.matches(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// spanPath is where a traced run saves its spans.
func spanPath(o runOpts) string {
	return filepath.Join(o.outDir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}
