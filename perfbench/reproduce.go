package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"beacongnn/internal/config"
	"beacongnn/internal/core"
	"beacongnn/internal/dataset"
	"beacongnn/internal/exp"
)

// reproNodes is core.Options' default materialized scale, which
// reproduce's set-up materializes.
const reproNodes = 10_000

// reproConfig is the paper configuration every reproduction runs. The
// seed is deliberately not mixed in: the reproduction is the paper's
// fixed evaluation, and reseeding its graphs moves its wall time by
// more than the noise the benchmark must resolve.
func reproConfig() config.Config { return config.Default() }

// childOut is what one reproduction process reports on stdout.
type childOut struct {
	Digest string `json:"digest"`
	Runs   uint64 `json:"runs"`
	Hits   uint64 `json:"hits"`
	HWMKiB int64  `json:"hwm_kib"` // the process's own VmHWM at the end
}

// runReproduction is the child process: every experiment of
// core.AllExperiments at quick scale (beaconbench -exp all -quick), run
// concurrently on one Options with a fresh engine (as core.RunAll runs
// the paper set), and the SHA-256 of their outputs in registry order.
//
// Quick scale, not the default, because this host's speed drifts over
// tens of seconds: a default reproduction takes ~10 s, so a run holds
// three and its figure moves with whichever stretch it landed in (runs
// spread 14-27% apart). A quick one takes ~3-4 s, and medians of ten
// back-to-back ones spread 2-4% in the same conditions.
func runReproduction() (childOut, error) {
	eng := exp.New(0)
	o := &core.Options{Cfg: reproConfig(), Engine: eng, Quick: true}
	bufs, err := exp.Map(core.AllExperiments(), func(e core.Experiment) (*bytes.Buffer, error) {
		var b bytes.Buffer
		fmt.Fprintf(&b, "\n===== %s — %s =====\n", e.ID, e.Title)
		if err := e.Run(o, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		return &b, nil
	})
	if err != nil {
		return childOut{}, err
	}
	h := sha256.New()
	for _, b := range bufs {
		h.Write(b.Bytes())
	}
	runs, hits := eng.Stats()
	status, err := os.Open("/proc/self/status")
	if err != nil {
		return childOut{}, err
	}
	defer status.Close()
	hwm, err := parseVmHWM(status)
	if err != nil {
		return childOut{}, err
	}
	return childOut{Digest: hex.EncodeToString(h.Sum(nil)), Runs: runs, Hits: hits, HWMKiB: hwm}, nil
}

// reproRun is one reproduction observed from outside its process.
type reproRun struct {
	out  childOut
	wall time.Duration
	cpu  time.Duration
	rss  int64 // peak RSS, KiB
	gc   gcTrace
}

// spawnReproduction runs the reproduction in a fresh process and reads
// its CPU from the kernel's accounting of the exited child. Its peak RSS
// comes from the child itself: the kernel's Maxrss of a child started
// with vfork semantics, as os/exec does, also counts the parent's
// resident set at exec, so it would read this process's set-up instead.
func spawnReproduction(ctx context.Context, self string, gctrace bool) (reproRun, error) {
	cmd := exec.CommandContext(ctx, self, "--child", "reproduce")
	var stdout bytes.Buffer
	log := &stderrLog{}
	cmd.Stdout, cmd.Stderr = &stdout, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if gctrace {
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return reproRun{}, fmt.Errorf("reproduction: %w\n%s", err, log)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return reproRun{}, fmt.Errorf("no rusage for the reproduction process")
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return reproRun{}, fmt.Errorf("reproduction output: %w", err)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return reproRun{out: out, wall: wall, cpu: cpu, rss: out.HWMKiB, gc: log.gcSnapshot()}, nil
}

// materializeAll is reproduce's set-up: the five datasets at the
// reproduction's scale, sequentially.
func materializeAll() (time.Duration, error) {
	cfg := reproConfig()
	start := time.Now()
	for _, d := range dataset.All() {
		if _, err := dataset.Materialize(d, reproNodes, cfg.Flash.PageSize, cfg.Seed); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// reproduceE2E runs full reproductions for about the run's budget.
func reproduceE2E(ctx context.Context, o runOpts) (*result, error) {
	res := newResult()
	var setups []float64
	for i := 0; i < 3; i++ {
		d, err := materializeAll()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	res.set("setup_s", median(setups), "s")

	budget := time.Duration(o.seconds) * time.Second
	var runs []reproRun
	var elapsed time.Duration
	for len(runs) == 0 || elapsed+runs[len(runs)-1].wall/2 < budget {
		rr, err := spawnReproduction(ctx, o.self, false)
		res.attempted += len(core.AllExperiments())
		if err != nil {
			return nil, err
		}
		runs = append(runs, rr)
		elapsed += rr.wall
	}

	var wall, cpu, rss []float64
	var walls []time.Duration
	for i, rr := range runs {
		if rr.out.Digest != runs[0].out.Digest || rr.out.Runs != runs[0].out.Runs {
			res.failed += len(core.AllExperiments())
			res.fail("reproduction %d digest %s differs from the first run's %s", i, rr.out.Digest, runs[0].out.Digest)
		}
		wall = append(wall, rr.wall.Seconds())
		cpu = append(cpu, rr.cpu.Seconds())
		rss = append(rss, float64(rr.rss)/1024)
		walls = append(walls, rr.wall)
	}
	// A request here is a whole reproduction, so p50 and p90 are the
	// nearest-rank median and second slowest of the run's ~12 reproductions;
	// throughput and CPU are per simulation, the unit of work inside one.
	s := sortedCopy(walls)
	sims := float64(runs[0].out.Runs)
	res.set("wall_s", median(wall), "s")
	res.set("cpu_s", median(cpu), "s")
	res.set("rss_mb", median(rss), "MB")
	res.set("cpu_ms_per_req", median(cpu)*1000/sims, "ms")
	res.set("capacity_qps", sims/median(wall), "1/s")
	res.set("p50_ms", ms(nearestRank(s, 0.5)), "ms")
	res.set("p90_ms", ms(nearestRank(s, 0.9)), "ms")
	res.note("reproduction sha256 %s (%d runs, all identical: %v)", runs[0].out.Digest, len(runs), res.checksOK)
	res.note("reproduction wall times: %s s", formatList(wall, 1))
	res.note("each reproduction ran %d simulations (%d memo hits); p50/p90 over %d reproductions, capacity and CPU per simulation",
		runs[0].out.Runs, runs[0].out.Hits, len(runs))
	return res, nil
}

// childMain runs a child mode and exits.
func childMain(mode string) int {
	if mode != "reproduce" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown child mode %q\n", mode)
		return 2
	}
	out, err := runReproduction()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
