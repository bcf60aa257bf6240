package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(n-i) * time.Millisecond // reversed: percentile must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	got, err := percentile(durations(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 990*time.Millisecond {
		t.Fatalf("p99 of 1..1000 ms = %v, want 990ms (rank ⌈0.99·1000⌉)", got)
	}
	if got, _ := percentile(durations(1000), 0.5); got != 500*time.Millisecond {
		t.Fatalf("p50 of 1..1000 ms = %v, want 500ms", got)
	}
	if got := nearestRank([]time.Duration{7}, 0.99); got != 7 {
		t.Fatalf("single sample p99 = %v, want 7", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(durations(1000), 0.99); err != nil {
		t.Fatalf("1000 samples leave 10 beyond p99: %v", err)
	}
	if _, err := percentile(durations(999), 0.99); err == nil {
		t.Fatal("999 samples leave 9 beyond p99 and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("no samples must be refused")
	}
}

func TestWindowQuantilesIgnoreOneBadWindow(t *testing.T) {
	var s []time.Duration
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			d := time.Duration(i) * time.Microsecond
			if w == 2 && i >= 900 {
				d = time.Second // one window stalls
			}
			s = append(s, d)
		}
	}
	got, err := windowQuantiles(s, 5, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if m := time.Duration(median(got)); m != 989*time.Microsecond {
		t.Fatalf("window median p99 = %v, want 989µs from the four clean windows", m)
	}
	if lq := time.Duration(lowQuartile(got)); lq != 989*time.Microsecond {
		t.Fatalf("window low-quartile p99 = %v, want 989µs", lq)
	}
	raw, _ := percentile(s, 0.99)
	if raw != time.Second {
		t.Fatalf("raw p99 = %v; the stalled window should own the pooled tail", raw)
	}
	if _, err := windowQuantiles(s[:4000], 5, 0.99); err == nil {
		t.Fatal("windows of 800 samples cannot carry a p99 and must be refused")
	}
}

func TestLowQuartile(t *testing.T) {
	if q := lowQuartile([]float64{9, 1, 5, 3, 7, 2}); q != 2 {
		t.Fatalf("low quartile of six = %v, want the second lowest", q)
	}
	if q := lowQuartile([]float64{4}); q != 4 {
		t.Fatalf("low quartile of one = %v", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
}

// saturating models a system that keeps up below capacity and falls
// behind above it, as a probe would see it.
func saturating(capacity float64) func(float64) step {
	return func(rate float64) step {
		if rate <= capacity {
			return step{Offered: rate, Goodput: rate, P99: time.Millisecond}
		}
		return step{Offered: rate, Goodput: capacity, P99: time.Second, Backlog: true}
	}
}

var testRule = capRule{GoodputFrac: 0.97, P99Limit: 50 * time.Millisecond}

func TestSearchCapacityFindsKnee(t *testing.T) {
	probes := 0
	c := searchCapacity(100, 1600, 8, testRule, func(rate float64) step { probes++; return saturating(437)(rate) })
	if c.Knee > 437 || c.Knee < 437/c.Resolve {
		t.Fatalf("knee %v not within the final bracket below 437 (ratio %v)", c.Knee, c.Resolve)
	}
	if c.Resolve > 1.011 {
		t.Fatalf("8 probes over 16× should resolve to ~1.1%%, got %v", c.Resolve)
	}
	if c.Bound || generatorBound(c, c.Knee, 10_000) {
		t.Fatal("a knee well inside the range is not generator-bound")
	}
	if probes != 8 {
		t.Fatalf("ran %d probes, want 8", probes)
	}
}

func TestSearchCapacityTailLimitSetsKnee(t *testing.T) {
	// Goodput holds but the tail grows with load, reaching 50ms at 375.
	probe := func(rate float64) step {
		p99 := time.Duration(rate / 300 * 40 * float64(time.Millisecond))
		return step{Offered: rate, Goodput: rate, P99: p99}
	}
	c := searchCapacity(100, 1600, 10, testRule, probe)
	if c.Knee < 370 || c.Knee > 375 {
		t.Fatalf("knee %v, want where p99 reaches 50ms (375)", c.Knee)
	}
}

func TestSearchCapacityGeneratorBound(t *testing.T) {
	// The program never saturates below the generator's ceiling.
	c := searchCapacity(100, 1600, 8, testRule, saturating(1e9))
	if !c.Bound || !generatorBound(c, c.Knee, 1600) {
		t.Fatalf("a curve that never fails must be flagged generator-bound: %+v", c)
	}
	if c.Knee < 1600/c.Resolve {
		t.Fatalf("knee %v should sit at the top of the range", c.Knee)
	}
	// A knee inside the range but near the generator ceiling is flagged too.
	c = searchCapacity(100, 1600, 8, testRule, saturating(900))
	if c.Bound || !generatorBound(c, c.Knee, 1000) {
		t.Fatalf("knee %v within 20%% of a 1000 qps ceiling must be flagged", c.Knee)
	}
}

func TestStaircaseSettlesAtKnee(t *testing.T) {
	probe := saturating(500)
	s := &staircase{rate: 350, step: 0.03}
	for i := 0; i < 30; i++ {
		s.record(testRule.ok(probe(s.rate)))
	}
	if k := s.knee(); k < 500/1.07 || k > 500*1.07 {
		t.Fatalf("staircase knee %v, want within two steps of 500", k)
	}
}

func TestBacklogGrew(t *testing.T) {
	flat := make([]time.Duration, 400)
	growing := make([]time.Duration, 400)
	for i := range flat {
		flat[i] = 2 * time.Millisecond
		growing[i] = time.Duration(i) * time.Millisecond
	}
	if backlogGrew(flat, 50*time.Millisecond) {
		t.Fatal("flat latency is not a growing backlog")
	}
	if !backlogGrew(growing, 50*time.Millisecond) {
		t.Fatal("latency rising to 400ms is a growing backlog")
	}
}

func TestParseProcStat(t *testing.T) {
	// utime 250 and stime 50 ticks; the command holds spaces and parens.
	line := "4242 (beacon (served) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 9 0 100 123456789 4321 18446744073709551615\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3*time.Second {
		t.Fatalf("cpu = %v, want 300 ticks = 3s", got)
	}
	if _, err := parseProcStat("4242 (x) S 1 2"); err == nil {
		t.Fatal("a truncated stat line must be refused")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbeaconserved\nVmPeak:\t  900000 kB\nVmHWM:\t   98304 kB\nVmRSS:\t   90000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 98304 {
		t.Fatalf("VmHWM = %d KiB, want 98304", got)
	}
	if _, err := parseVmHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Fatal("status without VmHWM must be refused")
	}
}

func TestGCTrace(t *testing.T) {
	var g gcTrace
	g.add("gc 12 @3.456s 2%: 0.021+1.2+0.034 ms clock, 0.042+0.1/1.1/0+0.068 ms cpu, 4->4->1 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	g.add("beaconserved: 2026/01/01 listening on :8080")
	g.add("gc 13 @3.9s 2%: 1+2+3 ms clock, 2+0/1/0+6 ms cpu, 4->4->1 MB, 5 MB goal, 2 P")
	if g.Cycles != 2 {
		t.Fatalf("cycles = %d, want 2", g.Cycles)
	}
	want := 4055 * time.Microsecond
	if d := g.Pause - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("pause = %v, want %v (the two stop-the-world phases)", g.Pause, want)
	}
}

func TestEqualOutsideWall(t *testing.T) {
	a := []byte(`{"cached":true,"wall_ms":0.12,"result":{"x":1}}`)
	b := []byte(`{"cached":true,"wall_ms":13.5,"result":{"x":1}}`)
	c := []byte(`{"cached":true,"wall_ms":0.12,"result":{"x":2}}`)
	if !equalOutsideWall(a, b) {
		t.Fatal("responses differing only in wall_ms must compare equal")
	}
	if equalOutsideWall(a, c) {
		t.Fatal("responses differing in the result must not compare equal")
	}
}

func TestScheduleOffersNominalRate(t *testing.T) {
	r := newServeRun(serveSpecs["serve-hit"], 7, 2, nil)
	sched, err := r.schedule(250, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if last := time.Duration(sched[99].At); last != 400*time.Millisecond {
		t.Fatalf("last arrival at %v, want exactly 100/250 s", last)
	}
	again, _ := r.schedule(250, 100, 3)
	for i := range sched {
		if sched[i] != again[i] {
			t.Fatal("the same seed and salt must give the same schedule")
		}
	}
}

func TestDeclaredWorkloadsAreImplemented(t *testing.T) {
	d, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// reproduce runs by hand only: README.md says why it is not declared.
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if _, ok := serveSpecs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q that is not a serving workload perfbench runs", w.Name)
		}
	}
	if len(names) != len(serveSpecs) {
		t.Errorf("BENCHMARK.json declares %v; perfbench runs %d serving workloads", names, len(serveSpecs))
	}
}
