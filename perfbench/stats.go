package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile for it to be trusted: with fewer, the "p99" of a short run
// is just its largest few samples and swings with every outlier.
const minBeyond = 10

// nearestRank returns the q-quantile of sorted samples by the
// nearest-rank rule (rank ⌈q·n⌉, 1-based), matching the repository's
// loadgen and metrics quantiles.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n) * (1 - 1e-9)))
	rank = max(1, min(rank, n))
	return sorted[rank-1]
}

// percentile sorts a copy of samples and returns their q-quantile, or
// an error when fewer than minBeyond samples lie beyond it.
func percentile(samples []time.Duration, q float64) (time.Duration, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n) * (1 - 1e-9)))
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(0, n-rank), minBeyond)
	}
	s := sortedCopy(samples)
	return nearestRank(s, q), nil
}

func sortedCopy(samples []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// windowQuantiles splits samples (in intended-start order) into k
// equal-count windows and returns each window's q-quantile. Each window
// must itself have minBeyond samples past its quantile.
func windowQuantiles(samples []time.Duration, k int, q float64) ([]float64, error) {
	if k < 1 || len(samples) < k {
		return nil, fmt.Errorf("%d samples cannot fill %d windows", len(samples), k)
	}
	per := len(samples) / k
	vals := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		v, err := percentile(samples[w*per:(w+1)*per], q)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", w, err)
		}
		vals = append(vals, float64(v))
	}
	return vals, nil
}

// lowQuartile is the nearest-rank 25th percentile of per-round values.
// Host interference only ever adds time, so the less disturbed rounds
// sit low: with nine rounds this is the third best, which ignores two
// lucky rounds and up to six disturbed ones.
func lowQuartile(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(0.25*float64(len(s))))-1)]
}

// median of a float slice (mean of the middle pair for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// step is the measured outcome of offering one rate for one probe.
type step struct {
	Offered float64       // scheduled requests per second
	Goodput float64       // completed OK per second of makespan less median latency
	P99     time.Duration // intended-start p99 of OK requests
	Backlog bool          // latency kept growing through the probe
}

// capRule decides whether a probe is still inside capacity.
type capRule struct {
	GoodputFrac float64       // goodput must reach this share of offered
	P99Limit    time.Duration // the workload's fixed tail limit
}

func (r capRule) ok(s step) bool {
	return s.Goodput >= r.GoodputFrac*s.Offered && s.P99 <= r.P99Limit && !s.Backlog
}

// capResult is a finished capacity search.
type capResult struct {
	Knee    float64 // highest rate that passed
	Bound   bool    // knee is within resolution of the search's upper end
	Upper   float64 // top of the searched range
	Resolve float64 // final bracket ratio hi/lo
}

// searchCapacity bisects the offered rate in log space between lo,
// which the caller has already seen pass (the reference rate), and hi.
// Each of n probes halves the log bracket, so the knee is known to a
// factor (hi/lo)^(1/2^n). A knee that never fails a probe is reported
// as bound by the range: the true knee is at or above Upper.
func searchCapacity(lo, hi float64, n int, rule capRule, probe func(rate float64) step) capResult {
	res := capResult{Upper: hi}
	pass := false
	for i := 0; i < n; i++ {
		mid := math.Sqrt(lo * hi)
		if rule.ok(probe(mid)) {
			lo, pass = mid, true
		} else {
			hi = mid
		}
	}
	res.Knee = lo
	res.Resolve = hi / lo
	res.Bound = pass && hi == res.Upper
	return res
}

// staircase refines a knee after the bisection: each probe steps the
// rate up by step after a pass and down after a failure, so the probes
// settle around the rate that passes half the time. Spread across the
// run, they average over the host's slow and fast spells where one
// final bisection probe would take whichever spell it landed in.
type staircase struct {
	rate, step float64
	tried      []float64
}

func (s *staircase) record(pass bool) {
	s.tried = append(s.tried, s.rate)
	if pass {
		s.rate *= 1 + s.step
	} else {
		s.rate /= 1 + s.step
	}
}

// knee is the upper quartile of the rates probed after the first
// third, once the staircase has walked away from where the bisection
// started it: the staircase climbs while the host is quiet and sinks
// while it is disturbed, so its upper quartile is the rate the program
// sustains when it has the machine, mirroring lowQuartile for times.
func (s *staircase) knee() float64 {
	t := s.tried[len(s.tried)/3:]
	neg := make([]float64, len(t))
	for i, r := range t {
		neg[i] = -r
	}
	return -lowQuartile(neg)
}

// generatorBound reports whether a knee is limited by the load
// generator rather than the program: the bisection never failed below
// the top of its range, or the knee is within 20% of the rate the
// generator can drive against a trivial endpoint.
func generatorBound(c capResult, knee, ceiling float64) bool {
	return c.Bound || knee >= 0.8*ceiling
}

// backlogGrew reports a queue that kept growing across a probe: the
// median latency of the last quarter of requests (by intended start)
// exceeds both twice the first quarter's and a quarter of the limit.
func backlogGrew(byStart []time.Duration, limit time.Duration) bool {
	q := len(byStart) / 4
	if q < 1 {
		return false
	}
	first := nearestRank(sortedCopy(byStart[:q]), 0.5)
	last := nearestRank(sortedCopy(byStart[len(byStart)-q:]), 0.5)
	return last > 2*first && last > limit/4
}

// procStat is the CPU and memory of one process, read from /proc.
type procStat struct {
	CPU    time.Duration // utime + stime
	HWMKiB int64         // VmHWM: peak resident set
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStat extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat line has no command field: %q", line)
	}
	f := strings.Fields(line[i+1:])
	// After the command: state(3) ... utime(14) stime(15); f[0] is field 3.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line too short: %d fields after command", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// parseVmHWM extracts the VmHWM line of /proc/<pid>/status, in KiB.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// gcTrace sums the GODEBUG=gctrace=1 lines a Go process writes to
// stderr: one line per cycle, "gc N @Ts P%: A+B+C ms clock, ...", where
// A and C are the two stop-the-world pauses.
type gcTrace struct {
	Cycles int
	Pause  time.Duration
}

func (g *gcTrace) add(line string) {
	if !strings.HasPrefix(line, "gc ") {
		return
	}
	_, rest, ok := strings.Cut(line, ": ")
	if !ok {
		return
	}
	clock, _, ok := strings.Cut(rest, " ms clock")
	if !ok {
		return
	}
	parts := strings.Split(clock, "+")
	if len(parts) != 3 {
		return
	}
	a, err1 := strconv.ParseFloat(parts[0], 64)
	c, err2 := strconv.ParseFloat(parts[2], 64)
	if err1 != nil || err2 != nil {
		return
	}
	g.Cycles++
	g.Pause += time.Duration((a + c) * float64(time.Millisecond))
}

// calibrate times a fixed pure-Go integer loop: a host-speed marker
// taken before and after each run, so a uniform shift in every
// throughput metric reads as host drift rather than a program change.
func calibrate() time.Duration {
	const rounds = 5
	var times []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		x := uint64(r + 1)
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		times = append(times, float64(time.Since(start)))
	}
	return time.Duration(median(times))
}

var calibSink uint64
