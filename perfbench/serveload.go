package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beacongnn/internal/loadgen"
	"beacongnn/internal/sim"
)

// serveSpec fixes one serving workload. Every request is a BG-2
// simulate over one of the five paper datasets; classes are drawn
// Zipf(hotClasses, zipfSkew) and map to a dataset and, for serve-hit,
// a fixed read-latency override that makes each class a distinct key.
type serveSpec struct {
	hit       bool // true: every measured request is a memo hit
	batches   int
	batchSize int // 0 keeps the paper's 64

	refRate  float64       // fixed light-load rate (1/s), far below saturation
	refShare float64       // of each round spent at refRate, or longer to reach minRefSamples
	p99Limit time.Duration // capacity rule's tail limit, several times unloaded p99
	setups   int           // set-ups per run; setup_s is their median
	fill     int           // untimed closed-loop requests after set-up, before any measurement
	batchOps int           // closed-loop batch behind wall_s / cpu_s, per round
}

var serveSpecs = map[string]serveSpec{
	// The reference rate is about a fifth of the ~3 000 qps knee: light
	// enough that two in-flight slots rarely queue, fast enough that
	// every 5 s round adds more than one p99 window of 1 010 samples.
	"serve-hit": {
		hit: true, batches: 2,
		refRate: 600, refShare: 0.5, p99Limit: 50 * time.Millisecond,
		setups: 5, batchOps: 2400,
	},
	// Misses simulate one target (one batch of one): the miss path and a
	// whole simulation per request for about the CPU of a hit. Misses of
	// 8 targets took ~4 ms, and their latency and capacity moved 20-40%
	// with the host's state from one run to the next, as a batch
	// reproduction's did; the hit path moved 10-15%.
	// The fill overflows the 512-entry memo before timing: until it is
	// full the daemon neither evicts nor holds its steady heap.
	"serve-miss": {
		hit: false, batches: 1, batchSize: 1,
		refRate: 600, refShare: 0.5, p99Limit: 50 * time.Millisecond,
		setups: 9, fill: 640, batchOps: 1200,
	},
}

var datasets = []string{"reddit", "amazon", "movielens", "OGBN", "PPI"}

const (
	hotClasses = 40
	zipfSkew   = 1.1
	baseReadNs = 3000 // config.Default's flash read latency
	missSpan   = 10_000
)

// serveRun is one invocation of a serving workload against one daemon.
type serveRun struct {
	spec  serveSpec
	seed  uint64
	conns int
	d     *daemon
	spans *spanLog

	hitBodies [][]byte // per class
	hitRefs   [][]byte // per class: the warm-up hit response
	missSeq   atomic.Int64

	attempted, failed atomic.Int64
	sampleMu          sync.Mutex
	missSamples       []missSample // first few miss responses, traced runs only
}

type missSample struct {
	dataset string
	readNs  int64
	body    []byte
}

func (r *serveRun) classDataset(class int) string { return datasets[class%len(datasets)] }

// hitReadNs is class's read-latency override: unique to the class (and
// shifted by the seed), it makes each class its own key.
func (r *serveRun) hitReadNs(class int) int64 {
	return int64(baseReadNs + 1 + class + hotClasses*int(r.seed%50))
}

// hitBody is class's fixed request.
func (r *serveRun) hitBody(class int) []byte {
	return []byte(fmt.Sprintf(`{"platform":"BG-2","dataset":%q,"nodes":2000,"batches":%d,"read_latency_ns":%d}`,
		r.classDataset(class), r.spec.batches, r.hitReadNs(class)))
}

// sampleMiss keeps the first few miss responses of a traced run, which
// the run compares with a direct simulation of the same config.
func (r *serveRun) sampleMiss(ds string, readNs int64, out []byte) {
	if r.spans == nil {
		return
	}
	r.sampleMu.Lock()
	defer r.sampleMu.Unlock()
	if len(r.missSamples) < 3 {
		r.missSamples = append(r.missSamples, missSample{ds, readNs, bytes.Clone(out)})
	}
}

// missBody draws a read latency unused in the last missSpan requests
// (far beyond the 512-entry memo, so every request misses): a
// seed-shifted walk clear of the hit classes' range.
func (r *serveRun) missBody(class int) ([]byte, string, int64) {
	i := r.missSeq.Add(1)
	ns := int64(2*baseReadNs) + (int64(r.seed%missSpan)*7919+i)%missSpan
	ds := r.classDataset(class)
	return []byte(fmt.Sprintf(`{"platform":"BG-2","dataset":%q,"nodes":2000,"batches":%d,"batch_size":%d,"read_latency_ns":%d}`,
		ds, r.spec.batches, r.spec.batchSize, ns)), ds, ns
}

// do sends one request for class and checks its response, returning
// whether it succeeded with correct output.
func (r *serveRun) do(ctx context.Context, class int, parent int) bool {
	r.attempted.Add(1)
	var body []byte
	var ds string
	var ns int64
	if r.spec.hit {
		body = r.hitBodies[class]
	} else {
		body, ds, ns = r.missBody(class)
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	rt := r.spans.begin("http.roundtrip", parent)
	code, xc, out, err := r.d.post(ctx, body, buf)
	r.spans.end(rt)
	ck := r.spans.begin("check", parent)
	ok := err == nil && code == http.StatusOK
	if ok && r.spec.hit {
		ok = xc == "hit" && equalOutsideWall(out, r.hitRefs[class])
	} else if ok {
		ok = xc == "miss" && r.missShapeOK(out, ds)
		if ok {
			r.sampleMiss(ds, ns, out)
		}
	}
	r.spans.end(ck)
	if !ok {
		r.failed.Add(1)
	}
	return ok
}

// missShapeOK checks a miss response echoes the request and carries
// exactly the requested targets.
func (r *serveRun) missShapeOK(out []byte, ds string) bool {
	head := fmt.Sprintf(`{"platform":"BG-2","dataset":%q,"nodes":2000,"batches":%d,"cached":false,"wall_ms":`, ds, r.spec.batches)
	targets := fmt.Sprintf(`"Targets":%d,`, r.spec.batches*r.spec.batchSize)
	return bytes.HasPrefix(out, []byte(head)) && bytes.Contains(out, []byte(targets))
}

// equalOutsideWall compares two simulate responses byte for byte
// except the wall_ms value, which is the handler's own wall time and
// differs on every response by design.
func equalOutsideWall(a, b []byte) bool {
	key := []byte(`"wall_ms":`)
	i, j := bytes.Index(a, key), bytes.Index(b, key)
	if i < 0 || i != j || !bytes.Equal(a[:i], b[:j]) {
		return false
	}
	ae, be := bytes.IndexByte(a[i:], ','), bytes.IndexByte(b[j:], ',')
	return ae >= 0 && be >= 0 && bytes.Equal(a[i+ae:], b[j+be:])
}

// warm performs the workload's set-up on a fresh daemon: every hot key
// fetched (a miss, sampled in traced runs, then the hit kept as that
// key's reference) for serve-hit; one request per dataset for
// serve-miss, so all five instances are materialized.
func (r *serveRun) warm(ctx context.Context) error {
	if !r.spec.hit {
		for c := range datasets {
			if !r.do(ctx, c, -1) {
				return fmt.Errorf("warm-up miss for %s failed", datasets[c])
			}
		}
		return nil
	}
	r.hitRefs = make([][]byte, hotClasses)
	errs := make(chan error, hotClasses)
	sem := make(chan struct{}, r.conns)
	var wg sync.WaitGroup
	for c := 0; c < hotClasses; c++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(c int) {
			defer func() { <-sem; wg.Done() }()
			for i, want := range []string{"miss", "hit"} {
				r.attempted.Add(1)
				code, xc, out, err := r.d.post(ctx, r.hitBodies[c], bytes.NewBuffer(nil))
				if err != nil || code != http.StatusOK || xc != want {
					r.failed.Add(1)
					errs <- fmt.Errorf("warm-up %s of class %d: status %d cache %q err %v", want, c, code, xc, err)
					return
				}
				if i == 0 {
					r.sampleMiss(r.classDataset(c), r.hitReadNs(c), out)
				} else {
					r.hitRefs[c] = out
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// phase is one open-loop replay of a schedule.
type phase struct {
	res loadgen.LiveResult
	lat []time.Duration // by request ID; <0 for failed requests
}

// ok returns the latencies of successful requests in intended-start order.
func (p phase) ok() []time.Duration {
	out := make([]time.Duration, 0, len(p.lat))
	for _, l := range p.lat {
		if l >= 0 {
			out = append(out, l)
		}
	}
	return out
}

// replay offers sched open-loop through loadgen.RunLive with at most
// conns requests in flight. Latency runs from each request's intended
// start, so a stalled daemon cannot hide the wait it imposes.
func (r *serveRun) replay(ctx context.Context, sched []loadgen.Request) (phase, error) {
	p := phase{lat: make([]time.Duration, len(sched))}
	start := time.Now()
	backend := loadgen.LiveFunc(func(req loadgen.Request) loadgen.Outcome {
		intended := start.Add(time.Duration(req.At))
		root := r.spans.beginAt("request", -1, intended)
		q := r.spans.beginAt("gen.queue", root, intended)
		r.spans.end(q)
		ok := r.do(ctx, req.Class, root)
		r.spans.end(root)
		if !ok {
			p.lat[req.ID] = -1
			return loadgen.OutcomeFailed
		}
		p.lat[req.ID] = time.Since(intended)
		return loadgen.OutcomeOK
	})
	res, err := loadgen.RunLive(sched, backend, loadgen.LiveConfig{MaxInflight: r.conns})
	p.res = res
	return p, err
}

// schedule builds n Poisson arrivals at rate with Zipf class picks;
// salt separates the phases of one run. The arrival times are scaled so
// the last falls exactly at n/rate: a Poisson process conditioned on
// its count, so a short probe offers its nominal rate rather than one
// that is off by the count's own ±1/√n.
func (r *serveRun) schedule(rate float64, n int, salt uint64) ([]loadgen.Request, error) {
	sched, err := loadgen.Build(loadgen.ScheduleSpec{
		Seed:     r.seed*1_000_003 + salt,
		Arrival:  loadgen.Spec{Kind: loadgen.ArrivalPoisson, Rate: rate},
		Requests: n,
		Classes:  hotClasses,
		Skew:     zipfSkew,
	})
	if err != nil {
		return nil, err
	}
	scale := float64(n) / rate * float64(time.Second) / float64(sched[n-1].At)
	for i := range sched {
		sched[i].At = sim.Time(math.Round(float64(sched[i].At) * scale))
	}
	return sched, nil
}

// ceiling measures the generator's own limit: the goodput RunLive
// reaches against /healthz, which does no work, with the same
// connection count. A knee near it is the generator's, not the daemon's.
func (r *serveRun) ceiling(ctx context.Context) (float64, error) {
	sched, err := loadgen.Build(loadgen.ScheduleSpec{
		Seed:     r.seed,
		Arrival:  loadgen.Spec{Kind: loadgen.ArrivalUniform, Rate: 1e6},
		Requests: 4000,
		Classes:  1,
	})
	if err != nil {
		return 0, err
	}
	backend := loadgen.LiveFunc(func(loadgen.Request) loadgen.Outcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.d.base+"/healthz", nil)
		if err != nil {
			return loadgen.OutcomeFailed
		}
		resp, err := r.d.client.Do(req)
		if err != nil {
			return loadgen.OutcomeFailed
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return loadgen.OutcomeFailed
		}
		return loadgen.OutcomeOK
	})
	res, err := loadgen.RunLive(sched, backend, loadgen.LiveConfig{MaxInflight: r.conns})
	if err != nil {
		return 0, err
	}
	if res.Failed > 0 {
		return 0, fmt.Errorf("%d of %d /healthz probes failed", res.Failed, res.Requests)
	}
	return res.GoodputQPS, nil
}

// probe offers rate for about dur and summarizes it for the knee rule.
func (r *serveRun) probe(ctx context.Context, rate float64, dur time.Duration, salt uint64) (step, error) {
	n := int(math.Ceil(rate * dur.Seconds()))
	sched, err := r.schedule(rate, max(n, 20), salt)
	if err != nil {
		return step{}, err
	}
	p, err := r.replay(ctx, sched)
	if err != nil {
		return step{}, err
	}
	byStart := make([]time.Duration, len(p.lat))
	for i, l := range p.lat {
		if l < 0 {
			l = time.Duration(math.MaxInt64) // a failure misses every limit
		}
		byStart[i] = l
	}
	// A short probe's makespan ends with its last requests' own
	// latency; take the median latency off it so a stable daemon reads
	// as keeping up rather than as a goodput deficit of latency/duration.
	lat := sortedCopy(byStart)
	span := p.res.MakespanNs - int64(nearestRank(lat, 0.5))
	goodput := p.res.GoodputQPS
	if span > 0 {
		goodput = float64(p.res.OK) / time.Duration(span).Seconds()
	}
	return step{
		Offered: p.res.OfferedQPS,
		Goodput: goodput,
		P99:     nearestRank(lat, 0.99),
		Backlog: backlogGrew(byStart, r.spec.p99Limit),
	}, nil
}

// closedBatch pushes a fixed batch of requests through conns
// connections as fast as the daemon answers: the batch job's makespan.
func (r *serveRun) closedBatch(ctx context.Context, n int, salt uint64) (time.Duration, error) {
	sched, err := r.schedule(r.spec.refRate, n, 50+salt)
	if err != nil {
		return 0, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				r.do(ctx, sched[i].Class, -1)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), nil
}

// newServeRun prepares request bodies for spec under seed.
func newServeRun(spec serveSpec, seed uint64, conns int, spans *spanLog) *serveRun {
	r := &serveRun{spec: spec, seed: seed, conns: conns, spans: spans}
	if spec.hit {
		for c := 0; c < hotClasses; c++ {
			r.hitBodies = append(r.hitBodies, r.hitBody(c))
		}
	}
	return r
}

// setUp starts a daemon and warms it, returning the set-up time.
func (r *serveRun) setUp(ctx context.Context, bin string, gctrace bool) (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin, r.conns, gctrace)
	if err != nil {
		return 0, err
	}
	r.d = d
	if err := r.warm(ctx); err != nil {
		_ = d.stop()
		return 0, err
	}
	return time.Since(start), nil
}

// Round structure of a serving run: the budget is split into rounds of
// about roundSeconds, each a reference segment, a few capacity probes
// and a closed-loop batch, so every metric samples the whole run and is reported from
// the less disturbed rounds. A host that slows for a few seconds then
// moves one round of each metric instead of all of one metric.
const (
	roundSeconds   = 5
	bisectProbes   = 5
	stairProbes    = 3 // per round
	stairStep      = 0.03
	minRefSamples  = 1010
	batchShare     = 0.1 // of a round, roughly; batches are fixed in size
	minProbeDur    = 500 * time.Millisecond
	bisectProbeDur = 750 * time.Millisecond
)

// serveE2E runs one untraced serving workload and returns its metrics.
func serveE2E(ctx context.Context, spec serveSpec, o runOpts) (*result, error) {
	r := newServeRun(spec, o.seed, o.conns, nil)
	res := newResult()
	rounds := max(3, o.seconds/roundSeconds)
	round := time.Duration(o.seconds) * time.Second / time.Duration(rounds)

	var setups []float64
	for i := 0; i < spec.setups; i++ {
		if r.d != nil {
			if err := r.d.stop(); err != nil {
				return nil, err
			}
		}
		s, err := r.setUp(ctx, o.daemonBin, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
	}
	defer func() { _ = r.d.stop() }()
	res.set("setup_s", median(setups), "s")
	if spec.fill > 0 {
		if _, err := r.closedBatch(ctx, spec.fill, 1000); err != nil {
			return nil, err
		}
	}

	ceiling, err := r.ceiling(ctx)
	if err != nil {
		return nil, err
	}
	res.note("generator ceiling %.0f qps against /healthz with %d connections", ceiling, r.conns)

	// Capacity, coarse: bisect between the reference rate and the
	// generator's ceiling; the rounds' staircase refines it.
	rule := capRule{GoodputFrac: 0.97, P99Limit: spec.p99Limit}
	salt := uint64(100)
	var probeErr error
	probe := func(rate float64, dur time.Duration) step {
		salt++
		s, err := r.probe(ctx, rate, dur, salt)
		if err != nil && probeErr == nil {
			probeErr = err
		}
		return s
	}
	cr := searchCapacity(spec.refRate, ceiling, bisectProbes, rule,
		func(rate float64) step { return probe(rate, bisectProbeDur) })
	if probeErr != nil {
		return nil, probeErr
	}
	stair := &staircase{rate: cr.Knee, step: stairStep}

	// At least minRefSamples in all, so a pooled p99 has ten beyond it;
	// the probes take what the reference segment leaves of the round.
	refN := max(int(math.Ceil(spec.refRate*spec.refShare*round.Seconds())), minRefSamples/rounds+1)
	refDur := time.Duration(float64(refN) / spec.refRate * float64(time.Second))
	probeDur := max(minProbeDur, (round-refDur-time.Duration(batchShare*float64(round)))/stairProbes)
	var p50s, p90s, walls, batchCPU []float64
	var refCPU time.Duration
	var refOK int
	var pooled []time.Duration
	var late, sent int
	var probes []string
	for i := 0; i < rounds; i++ {
		sched, err := r.schedule(spec.refRate, refN, uint64(i))
		if err != nil {
			return nil, err
		}
		st0, err := r.d.stat()
		if err != nil {
			return nil, err
		}
		ref, err := r.replay(ctx, sched)
		if err != nil {
			return nil, err
		}
		st1, err := r.d.stat()
		if err != nil {
			return nil, err
		}
		lat := ref.ok()
		pooled = append(pooled, lat...)
		p50s = append(p50s, ms(nearestRank(sortedCopy(lat), 0.5)))
		p90, err := percentile(lat, 0.9)
		if err != nil {
			return nil, fmt.Errorf("reference round %d: %w", i, err)
		}
		p90s = append(p90s, ms(p90))
		refCPU += st1.CPU - st0.CPU
		refOK += ref.res.OK
		late, sent = late+ref.res.LateSends, sent+len(sched)

		for j := 0; j < stairProbes; j++ {
			s := probe(stair.rate, probeDur)
			stair.record(rule.ok(s))
			probes = append(probes, fmt.Sprintf("%.0f:%.0f/%.0fms/%v", s.Offered, s.Goodput, ms(s.P99), rule.ok(s)))
		}
		if probeErr != nil {
			return nil, probeErr
		}

		st0, err = r.d.stat()
		if err != nil {
			return nil, err
		}
		wall, err := r.closedBatch(ctx, spec.batchOps, uint64(i))
		if err != nil {
			return nil, err
		}
		st1, err = r.d.stat()
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		batchCPU = append(batchCPU, (st1.CPU - st0.CPU).Seconds())
	}

	// The p99s of consecutive windows of minRefSamples, so each has ten
	// samples beyond it, are a note, not a metric: on the development
	// host a whole run's windows can sit two to five times the usual
	// p99 while p50, p90 and throughput stay put, so across runs the p99
	// spread 30-66% of its median, past any bound a regression check can
	// use. p90 moves with the program and barely with those spells.
	windows := max(1, len(pooled)/minRefSamples)
	p99s, err := windowQuantiles(pooled, windows, 0.99)
	if err != nil {
		return nil, fmt.Errorf("reference phase: %w", err)
	}
	stat, err := r.d.stat()
	if err != nil {
		return nil, err
	}
	knee := stair.knee()
	res.set("p50_ms", lowQuartile(p50s), "ms")
	res.set("p90_ms", lowQuartile(p90s), "ms")
	// Summed over the rounds, for the same reason as cpu_s below.
	res.set("cpu_ms_per_req", ms(refCPU)/float64(max(1, refOK)), "ms")
	res.set("capacity_qps", knee, "1/s")
	res.set("wall_s", lowQuartile(walls), "s")
	// /proc counts CPU in 10 ms ticks; the mean over rounds keeps a
	// batch's ~0.3 s from reading the same tick count on every run.
	res.set("cpu_s", sum(batchCPU)/float64(rounds), "s")
	res.set("rss_mb", float64(stat.HWMKiB)/1024, "MB")
	res.note("reference: %d rounds of %d requests at %.0f qps (%d samples), late share %.3f; p99 of %d windows: %s ms",
		rounds, refN, spec.refRate, len(pooled), float64(late)/float64(sent), windows, formatList(p99s, float64(time.Millisecond)))
	res.note("capacity: bisection to %.1f qps (range to %.0f), staircase upper quartile %.1f qps over %d probes, generator-bound: %v",
		cr.Knee, cr.Upper, knee, len(stair.tried), generatorBound(cr, knee, ceiling))
	res.note("staircase probes (offered:goodput/p99/pass): %s", strings.Join(probes, " "))
	res.note("closed-loop batch: %d requests per round, low-quartile makespan %.3fs", spec.batchOps, lowQuartile(walls))

	res.attempted, res.failed = int(r.attempted.Load()), int(r.failed.Load())
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// formatList formats values, divided by unit, for a note.
func formatList(v []float64, unit float64) string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.2f", x/unit)
	}
	return strings.Join(out, " ")
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
