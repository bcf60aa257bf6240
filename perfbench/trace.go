package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"beacongnn/internal/config"
	"beacongnn/internal/core"
	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/exp"
	"beacongnn/internal/graph"
	"beacongnn/internal/platform"
	"beacongnn/internal/serve"
	"beacongnn/internal/sim"
)

// The canonical request of the in-process layer measurements: the
// shape of the repository's BenchmarkRequestPath, on fixed inputs, so
// every deterministic count repeats exactly whatever the run's seed.
const (
	canonBody     = `{"platform":"BG-2","dataset":"amazon","nodes":2000,"batches":2}`
	canonDataset  = "amazon"
	canonNodes    = 2000
	canonBatches  = 2
	timelinePts   = 1024 // serve's simulate timeline resolution
	layerRequests = 2000
)

// tracedResources are the simulated resources whose spans, busy time
// and wait time the traced run reports.
var tracedResources = []string{"flash.die", "flash.sampler", "flash.channel", "firmware.cores", "host.cpu", "accel.queue"}

// coreTimed are the experiments that take longest sequentially: all
// but table4 take over ~50 ms at quick scale.
var coreTimed = []string{"fig14", "fig18", "trad", "table4", "ext", "reliab", "sched", "chaos", "cluster"}

// traceRun is the per-layer run: a short traced pass of the workload's
// own live part, then the in-process layer measurements shared by every
// workload. Spans are written to the output directory at the end.
func traceRun(ctx context.Context, o runOpts) (*result, error) {
	res := newResult()
	spans := newSpanLog()
	var err error
	if spec, ok := serveSpecs[o.workload]; ok {
		err = traceServe(ctx, spec, o, spans, res)
	} else {
		err = traceReproduce(ctx, o, spans, res)
	}
	if err != nil {
		return nil, err
	}
	for _, layer := range []func(context.Context, *spanLog, *result) error{
		layerServe, layerDataset, layerPlatform, layerCore,
	} {
		if err := layer(ctx, spans, res); err != nil {
			return nil, err
		}
	}
	path := spanPath(o)
	if err := spans.save(path); err != nil {
		return nil, err
	}
	res.note("spans written to %s", path)
	return res, nil
}

// traceServe replays a short reference phase against a daemon with
// gctrace on, reporting the generator's honesty and the daemon's
// memo and GC activity over the phase.
func traceServe(ctx context.Context, spec serveSpec, o runOpts, spans *spanLog, res *result) error {
	r := newServeRun(spec, o.seed, o.conns, spans)
	if _, err := r.setUp(ctx, o.daemonBin, true); err != nil {
		return err
	}
	defer func() { _ = r.d.stop() }()
	ceiling, err := r.ceiling(ctx)
	if err != nil {
		return err
	}
	// Enough misses to overflow the daemon's 512-entry memo.
	n := 1500
	if !spec.hit {
		n = 600
	}
	sched, err := r.schedule(spec.refRate, n, 1)
	if err != nil {
		return err
	}
	counters := []string{"beaconserved_cache_hits_total", "beaconserved_cache_misses_total", "beaconserved_cache_evictions_total"}
	m0, err := r.d.metrics(counters...)
	if err != nil {
		return err
	}
	gc0 := r.d.log.gcSnapshot()
	p, err := r.replay(ctx, sched)
	if err != nil {
		return err
	}
	gc1 := r.d.log.gcSnapshot()
	m1, err := r.d.metrics(counters...)
	if err != nil {
		return err
	}
	res.set("loadgen.ceiling_qps", ceiling, "1/s")
	res.set("loadgen.late_share", float64(p.res.LateSends)/float64(len(sched)), "ratio")
	res.set("serve.hits", m1[counters[0]]-m0[counters[0]], "count")
	res.set("serve.misses", m1[counters[1]]-m0[counters[1]], "count")
	res.set("serve.evictions", m1[counters[2]]-m0[counters[2]], "count")
	res.set("runtime.gc_cycles", float64(gc1.Cycles-gc0.Cycles), "count")
	res.set("runtime.gc_pause_ms", ms(gc1.Pause-gc0.Pause), "ms")
	for name, d := range spans.selfTime() {
		res.note("generator self time %-16s %.3fs", name, d.Seconds())
	}
	for _, s := range r.missSamples {
		res.attempted++
		if err := checkDirect(ctx, s.body, s.dataset, s.readNs, spec.batches, spec.batchSize); err != nil {
			res.failed++
			res.fail("live miss vs in-process simulation: %v", err)
		}
	}
	res.note("compared %d sampled live misses with a direct simulation", len(r.missSamples))
	res.attempted += int(r.attempted.Load())
	res.failed += int(r.failed.Load())
	return nil
}

// traceReproduce runs one reproduction with gctrace on. This workload
// has no daemon and no generator, so those metrics read zero.
func traceReproduce(ctx context.Context, o runOpts, spans *spanLog, res *result) error {
	sp := spans.begin("reproduce", -1)
	rr, err := spawnReproduction(ctx, o.self, true)
	spans.end(sp)
	res.attempted += len(core.AllExperiments())
	if err != nil {
		return err
	}
	res.set("loadgen.ceiling_qps", 0, "1/s")
	res.set("loadgen.late_share", 0, "ratio")
	for _, n := range []string{"serve.hits", "serve.misses", "serve.evictions"} {
		res.set(n, 0, "count")
	}
	res.set("runtime.gc_cycles", float64(rr.gc.Cycles), "count")
	res.set("runtime.gc_pause_ms", ms(rr.gc.Pause), "ms")
	res.note("reproduction sha256 %s", rr.out.Digest)
	return nil
}

// post sends body to the in-process server.
func post(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// perOp times fn over n calls and returns the mean in microseconds.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(n)
}

// layerServe splits one memo-hit request through serve.Server into the
// stages it crosses, each timed by calling that stage's public code
// directly, and checks sampled misses against a direct simulation.
func layerServe(ctx context.Context, spans *spanLog, res *result) error {
	srv := serve.New(serve.Config{})
	if w := post(srv, canonBody); w.Code != http.StatusOK {
		return fmt.Errorf("in-process warm-up: status %d: %s", w.Code, w.Body)
	}
	hit := func() {
		res.attempted++
		if w := post(srv, canonBody); w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
			res.failed++
		}
	}
	perOp(layerRequests/10, hit) // warm pools and caches before timing
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	handler := perOp(layerRequests, hit)
	runtime.ReadMemStats(&m1)
	traced := perOp(layerRequests, func() {
		sp := spans.begin("serve.handler", -1)
		hit()
		spans.end(sp)
	})
	w := post(srv, canonBody)

	var req serve.SimRequest
	decode := perOp(layerRequests, func() {
		dec := json.NewDecoder(strings.NewReader(canonBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			res.fail("decode: %v", err)
		}
	})
	cfg := config.Default()
	desc, err := dataset.ByName(canonDataset)
	if err != nil {
		return err
	}
	inst, err := dataset.Materialize(desc, canonNodes, cfg.Flash.PageSize, cfg.Seed)
	if err != nil {
		return err
	}
	var key exp.SimKey
	keyUs := perOp(layerRequests, func() { key = exp.Key(platform.BG2, cfg, inst, canonBatches, timelinePts) })
	eng := exp.New(0)
	eng.SetMemoCap(512)
	simRes, err := eng.SimulateCtx(ctx, platform.BG2, cfg, inst, canonBatches, timelinePts)
	if err != nil {
		return err
	}
	memo := perOp(layerRequests, func() {
		if !eng.Cached(key) {
			res.fail("memo lookup missed a resident key")
		}
		if _, err := eng.SimulateCtx(ctx, platform.BG2, cfg, inst, canonBatches, timelinePts); err != nil {
			res.fail("memo hit: %v", err)
		}
	})
	var buf bytes.Buffer
	resp := serve.SimResponse{Platform: simRes.Platform, Dataset: simRes.Dataset, Nodes: canonNodes, Batches: canonBatches, Cached: true, Result: simRes}
	encode := perOp(layerRequests, func() {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(resp); err != nil {
			res.fail("encode: %v", err)
		}
	})
	res.set("serve.handler_us", handler, "us")
	res.set("serve.handler_traced_us", traced, "us")
	res.set("serve.decode_us", decode, "us")
	res.set("serve.key_us", keyUs, "us")
	res.set("serve.memo_us", memo, "us")
	res.set("serve.encode_us", encode, "us")
	res.set("serve.self_us", handler-decode-keyUs-memo-encode, "us")
	res.set("serve.response_bytes", float64(w.Body.Len()), "bytes")
	res.set("serve.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/layerRequests, "count")
	res.note("tracing overhead on serve.handler: %.2f us traced vs %.2f us untraced", traced, handler)

	// Sampled misses: the daemon's answer must equal a direct simulation.
	miss := serveSpecs["serve-miss"]
	for i := 0; i < 3; i++ {
		ns := int64(7*baseReadNs + i)
		ds := datasets[i]
		body := fmt.Sprintf(`{"platform":"BG-2","dataset":%q,"nodes":2000,"batches":%d,"batch_size":%d,"read_latency_ns":%d}`,
			ds, miss.batches, miss.batchSize, ns)
		w := post(srv, body)
		res.attempted++
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			res.failed++
			res.fail("in-process miss %d: status %d cache %q", i, w.Code, w.Header().Get("X-Cache"))
			continue
		}
		if err := checkDirect(ctx, w.Body.Bytes(), ds, ns, miss.batches, miss.batchSize); err != nil {
			res.failed++
			res.fail("in-process miss vs direct simulation: %v", err)
		}
	}
	return nil
}

// checkDirect compares the result inside a simulate response with
// platform.SimulateCtx of the same configuration, encoded the same way.
func checkDirect(ctx context.Context, body []byte, ds string, readNs int64, batches, batchSize int) error {
	cfg := config.Default()
	if batchSize > 0 {
		cfg.GNN.BatchSize = batchSize
	}
	cfg.Flash.ReadLatency = sim.Time(readNs)
	desc, err := dataset.ByName(ds)
	if err != nil {
		return err
	}
	inst, err := dataset.Materialize(desc, canonNodes, cfg.Flash.PageSize, cfg.Seed)
	if err != nil {
		return err
	}
	want, err := platform.SimulateCtx(ctx, platform.BG2, cfg, inst, batches, timelinePts)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(want); err != nil {
		return err
	}
	key := []byte(`"result":`)
	i := bytes.Index(body, key)
	if i < 0 || !bytes.HasSuffix(body, []byte("}\n")) {
		return fmt.Errorf("%s: response has no result object", ds)
	}
	got := body[i+len(key) : len(body)-2]
	if !bytes.Equal(got, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))) {
		return fmt.Errorf("%s read_latency_ns %d: served result differs from the direct simulation", ds, readNs)
	}
	return nil
}

// layerDataset times graph generation, DirectGraph build and the whole
// materialization of the five datasets at the reproduction's scale
// (median of three passes).
func layerDataset(_ context.Context, spans *spanLog, res *result) error {
	cfg := config.Default()
	var gen, build, mat []float64
	pages := 0
	for pass := 0; pass < 3; pass++ {
		var g, b, m time.Duration
		pages = 0
		for _, d := range dataset.All() {
			maxDeg := min(d.MaxDegree, reproNodes-1)
			sp := spans.begin("graph.generate", -1)
			t0 := time.Now()
			gr, err := graph.Generate(graph.GenSpec{Nodes: reproNodes, AvgDegree: d.AvgDegree, MaxDegree: maxDeg,
				FeatureDim: d.FeatureDim, PowerLaw: d.PowerLaw, Seed: cfg.Seed})
			t1 := time.Now()
			spans.end(sp)
			if err != nil {
				return err
			}
			sp = spans.begin("directgraph.build", -1)
			bl, err := directgraph.BuildGraph(directgraph.Layout{PageSize: cfg.Flash.PageSize, FeatureDim: d.FeatureDim},
				gr, &directgraph.SeqAllocator{})
			t2 := time.Now()
			spans.end(sp)
			if err != nil {
				return err
			}
			sp = spans.begin("dataset.materialize", -1)
			if _, err := dataset.Materialize(d, reproNodes, cfg.Flash.PageSize, cfg.Seed); err != nil {
				return err
			}
			spans.end(sp)
			g, b, m = g+t1.Sub(t0), b+t2.Sub(t1), m+time.Since(t2)
			pages += bl.Stats.PrimaryPages + bl.Stats.SecondaryPages
		}
		gen, build, mat = append(gen, ms(g)), append(build, ms(b)), append(mat, ms(m))
	}
	res.set("graph.generate_ms", median(gen), "ms")
	res.set("directgraph.build_ms", median(build), "ms")
	res.set("dataset.materialize_ms", median(mat), "ms")
	res.set("directgraph.pages", float64(pages), "count")
	return nil
}

// resourceTally aggregates simulated spans per resource across lanes.
type resourceTally struct {
	spans      map[string]int
	busy, wait map[string]sim.Time
	total      int
}

func (t *resourceTally) ServerSpan(resource string, _ int, arrived, start, end sim.Time) {
	t.spans[resource]++
	t.busy[resource] += end - start
	t.wait[resource] += start - arrived
	t.total++
}

// layerPlatform times one canonical simulation's construction and run
// (median of five) and tallies its simulated resource activity, which
// is deterministic and must repeat exactly.
func layerPlatform(_ context.Context, spans *spanLog, res *result) error {
	cfg := config.Default()
	desc, err := dataset.ByName(canonDataset)
	if err != nil {
		return err
	}
	inst, err := dataset.Materialize(desc, canonNodes, cfg.Flash.PageSize, cfg.Seed)
	if err != nil {
		return err
	}
	var newSys, run, allocs, allocKB []float64
	var last *platform.Result
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := spans.begin("platform.simulate", -1)
		t0 := time.Now()
		sys, err := platform.NewSystem(platform.BG2, cfg, inst, timelinePts)
		if err != nil {
			return err
		}
		t1 := time.Now()
		last, err = sys.Run(canonBatches)
		t2 := time.Now()
		spans.end(sp)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		newSys = append(newSys, float64(t1.Sub(t0).Microseconds()))
		run = append(run, ms(t2.Sub(t1)))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocKB = append(allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	}
	tally := &resourceTally{spans: map[string]int{}, busy: map[string]sim.Time{}, wait: map[string]sim.Time{}}
	sys, err := platform.NewSystem(platform.BG2, cfg, inst, timelinePts)
	if err != nil {
		return err
	}
	sys.SetTracer(tally)
	traced, err := sys.Run(canonBatches)
	if err != nil {
		return err
	}
	if traced.Commands != last.Commands || traced.Elapsed != last.Elapsed {
		res.fail("traced simulation differs from untraced: %d vs %d commands", traced.Commands, last.Commands)
	}
	res.set("platform.newsystem_us", median(newSys), "us")
	res.set("platform.run_ms", median(run), "ms")
	res.set("platform.allocs_per_sim", median(allocs), "count")
	res.set("platform.alloc_kb_per_sim", median(allocKB), "KiB")
	res.set("platform.spans", float64(tally.total), "count")
	res.set("platform.host_ns_per_span", median(run)*1e6/float64(tally.total), "ns")
	for _, name := range tracedResources {
		res.set(name+".spans", float64(tally.spans[name]), "count")
		res.set(name+".busy_us", float64(tally.busy[name])/float64(sim.Microsecond), "us")
		res.set(name+".wait_us", float64(tally.wait[name])/float64(sim.Microsecond), "us")
	}
	res.set("platform.commands", float64(last.Commands), "count")
	res.set("platform.flash_reads", float64(last.FlashReads), "count")
	res.set("platform.sim_ms_per_batch", float64(last.Elapsed)/float64(sim.Millisecond)/canonBatches, "ms")
	return nil
}

// layerCore runs every experiment sequentially, at reproduce's quick
// scale, on one Options with a one-worker engine, so its memo
// statistics are exact, and times each.
func layerCore(_ context.Context, spans *spanLog, res *result) error {
	eng := exp.New(1)
	o := &core.Options{Cfg: reproConfig(), Engine: eng, Quick: true}
	times := map[string]float64{}
	var total time.Duration
	var buf bytes.Buffer
	for _, e := range core.AllExperiments() {
		buf.Reset()
		sp := spans.begin("core."+e.ID, -1)
		t0 := time.Now()
		if err := e.Run(o, &buf); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		d := time.Since(t0)
		spans.end(sp)
		times[e.ID] = d.Seconds()
		total += d
	}
	for _, id := range coreTimed {
		res.set("core."+id+"_s", times[id], "s")
	}
	res.set("core.total_s", total.Seconds(), "s")
	var slow []string
	for id, s := range times {
		if s > 0.05 {
			slow = append(slow, fmt.Sprintf("%s=%.2fs", id, s))
		}
	}
	sort.Strings(slow)
	res.note("sequential experiments over 50ms: %s", strings.Join(slow, " "))
	runs, hits := eng.Stats()
	res.set("exp.runs", float64(runs), "count")
	res.set("exp.memo_hits", float64(hits), "count")
	res.set("exp.hit_ratio", float64(hits)/float64(runs+hits), "ratio")
	return nil
}
