package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's metrics, its operation counts, and
// human-readable notes printed ahead of the JSON line.
type result struct {
	metrics   map[string]metric
	notes     []string
	attempted int
	failed    int
	checksOK  bool
}

func newResult() *result { return &result{metrics: map[string]metric{}, checksOK: true} }

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// fail records a failed output check that is not tied to one operation.
func (r *result) fail(format string, a ...any) {
	r.checksOK = false
	r.note("CHECK FAILED: "+format, a...)
}

// write prints the notes, one line per metric, and the final JSON line.
func (r *result) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.checksOK && r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// declared is the metric and workload lists of BENCHMARK.json, which a
// run's output must match name for name and unit for unit.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(path string) (declared, error) {
	var d declared
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// matches reports any metric missing from, extra to, or in another unit
// than the declared list.
func (r *result) matches(want []declaredMetric) error {
	var problems []string
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		got, ok := r.metrics[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case got.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", m.Name, got.Unit, m.Unit))
		}
	}
	for n := range r.metrics {
		if !seen[n] {
			problems = append(problems, "undeclared "+n)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics do not match BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// span is one timed interval around a call into a layer. Spans of one
// request share Req, the index of the request's root span.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the causing span, -1 for roots
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per boundary.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) begin(name string, parent int) int { return l.beginAt(name, parent, time.Now()) }

// beginAt opens a span that started at t and returns its index.
func (l *spanLog) beginAt(name string, parent int, t time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := len(l.spans)
	req := i
	if parent >= 0 {
		req = l.spans[parent].Req
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Req: req, Start: int64(t.Sub(l.origin))})
	return i
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := int64(time.Since(l.origin))
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// selfTime sums, per span name, each span's duration minus the part
// its direct children cover.
func (l *spanLog) selfTime() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range l.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// save writes the spans as JSON to path.
func (l *spanLog) save(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
