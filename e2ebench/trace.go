package main

// Tracing for the --trace 1 run. The benchmark records a span around
// each call it makes into a layer (in process, or over loopback), keeps
// the spans in memory and writes them out when the run ends. For the
// stages that run only inside a server it reads the span trees the
// servers return under ?trace=1; nothing is added inside the program.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side span; Remote holds a server's own span
// tree for a traced HTTP round trip.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"` // 0: none
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"`
	EndNs   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Remote  *traceJSON        `json:"remote,omitempty"`
}

type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, StartNs: time.Since(r.t0).Nanoseconds()})
	return len(r.spans)
}

// end closes a span, with attributes and a server span tree.
func (r *recorder) end(id int, attrs map[string]string, remote *traceJSON) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = time.Since(r.t0).Nanoseconds()
	s.Attrs, s.Remote = attrs, remote
	return time.Duration(s.EndNs - s.StartNs)
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durs returns the durations of the spans with a name.
func (r *recorder) durs(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

func (rc *runCtx) traceFile(workload string) string {
	return filepath.Join(rc.out, fmt.Sprintf("%s-seed%d.json", workload, rc.seed))
}

// traceJSON and spanJSON decode the span trees servers return.
type traceJSON struct {
	TotalNs int64      `json:"total_ns"`
	Spans   []spanJSON `json:"spans"`
}

type spanJSON struct {
	Name     string            `json:"name"`
	StartNs  int64             `json:"start_ns"`
	DurNs    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs"`
	Remote   *traceJSON        `json:"remote"`
	Children []spanJSON        `json:"children"`
}

// find returns the first span with a name, depth first.
func (t *traceJSON) find(name string) *spanJSON {
	if t == nil {
		return nil
	}
	for i := range t.Spans {
		if s := t.Spans[i].find(name); s != nil {
			return s
		}
	}
	return nil
}

func (s *spanJSON) find(name string) *spanJSON {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if c := s.Children[i].find(name); c != nil {
			return c
		}
	}
	return nil
}

// mean returns the mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

// perLayer lists every per-layer metric with its unit. Each traced run
// prints all of them; a layer a workload does not run reads 0.
var perLayer = []struct{ name, unit string }{
	{"xmltree.parse_ms_per_mb", "ms/MB"},
	{"xmltree.index_ms", "ms"},
	{"xpath.compile_us", "us"},
	{"engine.cache_hits", "count"},
	{"engine.cache_misses", "count"},
	{"engine.cache_evictions", "count"},
	{"engine.cache_rejects", "count"},
	{"engine.cache_lookups", "count"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.fallbacks", "count"},
	{"planner.decisions", "count"},
	{"planner.explored", "count"},
	{"planner.bans", "count"},
	{"planner.route_us", "us"},
	{"planner.explored_eval_s", "s"},
	{"planner.eval_s", "s"},
	{"planner.explored_time_share", "ratio"},
	{"corexpath.eval_ms", "ms"},
	{"xpatterns.eval_ms", "ms"},
	{"wadler.eval_ms", "ms"},
	{"topdown.eval_ms", "ms"},
	{"mincontext.eval_ms", "ms"},
	{"bottomup.eval_ms", "ms"},
	{"corexpath.calls", "count"},
	{"xpatterns.calls", "count"},
	{"wadler.calls", "count"},
	{"topdown.calls", "count"},
	{"mincontext.calls", "count"},
	{"bottomup.calls", "count"},
	{"core.wrapped_bare_ratio", "ratio"},
	{"bottomup.cancel_lag_ms", "ms"},
	{"serve.pre_eval_us", "us"},
	{"serve.serialize_us", "us"},
	{"serve.wire_us", "us"},
	{"serve.response_bytes", "bytes"},
	{"store.bytes", "bytes"},
	{"cluster.hop_us", "us"},
	{"cluster.answer_hits", "count"},
	{"cluster.answer_misses", "count"},
	{"cluster.answer_invalidations", "count"},
	{"cluster.answer_hit_ratio", "ratio"},
	{"cluster.replicated", "count"},
	{"cluster.retries", "count"},
	{"cluster.retry_denied", "count"},
	{"cluster.repair_rounds", "count"},
	{"cluster.batch_p50_ms", "ms"},
	{"cluster.write_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics turns measured per-layer values into the result's
// metrics, filling every listed metric.
func layerMetrics(res *result, vals map[string]float64) error {
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	for k := range vals {
		if _, ok := units[k]; !ok {
			return fmt.Errorf("per-layer metric %q is not listed", k)
		}
	}
	return nil
}

// layerOf names the per-layer metric prefix of a strategy.
var layerOf = map[string]string{
	"corexpath":     "corexpath",
	"xpatterns":     "xpatterns",
	"optmincontext": "wadler",
	"topdown":       "topdown",
	"mincontext":    "mincontext",
	"bottomup":      "bottomup",
}

// overheadPct compares the traced window's throughput with the
// untraced one's.
func overheadPct(untraced, traced float64) float64 {
	if traced == 0 {
		return 0
	}
	return (untraced/traced - 1) * 100
}
