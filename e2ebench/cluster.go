package main

// cluster-readwrite: xpathrouter -replicas 1 in front of two xpathserve
// backends with default flags, over many small auction documents. Two
// closed-loop callers mix hot reads, parametrized lookups, /batch
// requests and re-registrations.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"
)

// Hot reads repeat a few (document, query) pairs so the router's
// answer cache hits; lookups draw ids from a range larger than the
// 1024-entry compile and answer caches.
var (
	hotQueries = []string{"count(//item)", runawayQuery, "//person[creditcard]", "sum(//current)"}
	batchPool  = append(append([]string(nil), auctionTemplates...), runawayQuery)
)

// Per-round mix of cluster-readwrite.
const (
	hotDocs          = 4 // hot reads go to the first hotDocs documents
	hotPerRound      = 24
	lookupsPerRound  = 16
	batchesPerRound  = 4
	writesPerRound   = 4
	lookupIDs        = 1536 // person ids and item ids per region
	batchDocs        = 3
	batchQueries     = 4
	clusterWarmRound = 2
)

// batchLine is one streamed line of a router /batch response.
type batchLine struct {
	Index   int        `json:"index"`
	Doc     string     `json:"doc"`
	Version uint64     `json:"version"`
	Value   *wireValue `json:"value"`
	Error   string     `json:"error"`
}

func clusterReadWrite(rc *runCtx) (*result, error) {
	docs := make([]doc, clusterDocs)
	for i := range docs {
		d, err := auctionDoc(fmt.Sprintf("c%02d", i), docSeed(rc.seed, i), clusterN)
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}

	// Set up setupReps times; keep the last cluster.
	var setup []time.Duration
	var router *proc
	var backends []*proc
	var hist *history
	for i := 0; i < setupReps; i++ {
		rc.procs.stopAll()
		start := time.Now()
		n1, err := rc.procs.start("backend n1", "xpathserve")
		if err != nil {
			return nil, err
		}
		n2, err := rc.procs.start("backend n2", "xpathserve")
		if err != nil {
			return nil, err
		}
		router, err = rc.procs.start("xpathrouter", "xpathrouter", "-peers", n1.url+","+n2.url, "-replicas", "1")
		if err != nil {
			return nil, err
		}
		backends = []*proc{n1, n2}
		for _, p := range []*proc{n1, n2, router} {
			if err := requireEmpty(p); err != nil {
				return nil, err
			}
		}
		hist = newHistory()
		for _, d := range docs {
			v, err := register(router.url, d)
			if err != nil {
				return nil, err
			}
			hist.record(d.name, v, d.tree)
		}
		setup = append(setup, time.Since(start))
	}

	check := func(name, q string) func(uint64, *wireValue) error {
		return func(ver uint64, v *wireValue) error { return hist.check(name, ver, q, v, clientDeadline) }
	}
	round := func(phase int, rec *recorder, traced bool, log *servedLog) func(int) []op {
		return func(r int) []op {
			rng := rand.New(rand.NewSource(rc.seed*7907 + int64(phase)*1_000_003 + int64(r)))
			var ops []op
			for i := 0; i < hotPerRound; i++ {
				d, q := docs[rng.Intn(hotDocs)].name, hotQueries[rng.Intn(len(hotQueries))]
				ops = append(ops, func(int) outcome { return postQuery(rec, router.url, d, q, traced, log, check(d, q)) })
			}
			for i := 0; i < lookupsPerRound; i++ {
				d := docs[rng.Intn(len(docs))].name
				q := personLookup(rng.Intn(lookupIDs))
				if i%2 == 1 {
					q = itemLookup(rng.Intn(3), rng.Intn(lookupIDs))
				}
				ops = append(ops, func(int) outcome { return postQuery(rec, router.url, d, q, traced, log, check(d, q)) })
			}
			for i := 0; i < batchesPerRound; i++ {
				var names, qs []string
				for _, k := range rng.Perm(len(docs))[:batchDocs] {
					names = append(names, docs[k].name)
				}
				for _, k := range rng.Perm(len(batchPool))[:batchQueries] {
					qs = append(qs, batchPool[k])
				}
				ops = append(ops, func(int) outcome { return postBatch(router.url, names, qs, hist) })
			}
			for i := 0; i < writesPerRound; i++ {
				k := rng.Intn(len(docs))
				seed := docSeed(rc.seed, 1000+phase*100000+r*writesPerRound+i)
				ops = append(ops, func(int) outcome { return postWrite(router.url, docs[k].name, seed, hist) })
			}
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			return ops
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	checkAnswers(res, closedLoop(2, time.Hour, clusterWarmRound, round(0, nil, false, nil)))
	all := append([]*proc{router}, backends...)
	if !rc.trace {
		if _, err := scrapeAll(all); err != nil {
			return nil, err
		}
		lr, cpu, err := timedWindow(pidsOf(all), 2, rc.seconds, round(1, nil, false, nil))
		if err != nil {
			return nil, err
		}
		if _, err := scrapeAll(all); err != nil {
			return nil, err
		}
		rss := 0.0
		for _, p := range all {
			mb, err := peakRSSMB(p.cmd.Process.Pid)
			if err != nil {
				return nil, err
			}
			rss += mb
		}
		endToEnd(res, setup, lr, cpu, rss)
		reportSuccessors(hist)
		return res, nil
	}

	rec := newRecorder()
	vals := map[string]float64{}
	half := rc.seconds / 2
	before, err := scrapeAll(all)
	if err != nil {
		return nil, err
	}
	lrA := closedLoop(2, half, 0, round(1, nil, false, nil))
	after, err := scrapeAll(all)
	if err != nil {
		return nil, err
	}
	qpsA, _ := summary(res, lrA)
	serverCounts(before[1:], after[1:], vals)
	routerCounts(before[:1], after[:1], vals)
	vals["serve.response_bytes"] = meanBytes(lrA.outs)
	vals["cluster.batch_p50_ms"] = quantile(latencies(lrA.outs, "batch"), 0.5)
	vals["cluster.write_p50_ms"] = quantile(latencies(lrA.outs, "write"), 0.5)

	log := &servedLog{}
	lrB := closedLoop(2, half, 0, round(2, rec, true, log))
	qpsB, _ := summary(res, lrB)
	reportSuccessors(hist)
	vals["trace.overhead_pct"] = overheadPct(qpsA, qpsB)
	clusterSpans(log.all, vals)

	if _, err := inProcessLayers(rec, docs, log.all, vals); err != nil {
		return nil, err
	}
	if err := rec.write(rc.traceFile("cluster-readwrite")); err != nil {
		return nil, err
	}
	return res, layerMetrics(res, vals)
}

// postBatch sends one router /batch in its {docs, queries} form and
// checks every streamed line; each job answered correctly counts as
// one answer.
func postBatch(url string, docs, queries []string, hist *history) outcome {
	start := time.Now()
	status, body, err := call(context.Background(), http.MethodPost, url+"/batch", map[string]any{"docs": docs, "queries": queries})
	o := outcome{kind: "batch", lat: time.Since(start), bytes: len(body)}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		o.failed = true
		return o
	}
	jobs := len(docs) * len(queries)
	seen := make([]bool, jobs)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			o.wrong = fmt.Errorf("batch line %q: %w", sc.Text(), err)
			return o
		}
		if line.Index < 0 || line.Index >= jobs || seen[line.Index] {
			o.wrong = fmt.Errorf("batch line index %d out of range or repeated", line.Index)
			return o
		}
		seen[line.Index] = true
		// Jobs are the cross product in doc-major order.
		d, q := docs[line.Index/len(queries)], queries[line.Index%len(queries)]
		if line.Doc != d {
			o.wrong = fmt.Errorf("batch line %d names %s, want %s", line.Index, line.Doc, d)
			return o
		}
		if line.Error != "" {
			o.failed = true
			continue
		}
		if err := hist.check(d, line.Version, q, line.Value, clientDeadline); err != nil {
			o.wrong = fmt.Errorf("batch %s on %s (version %d): %w", q, d, line.Version, err)
			return o
		}
		o.answers++
	}
	if countFalse(seen) > 0 {
		o.wrong = fmt.Errorf("batch returned %d of %d lines", jobs-countFalse(seen), jobs)
	}
	return o
}

func countFalse(bs []bool) int {
	n := 0
	for _, b := range bs {
		if !b {
			n++
		}
	}
	return n
}

// postWrite re-registers a document with newly generated content and
// records the content at the version the router reports.
func postWrite(url, name string, seed int64, hist *history) outcome {
	d, err := auctionDoc(name, seed, clusterN)
	if err != nil {
		return outcome{kind: "write", wrong: err}
	}
	start := time.Now()
	v, err := register(url, d)
	o := outcome{kind: "write", lat: time.Since(start)}
	if err != nil {
		o.failed = true
		return o
	}
	hist.record(name, v, d.tree)
	return o
}

func reportSuccessors(h *history) {
	if n := h.successorAnswers.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %d answers carried the content of the registration after the version they named\n", n)
	}
}

// routerCounts reports the router's answer cache, replication and
// retry counters as deltas.
func routerCounts(before, after []counters, vals map[string]float64) {
	vals["cluster.answer_hits"] = delta(before, after, "router", "answer_cache", "hits")
	vals["cluster.answer_misses"] = delta(before, after, "router", "answer_cache", "misses")
	vals["cluster.answer_invalidations"] = delta(before, after, "router", "answer_cache", "invalidations")
	vals["cluster.answer_hit_ratio"] = ratio(vals["cluster.answer_hits"], vals["cluster.answer_hits"]+vals["cluster.answer_misses"])
	vals["cluster.replicated"] = delta(before, after, "router", "replicated")
	vals["cluster.retries"] = delta(before, after, "router", "retries")
	vals["cluster.retry_denied"] = delta(before, after, "router", "retry_denied")
	vals["cluster.repair_rounds"] = delta(before, after, "router", "repair_rounds")
}

// clusterSpans derives the router hop and the backend stages from
// traced /query requests: the router's forward span holds the owning
// backend's span tree as its remote.
func clusterSpans(log []served, vals map[string]float64) {
	var hop, wire []float64
	var backend []served
	for _, s := range log {
		route := s.trace.find("route")
		fwd := s.trace.find("forward")
		if route == nil || fwd == nil {
			continue
		}
		wire = append(wire, float64(s.roundTrip.Nanoseconds()-route.DurNs)/1e3)
		if br := fwd.Remote.find("route"); br != nil {
			hop = append(hop, float64(fwd.DurNs-br.DurNs)/1e3)
			backend = append(backend, served{s.decision, s.roundTrip, fwd.Remote})
		}
	}
	serveSpans(backend, vals)
	// The client talks to the router: its wire time is measured
	// against the router's route span.
	vals["serve.wire_us"] = mean(wire)
	vals["cluster.hop_us"] = mean(hop)
}
