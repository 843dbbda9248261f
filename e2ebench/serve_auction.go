package main

// serve-auction: one xpathserve with default flags, four auction
// documents of about 4 k nodes, two closed-loop callers posting a
// seeded mix of the auction templates to /query.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
)

// queryResp is a /query response, or a router answer.
type queryResp struct {
	Strategy string     `json:"strategy"`
	Version  uint64     `json:"version"`
	Value    *wireValue `json:"value"`
	Trace    *traceJSON `json:"trace"`
}

// served is one traced request: the client's span and what the server
// reported.
type served struct {
	decision
	roundTrip time.Duration
	trace     *traceJSON
}

type servedLog struct {
	mu  sync.Mutex
	all []served
}

func (l *servedLog) add(s served) {
	l.mu.Lock()
	l.all = append(l.all, s)
	l.mu.Unlock()
}

// postQuery runs one /query request and checks its answer with check,
// which receives the response's version and value.
func postQuery(rec *recorder, url, docName, q string, traced bool, log *servedLog, check func(uint64, *wireValue) error) outcome {
	target := url + "/query"
	if traced {
		target += "?trace=1"
	}
	id := rec.begin("http.query", 0)
	start := time.Now()
	status, body, err := call(context.Background(), http.MethodPost, target, map[string]string{"doc": docName, "query": q})
	lat := time.Since(start)
	o := outcome{kind: "query", lat: lat, bytes: len(body)}
	var resp queryResp
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &resp)
	} else if err == nil {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if traced {
		rec.end(id, map[string]string{"doc": docName, "query": q, "strategy": resp.Strategy}, resp.Trace)
	}
	if err != nil {
		o.failed = true
		return o
	}
	if werr := check(resp.Version, resp.Value); werr != nil {
		o.wrong = fmt.Errorf("%s on %s (version %d): %w", q, docName, resp.Version, werr)
		return o
	}
	o.answers = 1
	if log != nil {
		log.add(served{decision{docName, q, resp.Strategy}, lat, resp.Trace})
	}
	return o
}

func serveAuction(rc *runCtx) (*result, error) {
	docs := make([]doc, serveDocs)
	for i := range docs {
		d, err := auctionDoc(fmt.Sprintf("auction%d", i), docSeed(rc.seed, i), serveAuctionN)
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}
	want := map[[2]string]answer{}
	for _, d := range docs {
		for _, q := range auctionTemplates {
			a, err := expect(d.tree, q)
			if err != nil {
				return nil, err
			}
			want[[2]string{d.name, q}] = a
		}
	}

	// Set up setupReps times; keep the last server.
	var setup []time.Duration
	var srv *proc
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			rc.procs.stop(srv)
		}
		start := time.Now()
		p, err := rc.procs.start("xpathserve", "xpathserve")
		if err != nil {
			return nil, err
		}
		if err := requireEmpty(p); err != nil {
			return nil, err
		}
		for _, d := range docs {
			if _, err := register(p.url, d); err != nil {
				return nil, err
			}
		}
		setup = append(setup, time.Since(start))
		srv = p
	}

	round := func(phase int, rec *recorder, traced bool, log *servedLog) func(int) []op {
		return func(r int) []op {
			rng := rand.New(rand.NewSource(rc.seed*7907 + int64(phase)*1_000_003 + int64(r)))
			n := len(docs) * len(auctionTemplates)
			ops := make([]op, 0, n)
			for _, k := range rng.Perm(n) {
				d, q := docs[k/len(auctionTemplates)], auctionTemplates[k%len(auctionTemplates)]
				w := want[[2]string{d.name, q}]
				ops = append(ops, func(int) outcome {
					return postQuery(rec, srv.url, d.name, q, traced, log, func(_ uint64, v *wireValue) error { return checkValue(w, v) })
				})
			}
			return ops
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	// Warm up: the planner explores every candidate of every class
	// before the timed window, so the window sees its steady state.
	checkAnswers(res, closedLoop(2, time.Hour, serveWarmRounds, round(0, nil, false, nil)))
	if !rc.trace {
		before, err := scrapeAll([]*proc{srv})
		if err != nil {
			return nil, err
		}
		lr, cpu, err := timedWindow(pidsOf([]*proc{srv}), 2, rc.seconds, round(1, nil, false, nil))
		if err != nil {
			return nil, err
		}
		after, err := scrapeAll([]*proc{srv})
		if err != nil {
			return nil, err
		}
		// Every request reaches the planner exactly once.
		if d := delta(before, after, "planner", "decisions"); d != float64(len(lr.outs)) {
			return nil, fmt.Errorf("server counted %v planner decisions for %d requests", d, len(lr.outs))
		}
		rss, err := peakRSSMB(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		endToEnd(res, setup, lr, cpu, rss)
		return res, nil
	}

	// Traced run: an untraced window for the counters and the
	// baseline, then a traced window replaying the same seeded rounds.
	rec := newRecorder()
	vals := map[string]float64{}
	half := rc.seconds / 2
	before, err := scrapeAll([]*proc{srv})
	if err != nil {
		return nil, err
	}
	lrA := closedLoop(2, half, 0, round(1, nil, false, nil))
	after, err := scrapeAll([]*proc{srv})
	if err != nil {
		return nil, err
	}
	qpsA, _ := summary(res, lrA)
	serverCounts(before, after, vals)
	vals["serve.response_bytes"] = meanBytes(lrA.outs)

	log := &servedLog{}
	lrB := closedLoop(2, half, 0, round(2, rec, true, log))
	qpsB, _ := summary(res, lrB)
	vals["trace.overhead_pct"] = overheadPct(qpsA, qpsB)
	serveSpans(log.all, vals)

	loaded, err := inProcessLayers(rec, docs, log.all, vals)
	if err != nil {
		return nil, err
	}
	lag, err := cancelLag(rec, loaded[docs[0].name])
	if err != nil {
		return nil, err
	}
	vals["bottomup.cancel_lag_ms"] = lag
	if err := rec.write(rc.traceFile("serve-auction")); err != nil {
		return nil, err
	}
	return res, layerMetrics(res, vals)
}

// inProcessLayers measures the registration, compile, planner and
// per-engine layers in process over the served documents and queries.
// It returns the documents it loaded.
func inProcessLayers(rec *recorder, docs []doc, log []served, vals map[string]float64) (map[string]*loaded, error) {
	eng := engine.New(engine.Options{})
	loaded, _, err := loadDocs(rec, eng, docs)
	if err != nil {
		return nil, err
	}
	registrationLayers(rec, docs, vals)
	ds := make([]decision, len(log))
	seen := map[string]bool{}
	var queries []string
	for i, s := range log {
		ds[i] = s.decision
		if !seen[s.query] {
			seen[s.query] = true
			queries = append(queries, s.query)
		}
	}
	if err := compileLayer(rec, queries, vals); err != nil {
		return nil, err
	}
	if err := routeLayer(rec, ds, loaded, vals); err != nil {
		return nil, err
	}
	perQuery, err := evalLayers(rec, ds, loaded, 3, vals)
	if err != nil {
		return nil, err
	}
	vals["core.wrapped_bare_ratio"] = wrappedBare(perQuery)
	return loaded, nil
}

// serverCounts reports the engine, planner and store counters of the
// servers as deltas over a window.
func serverCounts(before, after []counters, vals map[string]float64) {
	vals["engine.cache_hits"] = delta(before, after, "cache", "hits")
	vals["engine.cache_misses"] = delta(before, after, "cache", "misses")
	vals["engine.cache_evictions"] = delta(before, after, "cache", "evictions")
	vals["engine.cache_rejects"] = delta(before, after, "cache", "rejects")
	lookups := vals["engine.cache_hits"] + vals["engine.cache_misses"]
	vals["engine.cache_lookups"] = lookups
	vals["engine.cache_hit_ratio"] = ratio(vals["engine.cache_hits"], lookups)
	vals["engine.fallbacks"] = delta(before, after, "fallbacks")
	vals["planner.decisions"] = delta(before, after, "planner", "decisions")
	vals["planner.explored"] = delta(before, after, "planner", "explored")
	vals["planner.bans"] = delta(before, after, "planner", "bans")
	for i := range after {
		vals["store.bytes"] += after[i].stat("store", "bytes")
		b, a := before[i].strategyCalls(), after[i].strategyCalls()
		for s, n := range a {
			if layer, ok := layerOf[s]; ok {
				vals[layer+".calls"] += n - b[s]
			}
		}
	}
}

// serveSpans derives the server-side stage metrics from the span trees
// of traced /query requests.
func serveSpans(log []served, vals map[string]float64) {
	var pre, ser, wire []float64
	var evalAll, evalExplored float64
	for _, s := range log {
		route := s.trace.find("route")
		if route == nil {
			continue
		}
		if cl := route.find("cache_lookup"); cl != nil {
			pre = append(pre, float64(cl.StartNs-route.StartNs)/1e3)
		}
		if sp := route.find("serialize"); sp != nil {
			ser = append(ser, float64(sp.DurNs)/1e3)
		}
		wire = append(wire, float64(s.roundTrip.Nanoseconds()-route.DurNs)/1e3)
		if ev := route.find("evaluate"); ev != nil {
			evalAll += float64(ev.DurNs) / 1e9
			if ev.Attrs["explored"] == "true" {
				evalExplored += float64(ev.DurNs) / 1e9
			}
		}
	}
	vals["serve.pre_eval_us"] = mean(pre)
	vals["serve.serialize_us"] = mean(ser)
	vals["serve.wire_us"] = mean(wire)
	vals["planner.explored_eval_s"] = evalExplored
	vals["planner.eval_s"] = evalAll
	vals["planner.explored_time_share"] = ratio(evalExplored, evalAll)
}

func meanBytes(outs []outcome) float64 {
	var xs []float64
	for _, o := range outs {
		if o.kind == "query" && !o.failed {
			xs = append(xs, float64(o.bytes))
		}
	}
	return mean(xs)
}
