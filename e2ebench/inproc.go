package main

// In-process calls into the library's public functions, each wrapped
// in a benchmark span: parse and index (registration), compile,
// planner routing and per-strategy evaluation.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/planner"
)

// loaded is one document parsed and indexed in process.
type loaded struct {
	doc  *core.Document
	sess *engine.Session
	en   *core.Engine // for EvaluateStrategy with a named strategy
}

// loadDocs parses and indexes every document through core.ParseString
// and Engine.NewSession, recording a span around each call. It returns
// the documents and the setup time.
func loadDocs(rec *recorder, eng *engine.Engine, docs []doc) (map[string]*loaded, time.Duration, error) {
	top := rec.begin("registration", 0)
	defer rec.end(top, nil, nil)
	start := time.Now()
	out := make(map[string]*loaded, len(docs))
	for _, d := range docs {
		id := rec.begin("xmltree.parse", top)
		cd, err := core.ParseString(d.xml)
		rec.end(id, map[string]string{"doc": d.name, "bytes": fmt.Sprint(len(d.xml))}, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("parse %s: %w", d.name, err)
		}
		id = rec.begin("engine.new_session", top)
		sess := eng.NewSession(cd)
		rec.end(id, map[string]string{"doc": d.name}, nil)
		en := core.NewEngine(cd, core.Auto)
		en.Parallelism = runtime.GOMAXPROCS(0)
		out[d.name] = &loaded{doc: cd, sess: sess, en: en}
	}
	return out, time.Since(start), nil
}

// registrationLayers reports parse cost per MB and index cost per
// document from the spans loadDocs recorded.
func registrationLayers(rec *recorder, docs []doc, vals map[string]float64) {
	bytes := 0
	for _, d := range docs {
		bytes += len(d.xml)
	}
	var parse time.Duration
	for _, d := range rec.durs("xmltree.parse") {
		parse += d
	}
	vals["xmltree.parse_ms_per_mb"] = float64(parse) / 1e6 / (float64(bytes) / (1 << 20))
	vals["xmltree.index_ms"] = float64(meanDur(rec.durs("engine.new_session"))) / 1e6
}

// compileLayer times core.Compile on every distinct query text.
func compileLayer(rec *recorder, queries []string, vals map[string]float64) error {
	const reps = 20
	top := rec.begin("compile_replay", 0)
	defer rec.end(top, nil, nil)
	for _, q := range queries {
		for i := 0; i < reps; i++ {
			id := rec.begin("xpath.compile", top)
			_, err := core.Compile(q)
			rec.end(id, map[string]string{"query": q}, nil)
			if err != nil {
				return fmt.Errorf("compile %q: %w", q, err)
			}
		}
	}
	vals["xpath.compile_us"] = float64(meanDur(rec.durs("xpath.compile"))) / 1e3
	return nil
}

// decision is one served query: where it ran and on which strategy.
type decision struct {
	doc, query, strategy string
}

// routeLayer replays the served decisions through a fresh adaptive
// planner's Route, the call a server makes once per query. One span
// covers the whole replay; the per-decision mean is reported.
func routeLayer(rec *recorder, ds []decision, docs map[string]*loaded, vals map[string]float64) error {
	if len(ds) == 0 {
		return nil
	}
	shapes := make([]planner.Shape, len(ds))
	for i, d := range ds {
		q, err := core.Compile(d.query)
		if err != nil {
			return err
		}
		shapes[i] = planner.ExtractQuery(q).WithDoc(docs[d.doc].doc.Len())
	}
	p := planner.New(planner.Config{Mode: planner.Adaptive})
	id := rec.begin("planner.route", 0)
	start := time.Now()
	for _, sh := range shapes {
		p.Route(sh, nil)
	}
	el := time.Since(start)
	rec.end(id, map[string]string{"decisions": fmt.Sprint(len(ds))}, nil)
	vals["planner.route_us"] = float64(el) / 1e3 / float64(len(ds))
	return nil
}

// evalLayers replays served decisions in process through
// core.Engine.EvaluateStrategy with the strategy that served them.
// Each distinct (document, query, strategy) runs at most `reps` times
// (bottomup once); the per-strategy mean weighs each by how often it
// was served. It also returns the mean evaluation time per query text.
func evalLayers(rec *recorder, ds []decision, docs map[string]*loaded, reps int, vals map[string]float64) (map[string]float64, error) {
	served := map[decision]int{}
	var order []decision
	for _, d := range ds {
		if served[d] == 0 {
			order = append(order, d)
		}
		served[d]++
	}
	sort.SliceStable(order, func(i, j int) bool { return served[order[i]] > served[order[j]] })
	type acc struct{ sum, n float64 }
	byLayer := map[string]*acc{}
	top := rec.begin("eval_replay", 0)
	defer rec.end(top, nil, nil)
	byQuery := map[string]*acc{}
	for _, d := range order {
		s, ok := core.StrategyByName(d.strategy)
		if !ok {
			return nil, fmt.Errorf("unknown strategy %q", d.strategy)
		}
		q, err := core.Compile(d.query)
		if err != nil {
			return nil, err
		}
		l := docs[d.doc]
		root := core.Context{Node: l.doc.RootID(), Pos: 1, Size: 1}
		var tot time.Duration
		n := reps
		if s == core.BottomUp {
			n = 1 // each takes a quarter second or more on 4 k nodes
		}
		if served[d] < n {
			n = served[d]
		}
		for i := 0; i < n; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), clientDeadline)
			id := rec.begin(layerOf[d.strategy]+".eval", top)
			_, err := l.en.EvaluateStrategy(ctx, q, root, s)
			tot += rec.end(id, map[string]string{"doc": d.doc, "query": d.query, "strategy": d.strategy}, nil)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("replay %s on %s: %w", d.query, d.strategy, err)
			}
		}
		per := float64(tot) / 1e6 / float64(n)
		w := float64(served[d])
		a := byLayer[layerOf[d.strategy]]
		if a == nil {
			a = &acc{}
			byLayer[layerOf[d.strategy]] = a
		}
		a.sum += per * w
		a.n += w
		qa := byQuery[d.query]
		if qa == nil {
			qa = &acc{}
			byQuery[d.query] = qa
		}
		qa.sum += per * w
		qa.n += w
	}
	for layer, a := range byLayer {
		vals[layer+".eval_ms"] = a.sum / a.n
	}
	perQuery := map[string]float64{}
	for q, a := range byQuery {
		perQuery[q] = a.sum / a.n
	}
	return perQuery, nil
}

// wrappedBare is the evaluation time of the aggregate-wrapped queries
// over that of their bare paths, summed over the pairs served.
func wrappedBare(perQuery map[string]float64) float64 {
	var w, b float64
	for _, p := range wrappedPairs {
		tw, ok1 := perQuery[p[0]]
		tb, ok2 := perQuery[p[1]]
		if ok1 && ok2 {
			w += tw
			b += tb
		}
	}
	return ratio(w, b)
}

// cancelLag runs the runaway query on bottomup under a short deadline
// and reports how long after the deadline the evaluation returned.
func cancelLag(rec *recorder, l *loaded) (float64, error) {
	const budget = 500 * time.Millisecond
	q, err := core.Compile(runawayQuery)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	id := rec.begin("bottomup.cancel_probe", 0)
	_, err = l.en.EvaluateStrategy(ctx, q, core.Context{Node: l.doc.RootID(), Pos: 1, Size: 1}, core.BottomUp)
	el := rec.end(id, map[string]string{"query": runawayQuery, "deadline_ms": "500"}, nil)
	if err == nil {
		return 0, fmt.Errorf("bottomup finished %s within %v; the probe measures nothing", runawayQuery, budget)
	}
	return float64(el-budget) / 1e6, nil
}
