package main

// engine-large: the library in process, engine.New(engine.Options{})
// and Session.Do, one caller, over a 41 k-node auction document and
// the paper's Experiment 1-5 families at fixed k.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

// family is one paper query on its document, with the closed form its
// answer must satisfy.
type family struct {
	doc   string
	query string
	want  answer
	// knownFault marks the operation whose wrong answer is a fault
	// the program has on every run; it counts as failed, not wrong.
	knownFault bool
}

// bNodes is the closed form of Experiments 1-4: every one of the i b
// elements, each with string value text.
func bNodes(i int, text string) answer {
	ns := make([]*onode, i)
	for k := range ns {
		ns[k] = &onode{kind: "element", name: "b"}
		if text != "" {
			ns[k].kids = []*onode{{kind: "text", data: text}}
		}
	}
	return nodesAns(ns)
}

// Sizes of the paper documents: the linear-fragment documents exceed
// the 16384-node span above which the axis kernels run in parallel;
// the polynomial families are sized to take tens of milliseconds.
const (
	exp1DocN = 40000
	exp4DocN = 20000
	exp2DocN = 10000 // DOC'(i) has 2i + 2 nodes
	polyDocN = 600
	deepDocN = 500
	expK     = 3
)

func paperDocs() ([]doc, []family) {
	docs := []doc{
		{name: "exp1-doc", xml: workload.Doc(exp1DocN).XMLString()},
		{name: "exp4-doc", xml: workload.Doc(exp4DocN).XMLString()},
		{name: "exp2-docprime", xml: workload.DocPrime(exp2DocN).XMLString()},
		{name: "poly-doc", xml: workload.Doc(polyDocN).XMLString()},
		{name: "deep-path", xml: workload.DeepDoc(deepDocN).XMLString()},
	}
	fams := []family{
		{doc: "exp1-doc", query: workload.Exp1Query(10), want: bNodes(exp1DocN, "")},
		{doc: "exp4-doc", query: workload.Exp4Query(20), want: bNodes(exp4DocN, "")},
		{doc: "exp2-docprime", query: workload.Exp2Query(expK), want: bNodes(exp2DocN, "c")},
		{doc: "poly-doc", query: workload.Exp3Query(expK), want: bNodes(polyDocN, "")},
		{doc: "poly-doc", query: workload.Exp5FollowingQuery(expK), want: numAns(float64(polyDocN - expK + 1))},
		{doc: "deep-path", query: workload.Exp5DescendantQuery(expK), want: numAns(float64(deepDocN - expK + 1))},
	}
	return docs, fams
}

func engineLarge(rc *runCtx) (*result, error) {
	auction, err := auctionDoc("auction", docSeed(rc.seed, 0), largeAuctionN)
	if err != nil {
		return nil, err
	}
	docs, fams := paperDocs()
	docs = append([]doc{auction}, docs...)
	for _, p := range wrappedPairs {
		for _, q := range p {
			a, err := expect(auction.tree, q)
			if err != nil {
				return nil, err
			}
			fams = append(fams, family{doc: "auction", query: q, want: a})
		}
	}
	a, err := expect(auction.tree, runawayQuery)
	if err != nil {
		return nil, err
	}
	fams = append(fams, family{doc: "auction", query: runawayQuery, want: a})
	// The known-fault operation runs on a document that does not depend
	// on the seed.
	fixed, err := auctionDoc("fixed", 1, clusterN)
	if err != nil {
		return nil, err
	}
	docs = append(docs, fixed)
	a, err = expect(fixed.tree, absentIDQuery)
	if err != nil {
		return nil, err
	}
	fams = append(fams, family{doc: "fixed", query: absentIDQuery, want: a, knownFault: true})

	// Set up setupReps times: core.ParseString and NewSession for every
	// document. Keep the last engine and sessions.
	var setup []time.Duration
	var eng *engine.Engine
	var loadedDocs map[string]*loaded
	rec := newRecorder()
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		eng = engine.New(engine.Options{})
		r := (*recorder)(nil)
		if i == setupReps-1 && rc.trace {
			r = rec
		}
		l, took, err := loadDocs(r, eng, docs)
		if err != nil {
			return nil, err
		}
		loadedDocs = l
		setup = append(setup, took)
	}

	round := func(phase int, rec *recorder, tally map[string]float64, log *[]decision) func(int) []op {
		return func(r int) []op {
			rng := rand.New(rand.NewSource(rc.seed*7907 + int64(phase)*1_000_003 + int64(r)))
			ops := make([]op, 0, len(fams))
			for _, k := range rng.Perm(len(fams)) {
				f := fams[k]
				ops = append(ops, func(int) outcome {
					sess := loadedDocs[f.doc].sess
					ctx, cancel := context.WithTimeout(context.Background(), clientDeadline)
					defer cancel()
					id := rec.begin("engine.session_do", 0)
					start := time.Now()
					res := sess.DoContext(ctx, f.query)
					o := outcome{kind: "query", lat: time.Since(start)}
					rec.end(id, map[string]string{"doc": f.doc, "query": f.query, "strategy": res.Strategy.String()}, nil)
					if res.Err != nil {
						o.failed = true
						return o
					}
					if err := checkValue(f.want, renderCore(sess.Document(), res.Value)); err != nil {
						if f.knownFault {
							o.failed = true
							return o
						}
						o.wrong = fmt.Errorf("%s on %s: %w", f.query, f.doc, err)
						return o
					}
					o.answers = 1
					if tally != nil {
						tally[res.Strategy.String()]++
					}
					if log != nil {
						*log = append(*log, decision{f.doc, f.query, res.Strategy.String()})
					}
					return o
				})
			}
			return ops
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	checkAnswers(res, closedLoop(1, time.Hour, 1, round(0, nil, nil, nil)))
	if !rc.trace {
		lr, cpu, err := timedWindow([]int{os.Getpid()}, 1, rc.seconds, round(1, nil, nil, nil))
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		endToEnd(res, setup, lr, cpu, rss)
		return res, nil
	}

	vals := map[string]float64{}
	half := rc.seconds / 2
	before := eng.Stats()
	tally := map[string]float64{}
	lrA := closedLoop(1, half, 0, round(1, nil, tally, nil))
	after := eng.Stats()
	qpsA, _ := summary(res, lrA)
	engineCounts(before, after, vals)
	for s, n := range tally {
		vals[layerOf[s]+".calls"] = n
	}
	var log []decision
	lrB := closedLoop(1, half, 0, round(2, rec, nil, &log))
	qpsB, _ := summary(res, lrB)
	vals["trace.overhead_pct"] = overheadPct(qpsA, qpsB)

	registrationLayers(rec, docs, vals)
	var queries []string
	for _, f := range fams {
		queries = append(queries, f.query)
	}
	if err := compileLayer(rec, queries, vals); err != nil {
		return nil, err
	}
	perQuery, err := evalLayers(rec, log, loadedDocs, 3, vals)
	if err != nil {
		return nil, err
	}
	vals["core.wrapped_bare_ratio"] = wrappedBare(perQuery)
	if err := rec.write(rc.traceFile("engine-large")); err != nil {
		return nil, err
	}
	return res, layerMetrics(res, vals)
}

// engineCounts reports an in-process engine's cache counters as deltas.
func engineCounts(before, after engine.Stats, vals map[string]float64) {
	vals["engine.cache_hits"] = float64(after.Hits - before.Hits)
	vals["engine.cache_misses"] = float64(after.Misses - before.Misses)
	vals["engine.cache_evictions"] = float64(after.Evictions - before.Evictions)
	vals["engine.cache_rejects"] = float64(after.Rejects - before.Rejects)
	lookups := vals["engine.cache_hits"] + vals["engine.cache_misses"]
	vals["engine.cache_lookups"] = lookups
	vals["engine.cache_hit_ratio"] = ratio(vals["engine.cache_hits"], lookups)
	vals["engine.fallbacks"] = float64(after.Fallbacks - before.Fallbacks)
}
