package main

// The closed-loop load generator and the end-to-end summaries.

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// outcome is what one operation reports.
type outcome struct {
	kind    string // "query", "batch" or "write"
	lat     time.Duration
	answers int   // correct answers it produced (a batch job counts as one)
	failed  bool  // the request did not complete: deadline, transport or status error
	wrong   error // an answer did not match the oracle
	bytes   int   // response body size
}

// op is one operation; caller is the index of the caller running it.
type op func(caller int) outcome

// loopResult is the outcome of a timed window.
type loopResult struct {
	elapsed time.Duration
	outs    []outcome
}

// closedLoop runs whole rounds of operations on `callers` goroutines,
// each waiting for its reply before taking the next operation. Once
// dur has passed, the round in progress is finished and no new round
// starts, so every window attempts whole rounds.
func closedLoop(callers int, dur time.Duration, maxRounds int, round func(r int) []op) loopResult {
	var (
		mu      sync.Mutex
		cur     []op
		pos     int
		rounds  int
		outs    []outcome
		start   = time.Now()
		stopped bool
	)
	next := func() (op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if pos == len(cur) {
			if stopped || (rounds > 0 && time.Since(start) >= dur) || (maxRounds > 0 && rounds == maxRounds) {
				stopped = true
				return nil, false
			}
			cur, pos = round(rounds), 0
			rounds++
		}
		o := cur[pos]
		pos++
		return o, true
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				o, ok := next()
				if !ok {
					return
				}
				res := o(c)
				mu.Lock()
				outs = append(outs, res)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return loopResult{elapsed: time.Since(start), outs: outs}
}

// quantile is the nearest-rank quantile of sorted durations, in ms.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e6
}

func latencies(outs []outcome, kind string) []time.Duration {
	var ls []time.Duration
	for _, o := range outs {
		if o.kind == kind && !o.failed {
			ls = append(ls, o.lat)
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	return ls
}

// summary folds a timed window into the result's counts, reports its
// first wrong answer, and returns its throughput and its sorted query
// latencies.
func summary(res *result, lr loopResult) (qps float64, queries []time.Duration) {
	answers := 0
	for _, o := range lr.outs {
		res.Attempted++
		if o.failed {
			res.Failed++
		}
		answers += o.answers
	}
	checkAnswers(res, lr)
	return float64(answers) / lr.elapsed.Seconds(), latencies(lr.outs, "query")
}

// checkAnswers marks the result incorrect and reports the first wrong
// answer of a window, if any.
func checkAnswers(res *result, lr loopResult) {
	for _, o := range lr.outs {
		if o.wrong != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "e2ebench: wrong answer:", o.wrong)
			return
		}
	}
}

// endToEnd folds a timed window into the result and fills the metrics
// every workload reports with tracing off. cpu is the CPU time the
// program's processes used in the window.
func endToEnd(res *result, setup []time.Duration, lr loopResult, cpu time.Duration, rssMB float64) {
	qps, queries := summary(res, lr)
	res.Metrics["setup_s"] = metric{medianDur(setup).Seconds(), "s"}
	res.Metrics["throughput_qps"] = metric{qps, "queries/s"}
	res.Metrics["query_p50_ms"] = metric{quantile(queries, 0.50), "ms"}
	res.Metrics["query_p99_ms"] = metric{quantile(queries, 0.99), "ms"}
	res.Metrics["cpu_ms_per_query"] = metric{float64(cpu) / 1e6 / (qps * lr.elapsed.Seconds()), "ms"}
	res.Metrics["peak_rss_mb"] = metric{rssMB, "MB"}
}

// timedWindow runs the untraced timed window between two readings of
// the program processes' CPU time. It reports on standard error the
// share of the machine's CPU time the host withheld (steal) during the
// window, the main cause of run-to-run spread in wall-clock figures.
func timedWindow(pids []int, callers int, dur time.Duration, round func(int) []op) (loopResult, time.Duration, error) {
	before, err := cpuOf(pids)
	if err != nil {
		return loopResult{}, 0, err
	}
	steal0, total0 := hostSteal()
	lr := closedLoop(callers, dur, 0, round)
	steal1, total1 := hostSteal()
	if total1 > total0 {
		fmt.Fprintf(os.Stderr, "e2ebench: host steal %.1f%% of CPU time during the window\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	after, err := cpuOf(pids)
	return lr, after - before, err
}

// hostSteal reads the machine-wide steal and total CPU ticks from the
// first line of /proc/stat; zeros when it cannot be read.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	// Fields 1-8 are user, nice, system, idle, iowait, irq, softirq and
	// steal; guest time is already counted in user. A malformed field
	// counts as 0.
	for _, f := range fields[1:9] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
	}
	steal, _ = strconv.ParseInt(fields[8], 10, 64)
	return steal, total
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// counters is one scrape of a server's /stats and /metrics.
type counters struct {
	stats   map[string]any
	metrics map[string]float64 // "name{labels}" -> value
}

func scrape(url string) (counters, error) {
	var c counters
	if err := getJSON(url+"/stats", &c.stats); err != nil {
		return c, err
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	c.metrics = map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		c.metrics[line[:i]] = v
	}
	return c, sc.Err()
}

// stat reads a number at a path of keys in a /stats document.
func (c counters) stat(path ...string) float64 {
	var v any = c.stats
	for _, k := range path {
		m, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = m[k]
	}
	f, _ := v.(float64)
	return f
}

// strategyCalls sums xpath_query_seconds_count over fragments, per
// strategy label.
func (c counters) strategyCalls() map[string]float64 {
	out := map[string]float64{}
	for k, v := range c.metrics {
		if !strings.HasPrefix(k, "xpath_query_seconds_count{") {
			continue
		}
		if i := strings.Index(k, `strategy="`); i >= 0 {
			s := k[i+len(`strategy="`):]
			out[s[:strings.IndexByte(s, '"')]] += v
		}
	}
	return out
}

// scrapeAll scrapes several servers.
func scrapeAll(ps []*proc) ([]counters, error) {
	out := make([]counters, len(ps))
	for i, p := range ps {
		c, err := scrape(p.url)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[i] = c
	}
	return out, nil
}

// delta sums, over servers, the change of a /stats number.
func delta(before, after []counters, path ...string) float64 {
	d := 0.0
	for i := range after {
		d += after[i].stat(path...) - before[i].stat(path...)
	}
	return d
}

// ratio divides, printing 0 for an empty base; the base is always
// printed beside it.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
