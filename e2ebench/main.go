// Command e2ebench is the repository's end-to-end, layer-by-layer
// benchmark. Build and run it through run.sh from the repository root:
//
//	bash e2ebench/run.sh --workload serve-auction --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh steady --runs 10
//	bash e2ebench/run.sh selftest
//
// A run prints one JSON object as its last line of standard output:
// whether every answer matched the oracle, the operations attempted
// and failed, and the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). A wrong answer makes it exit 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx is what one run of one workload needs.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // directory for span dumps
	procs   *fleet
}

var workloads = map[string]func(*runCtx) (*result, error){
	"serve-auction":     serveAuction,
	"engine-large":      engineLarge,
	"cluster-readwrite": clusterReadWrite,
}

func main() {
	os.Exit(run())
}

func run() int {
	bin := flag.String("bin", "", "directory holding the xpathserve and xpathrouter binaries")
	name := flag.String("workload", "", "serve-auction | engine-large | cluster-readwrite")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	switch flag.Arg(0) {
	case "steady":
		return steady(*bin, flag.Args()[1:])
	case "selftest":
		if err := selfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: selftest:", err)
			return 1
		}
		fmt.Println("selftest: a corrupted answer and a stale version were both rejected")
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *bin == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: need -bin, --workload (serve-auction|engine-large|cluster-readwrite) and --seconds >= 1")
		return 2
	}
	// The oracle must reject wrong answers before its verdicts count.
	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: selftest:", err)
		return 1
	}
	rc := &runCtx{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		out:     filepath.Join(filepath.Dir(*bin), "traces"),
		procs:   &fleet{bin: *bin},
	}
	// Stop every server on interrupt too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		rc.procs.stopAll()
		os.Exit(130)
	}()
	res, err := wl(rc)
	rc.procs.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "e2ebench: answers did not match the oracle")
		return 1
	}
	return 0
}
