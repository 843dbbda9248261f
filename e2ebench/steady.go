package main

// The steadiness command: it runs each workload repeatedly, each run
// with another seed, and prints for every end-to-end metric the median,
// the quartiles and their spread against the metric's bound in
// BENCHMARK.json, and whether the share of failed operations repeated
// exactly. The bounds in BENCHMARK.json rest on its output.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points of statistics.quantiles(xs,
// n=4) in Python's default ("exclusive") method.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		d := i*m - j*4
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= len(s):
			q[i-1] = s[len(s)-1]
		default:
			q[i-1] = (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
		}
	}
	return q
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func steady(bin string, args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark description with the bounds")
	fs.Parse(args)

	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench steady:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench steady:", err)
		return 1
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench steady:", err)
		return 1
	}
	status := 0
	for _, w := range names {
		vals := map[string][]float64{}
		var shares []string
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			cmd := exec.Command(self, "-bin", bin, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
			var out bytes.Buffer
			var errOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, io.MultiWriter(os.Stderr, &errOut)
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench steady: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench steady: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			line := fmt.Sprintf("%s seed %d: attempted %d failed %d steal %s", w, seed, res.Attempted, res.Failed, stealOf(errOut.String()))
			for _, m := range spec.EndToEnd {
				v := res.Metrics[m.Name].Value
				vals[m.Name] = append(vals[m.Name], v)
				line += fmt.Sprintf(" %s=%.6g", m.Name, v)
			}
			fmt.Println(line)
		}
		fmt.Printf("\n%s: %d runs of %d s\n", w, *runs, spec.RunSeconds)
		fmt.Printf("  %-16s %12s %12s %12s %8s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			q := quartiles(vals[m.Name])
			med := median(vals[m.Name])
			spread := (q[2] - q[0]) / med
			verdict := "steady (below a third of the bound)"
			switch {
			case m.Name == "setup_s":
				verdict = "set-up time: spread not gated"
			case spread > m.Bound:
				verdict = "TOO WIDE"
				status = 1
			case spread > m.Bound/3:
				verdict = "within the bound, above a third of it"
			}
			fmt.Printf("  %-16s %12.6g %12.6g %12.6g %8.4f %7.2f  %s\n", m.Name, q[0], med, q[2], spread, m.Bound, verdict)
		}
		fmt.Printf("  failed/attempted per run: %s\n", strings.Join(shares, " "))
		if !sameShare(shares) {
			fmt.Println("  failed share: DIFFERS between runs")
			status = 1
		} else {
			fmt.Println("  failed share: repeated exactly")
		}
		fmt.Println()
	}
	return status
}

// sameShare reports whether every "failed/attempted" has the same
// ratio, compared exactly by cross-multiplying.
func sameShare(shares []string) bool {
	var f0, a0 int64
	for i, s := range shares {
		var f, a int64
		fmt.Sscanf(s, "%d/%d", &f, &a)
		if i == 0 {
			f0, a0 = f, a
			continue
		}
		if f*a0 != f0*a {
			return false
		}
	}
	return true
}

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line %q: %w", last, err)
	}
	return &res, nil
}

// stealOf returns the host steal share a run reported on standard
// error, or "?".
func stealOf(stderr string) string {
	const prefix = "e2ebench: host steal "
	for _, l := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(l, prefix); ok {
			v, _, _ := strings.Cut(rest, " ")
			return v
		}
	}
	return "?"
}
