package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -agree needs: each
// end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAgree runs every workload n times on this code — seeds seed, seed+1, …
// each in a child process so every run pays its own set-up — and prints, per
// (metric, workload), the median, extremes and spread of the n values. The
// spread it judges is the one the acceptance procedure uses: the distance
// between the first and third quartile as a share of the median. It returns
// 1 when any pair's spread leaves the metric's bound in BENCHMARK.json.
// setup_s is listed but not judged: its spread is what set-up costs on a
// shared box, and only its median is ever compared.
func runAgree(n int, seed int64, scale string, seconds float64) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -agree reads the bounds from BENCHMARK.json in the current directory:", err)
		return 1
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 1
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -agree needs at least 2 runs")
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	status := 0
	fmt.Printf("%-14s %-24s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "min", "max", "iqr/med", "rng/med", "bound")
	for _, wl := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe, "-workload", wl, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", scale, "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", wl, seed+int64(i), err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", wl, seed+int64(i), err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d operations failed\n", wl, seed+int64(i), res.Failed, res.Attempted)
				status = 1
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, e := range file.EndToEnd {
			v := values[e.Name]
			sort.Float64s(v)
			q1, q2, q3 := quartiles(v)
			iqr, rng := (q3-q1)/q2, (v[len(v)-1]-v[0])/q2
			verdict := ""
			if e.Name != "setup_s" && iqr > e.Bound {
				verdict = "  OUT OF BOUND"
				status = 1
			}
			fmt.Printf("%-14s %-24s %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %5.0f%%%s\n",
				wl, e.Name, q2, v[0], v[len(v)-1], 100*iqr, 100*rng, 100*e.Bound, verdict)
		}
	}
	return status
}

// quartiles cuts sorted values (at least two) the way Python's
// statistics.quantiles(values, n=4) does by default.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
