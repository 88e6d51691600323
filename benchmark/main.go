// Command benchmark is the repository's one benchmark: it builds an EIL
// system, runs one named workload against it for a fixed time, checks every
// answer, and prints every metric by name with its unit. See README.md.
//
//	go run ./benchmark -workload read_hot -seed 1 -seconds 12 -trace 0
//	go run ./benchmark -agree 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "read_hot, read_cold, mixed or write_durable")
		seed     = flag.Int64("seed", 1, "drives the request stream and the held-out update documents")
		seconds  = flag.Float64("seconds", 0, "length of the timed window (0: the scale's default)")
		traced   = flag.Int("trace", 0, "1: record spans at each layer boundary and print the per-layer metrics")
		scaleArg = flag.String("scale", "full", "full, or smoke for a toy corpus and 1 s windows")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for span files and scratch state")
		agree    = flag.Int("agree", 0, "run every workload this many times and report each end-to-end metric's spread against its bound")
	)
	flag.Parse()
	sc, err := scaleByName(*scaleArg)
	if err != nil {
		fatal(err)
	}
	window := sc.window
	if *seconds > 0 {
		window = time.Duration(*seconds * float64(time.Second))
	}
	if *agree > 0 {
		os.Exit(runAgree(*agree, *seed, *scaleArg, window.Seconds()))
	}
	b := &bench{sc: sc, wl: *workload, seed: *seed, window: window, traced: *traced != 0, outDir: *outDir, start: start}
	res, err := b.measure()
	if err != nil {
		fatal(err)
	}
	for _, note := range b.notes {
		fmt.Fprintln(os.Stderr, "benchmark: wrong answer:", note)
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer()
	}
	for _, d := range defs {
		fmt.Printf("%-32s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// measure runs the workload and assembles its result: the end-to-end
// metrics untraced, the per-layer metrics traced.
func (b *bench) measure() (result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == b.wl
	}
	if !known {
		return result{}, fmt.Errorf("-workload must be one of %s", strings.Join(workloads, ", "))
	}
	if err := b.run(); err != nil {
		return result{}, err
	}
	defs, values := endToEnd, b.m.endToEndMetrics()
	if b.traced {
		spans, err := readSpans(b.spanFile())
		if err != nil {
			return result{}, err
		}
		defs, values = perLayer(), b.perLayerMetrics(spans)
	}
	res := result{Correct: b.m.failed == 0, Attempted: b.m.attempted, Failed: b.m.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}
