// Command perfbench is the repository benchmark. It drives the system from
// outside on seeded inputs: the serve workloads run the real cmd/serve daemon
// as a child process and stream JSONL to it over loopback HTTP, the sweep
// workload runs runner.Run in a fresh process. Every run checks the outputs
// against independently computed expectations. The last line of standard
// output is one JSON object with the end-to-end metrics (-trace 0) or the
// per-layer breakdown of a separate traced run (-trace 1). See README.md.
//
//	bash perfbench/run.sh --workload serve_bursty --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"reqsched/internal/registry"
)

// serveWorkload is a daemon traffic mix: the strategy the daemon runs, the
// registry generator that makes its record stream, and the scrape interval
// of the open-loop /v1/metrics reader.
type serveWorkload struct {
	strategy string
	source   string
	params   registry.Params // generator parameters; the seed comes from -seed
	scrape   time.Duration
	// cellRounds sizes the per-strategy cells the traced run measures on the
	// same traffic (a prefix of the session stream's length).
	cellRounds int
}

func (w serveWorkload) n() int { return w.params.Int("n") }
func (w serveWorkload) d() int { return w.params.Int("d") }

// serveWorkloads are the two daemon mixes; README.md records why each exists.
var serveWorkloads = map[string]serveWorkload{
	// 4 rounds at 50 arrivals, then 8 silent rounds: a segment seals every
	// 12 rounds, and record decode outweighs the cheap A_fix round.
	"serve_bursty": {
		strategy: "A_fix",
		source:   "bursty",
		params: registry.Params{
			"n": registry.IntVal(16), "d": registry.IntVal(4), "rounds": registry.IntVal(12000),
			"rate": registry.FloatVal(0), "on": registry.IntVal(4), "off": registry.IntVal(8),
			"burst": registry.FloatVal(50),
		},
		scrape:     20 * time.Millisecond,
		cellRounds: 1200,
	},
	// Poisson traffic at 30 of 32 slots per round with windows 1..12: no
	// idle gap, so no segment seals, and A_balance's matching dominates.
	"serve_wide": {
		strategy: "A_balance",
		source:   "mixed",
		params: registry.Params{
			"n": registry.IntVal(32), "d": registry.IntVal(12), "rounds": registry.IntVal(4000),
			"rate": registry.FloatVal(30),
		},
		scrape:     5 * time.Millisecond,
		cellRounds: 700,
	},
}

const sweepWorkload = "sweep_grid"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line. A run computes vals; the
// reported Metrics are the ones BENCHMARK.json lists for the run's mode.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	vals map[string]float64
}

func (r *result) set(name string, v float64) {
	if r.vals == nil {
		r.vals = map[string]float64{}
	}
	r.vals[name] = v
}

// benchSpec is the part of BENCHMARK.json that names the reported metrics.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// report fills r.Metrics with the listed metrics, each of which the run
// must have measured.
func (r *result) report(list []specMetric) error {
	r.Metrics = map[string]metric{}
	for _, m := range list {
		v, ok := r.vals[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	var (
		wl       = flag.String("workload", "", "serve_bursty, serve_wide or sweep_grid")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measurement time per run")
		traced   = flag.Int("trace", 0, "1: per-layer traced run instead of the end-to-end run")
		serveBin = flag.String("serve-bin", "", "path of the built cmd/serve binary")
		outDir   = flag.String("out", ".bench_build", "directory for span files")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition naming the reported metrics")
		child    = flag.String("child", "", "internal: run the measured part of a workload, or an idle spinner (spin), in this fresh process")
	)
	flag.Parse()
	budget := time.Duration(*seconds) * time.Second
	switch *child {
	case sweepWorkload:
		return sweepChild(*seed)
	case "spin":
		return spinChild()
	}

	var spec benchSpec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var res result
	w, isServe := serveWorkloads[*wl]
	if !isServe && *wl != sweepWorkload {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 1
	}
	if isServe {
		stopSpinners, err := startSpinners()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer stopSpinners()
	}
	switch {
	case *traced == 1:
		res, err = tracedRun(*wl, *seed, budget, *outDir)
	case isServe:
		if *serveBin == "" {
			err = fmt.Errorf("-serve-bin is required for %s", *wl)
			break
		}
		res, err = serveRun(w, *serveBin, *seed, budget)
	default:
		res, err = sweepRun(*seed, budget)
	}
	if err == nil {
		list := spec.EndToEnd
		if *traced == 1 {
			list = spec.PerLayer
		}
		err = res.report(list)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workers is the pool size and the connection budget: all load comes from
// this one process, with at most one connection or worker per CPU.
func workers() int { return runtime.NumCPU() }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
