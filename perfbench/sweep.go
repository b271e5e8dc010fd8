package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"reqsched/internal/core"
	"reqsched/internal/grid"
	"reqsched/internal/offline"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/runner"
)

// sweepStrategies are the nine strategies of BENCH_engine.json.
var sweepStrategies = []string{
	"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
	"EDF", "first_fit", "A_local_fix", "A_local_eager",
}

// source is one registry input family of a manifest.
type source struct {
	name   string
	params registry.Params
}

// sweepSources are the sweep's three traffic shapes, each cell n=16, d=6,
// 2000 rounds at 15 arrivals per round (bursty adds 24-arrival bursts).
func sweepSources() []source {
	base := func() registry.Params {
		return registry.Params{
			"n": registry.IntVal(16), "d": registry.IntVal(6), "rounds": registry.IntVal(2000),
			"rate": registry.FloatVal(15),
		}
	}
	bursty := base()
	bursty["on"], bursty["off"], bursty["burst"] = registry.IntVal(5), registry.IntVal(10), registry.FloatVal(24)
	zipf := base()
	zipf["s"] = registry.FloatVal(1.4)
	return []source{{"uniform", base()}, {"zipf", zipf}, {"bursty", bursty}}
}

// sweepReadEvery is the sweep's open-loop reader interval.
const sweepReadEvery = 5 * time.Millisecond

// manifestRecords is the source × strategy grid at one seed. prefix, when
// set, names a registered traced wrapper that every strategy spec goes
// through (see tracedPrefix); the cell index is passed as its parameter.
func manifestRecords(strategies []string, srcs []source, seed int64, prefix string) []runner.Record {
	var recs []runner.Record
	for _, src := range srcs {
		p := src.params.Clone()
		p["seed"] = registry.IntVal(seed)
		for _, s := range strategies {
			spec := s
			if prefix != "" {
				spec = prefix + s + ",cell=" + strconv.Itoa(len(recs))
			}
			recs = append(recs, runner.Record{Name: s + "/" + src.name, Strategy: spec, Source: src.name, Params: p})
		}
	}
	return recs
}

// cellExpect is what a correct pool must report for one cell: OPT from
// offline.OptimumIncremental (an engine independent of the pool's
// offline.Optimum) and ALG from a serial core.Run.
type cellExpect struct {
	opt, alg, requests int
}

// expectCells computes the expectations of a plain (untraced) manifest.
func expectCells(jobs []grid.Job) ([]cellExpect, error) {
	type built struct {
		tr  *core.Trace
		opt int
	}
	traces := map[grid.BuildSpec]built{}
	out := make([]cellExpect, len(jobs))
	for i, job := range jobs {
		b, ok := traces[job.Spec.Build]
		if !ok {
			c, err := job.Spec.Build.Construction()
			if err != nil {
				return nil, err
			}
			b = built{c.Trace, offline.OptimumIncremental(c.Trace)}
			traces[job.Spec.Build] = b
		}
		s, err := registry.NewStrategySpec(job.Spec.Strategy)
		if err != nil {
			return nil, err
		}
		out[i] = cellExpect{opt: b.opt, alg: core.Run(s, b.tr).Fulfilled, requests: b.tr.NumRequests()}
	}
	return out, nil
}

// cellResult is one measured cell as the sweep child reports it.
type cellResult struct {
	OPT     int `json:"opt"`
	ALG     int `json:"alg"`
	Expired int `json:"expired"`
}

// checkCells counts the cells of one pass that disagree with expectations.
func checkCells(got []cellResult, want []cellExpect) int {
	if len(got) != len(want) {
		return len(want)
	}
	failed := 0
	for i, g := range got {
		w := want[i]
		if g.OPT != w.opt || g.ALG != w.alg || g.ALG+g.Expired != w.requests {
			failed++
		}
	}
	return failed
}

// childReport is what one sweep process prints: its manifest build time,
// its pass through runner.Run, and its reader's samples.
type childReport struct {
	SetupNS  int64        `json:"setup_ns"`
	WallNS   int64        `json:"wall_ns"`
	Requests int          `json:"requests"`
	Cells    []cellResult `json:"cells"`
	ReadMS   []float64    `json:"read_ms"`
	LateMS   []float64    `json:"late_ms"`
	// ReadFailed counts the reads that returned no value.
	ReadFailed int `json:"read_failed"`
	// PeakRSSKB is the process's peak RSS at the end of the pass.
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// manifestBuilds is how many times the traced run builds a manifest to time
// it.
const manifestBuilds = 25

// timeManifest builds the manifest manifestBuilds times and returns each
// build's duration in ns.
func timeManifest(recs []runner.Record) ([]float64, error) {
	var ns []float64
	for i := 0; i < manifestBuilds; i++ {
		t0 := time.Now()
		if _, err := runner.Manifest(recs); err != nil {
			return nil, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return ns, nil
}

// sweepChild is one sweep process, as a user runs it: build the manifest,
// run it once through runner.Run on the plain pool, exit. An open-loop
// reader samples the process's own runtime metrics every sweepReadEvery
// while the pool runs.
func sweepChild(seed int64) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	var rep childReport
	recs := manifestRecords(sweepStrategies, sweepSources(), seed, "")
	t0 := time.Now()
	jobs, err := runner.Manifest(recs)
	if err != nil {
		return fail(err)
	}
	rep.SetupNS = int64(time.Since(t0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sc scrapeLog
	wg.Add(1)
	go func() {
		defer wg.Done()
		samples := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}, {Name: "/gc/heap/live:bytes"}}
		sc = scrapeLoop(stop, sweepReadEvery, func() bool {
			metrics.Read(samples)
			return samples[0].Value.Kind() != metrics.KindBad
		})
	}()
	t0 = time.Now()
	out, err := runner.Run(context.Background(), jobs, runner.Options{Tool: "perfbench", Workers: workers()})
	rep.WallNS = int64(time.Since(t0))
	close(stop)
	wg.Wait()
	if err != nil {
		return fail(err)
	}
	rep.ReadMS, rep.LateMS, rep.ReadFailed = sc.lat, sc.late, sc.failed
	rep.Cells = make([]cellResult, len(out.Measurements))
	for i, m := range out.Measurements {
		if out.Done == nil || out.Done[i] {
			rep.Cells[i] = cellResult{OPT: m.OPT, ALG: m.ALG, Expired: m.Expired}
			rep.Requests += m.ALG + m.Expired
		}
	}
	if rep.PeakRSSKB, err = peakRSSKB(os.Getpid()); err != nil {
		return fail(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return fail(err)
	}
	return 0
}

// runSweepChild runs one sweep process and returns its report.
func runSweepChild(self string, seed int64) (childReport, error) {
	var rep childReport
	cmd := exec.Command(self, "-child", sweepWorkload, "-seed", strconv.FormatInt(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("sweep process: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("sweep process report: %w", err)
	}
	return rep, nil
}

// sweepRun is the end-to-end run of sweep_grid: expectations first, then
// fresh sweep processes back to back until the budget is spent.
func sweepRun(seed int64, budget time.Duration) (result, error) {
	var res result
	jobs, err := runner.Manifest(manifestRecords(sweepStrategies, sweepSources(), seed, ""))
	if err != nil {
		return res, err
	}
	want, err := expectCells(jobs)
	if err != nil {
		return res, err
	}
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	var setup, cps, rps, passMS, rss, reads, late []float64
	var first []cellResult
	begin := time.Now()
	for len(passMS) == 0 || time.Since(begin) < budget {
		rep, err := runSweepChild(self, seed)
		if err != nil {
			return res, err
		}
		wall := time.Duration(rep.WallNS)
		setup = append(setup, time.Duration(rep.SetupNS).Seconds())
		cps = append(cps, float64(len(jobs))/wall.Seconds())
		rps = append(rps, float64(rep.Requests)/wall.Seconds())
		passMS = append(passMS, ms(wall))
		rss = append(rss, float64(rep.PeakRSSKB)/1024)
		reads = append(reads, rep.ReadMS...)
		late = append(late, rep.LateMS...)
		res.Attempted += len(want) + len(rep.ReadMS)
		res.Failed += checkCells(rep.Cells, want) + rep.ReadFailed
		if first == nil {
			first = rep.Cells
		}
	}

	var ratioSum float64
	var alg, requests int
	for _, c := range first {
		ratioSum += ratio.Measurement{OPT: c.OPT, ALG: c.ALG}.Ratio()
		alg += c.ALG
		requests += c.ALG + c.Expired
	}
	res.set("setup_s", median(setup))
	res.set("ingest_rps", median(rps))
	res.set("cells_per_s", median(cps))
	res.set("post_p50_ms", quantile(passMS, 0.5))
	res.set("post_p90_ms", quantile(passMS, 0.9))
	res.set("metrics_p50_ms", quantile(reads, 0.5))
	res.set("opt_ratio", ratioSum/float64(len(first)))
	res.set("fulfilled_frac", float64(alg)/float64(requests))
	res.set("peak_rss_mb", median(rss))
	fmt.Fprintf(os.Stderr, "perfbench: %d sweep processes of %d cells; pass ms %s; %d reads ms %s; reader late ms %s\n",
		len(passMS), len(want), profile(passMS), len(reads), profile(reads), profile(late))
	return res, nil
}
