package app

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/registry"
	"reqsched/internal/serve"
	"reqsched/internal/workload"
)

// benchFile is the file format of BENCH_engine.json: named sections, each one
// workload timed through rows of one shape.
type benchFile struct {
	Sections []*benchSection `json:"sections"`
}

// benchSection is one workload and the rows timed on it. GOMAXPROCS records
// the CPUs the rows ran on.
type benchSection struct {
	Name       string        `json:"name"`
	Workload   benchWorkload `json:"workload"`
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	Rows       []benchRow    `json:"rows"`
}

// benchRow is one timed operation. Value is the operation's checked result —
// fulfilled requests, OPT, profit or latency — so a faster row that computes
// something else shows. A zero (absent) allocs_per_op or bytes_per_op, like a
// section's absent gomaxprocs, marks a number an older recording did not take.
type benchRow struct {
	Key         string  `json:"key"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	Value       int     `json:"value"`
}

// benchWorkload describes the trace a section runs on. Kind names the
// generator; fields the generator does not use are zero and omitted.
// TargetRequests is the size flag the section ran at, so -check-regress can
// rerun it at the same size.
type benchWorkload struct {
	Kind           string  `json:"kind"`
	TargetRequests int     `json:"target_requests,omitempty"`
	N              int     `json:"n"`
	D              int     `json:"d"`
	Rounds         int     `json:"rounds,omitempty"`
	Rate           float64 `json:"rate,omitempty"`
	On             int     `json:"on,omitempty"`
	Off            int     `json:"off,omitempty"`
	BurstRate      float64 `json:"burst_rate,omitempty"`
	MaxWeight      int     `json:"max_weight,omitempty"`
	Load           float64 `json:"load,omitempty"`
	Seed           int64   `json:"seed"`
	Requests       int     `json:"requests,omitempty"`
	Segments       int     `json:"segments,omitempty"`
}

// benchBursty builds the gapped bursty trace the offline, weighted,
// incremental and serve sections share, sized to roughly requests requests:
// bursts of 4 rounds at 50 arrivals per round, then 8 silent rounds (> d-1),
// so every burst is an independent segment. maxW > 0 adds harmonic request
// weights up to maxW.
func benchBursty(requests, maxW int) (benchWorkload, *reqsched.Trace) {
	w := benchWorkload{Kind: "bursty", TargetRequests: requests, N: 16, D: 4,
		On: 4, Off: 8, BurstRate: 50, MaxWeight: maxW, Seed: 5}
	w.Rounds = requests * (w.On + w.Off) / (w.On * int(w.BurstRate))
	cfg := reqsched.WorkloadConfig{N: w.N, D: w.D, Rounds: w.Rounds, Seed: w.Seed}
	tr := reqsched.Bursty(cfg, w.On, w.Off, w.BurstRate)
	if maxW > 0 {
		tr = reqsched.WithWeights(tr, maxW, w.Seed)
	}
	w.Requests = tr.NumRequests()
	w.Segments = reqsched.TraceSegmentCount(tr)
	return w, tr
}

// bencher times rows: each runs for benchtime, and every row is echoed to
// stderr as it lands.
type bencher struct {
	benchtime time.Duration
	stderr    io.Writer
}

func (b *bencher) section(name string, w benchWorkload) *benchSection {
	return &benchSection{Name: name, Workload: w, GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// time is the one timer. It calls op until benchtime has elapsed, at least
// once, and appends sec's row key: mean ns, allocations and bytes per
// operation, read from runtime.MemStats as testing.Benchmark does, and the
// value the last call returned. One call of op performs ops operations. An
// error from op, such as a failed equality check, fails the row.
func (b *bencher) time(sec *benchSection, key string, ops int, op func() (int, error)) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls, value := 0, 0
	for calls == 0 || time.Since(start) < b.benchtime {
		v, err := op()
		if err != nil {
			return fmt.Errorf("bench %s %s: %w", sec.Name, key, err)
		}
		value = v
		calls++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := uint64(calls * ops)
	row := benchRow{
		Key:         key,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: int64((after.Mallocs - before.Mallocs) / n),
		BytesPerOp:  int64((after.TotalAlloc - before.TotalAlloc) / n),
		Value:       value,
	}
	sec.Rows = append(sec.Rows, row)
	fmt.Fprintf(b.stderr, "%-16s %-20s %14.0f ns/op %8d allocs/op %10d B/op  value %d\n",
		sec.Name, key, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp, row.Value)
	return nil
}

// solver times a monolithic offline solver and its segmented parallel form at
// 1, 2, 4 and 8 workers. Every parallel row must equal the monolithic value.
func (b *bencher) solver(name string, w benchWorkload, mono func() int, par func(workers int) int) (*benchSection, error) {
	sec := b.section(name, w)
	if err := b.time(sec, "monolithic", 1, func() (int, error) { return mono(), nil }); err != nil {
		return nil, err
	}
	want := sec.Rows[0].Value
	for _, workers := range []int{1, 2, 4, 8} {
		err := b.time(sec, fmt.Sprintf("workers=%d", workers), 1, func() (int, error) {
			if got := par(workers); got != want {
				return 0, fmt.Errorf("BUG: parallel solver = %d, monolithic = %d", got, want)
			}
			return want, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return sec, nil
}

// benchStrategies is the historical baseline set BENCH_engine.json records:
// the Table 1 strategies plus the references and baselines whose timings
// the alloc-regression tests in EXPERIMENTS.md compare against. The set is
// pinned — rows are a file format, not an iteration default — so it stays a
// literal here rather than a registry query.
var benchStrategies = []string{
	"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
	"EDF", "first_fit", "A_local_fix", "A_local_eager",
}

// benchEngine runs the BenchmarkEngine workload through each strategy; the
// value is the strategy's fulfilled count. Its workload is fixed, so the size
// argument is unused.
func benchEngine(b *bencher, _ int) (*benchSection, error) {
	w := benchWorkload{Kind: "uniform", N: 16, D: 6, Rounds: 300, Rate: 18, Seed: 11}
	tr := reqsched.Uniform(reqsched.WorkloadConfig{N: w.N, D: w.D, Rounds: w.Rounds, Rate: w.Rate, Seed: w.Seed})
	w.Requests = tr.NumRequests()
	sec := b.section("engine", w)
	for _, name := range benchStrategies {
		err := b.time(sec, name, 1, func() (int, error) {
			res, err := reqsched.RunChecked(reqsched.StrategyByName(name), tr)
			if err != nil {
				return 0, err
			}
			return res.Fulfilled, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return sec, nil
}

// benchOffline times the segmented parallel optimum against the monolithic
// Hopcroft–Karp solver.
func benchOffline(b *bencher, requests int) (*benchSection, error) {
	w, tr := benchBursty(requests, 0)
	return b.solver("offline", w,
		func() int { return reqsched.Optimum(tr) },
		func(workers int) int { return reqsched.OptimumParallel(tr, workers) })
}

// benchMaxProfit times the segmented max-profit solver against its monolithic
// min-cost-flow counterpart, which is superlinear in the trace (~40 min at
// 10^5 requests on one core), so it usually runs once.
func benchMaxProfit(b *bencher, requests int) (*benchSection, error) {
	w, tr := benchBursty(requests, 8)
	return b.solver("max_profit", w,
		func() int { return reqsched.MaxProfit(tr) },
		func(workers int) int { return reqsched.MaxProfitParallel(tr, workers) })
}

// benchMinLatency times the segmented min-latency solver against its
// monolithic counterpart, which pushes every augmenting path, not just the
// profitable ones; BenchMain runs it at a tenth of the max-profit size.
func benchMinLatency(b *bencher, requests int) (*benchSection, error) {
	w, tr := benchBursty(requests, 8)
	return b.solver("min_latency", w,
		func() int { _, lat := reqsched.OptimumMinLatency(tr); return lat },
		func(workers int) int { _, lat := reqsched.OptimumMinLatencyParallel(tr, workers); return lat })
}

// benchIncremental times the incremental rolling optimum (one maintained
// matching, one augmenting-path search per request, scratch reused across
// segment seals) against cold solves: a fresh graph and Hopcroft–Karp solve
// per pre-materialized segment sub-trace. One op is a full pass over the
// trace, and both rows must equal Optimum.
func benchIncremental(b *bencher, requests int) (*benchSection, error) {
	w, tr := benchBursty(requests, 0)
	// Materialize the segment sub-traces up front so the cold row times the
	// solves alone, not the cutting.
	var buf bytes.Buffer
	if err := reqsched.WriteTraceStream(&buf, tr); err != nil {
		return nil, err
	}
	var segs []*reqsched.Trace
	for sub, err := range reqsched.TraceSegments(bytes.NewReader(buf.Bytes())) {
		if err != nil {
			return nil, err
		}
		segs = append(segs, sub)
	}
	want := reqsched.Optimum(tr)

	sec := b.section("incremental_opt", w)
	err := b.time(sec, "cold", 1, func() (int, error) {
		sum := 0
		for _, sub := range segs {
			sum += reqsched.Optimum(sub)
		}
		if sum != want {
			return 0, fmt.Errorf("cold segment sum %d, Optimum %d", sum, want)
		}
		return sum, nil
	})
	if err != nil {
		return nil, err
	}
	err = b.time(sec, "incremental", 1, func() (int, error) {
		if got := reqsched.OptimumIncremental(tr); got != want {
			return 0, fmt.Errorf("OptimumIncremental %d, Optimum %d", got, want)
		}
		return want, nil
	})
	if err != nil {
		return nil, err
	}
	return sec, nil
}

// benchServeIngest times end-to-end daemon ingest: the bursty JSONL stream
// POSTed to a virtual-clock serve.Server, drain included, so decode,
// admission, engine stepping and the rolling-optimum worker all count. The
// row's op is one request; its value is the session's fulfilled count, and
// the session must admit every request.
func benchServeIngest(b *bencher, requests int) (*benchSection, error) {
	w, tr := benchBursty(requests, 0)
	var buf bytes.Buffer
	if err := reqsched.WriteTraceStream(&buf, tr); err != nil {
		return nil, err
	}
	body := buf.Bytes()

	sec := b.section("serve_ingest", w)
	// The key names the daemon's one ingest path: batched admission feeding
	// the incremental rolling optimum.
	err := b.time(sec, "batched_incremental", w.Requests, func() (int, error) {
		// A_fix is the cheapest engine strategy, so the session time is
		// dominated by the machinery under test — decode, admission, rolling
		// optimum — not by strategy bookkeeping.
		s, err := serve.New(serve.Config{
			N: tr.N, D: tr.D,
			Strategy: reqsched.NewAFix(), StrategyName: "A_fix",
			Virtual:  true,
			QueueCap: 1 << 20,
		})
		if err != nil {
			return 0, err
		}
		rw := httptest.NewRecorder()
		s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body)))
		if rw.Code != http.StatusOK {
			return 0, fmt.Errorf("status %d: %s", rw.Code, rw.Body.String())
		}
		met := s.Drain()
		if met.Requests != w.Requests {
			return 0, fmt.Errorf("admitted %d of %d", met.Requests, w.Requests)
		}
		return met.Fulfilled, nil
	})
	if err != nil {
		return nil, err
	}
	return sec, nil
}

// benchModelHold times the engine under hold=k service models: the greedy
// router on reusable-resource traffic of roughly requests requests per row,
// rounds scaled so every model sees the same request count at the same
// utilization. The hold=1,cap=1 row runs the unit-model fast path; the others
// exercise the occupancy-tracking window. The value is the fulfilled count.
func benchModelHold(b *bencher, requests int) (*benchSection, error) {
	w := benchWorkload{Kind: "reusable", TargetRequests: requests, N: 16, D: 4, Load: 0.9, Seed: 11}
	sec := b.section("model_hold", w)
	for _, m := range []core.ServiceModel{{Hold: 1, Cap: 1}, {Hold: 2, Cap: 1}, {Hold: 4, Cap: 2}, {Hold: 8, Cap: 2}} {
		// rate = load*n*cap/hold, so rounds = requests*hold/(load*n*cap) keeps
		// the request count at the target for every model.
		rounds := int(float64(requests) * float64(m.Hold) / (w.Load * float64(w.N) * float64(m.Cap)))
		tr := workload.Reusable(workload.Config{N: w.N, D: w.D, Rounds: rounds, Seed: w.Seed}, m, w.Load)
		err := b.time(sec, m.String(), 1, func() (int, error) {
			greedy, err := registry.NewStrategySpec("compose,router=greedy")
			if err != nil {
				return 0, err
			}
			res, err := core.RunChecked(greedy, tr)
			if err != nil {
				return 0, err
			}
			return res.Fulfilled, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return sec, nil
}

// benchSpecs lists every section BenchMain records, in file order. Gated
// sections are the ones -check-regress reruns: cheap enough for CI.
var benchSpecs = []struct {
	name  string
	gated bool
	run   func(b *bencher, requests int) (*benchSection, error)
}{
	{"engine", false, benchEngine},
	{"offline", false, benchOffline},
	{"max_profit", false, benchMaxProfit},
	{"min_latency", false, benchMinLatency},
	{"incremental_opt", true, benchIncremental},
	{"serve_ingest", true, benchServeIngest},
	{"model_hold", true, benchModelHold},
}

// BenchMain is the main program of cmd/bench: it records the performance
// baseline as JSON, one section per workload. The engine section runs the
// BenchmarkEngine workload (uniform, N=16, D=6, 300 rounds, rate 18, seed 11)
// through each strategy; the offline, max_profit and min_latency sections
// time the segmented parallel optima against their monolithic solvers; the
// incremental_opt, serve_ingest and model_hold sections time the rolling
// optimum, daemon ingest and the engine under service models. The
// checked-in BENCH_engine.json is the reference the alloc-regression tests in
// EXPERIMENTS.md compare against:
//
//	go run ./cmd/bench -out BENCH_engine.json
func BenchMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", stderr)
	out := fs.String("out", "", "output file (default stdout)")
	benchtime := fs.Duration("benchtime", time.Second, "time each row runs for (at least one op)")
	offlineReqs := fs.Int("offline-requests", 1_000_000, "request count for the segmented-optimum benchmark (0 skips it)")
	weightedReqs := fs.Int("weighted-requests", 100_000, "request count for the max-profit benchmark, a tenth of it for min-latency (0 skips both; the monolithic reference is superlinear — ~40 min at the default size)")
	incReqs := fs.Int("incremental-requests", 200_000, "request count for the incremental-optimum benchmark (0 skips it)")
	serveReqs := fs.Int("serve-requests", 50_000, "request count for the serve-ingest benchmark (0 skips it)")
	modelReqs := fs.Int("model-requests", 50_000, "request count per service model for the model_hold benchmark (0 skips it)")
	regressFile := fs.String("check-regress", "", "baseline BENCH_engine.json: rerun its incremental_opt, serve_ingest and model_hold sections at the baseline's sizes and fail if a row's ns/op regresses past -regress-tolerance or is missing (skips everything else)")
	regressTol := fs.Float64("regress-tolerance", 0.25, "allowed fractional ns/op regression in -check-regress mode")
	workers := workersFlag(fs)
	list, describe := listingFlags(fs)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if handled, code := listing(*list, *describe, resolveWorkers(*workers), stdout, stderr); handled {
		return code
	}
	b := &bencher{benchtime: *benchtime, stderr: stderr}
	if *regressFile != "" {
		return benchCheckRegress(b, *regressFile, *regressTol, stdout, stderr)
	}

	// Sized sections run at their flag's request count and are skipped at 0;
	// the engine section's workload is fixed.
	sizes := map[string]int{
		"offline":         *offlineReqs,
		"max_profit":      *weightedReqs,
		"min_latency":     *weightedReqs / 10,
		"incremental_opt": *incReqs,
		"serve_ingest":    *serveReqs,
		"model_hold":      *modelReqs,
	}
	var file benchFile
	for _, spec := range benchSpecs {
		requests, sized := sizes[spec.name]
		if sized && requests <= 0 {
			continue
		}
		sec, err := spec.run(b, requests)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		file.Sections = append(file.Sections, sec)
	}

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&file); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// benchCheckRegress is the CI benchmark-regression guard: it reruns each gated
// section of the baseline at its recorded size and compares every baseline
// row by section.row key. A row whose ns/op grew past tol (fractional — 0.25
// allows +25%) or that the rerun no longer produces fails; getting faster
// never does. Sections benchSpecs does not gate are skipped.
func benchCheckRegress(b *bencher, path string, tol float64, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "parse %s: %v\n", path, err)
		return 1
	}
	want := make(map[string]*benchSection, len(base.Sections))
	for _, sec := range base.Sections {
		want[sec.Name] = sec
	}
	failed, gated := false, 0
	for _, spec := range benchSpecs {
		baseline := want[spec.name]
		if !spec.gated || baseline == nil {
			continue
		}
		gated++
		rerun, err := spec.run(b, baseline.Workload.TargetRequests)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		now := make(map[string]benchRow, len(rerun.Rows))
		for _, row := range rerun.Rows {
			now[row.Key] = row
		}
		for _, row := range baseline.Rows {
			name := spec.name + "." + row.Key
			limit := row.NsPerOp * (1 + tol)
			got, ok := now[row.Key]
			if !ok {
				failed = true
				fmt.Fprintf(stdout, "%-34s baseline %12.0f ns  now %12s     (limit %12.0f)  MISSING\n",
					name, row.NsPerOp, "-", limit)
				continue
			}
			verdict := "ok"
			if got.NsPerOp > limit {
				verdict = "REGRESSED"
				failed = true
			}
			fmt.Fprintf(stdout, "%-34s baseline %12.0f ns  now %12.0f ns  (limit %12.0f)  %s\n",
				name, row.NsPerOp, got.NsPerOp, limit, verdict)
		}
	}
	if gated == 0 {
		fmt.Fprintf(stderr, "%s has no gated section (incremental_opt, serve_ingest or model_hold) to check\n", path)
		return 1
	}
	if failed {
		fmt.Fprintln(stderr, "bench: performance regression past tolerance or a missing row; rerun on a quiet machine or regenerate the baseline with cmd/bench -out")
		return 1
	}
	return 0
}
