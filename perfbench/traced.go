package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"reqsched/internal/core"
	"reqsched/internal/grid"
	"reqsched/internal/offline"
	"reqsched/internal/registry"
	"reqsched/internal/runner"
	"reqsched/internal/serve"
	"reqsched/internal/trace"
)

// span is one timed call into a layer's public function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // line index of the enclosing span; -1 for a root
	ID     int32  `json:"id"`     // chunk, round or cell id
	N      int32  `json:"n"`      // records or requests the call handled
}

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// open starts a span that end closes; spans opened meanwhile may name it as
// their parent.
func (r *recorder) open(name string, parent, id int32) int32 {
	return r.add(span{Name: name, Start: r.now(), Parent: parent, ID: id})
}

// end closes span i and returns its duration in ns.
func (r *recorder) end(i int32, n int) int64 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End, r.spans[i].N = t, int32(n)
	return t - r.spans[i].Start
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scope is where a tracedStrategy's round spans nest.
type scope struct{ parent, id int32 }

// tracedStrategy times a strategy's Round calls. It forwards Name and
// core.CommAccountant, so labels, results and the local strategies' traffic
// totals are those of the wrapped strategy.
type tracedStrategy struct {
	inner core.Strategy
	rec   *recorder
	sc    *scope
	// cell >= 0 makes Begin open a "ratio.cell" span under poolParent that
	// the engine's closing CommTotals call ends: one span per pool cell.
	cell, poolParent, open int32

	roundNS int64
}

func (t *tracedStrategy) Name() string { return t.inner.Name() }

func (t *tracedStrategy) Begin(n, d int) {
	if t.cell >= 0 {
		t.open = t.rec.open("ratio.cell", t.poolParent, t.cell)
		t.sc = &scope{parent: t.open, id: t.cell}
	}
	t.inner.Begin(n, d)
}

func (t *tracedStrategy) Round(ctx *core.RoundContext) {
	start := t.rec.now()
	t.inner.Round(ctx)
	end := t.rec.now()
	t.roundNS += end - start
	t.rec.add(span{Name: "strategies.round", Start: start, End: end, Parent: t.sc.parent, ID: t.sc.id, N: int32(len(ctx.Arrivals))})
}

// CommTotals forwards the wrapped strategy's traffic totals. The engine
// calls it once, when it finishes a run, which is where a cell span ends.
func (t *tracedStrategy) CommTotals() (rounds, messages int) {
	if t.cell >= 0 {
		t.rec.end(t.open, 0)
	}
	if ca, ok := t.inner.(core.CommAccountant); ok {
		return ca.CommTotals()
	}
	return 0, 0
}

// tracedPrefix names the registered traced strategies: runner.Run builds
// strategies from registry specs, so the traced pool pass resolves
// "perfbench.traced.<S>,cell=<i>" to a tracedStrategy around <S>.
const tracedPrefix = "perfbench.traced."

// poolTrace is where the traced strategies of a pool pass record; it is set
// before the pass starts.
var poolTrace struct {
	sync.Mutex
	rec    *recorder
	parent int32
}

func init() {
	for _, name := range sweepStrategies {
		name := name
		registry.Register(registry.Component{
			Kind: registry.KindStrategy, Name: tracedPrefix + name,
			Doc: "benchmark timing wrapper around " + name,
			Params: []registry.Param{{Name: "cell", Doc: "cell id the spans carry", Type: registry.Int,
				Default: registry.IntVal(0), Min: registry.Bound(0)}},
			Strategy: func(p registry.Params) core.Strategy {
				inner, err := registry.NewStrategy(name, nil)
				if err != nil {
					panic(err) // a sweepStrategies entry is not registered
				}
				poolTrace.Lock()
				defer poolTrace.Unlock()
				return &tracedStrategy{inner: inner, rec: poolTrace.rec, cell: int32(p.Int("cell")), poolParent: poolTrace.parent}
			},
		})
	}
}

// tracedPlan is everything a traced pass replays, built once per run
// outside timing: the serve path on one stream and the batch path on a
// manifest of cells.
type tracedPlan struct {
	w      serveWorkload
	ss     *serveStream
	segCum []int // requests in the first k segments; the daemon seals at the same cuts

	records     []runner.Record
	jobs        []grid.Job
	tracedJobs  []grid.Job
	want        []cellExpect
	strategies  []string
	numRequests int // requests over all cells
}

// newTracedPlan builds the plan of a workload. A serve workload replays its
// own stream and measures the nine strategies on cells of the same traffic;
// sweep_grid measures its own manifest and replays the serve path with
// A_balance on its uniform cell.
func newTracedPlan(wl string, seed int64) (*tracedPlan, error) {
	p := &tracedPlan{strategies: sweepStrategies}
	var srcs []source
	if w, ok := serveWorkloads[wl]; ok {
		p.w = w
		cp := w.params.Clone()
		cp["rounds"] = registry.IntVal(int64(w.cellRounds))
		srcs = []source{{w.source, cp}}
	} else {
		srcs = sweepSources()
		p.w = serveWorkload{strategy: "A_balance", source: srcs[0].name, params: srcs[0].params, scrape: sweepReadEvery}
	}
	var err error
	if p.ss, err = buildServeStream(p.w, seed); err != nil {
		return nil, err
	}
	p.segCum = []int{0}
	for _, seg := range offline.SegmentTrace(p.ss.tr) {
		p.segCum = append(p.segCum, p.segCum[len(p.segCum)-1]+len(seg.Reqs))
	}
	p.records = manifestRecords(p.strategies, srcs, seed, "")
	if p.jobs, err = runner.Manifest(p.records); err != nil {
		return nil, err
	}
	if p.tracedJobs, err = runner.Manifest(manifestRecords(p.strategies, srcs, seed, tracedPrefix)); err != nil {
		return nil, err
	}
	if p.want, err = expectCells(p.jobs); err != nil {
		return nil, err
	}
	for _, w := range p.want {
		p.numRequests += w.requests
	}
	return p, nil
}

// passOut is one traced pass's per-layer values plus its check tallies.
type passOut struct {
	vals              map[string]float64
	attempted, failed int
}

func (o *passOut) check(ok bool, units int, what string, args ...any) {
	o.attempted += units
	if !ok {
		o.failed += units
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+what+"\n", args...)
	}
}

// pass runs every traced replay once.
func (p *tracedPlan) pass(rec *recorder) (*passOut, error) {
	out := &passOut{vals: map[string]float64{}}
	if err := p.servePath(rec, out); err != nil {
		return nil, err
	}
	if err := p.batchPath(rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// servePath replays the daemon's ingest path layer by layer on the stream.
func (p *tracedPlan) servePath(rec *recorder, out *passOut) error {
	ss, w := p.ss, p.w
	recs := float64(ss.want.requests)
	n, d := w.n(), w.d()

	// trace: scan every chunk, then decode its lines, as the ingest handler
	// does; a second, untimed decode pass counts allocations.
	var scanNS, decodeNS int64
	lines := make([][][]byte, len(ss.chunks))
	var sr trace.StreamRecord
	index := 0
	for i, body := range ss.chunks {
		sp := rec.open("trace.scan", -1, int32(i))
		br := bufio.NewReader(bytes.NewReader(body))
		var off int64
		for {
			line, next, err := trace.ScanJSONLine(br, off)
			if err != nil {
				break
			}
			off = next
			lines[i] = append(lines[i], line)
		}
		scanNS += rec.end(sp, len(lines[i]))
		sp = rec.open("trace.decode", -1, int32(i))
		bad := 0
		for _, line := range lines[i] {
			if trace.DecodeStreamRecordInto(&sr, line, n, d, index) != nil {
				bad++
			}
			index++
		}
		decodeNS += rec.end(sp, len(lines[i]))
		out.check(bad == 0 && len(lines[i]) == ss.counts[i], ss.counts[i], "chunk %d: %d lines, %d undecodable", i, len(lines[i]), bad)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, chunk := range lines {
		for _, line := range chunk {
			_ = trace.DecodeStreamRecordInto(&sr, line, n, d, 0)
		}
	}
	runtime.ReadMemStats(&m1)
	out.vals["trace.scan_ns_per_rec"] = float64(scanNS) / recs
	out.vals["trace.decode_ns_per_rec"] = float64(decodeNS) / recs
	out.vals["trace.decode_allocs_per_rec"] = float64(m1.Mallocs-m0.Mallocs) / recs

	// serve: in-process ingest, untraced then traced.
	plain, err := registry.NewStrategySpec(w.strategy)
	if err != nil {
		return err
	}
	pi := p.ingest(plain, nil, nil, out)
	inner, err := registry.NewStrategySpec(w.strategy)
	if err != nil {
		return err
	}
	sc := &scope{parent: -1}
	ti := p.ingest(&tracedStrategy{inner: inner, rec: rec, sc: sc, cell: -1}, rec, sc, out)
	out.vals["serve.ingest_ns_per_rec"] = float64(pi.chunkNS) / recs
	out.vals["serve.alloc_bytes_per_rec"] = float64(pi.allocBytes) / recs
	out.vals["serve.gc_cpu_frac"] = pi.gcFrac
	out.vals["serve.metrics_ns_per_call"] = mean(ti.metricsNS)
	out.vals["serve.opt_lag_requests"] = mean(ti.lag)
	out.vals["serve.opt_lag_frac"] = mean(ti.lagFrac)
	out.vals["overhead.ingest_rps_untraced"] = recs / pi.wall.Seconds()
	out.vals["overhead.ingest_rps_traced"] = recs / ti.wall.Seconds()
	out.vals["overhead.ingest_frac"] = 1 - pi.wall.Seconds()/ti.wall.Seconds()

	// core: the daemon's Stepper driven round by round on the same arrivals,
	// once timed and once counting the strategy's allocations.
	stepNS, roundNS, err := p.stepReplay(rec, out, false)
	if err != nil {
		return err
	}
	_, roundAllocs, err := p.stepReplay(rec, out, true)
	if err != nil {
		return err
	}
	out.vals["core.step_ns_per_rec"] = float64(stepNS) / recs
	out.vals["core.step_self_ns_per_rec"] = float64(stepNS-roundNS) / recs
	out.vals["strategies.round_ns_per_rec"] = float64(roundNS) / recs
	out.vals["strategies.round_allocs_per_rec"] = float64(roundAllocs) / recs
	// serve self time: the traced chunks minus the rounds nested in them,
	// less the scan, decode and engine work the replays measured.
	selfNS := ti.chunkNS - ti.roundNS - scanNS - decodeNS - (stepNS - roundNS)
	out.vals["serve.self_ns_per_rec"] = float64(selfNS) / recs

	// offline: the rolling-OPT worker's incremental matching, sealed where
	// the daemon seals.
	inc := offline.NewIncrementalOpt(n)
	var addNS, sealNS int64
	opt, segs, fed := 0, 0, 0
	seal := func() {
		sp := rec.open("offline.inc_seal", -1, int32(segs))
		opt += inc.Seal()
		sealNS += rec.end(sp, 1)
		segs++
	}
	for t, row := range ss.tr.Arrivals {
		if len(row) == 0 {
			continue
		}
		if fed > 0 && fed == p.segCum[segs+1] {
			seal()
		}
		sp := rec.open("offline.inc_add", -1, int32(t))
		for i := range row {
			inc.AddRequest(&row[i])
		}
		fed += len(row)
		addNS += rec.end(sp, len(row))
	}
	seal()
	out.check(opt == ss.want.opt, ss.want.requests, "incremental OPT %d, offline.Optimum %d", opt, ss.want.opt)
	out.vals["offline.inc_add_ns_per_rec"] = float64(addNS) / recs
	out.vals["offline.inc_seal_ns_per_seg"] = float64(sealNS) / float64(segs)
	out.vals["offline.inc_segments"] = float64(segs)

	shares(out.vals, "serve", map[string]float64{
		"trace":      float64(scanNS + decodeNS),
		"serve":      float64(selfNS),
		"core":       float64(stepNS - roundNS),
		"strategies": float64(roundNS),
		"offline":    float64(addNS + sealNS),
	})
	return nil
}

// ingestRun is one in-process ingest of the whole stream.
type ingestRun struct {
	wall                    time.Duration
	chunkNS                 int64 // summed ServeHTTP time
	roundNS                 int64 // Round time nested in the chunks (traced ingest only)
	allocBytes              uint64
	gcFrac                  float64
	metricsNS, lag, lagFrac []float64
}

var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/user:cpu-seconds"}

// ingest feeds every chunk to an in-process Server through ServeHTTP, with
// a reader calling Server.Metrics on the workload's scrape schedule, and
// drains it. With rec set, chunks, drain and Metrics calls become spans and
// sc tells the traced strategy which chunk its rounds belong to.
func (p *tracedPlan) ingest(strat core.Strategy, rec *recorder, sc *scope, out *passOut) ingestRun {
	ss, w := p.ss, p.w
	var r ingestRun
	s, err := serve.New(serve.Config{N: w.n(), D: w.d(), Strategy: strat, StrategyName: w.strategy, Virtual: true})
	if err != nil {
		out.check(false, ss.want.requests, "serve.New: %v", err)
		return r
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		calls := int32(0)
		scrapeLoop(stop, w.scrape, func() bool {
			var sp int32
			if rec != nil {
				sp = rec.open("serve.metrics", -1, calls)
			}
			t0 := time.Now()
			m := s.Metrics()
			r.metricsNS = append(r.metricsNS, float64(time.Since(t0)))
			if rec != nil {
				rec.end(sp, 0)
			}
			calls++
			// Admitted requests that no solved segment holds yet: the rolling
			// OPT's backlog, which grows until a segment seals.
			if m.Requests > 0 {
				lag := float64(m.Requests - p.segCum[min(m.Rolling.Solved, len(p.segCum)-1)])
				r.lag = append(r.lag, lag)
				r.lagFrac = append(r.lagFrac, lag/float64(m.Requests))
			}
			return true
		})
	}()

	cpu := make([]metrics.Sample, len(cpuSamples))
	for i, name := range cpuSamples {
		cpu[i].Name = name
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	metrics.Read(cpu)
	gc0, user0 := cpu[0].Value.Float64(), cpu[1].Value.Float64()
	begin := time.Now()
	for i, body := range ss.chunks {
		var sp int32
		if rec != nil {
			sp = rec.open("serve.ingest", -1, int32(i))
			sc.parent, sc.id = sp, int32(i)
		}
		t0 := time.Now()
		rw := httptest.NewRecorder()
		s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body)))
		r.chunkNS += int64(time.Since(t0))
		if rec != nil {
			rec.end(sp, ss.counts[i])
		}
		out.check(rw.Code == http.StatusOK && strings.Contains(rw.Body.String(), fmt.Sprintf(`"accepted":%d`, ss.counts[i])),
			ss.counts[i], "in-process POST %d: %d %s", i, rw.Code, rw.Body.String())
	}
	close(stop)
	wg.Wait()
	var sp int32
	if rec != nil {
		sp = rec.open("serve.drain", -1, 0)
		sc.parent, sc.id = sp, 0
	}
	m := s.Drain()
	if rec != nil {
		rec.end(sp, m.Requests)
	}
	r.wall = time.Since(begin)
	if ts, ok := strat.(*tracedStrategy); ok {
		r.roundNS = ts.roundNS
	}
	runtime.ReadMemStats(&m1)
	metrics.Read(cpu)
	gc, user := cpu[0].Value.Float64()-gc0, cpu[1].Value.Float64()-user0
	if gc+user > 0 {
		r.gcFrac = gc / (gc + user)
	}
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	err = ss.want.check(m)
	out.check(err == nil, ss.want.requests, "in-process drain: %v", err)
	return r
}

// stepReplay drives a Stepper over the stream the way the virtual-clock
// daemon does, one Step per round. Timed, the strategy is wrapped and it
// returns the total Step and Round time; with countAllocs the strategy runs
// bare and it returns the heap allocations of all Step calls, which are the
// strategy's: the engine reuses its per-round scratch.
func (p *tracedPlan) stepReplay(rec *recorder, out *passOut, countAllocs bool) (stepNS, round int64, err error) {
	tr, w := p.ss.tr, p.w
	strat, err := registry.NewStrategySpec(w.strategy)
	if err != nil {
		return 0, 0, err
	}
	sc := &scope{parent: -1}
	ts := &tracedStrategy{inner: strat, rec: rec, sc: sc, cell: -1}
	if !countAllocs {
		strat = ts
	}
	st := core.NewStepper(strat, w.n(), w.d(), w.d())
	st.KeepLog = false
	var arrivals []*core.Request
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for t, horizon := 0, tr.Horizon(); t < horizon; t++ {
		arrivals = arrivals[:0]
		if t < len(tr.Arrivals) {
			for i := range tr.Arrivals[t] {
				arrivals = append(arrivals, &tr.Arrivals[t][i])
			}
		}
		if countAllocs {
			st.Step(arrivals)
			continue
		}
		sp := rec.open("core.step", -1, int32(t))
		sc.parent, sc.id = sp, int32(t)
		st.Step(arrivals)
		stepNS += rec.end(sp, len(arrivals))
	}
	runtime.ReadMemStats(&m1)
	res := st.Finish()
	out.check(res.Fulfilled == p.ss.want.fulfilled, p.ss.want.requests,
		"stepper replay fulfilled %d, core.Run %d", res.Fulfilled, p.ss.want.fulfilled)
	if countAllocs {
		return 0, int64(m1.Mallocs - m0.Mallocs), nil
	}
	return stepNS, ts.roundNS, nil
}

// batchPath measures the manifest: build time, an untraced and a traced
// runner.Run pass, and a serial per-cell replay that splits a cell into
// workload generation, core.Run and offline.Optimum.
func (p *tracedPlan) batchPath(rec *recorder, out *passOut) error {
	cells := float64(len(p.jobs))
	reqs := float64(p.numRequests)

	sp := rec.open("runner.manifest", -1, 0)
	buildNS, err := timeManifest(p.records)
	if err != nil {
		return err
	}
	rec.end(sp, len(p.records))
	out.vals["runner.manifest_ns_per_cell"] = median(buildNS) / cells

	pool := func(jobs []grid.Job, traced bool) (time.Duration, error) {
		sp := rec.open("runner.run", -1, b2i(traced))
		if traced {
			poolTrace.Lock()
			poolTrace.rec, poolTrace.parent = rec, sp
			poolTrace.Unlock()
		}
		t0 := time.Now()
		res, err := runner.Run(context.Background(), jobs, runner.Options{Tool: "perfbench", Workers: workers()})
		wall := time.Since(t0)
		rec.end(sp, len(jobs))
		if err != nil {
			return 0, err
		}
		for i, m := range res.Measurements {
			want := p.want[i]
			out.check(m.OPT == want.opt && m.ALG == want.alg, 1,
				"pool cell %d (%s): OPT/ALG %d/%d, expected %d/%d", i, p.jobs[i].Name, m.OPT, m.ALG, want.opt, want.alg)
		}
		return wall, nil
	}
	plainWall, err := pool(p.jobs, false)
	if err != nil {
		return err
	}
	tracedWall, err := pool(p.tracedJobs, true)
	if err != nil {
		return err
	}
	out.vals["overhead.cells_per_s_untraced"] = cells / plainWall.Seconds()
	out.vals["overhead.cells_per_s_traced"] = cells / tracedWall.Seconds()
	out.vals["overhead.cells_frac"] = 1 - plainWall.Seconds()/tracedWall.Seconds()

	var genNS, runSelfNS, roundNS, optNS, optAllocs, serialNS int64
	stratNS := map[string]int64{}
	stratAllocs := map[string]uint64{}
	stratReqs := map[string]int{}
	var m0, m1 runtime.MemStats
	for i, job := range p.jobs {
		id := int32(i)
		sp := rec.open("workload.gen", -1, id)
		c, err := job.Spec.Build.Construction()
		if err != nil {
			return err
		}
		tr := c.Trace
		g := rec.end(sp, tr.NumRequests())
		genNS += g

		plain, err := registry.NewStrategySpec(job.Spec.Strategy)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		want := core.Run(plain, tr)
		run := time.Since(t0)
		runtime.ReadMemStats(&m1)
		stratAllocs[job.Spec.Strategy] += m1.Mallocs - m0.Mallocs

		inner, err := registry.NewStrategySpec(job.Spec.Strategy)
		if err != nil {
			return err
		}
		sc := &scope{id: id}
		ts := &tracedStrategy{inner: inner, rec: rec, sc: sc, cell: -1}
		sc.parent = rec.open("core.run", -1, id)
		got := core.Run(ts, tr)
		runNS := rec.end(sc.parent, tr.NumRequests())
		runSelfNS += runNS - ts.roundNS
		roundNS += ts.roundNS
		stratNS[job.Spec.Strategy] += ts.roundNS
		stratReqs[job.Spec.Strategy] += tr.NumRequests()
		out.check(got.Fulfilled == want.Fulfilled && got.Fulfilled == p.want[i].alg &&
			got.CommRounds == want.CommRounds && got.Messages == want.Messages, 1,
			"traced core.Run of %s: fulfilled %d, comm %d/%d; plain %d, comm %d/%d",
			job.Name, got.Fulfilled, got.CommRounds, got.Messages, want.Fulfilled, want.CommRounds, want.Messages)

		runtime.ReadMemStats(&m0)
		sp = rec.open("offline.optimum", -1, id)
		opt := offline.Optimum(tr)
		o := rec.end(sp, tr.NumRequests())
		runtime.ReadMemStats(&m1)
		optNS += o
		optAllocs += int64(m1.Mallocs - m0.Mallocs)
		out.check(opt == p.want[i].opt, 1, "offline.Optimum of %s: %d, incremental %d", job.Name, opt, p.want[i].opt)
		serialNS += g + int64(run) + o
	}
	for _, s := range p.strategies {
		out.vals["strategies."+s+".ns_per_req"] = float64(stratNS[s]) / float64(stratReqs[s])
		out.vals["strategies."+s+".allocs_per_req"] = float64(stratAllocs[s]) / float64(stratReqs[s])
	}
	out.vals["workload.gen_ns_per_req"] = float64(genNS) / reqs
	out.vals["core.run_self_ns_per_req"] = float64(runSelfNS) / reqs
	out.vals["offline.optimum_ns_per_req"] = float64(optNS) / reqs
	out.vals["offline.optimum_allocs_per_req"] = float64(optAllocs) / reqs
	out.vals["ratio.pool_busy_frac"] = float64(serialNS) / (float64(workers()) * float64(plainWall))
	shares(out.vals, "sweep", map[string]float64{
		"workload":   float64(genNS),
		"core":       float64(runSelfNS),
		"strategies": float64(roundNS),
		"offline":    float64(optNS),
	})
	return nil
}

// shares stores each layer's fraction of the path's total under
// "share.<path>.<layer>"; BENCHMARK.json does not list them, so they are
// printed, not reported.
func shares(vals map[string]float64, path string, ns map[string]float64) {
	total := 0.0
	for _, v := range ns {
		total += v
	}
	for k, v := range ns {
		vals["share."+path+"."+k] = v / total
	}
}

// tracedRun is the per-layer run of a workload: traced passes until the
// budget is spent, each metric reported as its median over passes. The
// last pass's spans are written to <out>/spans-<workload>.jsonl.
func tracedRun(wl string, seed int64, budget time.Duration, outDir string) (result, error) {
	var res result
	plan, err := newTracedPlan(wl, seed)
	if err != nil {
		return res, err
	}
	var passes []*passOut
	var rec *recorder
	begin := time.Now()
	for len(passes) == 0 || time.Since(begin) < budget {
		rec = newRecorder()
		po, err := plan.pass(rec)
		if err != nil {
			return res, err
		}
		passes = append(passes, po)
		res.Attempted += po.attempted
		res.Failed += po.failed
	}
	for name := range passes[0].vals {
		var xs []float64
		for _, po := range passes {
			xs = append(xs, po.vals[name])
		}
		res.set(name, median(xs))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	path := filepath.Join(outDir, "spans-"+wl+".jsonl")
	if err := rec.write(path); err != nil {
		return res, err
	}
	var names []string
	for name := range res.vals {
		if strings.HasPrefix(name, "share.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %d traced passes, %d spans of the last in %s\n", len(passes), len(rec.spans), path)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %-26s %.3f\n", name, res.vals[name])
	}
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
