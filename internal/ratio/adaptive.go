// Streaming adaptive measurement. RunAdaptive materializes the adversary's
// whole trace before the offline optimum is taken — fine for the paper-sized
// constructions, horizon-proportional memory for long adaptive runs. The
// streaming path instead pipes the engine's generated rounds through a
// trace.SegmentCutter as they are produced and folds each finished segment
// into the segmented offline solver, so peak memory is the largest segment
// (plus workers in flight), not the run.
package ratio

import (
	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/trace"
)

// RunAdaptiveStream runs s against an adaptive source and computes its
// competitive ratio incrementally: every round the adversary generates is
// pushed through a clean-cut segmenter, and finished segments are solved on
// an offline.OptimumStream worker pool while the run is still in progress.
// At a clean cut every earlier request is already served or expired, so the
// flushed rows are no longer referenced by the engine and the garbage
// collector reclaims them — the full trace never exists in memory. It
// returns the measurement (identical OPT, ALG and Expired to MeasureAdaptive
// on the same source) and the number of segments the run decomposed into.
// workers <= 0 means GOMAXPROCS; workers == 1 takes the incremental fast
// path, which maintains the optimum matching request by request instead of
// materializing and solving segment sub-traces — same values, no per-segment
// graph construction.
func RunAdaptiveStream(s core.Strategy, src core.AdaptiveSource, workers int) (Measurement, int) {
	if workers == 1 {
		return runAdaptiveIncremental(s, src)
	}
	var res *core.Result
	segs := func(yield func(*core.Trace, error) bool) {
		sc := trace.NewSegmentCutter(src.N(), src.D())
		r, ok := core.RunAdaptiveObserved(s, src, func(t int, arrivals []core.Request) bool {
			for i := range arrivals {
				a := &arrivals[i]
				rec := trace.StreamRecord{T: a.Arrive, D: a.D, W: a.Weight(), Alts: a.Alts}
				if done := sc.Add(rec); done != nil && !yield(done, nil) {
					return false
				}
			}
			return true
		})
		res = r
		if !ok {
			return
		}
		if done := sc.Finish(); done != nil {
			yield(done, nil)
		}
	}
	opt, nsegs, err := offline.OptimumStream(segs, workers)
	if err != nil {
		// The iterator above never yields an error; OptimumStream can only
		// propagate one from it.
		panic(err)
	}
	return Measurement{
		Strategy: s.Name(),
		Input:    "adaptive",
		N:        src.N(),
		D:        src.D(),
		OPT:      opt,
		ALG:      res.Fulfilled,
		Expired:  res.Expired,
	}, nsegs
}

// runAdaptiveIncremental is the single-worker shape of RunAdaptiveStream:
// arrivals feed an offline.IncrementalOpt directly, sealed at exactly the
// clean cuts the SegmentCutter would make (arrival round past every earlier
// deadline), so OPT and the segment count match the pool path bit for bit
// while no segment sub-trace is ever materialized.
func runAdaptiveIncremental(s core.Strategy, src core.AdaptiveSource) (Measurement, int) {
	inc := offline.NewIncrementalOpt(src.N())
	cut := core.NewCleanCut(core.UnitModel())
	opt, nsegs := 0, 0
	res, ok := core.RunAdaptiveObserved(s, src, func(t int, arrivals []core.Request) bool {
		for i := range arrivals {
			a := &arrivals[i]
			if cut.Cuts(a.Arrive) {
				opt += inc.Seal()
				nsegs++
				cut.Reset()
			}
			inc.Add(a.Arrive, a.D, a.Alts)
			cut.Add(a.Deadline())
		}
		return true
	})
	if ok && inc.Count() > 0 {
		opt += inc.Seal()
		nsegs++
	}
	return Measurement{
		Strategy: s.Name(),
		Input:    "adaptive",
		N:        src.N(),
		D:        src.D(),
		OPT:      opt,
		ALG:      res.Fulfilled,
		Expired:  res.Expired,
	}, nsegs
}
