package ratio

import (
	"reqsched/internal/core"
	"reqsched/internal/offline"
)

// RunAdaptiveStream runs s against an adaptive source and computes its
// competitive ratio as the run goes. RunAdaptive materializes the adversary's
// whole trace before the optimum is taken; here every arrival the adversary
// generates feeds an offline.IncrementalOpt at once, which is sealed at each
// clean cut (an arrival round past every earlier deadline). The trace never
// exists in memory: the matcher holds the widest open window, not the run.
// It returns the measurement (identical OPT, ALG and Expired to
// MeasureAdaptive on the same source) and the number of segments the run
// decomposed into. The serve daemon's rolling optimum is the same engine.
func RunAdaptiveStream(s core.Strategy, src core.AdaptiveSource) (Measurement, int) {
	inc := offline.NewIncrementalOpt(src.N())
	cut := core.NewCleanCut(core.UnitModel())
	opt, nsegs := 0, 0
	res, _ := core.RunAdaptiveObserved(s, src, func(t int, arrivals []core.Request) bool {
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
	if inc.Count() > 0 {
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
