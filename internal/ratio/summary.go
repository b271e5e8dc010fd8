package ratio

import (
	"fmt"
	"math"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/stats"
)

// Summary aggregates a strategy's empirical competitive ratio over a family
// of workloads (one per seed): mean, deviation and extremes of OPT/ALG, plus
// service-rate statistics. Used by cmd/schedsim -seeds and the examples to
// report numbers that do not hinge on a single seed.
type Summary struct {
	Strategy string
	Seeds    int
	Ratio    stats.Acc
	Served   stats.Acc
	Expired  stats.Acc
	// Starved counts seeds where the strategy fulfilled nothing although the
	// offline optimum was positive. Such runs have an infinite empirical
	// ratio and cannot be folded into the mean, so they are counted
	// explicitly instead of being silently skipped (which would bias the
	// mean optimistically).
	Starved int
}

func (s *Summary) String() string {
	// A summary with no finite-ratio samples (every seed starved) would
	// otherwise print the accumulator's zero values — "ratio 0.0000±0.0000
	// (max 0.0000)" — which reads as a perfect score instead of a total loss.
	if s.Ratio.N() == 0 {
		return fmt.Sprintf("%s over %d seeds: ratio n/a (no finite samples), served %.1f±%.1f, starved %d",
			s.Strategy, s.Seeds, s.Served.Mean(), s.Served.Std(), s.Starved)
	}
	return fmt.Sprintf("%s over %d seeds: ratio %.4f±%.4f (max %.4f), served %.1f±%.1f, starved %d",
		s.Strategy, s.Seeds, s.Ratio.Mean(), s.Ratio.Std(), s.Ratio.Max(),
		s.Served.Mean(), s.Served.Std(), s.Starved)
}

// Summarize measures mk() against the traces produced by gen(seed) for seeds
// 0..seeds-1.
func Summarize(mk func() core.Strategy, gen func(seed int64) *core.Trace, seeds int) *Summary {
	var sum Summary
	for seed := int64(0); seed < int64(seeds); seed++ {
		tr := gen(seed)
		s := mk()
		if sum.Strategy == "" {
			sum.Strategy = s.Name()
		}
		res := core.Run(s, tr)
		sum.add(Measurement{OPT: offline.Optimum(tr), ALG: res.Fulfilled, Expired: res.Expired})
	}
	return &sum
}

// add folds one seed's measurement into the summary. A seed where the
// strategy starved while OPT served has an infinite ratio: it is counted in
// Starved instead of the mean.
func (s *Summary) add(m Measurement) {
	s.Seeds++
	if r := m.Ratio(); math.IsInf(r, 1) {
		s.Starved++
	} else {
		s.Ratio.Add(r)
	}
	s.Served.Add(float64(m.ALG))
	s.Expired.Add(float64(m.Expired))
}
