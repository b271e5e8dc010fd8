package ratio

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

// Summarize is the serial oracle of SummarizeParallel: it measures mk()
// against the traces produced by gen(seed) for seeds 0..seeds-1, one after
// the other, and folds each measurement as it completes.
func Summarize(mk func() core.Strategy, gen func(seed int64) *core.Trace, seeds int) *Summary {
	var sum Summary
	for seed := int64(0); seed < int64(seeds); seed++ {
		tr := gen(seed)
		s := mk()
		if sum.Strategy == "" {
			sum.Strategy = s.Name()
		}
		res := core.Run(s, tr)
		sum.Add(Measurement{OPT: offline.Optimum(tr), ALG: res.Fulfilled, Expired: res.Expired})
	}
	return &sum
}

func TestSummarizeParallelMatchesSummarize(t *testing.T) {
	gens := map[string]func(seed int64) *core.Trace{
		"uniform": func(seed int64) *core.Trace {
			return workload.Uniform(workload.Config{N: 4, D: 3, Rounds: 10, Rate: 6, Seed: seed})
		},
		"bursty": func(seed int64) *core.Trace {
			return workload.Bursty(workload.Config{N: 3, D: 2, Rounds: 12, Rate: 2, Seed: seed}, 3, 4, 5)
		},
	}
	for name, gen := range gens {
		want := Summarize(func() core.Strategy { return strategies.NewBalance() }, gen, 8)
		for _, workers := range []int{1, 3} {
			got, err := SummarizeParallel(func() core.Strategy { return strategies.NewBalance() }, gen, 8, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			// Bit-identical, not approximately equal: the parallel runner folds
			// in seed order, so even Welford's order-sensitive accumulator
			// matches exactly.
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d:\n got %+v\nwant %+v", name, workers, got, want)
			}
		}
	}
}

func TestSummarizeParallelCountsStarvedSeeds(t *testing.T) {
	gen := func(seed int64) *core.Trace {
		return workload.Uniform(workload.Config{N: 4, D: 3, Rounds: 10, Rate: 6, Seed: seed})
	}
	sum, err := SummarizeParallel(func() core.Strategy { return idleStrategy{} }, gen, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Starved != 4 || sum.Ratio.N() != 0 {
		t.Fatalf("starved %d ratio-n %d, want 4 and 0", sum.Starved, sum.Ratio.N())
	}
}

func TestSummarizeParallelAttributesPanics(t *testing.T) {
	// Seeds 1 and 3 panic while their traces are generated: the error names
	// both, the sibling seeds still run, and the summary folds exactly the
	// completed seeds, in seed order.
	base := func(seed int64) *core.Trace {
		return workload.Uniform(workload.Config{N: 4, D: 3, Rounds: 10, Rate: 6, Seed: seed})
	}
	gen := func(seed int64) *core.Trace {
		if seed == 1 || seed == 3 {
			panic("boom in gen")
		}
		return base(seed)
	}
	mk := func() core.Strategy { return strategies.NewBalance() }
	got, err := SummarizeParallel(mk, gen, 5, 3)
	if err == nil {
		t.Fatal("panicking seeds produced no error")
	}
	var jp *JobPanic
	if !errors.As(err, &jp) {
		t.Fatalf("error %T is not a *JobPanic", err)
	}
	for _, name := range []string{"seed 1", "seed 3"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name %s", err, name)
		}
	}
	want := Summary{Strategy: "A_balance"}
	for _, seed := range []int64{0, 2, 4} {
		tr := base(seed)
		res := core.Run(mk(), tr)
		want.Add(Measurement{OPT: offline.Optimum(tr), ALG: res.Fulfilled, Expired: res.Expired})
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("summary of the completed seeds:\n got %+v\nwant %+v", *got, want)
	}
}
