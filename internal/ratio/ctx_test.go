package ratio

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

func ctxTestJob(seed int64) Job {
	return Job{
		Name: "ctx job",
		Build: func() adversary.Construction {
			return adversary.Construction{Trace: workload.Uniform(workload.Config{
				N: 3, D: 2, Rounds: 10, Rate: 3, Seed: seed,
			})}
		},
		Strategy: func() core.Strategy { return nil },
	}
}

func measureJob(seed int64, mk func() core.Strategy) Job {
	j := ctxTestJob(seed)
	j.Strategy = mk
	return j
}

func TestRunParallelCtxCancelKeepsFinishedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch: no job should run
	jobs := make([]Job, 8)
	var ran atomic.Int64
	for i := range jobs {
		seed := int64(i)
		jobs[i] = measureJob(seed, func() core.Strategy {
			ran.Add(1)
			return strategies.NewFix()
		})
	}
	out, err := RunParallelCtx(ctx, jobs, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(out) != len(jobs) {
		t.Fatalf("got %d slots, want %d", len(out), len(jobs))
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran despite pre-cancelled context", ran.Load())
	}
}

func TestRunStreamCtxCancelDrainsCompletedWork(t *testing.T) {
	// Cancelled mid-run, as by a SIGINT: the job that cancels and every job
	// already running drain and keep their measurements, nothing further is
	// dispatched, and the error reports the cancellation. (Named for the
	// streaming entry point it first covered; RunParallelCtx is the pool's
	// one entry now.)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job, 64)
	var started atomic.Int64
	for i := range jobs {
		jobs[i] = measureJob(int64(i), func() core.Strategy {
			if started.Add(1) == 3 {
				cancel()
			}
			return strategies.NewFix()
		})
	}
	out, err := RunParallelCtx(ctx, jobs, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	finished := 0
	for _, m := range out {
		if m.OPT > 0 {
			finished++
		}
	}
	if n := started.Load(); finished != int(n) || n < 3 || n > 3+2 {
		t.Fatalf("%d jobs started, %d kept a measurement; want every started job kept and at most one more per worker", n, finished)
	}
}

func TestRunParallelCtxBackgroundMatchesChecked(t *testing.T) {
	// The pool's measurements equal MeasureChecked run serially on the
	// same inputs, labelled with the job names.
	jobs := []Job{
		measureJob(1, func() core.Strategy { return strategies.NewFix() }),
		measureJob(2, func() core.Strategy { return strategies.NewFix() }),
	}
	got, err := RunParallelCtx(context.Background(), jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want, err := MeasureChecked(j.Strategy(), j.Build().Trace)
		if err != nil {
			t.Fatal(err)
		}
		want.Input = j.Name
		if got[i] != want {
			t.Fatalf("job %d: %+v vs %+v", i, got[i], want)
		}
	}
}
