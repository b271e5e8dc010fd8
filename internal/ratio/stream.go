package ratio

import (
	"context"
	"fmt"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/pool"
)

// RunStreamChecked executes jobs produced on demand by next on a worker pool
// and delivers their measurements to emit strictly in job order — the
// bounded-memory sibling of RunParallelChecked for sweeps too large to hold
// as a slice. next(i) returns the i-th job, or ok=false to end the stream;
// it is called from a single goroutine in index order, so generators may be
// stateful. emit(i, m) is likewise called from a single goroutine in index
// order, which makes any fold over the results deterministic regardless of
// worker scheduling.
//
// At most 2×workers jobs exist between generation and emission (workers <= 0
// means GOMAXPROCS): the pool's window stops the producer until earlier
// results have been emitted, so memory stays bounded by the pool, not the
// sweep.
// Panics are attributed exactly as in RunParallelChecked: each failed job
// contributes one *JobPanic (in job order) to the joined error, sibling jobs
// run to completion, and failed jobs are skipped by emit.
func RunStreamChecked(next func(i int) (Job, bool), workers int, emit func(i int, m Measurement)) error {
	return RunStreamCtx(context.Background(), next, workers, emit)
}

// RunStreamCtx is RunStreamChecked with cooperative cancellation: when ctx
// is cancelled the producer stops generating jobs, in-flight jobs drain to
// completion, and every finished measurement is still emitted in job order —
// the property a SIGINT handler needs to flush a checkpoint journal without
// dropping completed work. The returned error then includes ctx's error.
func RunStreamCtx(ctx context.Context, next func(i int) (Job, bool), workers int, emit func(i int, m Measurement)) error {
	jobs := func(yield func(Job) bool) {
		for i := 0; ; i++ {
			job, ok := next(i)
			if !ok || !yield(job) {
				return
			}
		}
	}
	return pool.Stream(ctx, workers, nil, jobs, func(job Job) string { return job.Name },
		func(_ struct{}, job Job) Measurement { return runJob(job) }, emit)
}

// SummarizeParallel is Summarize on a worker pool: the per-seed simulations
// and offline optima run concurrently, while the summary is folded strictly
// in seed order, so the result is bit-identical to Summarize for every worker
// count. A panicking seed surfaces as a *JobPanic naming it (the completed
// seeds are still folded and Seeds records only them).
func SummarizeParallel(mk func() core.Strategy, gen func(seed int64) *core.Trace, seeds, workers int) (*Summary, error) {
	var sum Summary
	sum.Strategy = mk().Name()
	err := RunStreamChecked(func(i int) (Job, bool) {
		if i >= seeds {
			return Job{}, false
		}
		seed := int64(i)
		return Job{
			Name:     fmt.Sprintf("seed %d", seed),
			Build:    func() adversary.Construction { return adversary.Construction{Trace: gen(seed)} },
			Strategy: mk,
		}, true
	}, workers, func(_ int, m Measurement) { sum.add(m) })
	return &sum, err
}
