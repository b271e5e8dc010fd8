package ratio

import (
	"context"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/pool"
)

// Job is one measurement for RunParallel: a construction factory paired with
// a strategy factory. Factories, not instances, because constructions with
// adaptive sources and most strategies are stateful and must not be shared
// across goroutines.
type Job struct {
	// Name labels the measurement in the result.
	Name string
	// Build creates the adversarial input.
	Build func() adversary.Construction
	// Strategy creates the online strategy to measure.
	Strategy func() core.Strategy
}

// JobPanic reports that one job of a parallel sweep panicked. The job's name
// and index attribute the failure; Value is the recovered panic value and
// Stack the goroutine stack captured at recovery. Sibling jobs are
// unaffected: they run to completion before the error is surfaced.
type JobPanic = pool.JobPanic

// RunParallel executes the jobs on up to `workers` goroutines (GOMAXPROCS if
// workers <= 0) and returns the measurements in job order. Each job runs a
// full simulation plus a Hopcroft–Karp optimum, so the work units are coarse
// and the speedup is near-linear; the Table 1 harness and the sweep tool use
// it to regenerate the whole evaluation in one pass.
//
// A job that panics does not take the sweep down anonymously: the panic is
// recovered per job, siblings finish, and RunParallel re-panics with a
// *JobPanic naming the offending job. Callers that prefer an error use
// RunParallelChecked.
func RunParallel(jobs []Job, workers int) []Measurement {
	out, err := RunParallelChecked(jobs, workers)
	if err != nil {
		panic(err)
	}
	return out
}

// RunParallelChecked is RunParallel returning job panics as an error instead
// of re-panicking. The measurements of the jobs that completed are returned
// in job order either way (failed jobs leave their zero value); the error
// joins one *JobPanic per failed job, in job order.
func RunParallelChecked(jobs []Job, workers int) ([]Measurement, error) {
	return RunParallelCtx(context.Background(), jobs, workers)
}

// RunParallelCtx is RunParallelChecked with cooperative cancellation: when
// ctx is cancelled, no further jobs are dispatched, but jobs already running
// drain to completion and their measurements are kept — so a SIGINT-driven
// caller loses no finished work. The returned error then includes ctx's
// error alongside any per-job panics; undispatched jobs keep their zero
// Measurement.
func RunParallelCtx(ctx context.Context, jobs []Job, workers int) ([]Measurement, error) {
	out := make([]Measurement, len(jobs))
	err := pool.Each(ctx, len(jobs), workers, nil, func(i int) string { return jobs[i].Name },
		func(_ struct{}, i int) { out[i] = runJob(jobs[i]) })
	return out, err
}

// runJob builds the job's input and strategy and measures them, labelling
// the measurement with the job's name.
func runJob(job Job) Measurement {
	m := MeasureConstruction(job.Build(), job.Strategy())
	if job.Name != "" {
		m.Input = job.Name
	}
	return m
}
