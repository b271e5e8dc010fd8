package ratio

import (
	"context"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/pool"
)

// Job is one measurement for RunParallelCtx: a construction factory paired
// with a strategy factory. Factories, not instances, because constructions
// with adaptive sources and most strategies are stateful and must not be
// shared across goroutines.
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

// RunParallelCtx executes the jobs on up to `workers` goroutines (GOMAXPROCS
// if workers <= 0) and returns the measurements in job order. Each job runs
// a full simulation plus a Hopcroft–Karp optimum, so the work units are
// coarse and the speedup is near-linear.
//
// A job that panics does not take the sweep down: the panic is recovered per
// job, its siblings finish, and the returned error joins one *JobPanic per
// failed job, in job order; a failed job keeps its zero Measurement. When ctx
// is cancelled no further jobs are dispatched, but jobs already running
// drain and keep their measurements, and the error then ends with ctx's
// error.
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
