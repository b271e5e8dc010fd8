package grid

import (
	"context"
	"errors"
	"sync"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/pool"
	"reqsched/internal/ratio"
)

// RatioJobs converts a manifest into closure-built measurement jobs for
// ratio.RunParallelCtx — the reference the grid engines are checked
// against. Inputs are rebuilt deterministically from the specs, so the
// measurements match RunLocal, the subprocess and the resume paths bit for
// bit.
func RatioJobs(jobs []Job) []ratio.Job {
	out := make([]ratio.Job, len(jobs))
	for i, job := range jobs {
		job := job
		out[i] = ratio.Job{
			Name: job.Name,
			Build: func() adversary.Construction {
				c, err := job.Spec.Build.Construction()
				if err != nil {
					panic(err)
				}
				return c
			},
			Strategy: func() core.Strategy { return newStrategy(job.Spec.Strategy) },
		}
	}
	return out
}

// RunLocal executes the manifest in-process on a worker pool — the -shard 0
// path — with the same journal/resume semantics as the subprocess
// supervisor. Journaled cells are folded without re-running. A free worker
// takes the next pending cell, measures it exactly as a gridworker does,
// stores it by index and appends it to the journal (j may be nil), so
// checkpoints land in completion order. A cell that fails or panics becomes
// a Failure while its siblings finish; there is no retry, since a failure on
// identical input is deterministic. Cancellation dispatches nothing further,
// while in-flight cells drain and checkpoint, so a SIGINT loses no finished
// work.
func RunLocal(ctx context.Context, jobs []Job, done map[string]Record, j *Journal, workers int) (*Report, error) {
	rep, pending, err := fold(jobs, done)
	if err != nil {
		return nil, err
	}
	failed := make([]error, len(pending))
	var mu sync.Mutex
	var jerrs []error
	// measureJob turns a panic into an error, so Each reports no job panics,
	// and its ctx error is returned below.
	_ = pool.Each(ctx, len(pending), workers, nil, nil, func(_ struct{}, i int) {
		idx := pending[i]
		m, err := measureJob(jobs[idx])
		if err != nil {
			failed[i] = err
			return
		}
		rep.Measurements[idx], rep.Done[idx] = m, true
		if err := j.Append(Record{ID: jobs[idx].ID, M: MeasOf(m)}); err != nil {
			mu.Lock()
			jerrs = append(jerrs, err)
			mu.Unlock()
		}
	})
	for i, err := range failed {
		if err != nil {
			idx := pending[i]
			rep.Failures = append(rep.Failures, Failure{
				Index: idx, ID: jobs[idx].ID, Name: jobs[idx].Name, Attempts: 1, Err: err.Error(),
			})
		}
	}
	if len(jerrs) > 0 {
		return rep, errors.Join(jerrs...)
	}
	return rep, ctx.Err()
}
