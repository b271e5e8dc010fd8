// Package pool is the worker pool under both the offline solvers and the
// ratio harness built on them (hence a leaf package). Each worker owns its own
// state, a panicking job becomes a *JobPanic attributed by index while its
// siblings finish, and cancellation dispatches nothing further while running
// jobs drain and keep their results.
package pool

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// JobPanic reports that one job panicked. The job's name and index attribute
// the failure; Value is the recovered panic value and Stack the goroutine
// stack captured at recovery. Sibling jobs are unaffected: they run to
// completion before the error is surfaced.
type JobPanic struct {
	Name  string
	Index int
	Value any
	Stack []byte
}

func (e *JobPanic) Error() string {
	name := e.Name
	if name == "" {
		name = "unnamed"
	}
	return fmt.Sprintf("pool: job %d (%s) panicked: %v", e.Index, name, e.Value)
}

// Panicked returns the *JobPanics that err (an Each error) joins, keyed by
// job index; it is empty when no job panicked.
func Panicked(err error) map[int]*JobPanic {
	out := make(map[int]*JobPanic)
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return out
	}
	for _, e := range joined.Unwrap() {
		if p, ok := e.(*JobPanic); ok {
			out[p.Index] = p
		}
	}
	return out
}

// Workers resolves a worker count: n when positive, GOMAXPROCS otherwise.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Each calls do(w, i) for every i in [0, n) on up to workers goroutines
// (<= 0: GOMAXPROCS), each owning one w from newWorker (nil: the zero W), and
// returns when all are done; do stores its result by index. The calling
// goroutine is one of the workers, so workers <= 1 runs inline. A worker
// claims the next index as soon as it is free, so one slow job never parks
// the others. A panicking job becomes a *JobPanic named by name(i) (nil:
// unnamed); after ctx is cancelled no index is claimed. The error joins the
// *JobPanics in index order, then ctx's error.
func Each[W any](ctx context.Context, n, workers int, newWorker func() W, name func(i int) string, do func(w W, i int)) error {
	workers = min(Workers(workers), n)
	var next atomic.Int64
	errs := make([]error, n, n+1) // errs[i] is set only by the worker that ran job i
	work := func() {
		w := newState(newWorker)
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if p := try(i, func() { do(w, i) }); p != nil {
				if name != nil {
					p.Name = name(i)
				}
				errs[i] = p
			}
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	if workers > 0 {
		work()
	}
	wg.Wait()
	return errors.Join(append(errs, ctx.Err())...)
}

// Stream runs do(w, j) for every job j that jobs yields, on workers goroutines
// (<= 0: GOMAXPROCS) each owning one w from newWorker (nil: the zero W), and
// hands the i-th result to emit(i, r) in yield order on the calling
// goroutine, so any fold over the results is deterministic. jobs runs on a
// goroutine of its own; a panic inside it is re-raised on the caller once the
// pool has drained. yield blocks while 2×workers jobs await emission, so
// memory is bounded by the pool, not the stream. A panicking job becomes a
// *JobPanic named by name(j) (nil: unnamed) and is skipped by emit. Once ctx
// is cancelled yield reports false, dispatched jobs drain and their results
// are still emitted in order. The error joins the *JobPanics in job order,
// then ctx's error.
func Stream[W, J, R any](ctx context.Context, workers int, newWorker func() W, jobs iter.Seq[J], name func(j J) string, do func(w W, j J) R, emit func(i int, r R)) error {
	workers = Workers(workers)
	type result struct {
		r   R
		err *JobPanic
	}
	type task struct {
		i    int
		j    J
		done chan<- result
	}
	tasks := make(chan task)
	// window queues the dispatched jobs' result channels in job order; with
	// the one emit waits on, 2×workers jobs are in flight at most.
	window := make(chan chan result, 2*workers-1)

	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newState(newWorker)
			for t := range tasks {
				var res result
				if p := try(t.i, func() { res.r = do(w, t.j) }); p != nil {
					if name != nil {
						p.Name = name(t.j)
					}
					res.err = p
				}
				t.done <- res
			}
		}()
	}
	var jobsPanic any
	go func() {
		defer func() {
			jobsPanic = recover()
			close(tasks)
			close(window)
		}()
		i := 0
		for j := range jobs {
			if ctx.Err() != nil {
				return
			}
			done := make(chan result, 1)
			// A full window must not delay the reaction to ctx. A queued
			// channel is always followed by its task, so its result arrives.
			select {
			case window <- done:
			case <-ctx.Done():
				return
			}
			tasks <- task{i, j, done}
			i++
		}
	}()

	var errs []error
	i := 0
	for done := range window {
		if res := <-done; res.err != nil {
			errs = append(errs, res.err)
		} else {
			emit(i, res.r)
		}
		i++
	}
	wg.Wait()
	if jobsPanic != nil {
		panic(jobsPanic)
	}
	return errors.Join(append(errs, ctx.Err())...)
}

func newState[W any](newWorker func() W) W {
	if newWorker == nil {
		var w W
		return w
	}
	return newWorker()
}

// try runs f, converting a panic into a *JobPanic attributed to index i.
func try(i int, f func()) (p *JobPanic) {
	defer func() {
		if r := recover(); r != nil {
			p = &JobPanic{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	f()
	return nil
}
