package grid

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"reqsched/internal/grid/chaos"
	"reqsched/internal/ratio"
	"reqsched/internal/trace"
)

// The gridworker protocol is JSONL over stdin/stdout: the supervisor writes
// one workerIn line per job; the worker answers with heartbeat lines while
// measuring and exactly one result or error line per job. stderr is free-form
// diagnostics. The worker exits 0 on stdin EOF.

// workerIn is one supervisor→worker line.
type workerIn struct {
	Job *Job `json:"job,omitempty"`
}

// workerOut is one worker→supervisor line; exactly one field is set.
type workerOut struct {
	// HB is a liveness beat naming the in-flight job's ID.
	HB string `json:"hb,omitempty"`
	// Result is the completed cell, sealed with its digest.
	Result *Record `json:"result,omitempty"`
	// Err reports a job-level failure (bad spec, panic) without killing the
	// worker; the supervisor counts it against the job's retry budget.
	Err *jobError `json:"error,omitempty"`
}

type jobError struct {
	ID  string `json:"id"`
	Msg string `json:"msg"`
}

// lineWriter serializes whole-line writes so heartbeats never interleave
// with results.
type lineWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

func (lw *lineWriter) send(v workerOut) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return lw.err
	}
	if _, err := lw.w.Write(append(line, '\n')); err == nil {
		lw.err = lw.w.Flush()
	} else {
		lw.err = err
	}
	return lw.err
}

// measureJob runs one cell and labels the measurement with the job's name.
// A panic anywhere in the construction build or the measurement becomes an
// error: a gridworker and the in-process pool must both survive a bad cell,
// since its siblings still need them.
func measureJob(job Job) (m ratio.Measurement, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("measure panicked: %v\n%s", r, debug.Stack())
		}
	}()
	c, err := job.Spec.Build.Construction()
	if err != nil {
		return ratio.Measurement{}, err
	}
	st := newStrategy(job.Spec.Strategy)
	if st == nil {
		return ratio.Measurement{}, fmt.Errorf("unknown strategy %q", job.Spec.Strategy)
	}
	m = ratio.MeasureConstruction(c, st)
	if job.Name != "" {
		m.Input = job.Name
	}
	return m, nil
}

// WorkerMain is the body of cmd/gridworker (and of the self-exec worker
// modes of cmd/sweep and the tests): it reads job lines from in, emits
// heartbeats every hbInterval while a job is running, and writes one sealed
// result (or error) line per job to out. Faults, when armed, fire at their
// configured job indices — flt is nil in production. WorkerMain returns on
// stdin EOF; a torn final stdin line (the supervisor died mid-write) is
// treated as EOF.
func WorkerMain(in io.Reader, out io.Writer, hbInterval time.Duration, flt *chaos.Faults) error {
	if hbInterval <= 0 {
		hbInterval = 2 * time.Second
	}
	lw := &lineWriter{w: bufio.NewWriter(out)}
	br := bufio.NewReader(in)
	var off int64
	for jobIndex := 0; ; jobIndex++ {
		line, next, err := trace.ScanJSONLineSlice(br, off)
		if err != nil {
			var torn *trace.TornTail
			if err == io.EOF || errors.As(err, &torn) {
				return nil
			}
			return fmt.Errorf("gridworker: stdin: %w", err)
		}
		off = next
		var msg workerIn
		if err := json.Unmarshal(line, &msg); err != nil {
			return fmt.Errorf("gridworker: bad input line: %w", err)
		}
		if msg.Job == nil {
			continue
		}
		job := *msg.Job

		if flt.KillAt(jobIndex) {
			os.Exit(3) // simulate OOM-kill: no answer, no goodbye
		}
		if flt.StallAt(jobIndex) {
			select {} // hang without heartbeats until the supervisor reaps us
		}

		// Heartbeat while the measurement runs.
		stop := make(chan struct{})
		var hbWG sync.WaitGroup
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			t := time.NewTicker(hbInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					lw.send(workerOut{HB: job.ID})
				}
			}
		}()
		m, err := measureJob(job)
		close(stop)
		hbWG.Wait()

		if err != nil {
			if err := lw.send(workerOut{Err: &jobError{ID: job.ID, Msg: err.Error()}}); err != nil {
				return err
			}
			continue
		}
		rec := Record{ID: job.ID, M: MeasOf(m)}
		rec.Seal()
		if flt.CorruptAt(jobIndex) {
			// Tamper after sealing: the digest no longer matches, the way a
			// bit flip or a buggy worker would produce a poisoned row.
			rec.M.ALG = rec.M.OPT + 1000
		}
		if err := lw.send(workerOut{Result: &rec}); err != nil {
			return err
		}
	}
}
