package runner_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/grid"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/runner"
	"reqsched/internal/strategies"
)

// onBegin is A_fix with a hook run when the engine starts it, which is when
// the cell is measured (manifest validation only constructs strategies).
type onBegin struct {
	core.Strategy
	hook func()
}

func (s onBegin) Begin(n, d int) {
	s.hook()
	s.Strategy.Begin(n, d)
}

// cancelRun is the cancel func the "test.cancel" strategy calls.
var cancelRun struct {
	sync.Mutex
	f context.CancelFunc
}

func init() {
	registry.Register(registry.Component{
		Kind: registry.KindStrategy, Name: "test.cancel", Doc: "A_fix that cancels the run it is measured in",
		Strategy: func(registry.Params) core.Strategy {
			return onBegin{strategies.NewFix(), func() {
				cancelRun.Lock()
				defer cancelRun.Unlock()
				cancelRun.f()
			}}
		},
	})
	registry.Register(registry.Component{
		Kind: registry.KindStrategy, Name: "test.panic", Doc: "A_fix that panics when measured",
		Strategy: func(registry.Params) core.Strategy {
			return onBegin{strategies.NewFix(), func() { panic("test strategy panicked") }}
		},
	})
}

func iv(v int) registry.Value { return registry.IntVal(int64(v)) }

// manifest builds n small A_fix cells on the Theorem 2.1 adversary, with
// the listed cells measuring a test strategy instead.
func manifest(t *testing.T, n int, special map[int]string) []grid.Job {
	t.Helper()
	recs := make([]runner.Record, n)
	for i := range recs {
		strategy := "A_fix"
		if s, ok := special[i]; ok {
			strategy = s
		}
		recs[i] = runner.Record{
			Name: fmt.Sprintf("%s #%d", strategy, i), Strategy: strategy, Source: "fix",
			Params: registry.Params{"d": iv(2 + i%3), "phases": iv(4)},
		}
	}
	jobs, err := runner.Manifest(recs)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestRunInterruptedKeepsFinishedCells cancels the context from inside the
// third of six cells, on one worker, with and without a journal: the run
// reports Interrupted, the three cells that ran keep their measurements,
// nothing further is dispatched, and only the journaled run suggests
// -resume.
func TestRunInterruptedKeepsFinishedCells(t *testing.T) {
	for _, journal := range []bool{false, true} {
		jobs := manifest(t, 6, map[int]string{2: "test.cancel"})
		ctx, cancel := context.WithCancel(context.Background())
		cancelRun.Lock()
		cancelRun.f = cancel
		cancelRun.Unlock()
		var log bytes.Buffer
		o := runner.Options{Tool: "test", Workers: 1, Log: &log}
		if journal {
			o.JournalPath = filepath.Join(t.TempDir(), "journal.jsonl")
		}
		res, err := runner.Run(ctx, jobs, o)
		cancel()
		if err != nil {
			t.Fatalf("journal=%v: %v", journal, err)
		}
		if !res.Interrupted || res.AllDone() {
			t.Fatalf("journal=%v: cancelled run not reported as interrupted: %+v", journal, res)
		}
		for i, m := range res.Measurements {
			if ran := i < 3; res.Done[i] != ran || (m.OPT > 0) != ran {
				t.Fatalf("journal=%v: cell %d done=%v OPT=%d, want ran=%v", journal, i, res.Done[i], m.OPT, ran)
			}
		}
		msg := log.String()
		if journal {
			if !strings.Contains(msg, "3/6 cells checkpointed") || !strings.Contains(msg, "-resume") {
				t.Fatalf("journaled interrupt message %q", msg)
			}
			b, err := os.ReadFile(o.JournalPath)
			if err != nil {
				t.Fatal(err)
			}
			if lines := strings.Count(string(b), "\n"); lines != 3 {
				t.Fatalf("journal holds %d records, want 3", lines)
			}
		} else if !strings.Contains(msg, "3/6 cells completed") || strings.Contains(msg, "-resume") {
			t.Fatalf("journal-free interrupt message %q: nothing to resume from", msg)
		}
	}
}

// TestRunPanickingCellIsAFailure measures a cell whose strategy panics: the
// run returns, the cell is named on one line of the failure report (the
// panic's stack stays out of it), and its siblings complete.
func TestRunPanickingCellIsAFailure(t *testing.T) {
	jobs := manifest(t, 4, map[int]string{1: "test.panic"})
	res, err := runner.Run(context.Background(), jobs, runner.Options{Tool: "test", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDone() || res.Done[1] {
		t.Fatalf("panicking cell reported done: %+v", res.Done)
	}
	for _, i := range []int{0, 2, 3} {
		if !res.Done[i] || res.Measurements[i].OPT == 0 {
			t.Fatalf("sibling cell %d did not complete: %+v", i, res.Measurements[i])
		}
	}
	for _, want := range []string{"cell 1 (" + jobs[1].Name + ")", "test strategy panicked"} {
		if !strings.Contains(res.FailureReport, want) {
			t.Fatalf("failure report does not mention %q:\n%s", want, res.FailureReport)
		}
	}
	if lines := strings.Count(res.FailureReport, "\n"); lines != 2 {
		t.Fatalf("failure report has %d lines, want a header and one line per failed cell:\n%s", lines, res.FailureReport)
	}
}

// TestRunMatchesRatioPool pins Run's measurements to the closure-built jobs
// on the ratio pool over the same manifest: adversarial traces, an adaptive
// source and a random workload.
func TestRunMatchesRatioPool(t *testing.T) {
	jobs, err := runner.Manifest([]runner.Record{
		{Name: "fix", Strategy: "A_fix", Source: "fix", Params: registry.Params{"d": iv(4), "phases": iv(6)}},
		{Name: "eager", Strategy: "A_eager", Source: "eager", Params: registry.Params{"d": iv(4), "phases": iv(6)}},
		{Name: "universal", Strategy: "A_balance", Source: "universal", Params: registry.Params{"d": iv(6), "phases": iv(3)}},
		{Name: "zipf", Strategy: "EDF", Source: "zipf", Params: registry.Params{"n": iv(5), "d": iv(3), "rounds": iv(30), "rate": registry.FloatVal(6)}},
		{Name: "composed", Strategy: "compose,router=greedy,order=sjf", Source: "uniform", Params: registry.Params{"n": iv(4), "rate": registry.FloatVal(5)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ratio.RunParallelCtx(context.Background(), grid.RatioJobs(jobs), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		res, err := runner.Run(context.Background(), jobs, runner.Options{Workers: workers})
		if err != nil || !res.AllDone() {
			t.Fatalf("workers=%d: err %v, done %v", workers, err, res.Done)
		}
		for i := range want {
			if res.Measurements[i] != want[i] {
				t.Fatalf("workers=%d cell %d:\n got %+v\nwant %+v", workers, i, res.Measurements[i], want[i])
			}
		}
	}
}
