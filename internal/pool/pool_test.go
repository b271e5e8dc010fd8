package pool

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// counter is per-worker state that is deliberately not synchronized: the race
// detector flags any sharing of one worker's state between goroutines.
type counter struct{ jobs int }

func TestEachResultsByIndex(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 2, 7, 200} {
		out := make([]int, n)
		var states atomic.Int64
		err := Each(context.Background(), n, workers,
			func() *counter { states.Add(1); return new(counter) }, nil,
			func(c *counter, i int) { c.jobs++; out[i] = i * i })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		want := int64(min(Workers(workers), n))
		if got := states.Load(); got != want {
			t.Fatalf("workers=%d: %d worker states, want %d", workers, got, want)
		}
	}
}

func TestEachEmptyBuildsNoWorker(t *testing.T) {
	err := Each(context.Background(), 0, 4, func() *counter {
		t.Fatal("worker state built for an empty run")
		return nil
	}, nil, func(*counter, int) {})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEachAttributesPanics(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var ran atomic.Int64
		err := Each(context.Background(), 6, workers, nil, func(i int) string { return fmt.Sprintf("job-%d", i) },
			func(_ struct{}, i int) {
				ran.Add(1)
				if i == 1 || i == 4 {
					panic(fmt.Sprintf("boom %d", i))
				}
			})
		if ran.Load() != 6 {
			t.Fatalf("workers=%d: %d of 6 jobs ran; siblings of a panic must finish", workers, ran.Load())
		}
		joined, ok := err.(interface{ Unwrap() []error })
		if !ok {
			t.Fatalf("workers=%d: error %v is not a join", workers, err)
		}
		var idx []int
		for _, e := range joined.Unwrap() {
			var p *JobPanic
			if !errors.As(e, &p) {
				t.Fatalf("workers=%d: %T is not a *JobPanic", workers, e)
			}
			if p.Name != fmt.Sprintf("job-%d", p.Index) || len(p.Stack) == 0 {
				t.Fatalf("workers=%d: panic %+v not attributed", workers, p)
			}
			idx = append(idx, p.Index)
		}
		if !reflect.DeepEqual(idx, []int{1, 4}) {
			t.Fatalf("workers=%d: panics at %v, want [1 4] in index order", workers, idx)
		}
		if !strings.Contains(err.Error(), "job 4 (job-4) panicked: boom 4") {
			t.Fatalf("workers=%d: error %q does not name the job", workers, err)
		}
		if got := Panicked(err); len(got) != 2 || got[1] == nil || got[4] == nil || got[4].Value != "boom 4" {
			t.Fatalf("workers=%d: Panicked = %v, want jobs 1 and 4", workers, got)
		}
	}
	if got := Panicked(nil); len(got) != 0 {
		t.Fatalf("Panicked(nil) = %v", got)
	}
}

func TestEachCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := Each(ctx, 10, workers, nil, nil, func(struct{}, int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
			t.Fatalf("workers=%d: err %v, %d jobs ran", workers, err, ran.Load())
		}
	}
}

func TestEachCancelDrainsRunningJobs(t *testing.T) {
	// Job 0 cancels while the other workers' jobs wait for it: every job
	// that started finishes and keeps its result, and nothing is claimed
	// afterwards.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1000
	done := make([]bool, n)
	var started atomic.Int64
	err := Each(ctx, n, 4, nil, nil, func(_ struct{}, i int) {
		started.Add(1)
		if i == 0 {
			cancel()
		}
		<-ctx.Done()
		done[i] = true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	finished := 0
	for _, d := range done {
		if d {
			finished++
		}
	}
	if int64(finished) != started.Load() || finished == n {
		t.Fatalf("%d jobs started, %d finished of %d", started.Load(), finished, n)
	}
}

// seq yields 0..n-1.
func seq(n int) func(yield func(int) bool) {
	return func(yield func(int) bool) {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return
			}
		}
	}
}

func TestStreamEmitsInOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		var got []int
		err := Stream(context.Background(), workers, func() *counter { return new(counter) }, seq(200), nil,
			func(c *counter, j int) int { c.jobs++; return 2 * j },
			func(i, r int) {
				if i != len(got) || r != 2*i {
					t.Fatalf("workers=%d: emit(%d, %d) after %d emissions", workers, i, r, len(got))
				}
				got = append(got, r)
			})
		if err != nil || len(got) != 200 {
			t.Fatalf("workers=%d: %d emissions, err %v", workers, len(got), err)
		}
	}
}

func TestStreamBoundsInFlight(t *testing.T) {
	// The generator may run at most 2×workers jobs ahead of emission.
	const workers = 3
	var yielded, emitted atomic.Int64
	jobs := func(yield func(int) bool) {
		for i := 0; i < 100; i++ {
			if ahead := yielded.Load() - emitted.Load(); ahead > 2*workers {
				t.Errorf("generator %d jobs ahead of emission", ahead)
			}
			yielded.Add(1)
			if !yield(i) {
				return
			}
		}
	}
	err := Stream(context.Background(), workers, nil, jobs, nil,
		func(_ struct{}, j int) int { return j },
		func(int, int) { emitted.Add(1) })
	if err != nil || emitted.Load() != 100 {
		t.Fatalf("%d emitted, err %v", emitted.Load(), err)
	}
}

func TestStreamAttributesPanics(t *testing.T) {
	var got []int
	err := Stream(context.Background(), 3, nil, seq(5), func(j int) string { return fmt.Sprintf("j%d", j) },
		func(_ struct{}, j int) int {
			if j%2 == 1 {
				panic("odd")
			}
			return j
		},
		func(i, _ int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Fatalf("emitted %v, want [0 2 4]", got)
	}
	var p *JobPanic
	if !errors.As(err, &p) || p.Index != 1 || p.Name != "j1" {
		t.Fatalf("error %v does not attribute job 1 first", err)
	}
	if !strings.Contains(err.Error(), "(j3)") {
		t.Fatalf("error %q does not name j3", err)
	}
}

func TestStreamCancelDrains(t *testing.T) {
	// Cancel from emit on an endless stream: the generator stops, everything
	// dispatched is still emitted in order, and the error reports ctx.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []int
	endless := func(yield func(int) bool) {
		for i := 0; yield(i); i++ {
		}
	}
	err := Stream(ctx, 2, nil, endless, nil, func(_ struct{}, j int) int { return j },
		func(i, r int) {
			if i != len(got) || r != i {
				t.Fatalf("emit(%d, %d) after %d emissions", i, r, len(got))
			}
			got = append(got, r)
			if len(got) == 3 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) || len(got) < 3 {
		t.Fatalf("%d emissions, err %v", len(got), err)
	}
}

func TestStreamReraisesGeneratorPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "generator failed" {
			t.Fatalf("recovered %v, want the generator's panic on the calling goroutine", r)
		}
	}()
	jobs := func(yield func(int) bool) {
		yield(0)
		panic("generator failed")
	}
	_ = Stream(context.Background(), 2, nil, jobs, nil, func(_ struct{}, j int) int { return j }, func(int, int) {})
	t.Fatal("generator panic swallowed")
}
