package core

import "fmt"

// AdaptiveSource generates arrivals round by round while observing which
// requests the online algorithm has fulfilled so far. The paper's Theorem 2.6
// adversary is adaptive: in its second phase it blocks whichever colored
// request group the algorithm neglected most. Non-adaptive constructions use
// plain Traces.
type AdaptiveSource interface {
	// N returns the number of resources; D the default deadline window.
	N() int
	D() int
	// Next returns the alternative lists of the requests to inject at round
	// t (empty for none). isServed reports whether the request with the
	// given trace-wide ID has been fulfilled; IDs are assigned sequentially
	// in injection order, so the source can track the IDs of its own
	// requests by counting. Next is called for every round until it has
	// returned Done.
	Next(t int, isServed func(id int) bool) [][]int
	// Done reports that no further requests will be injected at round t or
	// later; the engine then runs the window dry and stops.
	Done(t int) bool
}

// RunAdaptiveObserved simulates strategy s against an adaptive adversary,
// handing each round's generated arrivals to observe as they are produced —
// the bounded-memory primitive under RunAdaptive and the adaptive streaming
// pipeline. observe is called once per simulated round with the round number
// and that round's freshly allocated request row (nil when none arrive); the
// row is never reused, so the observer may retain it. An observer that
// returns false aborts the run: the returned ok is false and the Result is
// partial. Request IDs are assigned sequentially in injection order; served
// tracking is a dense bitmap grown in step with them.
func RunAdaptiveObserved(s Strategy, src AdaptiveSource, observe func(t int, arrivals []Request) bool) (res *Result, ok bool) {
	n, d := src.N(), src.D()
	if n < 1 || d < 1 {
		panic(fmt.Sprintf("core: adaptive source with n=%d d=%d", n, d))
	}
	w := NewWindow(n, d)
	s.Begin(n, d)

	res = &Result{
		Strategy:    s.Name(),
		N:           n,
		D:           d,
		PerResource: make([]int, n),
	}
	var served []bool // indexed by sequentially assigned request ID
	isServed := func(id int) bool { return id < len(served) && served[id] }

	var (
		pending  []*Request
		arrivals []*Request // reused across rounds; see RoundContext.Arrivals
		ctx      RoundContext
	)
	nextID := 0
	injectionOver := false
	drainUntil := 0

	for t := 0; ; t++ {
		// Expire.
		live := pending[:0]
		for _, r := range pending {
			if r.Deadline() < t {
				res.Expired++
			} else {
				live = append(live, r)
			}
		}
		pending = live

		// Inject.
		arrivals = arrivals[:0]
		var row []Request
		if !injectionOver {
			if src.Done(t) {
				injectionOver = true
				drainUntil = t + d
			} else if specs := src.Next(t, isServed); len(specs) > 0 {
				row = make([]Request, len(specs))
				for i, alts := range specs {
					row[i] = Request{
						ID:     nextID,
						Arrive: t,
						Alts:   append([]int(nil), alts...),
						D:      d,
					}
					nextID++
					served = append(served, false)
					arrivals = append(arrivals, &row[i])
					res.Requests++
				}
			}
		}
		if !observe(t, row) {
			return res, false
		}

		pending = append(pending, arrivals...)
		// Rewrite fields rather than the struct so the context's Unassigned
		// scratch buffer is reused across rounds.
		ctx.T = t
		ctx.N = n
		ctx.D = d
		ctx.Arrivals = arrivals
		ctx.Pending = pending
		ctx.W = w
		s.Round(&ctx)

		servedNow := 0
		for i := 0; i < n; i++ {
			r := w.At(i, t)
			if r == nil {
				continue
			}
			w.Unassign(r)
			served[r.ID] = true
			servedNow++
			res.Fulfilled++
			res.WeightFulfilled += r.Weight()
			res.LatencySum += t - r.Arrive
			res.PerResource[i]++
			res.Log = append(res.Log, Fulfillment{Req: r, Res: i, Round: t})
		}
		if servedNow > 0 {
			// pending holds only requests unserved before this round, so the
			// dense bitmap alone identifies this round's departures.
			live := pending[:0]
			for _, r := range pending {
				if !served[r.ID] {
					live = append(live, r)
				}
			}
			pending = live
		}
		w.advance()

		if injectionOver && t >= drainUntil && len(pending) == 0 {
			break
		}
	}
	res.Expired += len(pending)
	if ca, ok := s.(CommAccountant); ok {
		res.CommRounds, res.Messages = ca.CommTotals()
	}
	return res, true
}

// RunAdaptive simulates strategy s against an adaptive adversary and returns
// the result together with the trace the adversary ended up generating (for
// computing the offline optimum afterwards). Callers that cannot afford the
// materialized trace observe the arrivals through RunAdaptiveObserved
// instead (ratio.RunAdaptiveStream).
func RunAdaptive(s Strategy, src AdaptiveSource) (*Result, *Trace) {
	tr := &Trace{N: src.N(), D: src.D()}
	res, _ := RunAdaptiveObserved(s, src, func(t int, arrivals []Request) bool {
		tr.Arrivals = append(tr.Arrivals, arrivals)
		return true
	})
	// Trim trailing empty rounds so Trace.Horizon is tight.
	for len(tr.Arrivals) > 0 && len(tr.Arrivals[len(tr.Arrivals)-1]) == 0 {
		tr.Arrivals = tr.Arrivals[:len(tr.Arrivals)-1]
	}
	return res, tr
}
