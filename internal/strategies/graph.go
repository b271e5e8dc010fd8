package strategies

import (
	"reqsched/internal/core"
	"reqsched/internal/matching"
)

// winGraph is a bipartite graph between a set of live requests and the slots
// of the current window, with the shared slot indexing
// ((round - t) * n + resource) * cap + unit. Under the unit model (cap=1)
// this is the legacy (round - t) * n + resource indexing exactly. Capacities
// above 1 expand each (resource, round) slot into cap interchangeable unit
// vertices — sound at hold=1, where the slots of one round are independent;
// the matching strategies' SupportsModel gates longer holds out.
type winGraph struct {
	g     *matching.Graph
	reqs  []*core.Request
	n     int
	capc  int // capacity units per (resource, round) slot
	t     int // current round
	depth int
}

// slotIdx maps (resource, absolute round) to the right-vertex index of its
// first capacity unit; units u of the slot follow at slotIdx + u.
func (wg *winGraph) slotIdx(res, round int) int {
	return ((round-wg.t)*wg.n + res) * wg.capc
}

// slotOf inverts slotIdx, dropping the (interchangeable) unit.
func (wg *winGraph) slotOf(idx int) (res, round int) {
	return (idx / wg.capc) % wg.n, wg.t + idx/(wg.n*wg.capc)
}

// slots returns the number of right vertices of a window graph over w.
func slots(w *core.Window) int { return w.Depth() * w.N() * w.Model().Cap }

// buildGraph constructs the window graph for the given requests. If onlyFree
// is true, slots currently assigned in w are omitted (the A_fix family, which
// never reschedules, matches new requests into the free slots only); if
// false, all window slots are vertices (the A_eager family recomputes from
// scratch after snapshotting). Edges follow the deterministic preference
// order: per request, alternatives as listed, rounds ascending, clipped to
// the request's deadline.
func buildGraph(w *core.Window, reqs []*core.Request, onlyFree bool) *winGraph {
	wg := &winGraph{g: matching.NewGraph(len(reqs), slots(w))}
	wg.fill(w, reqs, onlyFree)
	return wg
}

// fill (re)populates wg for the given window and requests; wg.g must already
// be dimensioned len(reqs) x depth*n.
func (wg *winGraph) fill(w *core.Window, reqs []*core.Request, onlyFree bool) {
	wg.reqs = reqs
	wg.n = w.N()
	wg.capc = w.Model().Cap
	wg.t = w.Round()
	wg.depth = w.Depth()
	for li, r := range reqs {
		last := r.Deadline()
		if max := wg.t + wg.depth - 1; last > max {
			last = max
		}
		for _, a := range r.Alts {
			for round := wg.t; round <= last; round++ {
				base := wg.slotIdx(a, round)
				if onlyFree {
					if !w.Free(a, round) {
						continue
					}
					// Only the slot's free units are vertices; the first
					// AssignedCount units stand for the existing assignments.
					for u := w.AssignedCount(a, round); u < wg.capc; u++ {
						wg.g.AddEdge(li, base+u)
					}
				} else {
					for u := 0; u < wg.capc; u++ {
						wg.g.AddEdge(li, base+u)
					}
				}
			}
		}
	}
}

// roundScratch is the per-strategy buffer set the global strategies carry
// across rounds: the window graph, the working and cover matchings, the
// weight-class vector, the identity order, request and snapshot buffers, and
// the matching-solver scratch. Everything is allocated on first use and
// reused afterwards, so each strategy's steady-state round does no graph or
// matching allocation. A roundScratch belongs to exactly one strategy
// instance; strategy instances are therefore not safe for concurrent use
// (the measurement harness already builds one instance per goroutine).
type roundScratch struct {
	wg      winGraph
	m       matching.Matching
	cover   matching.Matching
	ms      matching.Scratch
	classOf []int32
	index   map[int]int
	order   []int
	reqs    []*core.Request
	snap    []core.Assignment
}

// buildGraph is buildGraph filling the scratch-owned graph in place.
func (sc *roundScratch) buildGraph(w *core.Window, reqs []*core.Request, onlyFree bool) *winGraph {
	if sc.wg.g == nil {
		sc.wg.g = matching.NewGraph(len(reqs), slots(w))
	} else {
		sc.wg.g.Reset(len(reqs), slots(w))
	}
	sc.wg.fill(w, reqs, onlyFree)
	return &sc.wg
}

// emptyMatching returns the scratch working matching, reset to the
// dimensions of the scratch graph.
func (sc *roundScratch) emptyMatching() *matching.Matching {
	sc.m.Reset(sc.wg.g.NLeft(), sc.wg.g.NRight())
	return &sc.m
}

// roundClasses returns the weight-class vector used by the balance
// strategies, in the scratch buffer: slot class = rounds-from-now, so class 0
// (the current round) is the most preferred. maxClass caps the classes
// (A_eager uses 2: "now" vs "later").
func (sc *roundScratch) roundClasses(maxClass int) []int32 {
	stride := sc.wg.n * sc.wg.capc
	n := sc.wg.depth * stride
	if cap(sc.classOf) >= n {
		sc.classOf = sc.classOf[:n]
	} else {
		sc.classOf = make([]int32, n)
	}
	for idx := range sc.classOf {
		c := idx / stride
		if c >= maxClass {
			c = maxClass - 1
		}
		sc.classOf[idx] = int32(c)
	}
	return sc.classOf
}

// coverMatching converts a window snapshot into the scratch cover matching of
// the scratch graph (the inherited schedule), for use with
// matching.CoverLeft. Requests in the snapshot that are not in the graph
// (already served) are skipped.
func (sc *roundScratch) coverMatching(snapshot []core.Assignment) *matching.Matching {
	if sc.index == nil {
		sc.index = make(map[int]int, len(sc.wg.reqs))
	} else {
		clear(sc.index)
	}
	for li, r := range sc.wg.reqs {
		sc.index[r.ID] = li
	}
	sc.cover.Reset(sc.wg.g.NLeft(), sc.wg.g.NRight())
	// Snapshot order is deterministic ascending (round, resource), so
	// assignments sharing a slot take its units 0, 1, ... in snapshot order.
	prev, unit := [2]int{-1, -1}, 0
	for _, a := range snapshot {
		if key := [2]int{a.Res, a.Round}; key != prev {
			prev, unit = key, 0
		}
		if li, ok := sc.index[a.Req.ID]; ok {
			sc.cover.Match(li, sc.wg.slotIdx(a.Res, a.Round)+unit)
		}
		unit++
	}
	return &sc.cover
}

// identOrder returns the scratch identity permutation 0..n-1.
func (sc *roundScratch) identOrder(n int) []int {
	if cap(sc.order) >= n {
		sc.order = sc.order[:n]
	} else {
		sc.order = make([]int, n)
	}
	for i := range sc.order {
		sc.order[i] = i
	}
	return sc.order
}

// apply writes matched pairs into the window. Requests already assigned in w
// are skipped (the A_fix family extends in place); the A_eager family resets
// the window first so everything is applied.
func (wg *winGraph) apply(w *core.Window, m *matching.Matching) {
	for li, ridx := range m.L2R {
		if ridx == matching.None {
			continue
		}
		r := wg.reqs[li]
		if w.Assigned(r) {
			continue
		}
		res, round := wg.slotOf(int(ridx))
		w.Assign(r, res, round)
	}
}
