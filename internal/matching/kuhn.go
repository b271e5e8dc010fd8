package matching

// ExtendFromLeft augments m from each listed free left vertex in the given
// order, in Kuhn's style: one augmenting-path search per vertex, exploring
// right neighbors in adjacency (insertion) order. Left vertices that are
// already matched are skipped. It returns the number of successful
// augmentations. Matched vertices are never unmatched by augmentation, so any
// "already scheduled" invariant is preserved.
func (sc *Scratch) ExtendFromLeft(g *Graph, m *Matching, order []int) int {
	sc.aug.bind(g)
	gained := 0
	for _, l := range order {
		if m.L2R[l] != None {
			continue
		}
		if sc.aug.augmentFromLeft(m, l) {
			gained++
		}
	}
	return gained
}

// ExtendFromRight augments m from each listed free right vertex in the given
// order, exploring left neighbors in adjacency order. Used by the
// weight-class (transversal matroid) greedy: processing right vertices in
// descending weight order yields a maximum matching whose matched right set
// has maximum weight.
func (sc *Scratch) ExtendFromRight(g *Graph, m *Matching, order []int) int {
	sc.aug.bind(g)
	gained := 0
	for _, r := range order {
		if m.R2L[r] != None {
			continue
		}
		if sc.aug.augmentFromRight(m, r) {
			gained++
		}
	}
	return gained
}

// augmenter holds the scratch state for repeated augmenting-path searches so
// that visited marks are cleared in O(1) between searches (stamping). An
// augmenter can be rebound to successive graphs via bind, which reuses the
// mark storage: stamps only ever increase, so marks left over from an earlier
// graph can never read as visited.
type augmenter struct {
	g     *Graph
	stamp int
	seenL []int // stamp when left vertex was visited
	seenR []int // stamp when right vertex was visited
}

// bind points the augmenter at g, growing the mark arrays as needed.
func (a *augmenter) bind(g *Graph) {
	a.g = g
	a.seenL = ensureLen(a.seenL, g.NLeft())
	a.seenR = ensureLen(a.seenR, g.NRight())
}

// ensureLen returns s with length at least n, reusing capacity when possible.
// Retained contents beyond the previous length are stale stamps from earlier
// searches, which are always smaller than the current stamp.
func ensureLen(s []int, n int) []int {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]int, n)
	copy(ns, s)
	return ns
}

// augmentFromLeft searches for an augmenting path starting at free left vertex
// l and flips it if found. Iterative DFS; neighbors explored in adjacency
// order.
func (a *augmenter) augmentFromLeft(m *Matching, l int) bool {
	a.stamp++
	return a.dfsLeft(m, int32(l))
}

func (a *augmenter) dfsLeft(m *Matching, l int32) bool {
	a.seenL[l] = a.stamp
	// Prefer a free right neighbor (in listed order) before rerouting
	// matched ones: this keeps the deterministic semantics "a request takes
	// its first free slot; existing assignments move only when necessary",
	// which the adversarial constructions and the oldest-first service
	// order rely on.
	for _, r := range a.g.adj[l] {
		if m.R2L[r] == None && a.seenR[r] != a.stamp {
			a.seenR[r] = a.stamp
			m.Match(int(l), int(r))
			return true
		}
	}
	for _, r := range a.g.adj[l] {
		if a.seenR[r] == a.stamp {
			continue
		}
		a.seenR[r] = a.stamp
		if a.dfsLeft(m, m.R2L[r]) {
			m.Match(int(l), int(r))
			return true
		}
	}
	return false
}

// augmentFromRight mirrors augmentFromLeft starting from a free right vertex.
func (a *augmenter) augmentFromRight(m *Matching, r int) bool {
	a.stamp++
	return a.dfsRight(m, int32(r))
}

func (a *augmenter) dfsRight(m *Matching, r int32) bool {
	a.seenR[r] = a.stamp
	// Mirror of dfsLeft: a slot takes the first (lowest-index, i.e. oldest)
	// free request before rerouting matched ones.
	for _, l := range a.g.RAdj(int(r)) {
		if m.L2R[l] == None && a.seenL[l] != a.stamp {
			a.seenL[l] = a.stamp
			m.Match(int(l), int(r))
			return true
		}
	}
	for _, l := range a.g.RAdj(int(r)) {
		if a.seenL[l] == a.stamp {
			continue
		}
		a.seenL[l] = a.stamp
		if a.dfsRight(m, m.L2R[l]) {
			m.Match(int(l), int(r))
			return true
		}
	}
	return false
}
