package matching

// Reference oracles for the tests: the simplest correct algorithm for each
// question the production solvers answer, plus small Matching helpers.
// Exported so the external matching_test package can use them.

// Kuhn computes a maximum matching by augmenting from every left vertex in
// ascending index order, exploring right neighbors in adjacency (insertion)
// order. The result is deterministic: among all maximum matchings it is the
// one reached by this fixed search order, which the adversarial constructions
// rely on (requests list their "preferred" alternative first).
func Kuhn(g *Graph) *Matching {
	m := NewMatching(g.NLeft(), g.NRight())
	var a augmenter
	a.bind(g)
	for l := 0; l < g.NLeft(); l++ {
		a.augmentFromLeft(m, l)
	}
	return m
}

// GreedyMaximal computes a maximal (not necessarily maximum) matching by a
// single pass over left vertices in index order, taking the first free right
// neighbor. By the standard argument its size is at least half the maximum;
// tests assert that invariant.
func GreedyMaximal(g *Graph) *Matching {
	m := NewMatching(g.NLeft(), g.NRight())
	for l := 0; l < g.NLeft(); l++ {
		for _, r := range g.adj[l] {
			if m.R2L[r] == None {
				m.Match(l, int(r))
				break
			}
		}
	}
	return m
}

// IsMaximal reports whether m is maximal in g: no edge joins a free left
// vertex to a free right vertex.
func IsMaximal(g *Graph, m *Matching) bool {
	for l := 0; l < g.NLeft(); l++ {
		if m.L2R[l] != None {
			continue
		}
		for _, r := range g.adj[l] {
			if m.R2L[r] == None {
				return false
			}
		}
	}
	return true
}

// ClassCounts returns, for a matching m and class assignment classOf, the
// number of matched right vertices in each class (index = class).
func ClassCounts(m *Matching, classOf []int32) []int {
	maxC := int32(0)
	for _, c := range classOf {
		if c > maxC {
			maxC = c
		}
	}
	counts := make([]int, maxC+1)
	for r, l := range m.R2L {
		if l != None {
			counts[classOf[r]]++
		}
	}
	return counts
}

// MinCostMatching is MinCostMatchingLR with zero left costs: a maximum
// matching of g minimizing the total cost of its matched right vertices,
// where rightCost[r] is the cost of covering right vertex r.
func MinCostMatching(g *Graph, rightCost []int64) *Matching {
	return MinCostMatchingLR(g, nil, rightCost)
}

// Clone returns a deep copy of the matching.
func (m *Matching) Clone() *Matching {
	c := &Matching{
		L2R: make([]int32, len(m.L2R)),
		R2L: make([]int32, len(m.R2L)),
	}
	copy(c.L2R, m.L2R)
	copy(c.R2L, m.R2L)
	return c
}

// Pairs returns the matched (left, right) pairs in ascending left order.
func (m *Matching) Pairs() [][2]int {
	var ps [][2]int
	for l, r := range m.L2R {
		if r != None {
			ps = append(ps, [2]int{l, int(r)})
		}
	}
	return ps
}
