// Package matching provides the bipartite-matching substrate used throughout the
// reproduction: Hopcroft–Karp maximum matching, Kuhn-style augmentation from a
// listed vertex order, the weight-class (transversal-matroid) greedy for the
// balance strategies, Mendelsohn–Dulmage merging, the oldest-first exchange,
// the incremental maximum matching behind the rolling optimum, symmetric
// differences, and min-cost and max-profit matchings by successive shortest
// paths. The solvers run on a reusable Scratch. Reference oracles (brute
// force, Kuhn, König certificates) live in the tests, and Dinic max flow in
// the test-only package matchtest.
//
// Graphs are bipartite with an explicit left side (requests, in the scheduling
// application) and right side (time slots). All algorithms are deterministic:
// vertices and adjacency lists are processed in insertion order, which is what
// lets the adversarial constructions of the paper force a specific matching out
// of a strategy class ("can be implemented in a way that ...").
package matching

import "fmt"

// None marks an unmatched vertex in a Matching.
const None int32 = -1

// Graph is a bipartite graph with nLeft left vertices and nRight right
// vertices. Edges are stored as left-side adjacency lists in insertion order.
// A right-side adjacency view is built lazily on first use, in flat (CSR)
// storage so rebuilding it after a Reset reuses the same backing arrays.
type Graph struct {
	nLeft  int
	nRight int
	adj    [][]int32
	edges  int
	// Lazily built reverse adjacency in CSR layout: the left neighbors of
	// right vertex r are rdata[rstart[r]:rstart[r+1]]. Invalidated (not
	// freed) by AddEdge and Reset.
	rstart    []int32
	rdata     []int32
	radjValid bool
}

// NewGraph returns an empty bipartite graph with the given side sizes.
func NewGraph(nLeft, nRight int) *Graph {
	return &Graph{
		nLeft:  nLeft,
		nRight: nRight,
		adj:    make([][]int32, nLeft),
	}
}

// Reset re-dimensions g to the given side sizes and removes every edge while
// keeping the allocated adjacency storage, so a graph that is rebuilt every
// round reaches a steady state with no per-round allocation.
func (g *Graph) Reset(nLeft, nRight int) {
	if nLeft <= cap(g.adj) {
		g.adj = g.adj[:nLeft]
	} else {
		g.adj = append(g.adj[:cap(g.adj)], make([][]int32, nLeft-cap(g.adj))...)
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.nLeft = nLeft
	g.nRight = nRight
	g.edges = 0
	g.radjValid = false
}

// NLeft returns the number of left vertices.
func (g *Graph) NLeft() int { return g.nLeft }

// NRight returns the number of right vertices.
func (g *Graph) NRight() int { return g.nRight }

// NumEdges returns the number of edges added so far.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge adds the edge (l, r). Duplicate edges are allowed but pointless;
// callers are expected to add each edge once. Adding an edge invalidates a
// previously built right-side adjacency view.
func (g *Graph) AddEdge(l, r int) {
	if l < 0 || l >= g.nLeft || r < 0 || r >= g.nRight {
		panic(fmt.Sprintf("matching: edge (%d,%d) out of range %dx%d", l, r, g.nLeft, g.nRight))
	}
	g.adj[l] = append(g.adj[l], int32(r))
	g.radjValid = false
	g.edges++
}

// Adj returns the right neighbors of left vertex l in insertion order.
// The returned slice must not be modified.
func (g *Graph) Adj(l int) []int32 { return g.adj[l] }

// RAdj returns the left neighbors of right vertex r, building the reverse
// adjacency on first use. The returned slice must not be modified, and is
// invalidated by the next AddEdge or Reset.
func (g *Graph) RAdj(r int) []int32 {
	if !g.radjValid {
		g.buildRight()
	}
	return g.rdata[g.rstart[r]:g.rstart[r+1]]
}

// buildRight fills the CSR reverse adjacency with a counting pass, reusing
// the backing arrays of any previous build. Left neighbors end up in
// ascending order (the insertion order of the forward lists).
func (g *Graph) buildRight() {
	if need := g.nRight + 1; cap(g.rstart) >= need {
		g.rstart = g.rstart[:need]
		for i := range g.rstart {
			g.rstart[i] = 0
		}
	} else {
		g.rstart = make([]int32, need)
	}
	if cap(g.rdata) >= g.edges {
		g.rdata = g.rdata[:g.edges]
	} else {
		g.rdata = make([]int32, g.edges)
	}
	for _, rs := range g.adj {
		for _, r := range rs {
			g.rstart[r+1]++
		}
	}
	for r := 0; r < g.nRight; r++ {
		g.rstart[r+1] += g.rstart[r]
	}
	// fill maintains the running write cursor per right vertex; shift rstart
	// back afterwards instead of keeping a second cursor array.
	for l, rs := range g.adj {
		for _, r := range rs {
			g.rdata[g.rstart[r]] = int32(l)
			g.rstart[r]++
		}
	}
	for r := g.nRight; r > 0; r-- {
		g.rstart[r] = g.rstart[r-1]
	}
	g.rstart[0] = 0
	g.radjValid = true
}

// Matching is a matching in a bipartite Graph, stored as mutual pointers.
// The zero value is not usable; construct with NewMatching.
type Matching struct {
	// L2R[l] is the right vertex matched to l, or None.
	L2R []int32
	// R2L[r] is the left vertex matched to r, or None.
	R2L []int32
}

// NewMatching returns an empty matching for a graph with the given side sizes.
func NewMatching(nLeft, nRight int) *Matching {
	m := &Matching{
		L2R: make([]int32, nLeft),
		R2L: make([]int32, nRight),
	}
	for i := range m.L2R {
		m.L2R[i] = None
	}
	for i := range m.R2L {
		m.R2L[i] = None
	}
	return m
}

// Reset re-dimensions m for a graph with the given side sizes and unmatches
// everything, reusing the allocated pointer arrays when large enough.
func (m *Matching) Reset(nLeft, nRight int) {
	m.L2R = resetNone(m.L2R, nLeft)
	m.R2L = resetNone(m.R2L, nRight)
}

// resetNone returns s re-sliced (or grown) to length n with every entry None.
func resetNone(s []int32, n int) []int32 {
	if n <= cap(s) {
		s = s[:n]
	} else {
		s = make([]int32, n)
	}
	for i := range s {
		s[i] = None
	}
	return s
}

// Size returns the number of matched pairs.
func (m *Matching) Size() int {
	n := 0
	for _, r := range m.L2R {
		if r != None {
			n++
		}
	}
	return n
}

// Match adds the pair (l, r), first unmatching whatever l and r were matched
// to. It therefore never leaves the structure inconsistent.
func (m *Matching) Match(l, r int) {
	if old := m.L2R[l]; old != None {
		m.R2L[old] = None
	}
	if old := m.R2L[r]; old != None {
		m.L2R[old] = None
	}
	m.L2R[l] = int32(r)
	m.R2L[r] = int32(l)
}

// UnmatchLeft removes the pair containing left vertex l, if any.
func (m *Matching) UnmatchLeft(l int) {
	if r := m.L2R[l]; r != None {
		m.R2L[r] = None
		m.L2R[l] = None
	}
}

// UnmatchRight removes the pair containing right vertex r, if any.
func (m *Matching) UnmatchRight(r int) {
	if l := m.R2L[r]; l != None {
		m.L2R[l] = None
		m.R2L[r] = None
	}
}

// Verify checks structural consistency of m against g: mutual pointers, index
// ranges, and that every matched pair is an edge of g. It returns a descriptive
// error for the first violation found, or nil.
func Verify(g *Graph, m *Matching) error {
	if len(m.L2R) != g.nLeft || len(m.R2L) != g.nRight {
		return fmt.Errorf("matching: size mismatch: matching %dx%d vs graph %dx%d",
			len(m.L2R), len(m.R2L), g.nLeft, g.nRight)
	}
	for l, r := range m.L2R {
		if r == None {
			continue
		}
		if r < 0 || int(r) >= g.nRight {
			return fmt.Errorf("matching: L2R[%d]=%d out of range", l, r)
		}
		if m.R2L[r] != int32(l) {
			return fmt.Errorf("matching: L2R[%d]=%d but R2L[%d]=%d", l, r, r, m.R2L[r])
		}
		found := false
		for _, rr := range g.adj[l] {
			if rr == r {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("matching: pair (%d,%d) is not an edge", l, r)
		}
	}
	for r, l := range m.R2L {
		if l == None {
			continue
		}
		if l < 0 || int(l) >= g.nLeft {
			return fmt.Errorf("matching: R2L[%d]=%d out of range", r, l)
		}
		if m.L2R[l] != int32(r) {
			return fmt.Errorf("matching: R2L[%d]=%d but L2R[%d]=%d", r, l, l, m.L2R[l])
		}
	}
	return nil
}
