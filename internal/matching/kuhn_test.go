package matching

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a random bipartite graph with the given side sizes where
// each potential edge appears with probability p.
func randomGraph(rng *rand.Rand, nl, nr int, p float64) *Graph {
	g := NewGraph(nl, nr)
	for l := 0; l < nl; l++ {
		for r := 0; r < nr; r++ {
			if rng.Float64() < p {
				g.AddEdge(l, r)
			}
		}
	}
	return g
}

// twoChoiceGraph builds a graph shaped like the scheduling instances: every
// left vertex (request) has edges to two windows of consecutive right
// vertices (slots of its two alternatives).
func twoChoiceGraph(rng *rand.Rand, nl, nRes, d int) *Graph {
	g := NewGraph(nl, nRes*d)
	for l := 0; l < nl; l++ {
		a := rng.Intn(nRes)
		b := rng.Intn(nRes - 1)
		if b >= a {
			b++
		}
		for j := 0; j < d; j++ {
			g.AddEdge(l, a*d+j)
		}
		for j := 0; j < d; j++ {
			g.AddEdge(l, b*d+j)
		}
	}
	return g
}

func TestKuhnEmptyGraph(t *testing.T) {
	g := NewGraph(3, 4)
	m := Kuhn(g)
	if m.Size() != 0 {
		t.Fatalf("empty graph matched %d pairs", m.Size())
	}
	if err := Verify(g, m); err != nil {
		t.Fatal(err)
	}
}

func TestKuhnZeroVertices(t *testing.T) {
	g := NewGraph(0, 0)
	if m := Kuhn(g); m.Size() != 0 {
		t.Fatalf("got %d", m.Size())
	}
	if m := HopcroftKarp(g); m.Size() != 0 {
		t.Fatalf("got %d", m.Size())
	}
}

func TestKuhnPerfectMatching(t *testing.T) {
	// Complete bipartite K_{5,5} has a perfect matching.
	g := NewGraph(5, 5)
	for l := 0; l < 5; l++ {
		for r := 0; r < 5; r++ {
			g.AddEdge(l, r)
		}
	}
	if got := Kuhn(g).Size(); got != 5 {
		t.Fatalf("K5,5: got %d want 5", got)
	}
}

func TestKuhnPrefersFirstListedNeighbor(t *testing.T) {
	// Deterministic tie-breaking: with no conflicts each left vertex takes
	// its first-listed neighbor. The adversarial constructions rely on this.
	g := NewGraph(2, 4)
	g.AddEdge(0, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 3)
	g.AddEdge(1, 1)
	m := Kuhn(g)
	if m.L2R[0] != 2 || m.L2R[1] != 3 {
		t.Fatalf("expected first-listed neighbors, got %v", m.L2R)
	}
}

func TestGreedyMaximalAtLeastHalf(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(20), 1+rng.Intn(20), 0.25)
		gm := GreedyMaximal(g)
		if !IsMaximal(g, gm) {
			return false
		}
		if err := Verify(g, gm); err != nil {
			return false
		}
		maxSize := HopcroftKarp(g).Size()
		return 2*gm.Size() >= maxSize
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendFromLeftPreservesMatched(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng, 12, 12, 0.3)
		m := NewMatching(12, 12)
		// Seed with a partial greedy matching.
		for l := 0; l < 6; l++ {
			for _, r := range g.Adj(l) {
				if m.R2L[r] == None {
					m.Match(l, int(r))
					break
				}
			}
		}
		before := map[int]bool{}
		for l, r := range m.L2R {
			if r != None {
				before[l] = true
			}
		}
		order := make([]int, 12)
		for i := range order {
			order[i] = i
		}
		new(Scratch).ExtendFromLeft(g, m, order)
		for l := range before {
			if m.L2R[l] == None {
				t.Fatalf("trial %d: augmentation unmatched left %d", trial, l)
			}
		}
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
		if m.Size() != HopcroftKarp(g).Size() {
			t.Fatalf("trial %d: extend-from-left not maximum: %d vs %d",
				trial, m.Size(), HopcroftKarp(g).Size())
		}
	}
}

func TestHopcroftKarpExtendFromPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng, 15, 15, 0.25)
		m := GreedyMaximal(g)
		seedSize := m.Size()
		gained := new(Scratch).HopcroftKarpExtend(g, m)
		if m.Size() != seedSize+gained {
			t.Fatalf("gained accounting wrong: %d + %d != %d", seedSize, gained, m.Size())
		}
		if m.Size() != HopcroftKarp(g).Size() {
			t.Fatalf("extend from partial not maximum")
		}
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMatchingMatchOverwrites(t *testing.T) {
	m := NewMatching(2, 2)
	m.Match(0, 0)
	m.Match(1, 0) // steals right 0 from left 0
	if m.L2R[0] != None || m.R2L[0] != 1 {
		t.Fatalf("overwrite broken: %v %v", m.L2R, m.R2L)
	}
	m.Match(1, 1) // moves left 1 to right 1
	if m.R2L[0] != None || m.L2R[1] != 1 {
		t.Fatalf("move broken: %v %v", m.L2R, m.R2L)
	}
}

func TestMatchingCloneIndependent(t *testing.T) {
	m := NewMatching(2, 2)
	m.Match(0, 1)
	c := m.Clone()
	c.Match(1, 0)
	if m.L2R[1] != None {
		t.Fatal("clone aliases original")
	}
	if c.L2R[0] != 1 {
		t.Fatal("clone lost data")
	}
}

func TestPairsSortedByLeft(t *testing.T) {
	m := NewMatching(3, 3)
	m.Match(2, 0)
	m.Match(0, 2)
	ps := m.Pairs()
	if len(ps) != 2 || ps[0] != [2]int{0, 2} || ps[1] != [2]int{2, 0} {
		t.Fatalf("pairs wrong: %v", ps)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	m := NewMatching(2, 2)
	m.L2R[0] = 1 // not mutual, and not an edge
	if err := Verify(g, m); err == nil {
		t.Fatal("expected error for one-sided pointer")
	}
	m = NewMatching(2, 2)
	m.L2R[0] = 1
	m.R2L[1] = 0
	if err := Verify(g, m); err == nil {
		t.Fatal("expected error for non-edge pair")
	}
}

func ExampleHopcroftKarp() {
	g := NewGraph(3, 3)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 2)
	m := HopcroftKarp(g)
	fmt.Println(m.Size())
	// Output: 3
}

func ExampleScratch_LexMaxExtend() {
	// Two requests, two slot classes: the lexicographic greedy covers the
	// class-0 slot even though a plain maximum matching might not.
	g := NewGraph(2, 2)
	g.AddEdge(0, 0) // request 0 can use the early slot...
	g.AddEdge(0, 1) // ...or the late one
	g.AddEdge(1, 1) // request 1 only the late one
	m := NewMatching(2, 2)
	var sc Scratch
	sc.LexMaxExtend(g, m, []int32{0, 1})
	fmt.Println(m.L2R[0], m.L2R[1])
	// Output: 0 1
}
