package matching_test

// Cross-checks against Dinic max flow. They live in the external test package
// because matchtest imports matching.

import (
	"math/rand"
	"testing"

	"reqsched/internal/matching"
	"reqsched/internal/matching/matchtest"
)

func TestDinicSimpleNetwork(t *testing.T) {
	// s=0, t=3; two disjoint paths of capacity 2 and 3.
	f := matchtest.NewFlowNetwork(4)
	f.AddEdge(0, 1, 2)
	f.AddEdge(1, 3, 2)
	f.AddEdge(0, 2, 3)
	f.AddEdge(2, 3, 3)
	if got := f.MaxFlow(0, 3); got != 5 {
		t.Fatalf("maxflow %d want 5", got)
	}
}

func TestDinicBottleneck(t *testing.T) {
	// s -> a -> b -> t where the middle edge limits flow.
	f := matchtest.NewFlowNetwork(4)
	e0 := f.AddEdge(0, 1, 10)
	e1 := f.AddEdge(1, 2, 1)
	e2 := f.AddEdge(2, 3, 10)
	if got := f.MaxFlow(0, 3); got != 1 {
		t.Fatalf("maxflow %d want 1", got)
	}
	if f.Flow(e0) != 1 || f.Flow(e1) != 1 || f.Flow(e2) != 1 {
		t.Fatalf("edge flows %d %d %d", f.Flow(e0), f.Flow(e1), f.Flow(e2))
	}
}

func TestDinicDisconnected(t *testing.T) {
	f := matchtest.NewFlowNetwork(4)
	f.AddEdge(0, 1, 5)
	f.AddEdge(2, 3, 5)
	if got := f.MaxFlow(0, 3); got != 0 {
		t.Fatalf("maxflow %d want 0", got)
	}
}

func TestDinicRequiresReverseEdgeReasoning(t *testing.T) {
	// Classic diamond where a greedy path must be partially undone via the
	// residual edge: s->a->b->t chosen first blocks the optimum unless the
	// algorithm can reroute.
	f := matchtest.NewFlowNetwork(4)
	f.AddEdge(0, 1, 1) // s->a
	f.AddEdge(0, 2, 1) // s->b
	f.AddEdge(1, 2, 1) // a->b
	f.AddEdge(1, 3, 1) // a->t
	f.AddEdge(2, 3, 1) // b->t
	if got := f.MaxFlow(0, 3); got != 2 {
		t.Fatalf("maxflow %d want 2", got)
	}
}

func TestKuhnEqualsHopcroftKarpEqualsBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		nl := 1 + rng.Intn(9)
		nr := 1 + rng.Intn(9)
		g := matching.RandomGraph(rng, nl, nr, 0.3)
		want := matching.BruteMaximumSize(g)
		if got := matching.Kuhn(g).Size(); got != want {
			t.Fatalf("trial %d: Kuhn %d != brute %d", trial, got, want)
		}
		if got := matching.HopcroftKarp(g).Size(); got != want {
			t.Fatalf("trial %d: HK %d != brute %d", trial, got, want)
		}
		if got := matchtest.MaxMatchingByFlow(g); got != want {
			t.Fatalf("trial %d: flow %d != brute %d", trial, got, want)
		}
	}
}

func TestKuhnEqualsHopcroftKarpLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := matching.RandomGraph(rng, 60, 50, 0.08)
		k := matching.Kuhn(g)
		h := matching.HopcroftKarp(g)
		if k.Size() != h.Size() {
			t.Fatalf("trial %d: Kuhn %d != HK %d", trial, k.Size(), h.Size())
		}
		if err := matching.Verify(g, k); err != nil {
			t.Fatal(err)
		}
		if err := matching.Verify(g, h); err != nil {
			t.Fatal(err)
		}
		if f := matchtest.MaxMatchingByFlow(g); f != k.Size() {
			t.Fatalf("trial %d: flow %d != %d", trial, f, k.Size())
		}
	}
}

func TestKuhnTwoChoiceGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := matching.TwoChoiceGraph(rng, 40, 6, 4)
		k := matching.Kuhn(g).Size()
		h := matching.HopcroftKarp(g).Size()
		f := matchtest.MaxMatchingByFlow(g)
		if k != h || k != f {
			t.Fatalf("trial %d: kuhn=%d hk=%d flow=%d", trial, k, h, f)
		}
	}
}

func BenchmarkKuhnVsHK(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := matching.TwoChoiceGraph(rng, 20000, 32, 6)
	b.Run("Kuhn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.Kuhn(g)
		}
	})
	b.Run("HopcroftKarp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.HopcroftKarp(g)
		}
	})
	b.Run("DinicFlow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matchtest.MaxMatchingByFlow(g)
		}
	})
}
