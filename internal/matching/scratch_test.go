package matching

import (
	"math/rand"
	"slices"
	"testing"
)

// TestScratchReuseMatchesFresh pins buffer reuse: one Scratch carried across
// a random sequence of graphs whose sizes grow and shrink must give matchings
// bit-identical to a fresh Scratch per graph, for every solver method. Stale
// marks, layers or class buffers left by a larger earlier graph would show up
// as a different matching. On small graphs the sizes are also checked against
// brute force.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	caps := []int{6, 30, 3, 60, 8, 15, 1, 40} // side-size caps, cycled
	var reused Scratch
	for step := 0; step < 400; step++ {
		maxSide := caps[step%len(caps)]
		nl := rng.Intn(maxSide + 1)
		nr := 1 + rng.Intn(maxSide)
		g := randomGraph(rng, nl, nr, 0.1+0.3*rng.Float64())
		classOf := randomClasses(rng, nr, 1+rng.Intn(4))
		order := rng.Perm(nl)
		want := -1
		if nl <= 8 && nr <= 8 {
			want = BruteMaximumSize(g)
		}

		check := func(name string, solve func(sc *Scratch, m *Matching)) {
			t.Helper()
			fresh := NewMatching(nl, nr)
			solve(new(Scratch), fresh)
			got := NewMatching(nl, nr)
			solve(&reused, got)
			if !slices.Equal(got.L2R, fresh.L2R) || !slices.Equal(got.R2L, fresh.R2L) {
				t.Fatalf("step %d (%dx%d) %s: reused %v != fresh %v",
					step, nl, nr, name, got.L2R, fresh.L2R)
			}
			if err := Verify(g, got); err != nil {
				t.Fatalf("step %d %s: %v", step, name, err)
			}
			if want >= 0 && got.Size() != want {
				t.Fatalf("step %d %s: size %d != brute %d", step, name, got.Size(), want)
			}
		}
		check("HopcroftKarpExtend", func(sc *Scratch, m *Matching) {
			sc.HopcroftKarpExtend(g, m)
		})
		check("ExtendFromLeft", func(sc *Scratch, m *Matching) {
			sc.ExtendFromLeft(g, m, order)
		})
		check("LexMaxExtend", func(sc *Scratch, m *Matching) {
			sc.LexMaxExtend(g, m, classOf)
		})
		check("PreferLowAtClass", func(sc *Scratch, m *Matching) {
			sc.LexMaxExtend(g, m, classOf)
			sc.PreferLowAtClass(g, m, classOf, 0)
		})
	}
}
