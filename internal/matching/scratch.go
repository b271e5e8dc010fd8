package matching

// Scratch holds the reusable buffers of every solver in the package, so a
// caller that recomputes matchings round after round (the rescheduling
// strategies, the parallel measurement harness) reaches a steady state with
// no per-round allocation. The zero value is ready to use; buffers grow
// monotonically to the largest graph seen. A Scratch is not safe for
// concurrent use — give each goroutine (or each strategy instance) its own.
//
// The solvers are methods of Scratch: HopcroftKarpExtend, ExtendFromLeft,
// ExtendFromRight, LexMaxExtend and PreferLowAtClass. A caller that solves
// once can use a fresh Scratch; HopcroftKarp does exactly that.
type Scratch struct {
	aug        augmenter
	dist       []int32 // Hopcroft–Karp BFS layers
	queue      []int32 // Hopcroft–Karp BFS queue
	order      []int   // rightsByClass result buffer
	classCount []int   // rightsByClass counting-sort buffer
	seenLB     []bool  // PreferLowAtClass relocation marks
	seenRB     []bool
}

// ensureBools returns s with length at least n, reusing capacity. Contents
// are irrelevant: avoidDFS clears its marks before every search.
func ensureBools(s []bool, n int) []bool {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	return make([]bool, n)
}
