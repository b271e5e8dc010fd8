package matching

// HopcroftKarp computes a maximum matching in O(E sqrt(V)) using the classic
// phase structure: a BFS builds the layered graph of shortest alternating
// paths from free left vertices, then a DFS pass augments along a maximal set
// of vertex-disjoint shortest paths. Used as the workhorse for the offline
// optimum where graphs have hundreds of thousands of edges.
func HopcroftKarp(g *Graph) *Matching {
	m := NewMatching(g.NLeft(), g.NRight())
	new(Scratch).HopcroftKarpExtend(g, m)
	return m
}

func hkInfinity() int32 { return int32(1) << 30 }

// HopcroftKarpExtend extends an existing matching to maximum cardinality.
// Matched vertices are never unmatched, so extending an inherited schedule
// preserves every previously scheduled request (the A_eager / A_balance
// invariant). It returns the number of augmentations performed.
func (sc *Scratch) HopcroftKarpExtend(g *Graph, m *Matching) int {
	nl := g.NLeft()
	if cap(sc.dist) < nl {
		sc.dist = make([]int32, nl)
	}
	if cap(sc.queue) < nl {
		sc.queue = make([]int32, 0, nl)
	}
	dist := sc.dist[:nl]
	queue := sc.queue[:0]
	total := 0
	inf := hkInfinity()

	bfs := func() bool {
		queue = queue[:0]
		for l := 0; l < nl; l++ {
			if m.L2R[l] == None {
				dist[l] = 0
				queue = append(queue, int32(l))
			} else {
				dist[l] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			l := queue[qi]
			for _, r := range g.adj[l] {
				ml := m.R2L[r]
				if ml == None {
					found = true
				} else if dist[ml] == inf {
					dist[ml] = dist[l] + 1
					queue = append(queue, ml)
				}
			}
		}
		return found
	}

	var dfs func(l int32) bool
	dfs = func(l int32) bool {
		for _, r := range g.adj[l] {
			ml := m.R2L[r]
			if ml == None || (dist[ml] == dist[l]+1 && dfs(ml)) {
				m.Match(int(l), int(r))
				return true
			}
		}
		dist[l] = inf
		return false
	}

	for bfs() {
		for l := 0; l < nl; l++ {
			if m.L2R[l] == None && dist[l] == 0 {
				if dfs(int32(l)) {
					total++
				}
			}
		}
	}
	sc.queue = queue[:0]
	return total
}
