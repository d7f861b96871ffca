package msbfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// referenceAdmitted is referenceMaps confined by a predicate, sharing
// no code with the kernel: a level-synchronous queue BFS in which a
// vertex first reached at depth j joins level j only if admit(v, j). A
// rejected vertex stays unseen, so a later level may reach it again.
func referenceAdmitted(g *graph.Graph, s graph.VertexID, cap uint8, admit func(graph.VertexID, int) bool) *DistMap {
	dist := make([]uint8, g.NumVertices())
	for v := range dist {
		dist[v] = Unreachable
	}
	seen := make([]bool, g.NumVertices())
	dist[s], seen[s] = 0, true
	visited := []graph.VertexID{s}
	level := []graph.VertexID{s}
	for depth := 1; depth <= int(cap) && len(level) > 0; depth++ {
		var next []graph.VertexID
		for _, v := range level {
			for _, w := range g.OutNeighbors(v) {
				if !seen[w] && admit(w, depth) {
					dist[w], seen[w] = uint8(depth), true
					next = append(next, w)
				}
			}
		}
		visited = append(visited, next...)
		level = next
	}
	slices.Sort(visited)
	return &DistMap{Source: s, Cap: cap, dist: dist, visited: visited}
}

// admittedBuild runs the kernel under admit from every source in
// order on one scratch, the way RunPasses runs a pass at width one.
func admittedBuild(g *graph.Graph, sources []graph.VertexID, caps []uint8, admit *admission, pool *Pool) []*DistMap {
	out := make([]*DistMap, len(sources))
	var sc [1]*scratch
	pool.getScratch(g.NumVertices(), sc[:])
	for i, s := range sources {
		out[i] = bfs(g, s, caps[i], admit, pool, sc[0])
	}
	pool.putScratch(sc[:])
	return out
}

// requireAdmittedMatchesReference builds sources under an admission
// whose other map is the ball of root on rev capped at free, unpooled
// and twice through one pool, against referenceAdmitted source by source,
// and holds the pool to its clean-storage invariant after each round.
func requireAdmittedMatchesReference(t *testing.T, g, rev *graph.Graph, sources []graph.VertexID, caps []uint8, root graph.VertexID, free, k uint8) {
	t.Helper()
	n := g.NumVertices()
	a := &admission{other: Single(rev, root, free), free: free, k: k}
	admit := func(v graph.VertexID, depth int) bool {
		return depth <= int(free) || int(a.other.Dist(v))+depth <= int(k)
	}
	want := make([]*DistMap, len(sources))
	for i, s := range sources {
		want[i] = referenceAdmitted(g, s, caps[i], admit)
	}
	requireEqualMaps(t, n, admittedBuild(g, sources, caps, a, nil), want)
	pool := NewPool(n)
	for round := 0; round < 2; round++ {
		got := admittedBuild(g, sources, caps, a, pool)
		requireEqualMaps(t, n, got, want)
		for _, dm := range got {
			dm.Release()
		}
		requireCleanPool(t, pool)
	}
}

// TestAdmittedBuildMatchesReference: on the corpus and an overlay
// snapshot, a build under an admission test — one source and 70, free
// radii 0…3, bounds below and above the caps — equals the reference
// BFS restricted by the same predicate.
func TestAdmittedBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	graphs := corpus()
	og, orev := overlaySnapshot(t)
	graphs["overlay"] = og
	for name, g := range graphs {
		rev := g.Reverse()
		if name == "overlay" {
			rev = orev
		}
		n := g.NumVertices()
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				nSrc := 1
				if trial%2 == 1 {
					nSrc = 70
				}
				sources, caps := randomSources(rng, n, nSrc)
				root := graph.VertexID(rng.Intn(n))
				free, k := uint8(rng.Intn(4)), uint8(rng.Intn(9))
				requireAdmittedMatchesReference(t, g, rev, sources, caps, root, free, k)
			}
		})
	}
}

// subgraphViolation checks the three properties Subgraph promises of
// its maps for (s, t, k) against unbounded reference distances, and
// that each visited list is exactly the reported vertices in order:
// every reported distance is exact, every vertex with
// d(s,v) + d(v,t) ≤ k is reported, and every vertex within ⌈k/2⌉ hops
// is reported. It returns "" when all hold.
func subgraphViolation(g, gr *graph.Graph, s, t graph.VertexID, k uint8, fwd, bwd *DistMap) string {
	ds, dt := FullDistances(g, s), FullDistances(gr, t)
	half := int(k - k/2)
	for _, side := range []struct {
		name  string
		dm    *DistMap
		exact []uint8
	}{{"forward", fwd, ds}, {"backward", bwd, dt}} {
		var listed []graph.VertexID
		for v := range ds {
			v := graph.VertexID(v)
			got, want := side.dm.Dist(v), side.exact[v]
			onSub := ds[v] != Unreachable && dt[v] != Unreachable && int(ds[v])+int(dt[v]) <= int(k)
			near := want != Unreachable && int(want) <= half
			switch {
			case got != Unreachable && got != want:
				return fmt.Sprintf("%s dist(%d) = %d, exact %d", side.name, v, got, want)
			case got == Unreachable && onSub:
				return fmt.Sprintf("%s misses subgraph vertex %d (d_s %d, d_t %d)", side.name, v, ds[v], dt[v])
			case got == Unreachable && near:
				return fmt.Sprintf("%s misses vertex %d at %d ≤ ⌈k/2⌉", side.name, v, want)
			}
			if got != Unreachable {
				listed = append(listed, v)
			}
		}
		if !slices.Equal(listed, side.dm.Visited()) {
			return fmt.Sprintf("%s visited %v, want the reported vertices %v", side.name, side.dm.Visited(), listed)
		}
	}
	return ""
}

// TestSubgraphProperties: on the corpus and an overlay snapshot, for
// k = 1…8 and random endpoints, pooled and not, Subgraph's maps keep
// their three properties, and its pool stays clean.
func TestSubgraphProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := corpus()
	og, orev := overlaySnapshot(t)
	graphs["overlay"] = og
	for name, g := range graphs {
		rev := g.Reverse()
		if name == "overlay" {
			rev = orev
		}
		n := g.NumVertices()
		t.Run(name, func(t *testing.T) {
			pool := NewPool(n)
			for k := uint8(1); k <= 8; k++ {
				s, tt := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
				for _, p := range []*Pool{nil, pool} {
					fwd, bwd := Subgraph(g, rev, s, tt, k, p)
					if msg := subgraphViolation(g, rev, s, tt, k, fwd, bwd); msg != "" {
						t.Fatalf("(%d, %d, k=%d) pooled=%v: %s", s, tt, k, p != nil, msg)
					}
					fwd.Release()
					bwd.Release()
				}
				requireCleanPool(t, pool)
			}
		})
	}
}
