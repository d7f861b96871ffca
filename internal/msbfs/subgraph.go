package msbfs

import "repro/internal/graph"

// admission confines a build to a k-hop s-t subgraph, the vertices v
// with d(s,v) + d(v,t) ≤ k: a vertex first reached at depth j enters
// the build only if j ≤ free or other.Dist(v) ≤ k − j, where other
// holds distances from the opposite endpoint in the opposite direction.
type admission struct {
	other *DistMap
	free  uint8
	k     uint8
}

// filter keeps those of verts, the vertices first reached at depth,
// that the admission admits. A rejected vertex loses the seen and next
// bits this level gave it and is never touched, so the sweep's
// clean-scratch invariant holds and a later level may reach it again
// (to be rejected again: the test only tightens with depth).
//
//hcpath:noalloc
func (a *admission) filter(verts []graph.VertexID, seen, next []uint64, depth int) []graph.VertexID {
	if depth <= int(a.free) {
		return verts
	}
	kept := verts[:0]
	for _, v := range verts {
		if int(a.other.Dist(v))+depth <= int(a.k) {
			kept = append(kept, v)
			continue
		}
		seen[v] &^= next[v]
		next[v] = 0
	}
	return kept
}

// Subgraph builds the two distance maps a single query (s, t, k) reads
// — from s on g and from t on gr, both capped at k — confined to its
// k-hop s-t subgraph instead of the two full k-balls: classic
// bidirectional search (Pohl 1971), pruned to the subgraph BC-DFS
// (Peng et al., VLDB 2019) and PathEnum (Sun et al., SIGMOD 2021)
// search. With a = ⌈k/2⌉:
//
//  1. T0 is the ball of t on gr capped at a;
//  2. fwd is the BFS from s on g to depth k, admitting a vertex first
//     reached at depth j only if j ≤ a or T0.Dist(v) ≤ k − j;
//  3. bwd is the BFS from t on gr to depth k, admitting one only if
//     j ≤ a or fwd.Dist(v) ≤ k − j; then T0 is released.
//
// For j > a the bound k − j is below ⌊k/2⌋ ≤ a, so every distance a
// test reads is exact, and every vertex on a shortest path to a
// subgraph vertex is a subgraph vertex, so every distance a map
// reports is exact. Each map is thus exact wherever it reports,
// reports every vertex with d(s,v) + d(v,t) ≤ k, and is complete
// within a hops — all a query's enumeration reads: Lemma 3.1 prunes
// everything else at its first visit either way, and BalancedCut reads
// level sizes at a. The maps are drawn from pool (nil allocates).
func Subgraph(g, gr *graph.Graph, s, t graph.VertexID, k uint8, pool *Pool) (fwd, bwd *DistMap) {
	a := k - k/2
	ends := [2]graph.VertexID{s, t}
	caps := [2]uint8{a, k}
	var out [3]*DistMap
	chunkRun(gr, ends[1:], caps[:1], nil, out[:1], pool)
	chunkRun(g, ends[:1], caps[1:], &admission{other: out[0], free: a, k: k}, out[1:2], pool)
	chunkRun(gr, ends[1:], caps[1:], &admission{other: out[1], free: a, k: k}, out[2:], pool)
	out[0].Release()
	return out[1], out[2]
}
