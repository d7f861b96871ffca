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

// admits reports whether v, first reached at depth, enters the build.
// A rejected vertex keeps its Unreachable dist and gets no touched bit,
// so it is tested again if reached again (and rejected again: the test
// only tightens with depth).
//
//hcpath:noalloc
func (a *admission) admits(v graph.VertexID, depth uint8) bool {
	return depth <= a.free || int(a.other.Dist(v))+int(depth) <= int(a.k)
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
	var sc [1]*scratch
	pool.getScratch(g.NumVertices(), sc[:])
	ball := bfs(gr, t, a, nil, pool, sc[0])
	fwd = bfs(g, s, k, &admission{other: ball, free: a, k: k}, pool, sc[0])
	bwd = bfs(gr, t, k, &admission{other: fwd, free: a, k: k}, pool, sc[0])
	pool.putScratch(sc[:])
	ball.Release()
	return fwd, bwd
}
