// Package hcindex builds and serves the PathEnum-style distance index for
// a batch of HC-s-t path queries (§III of the paper): for every query
// q(s,t,k) it holds dist_G(s,·) and dist_Gr(t,·) capped at k hops,
// constructed with multi-source BFSs from the source set S and target set
// T. The hop-constrained neighbour sets Γ(q)/Γr(q) (Def. 4.4) fall out of
// the same traversals and feed query clustering without extra work.
//
// A batch of one query is never clustered, so nothing reads its Γ: its
// index holds the query's k-hop s-t subgraph maps (msbfs.Subgraph)
// instead of two k-balls, which is all the enumeration prunes with.
package hcindex

import (
	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
)

// Unreachable mirrors msbfs.Unreachable for call sites that only import
// the index.
const Unreachable = msbfs.Unreachable

// Index holds per-query forward and backward hop-bounded distance maps.
// Indexes obtained from a Provider must be Released when the batch is
// done with them (after enumeration, before the next batch), returning
// cached entries and pooled storage to the provider.
//
// Queries that share an endpoint and cap share one map: equal keys
// resolve to one *msbfs.DistMap, on which sharegraph's constraint
// merge keys.
type Index struct {
	// maps[d][i] is query i's map in direction d (Forward: from its S on
	// G; Backward: from its T on Gr).
	maps [2][]*msbfs.DistMap

	// Hits and Misses count this acquisition's index probes — two per
	// query (forward and backward) — answered from a provider's cache vs
	// built fresh. A cold build is all misses.
	Hits, Misses int

	release func()
}

// Release hands the index's entries back to the provider that produced
// it: cache entries are unpinned (evictable again), pooled dense arrays
// return to the free-list. Safe to call more than once; a no-op for
// plain Build indexes.
func (idx *Index) Release() {
	if f := idx.release; f != nil {
		idx.release = nil
		f()
	}
}

// Build constructs the index for the batch with two multi-source BFS
// passes (one on G, one on Gr), deduplicating identical (vertex, cap)
// sources so shared endpoints are traversed once. Build runs serially;
// providers take a width.
func Build(g, gr *graph.Graph, queries []query.Query) *Index {
	idx, _ := buildIn(g, gr, queries, nil, 1)
	return idx
}

// buildIn is Build drawing storage from pool (nil means plain
// allocations), with the sources of both passes run as one build on up
// to width goroutines. It also returns the maps it built, each once, for
// its caller to release.
func buildIn(g, gr *graph.Graph, queries []query.Query, pool *msbfs.Pool, width int) (*Index, [][]*msbfs.DistMap) {
	fwd, fslot := dedup(g, queries, func(q query.Query) (graph.VertexID, uint8) { return q.S, q.K })
	bwd, bslot := dedup(gr, queries, func(q query.Query) (graph.VertexID, uint8) { return q.T, q.K })
	res := msbfs.RunPasses([]msbfs.Pass{fwd, bwd}, pool, msbfs.BuildOptions{Workers: width})
	maps := perQuery(len(queries), func(i int) (f, b *msbfs.DistMap) {
		return res[0][fslot[i]], res[1][bslot[i]]
	})
	return &Index{maps: maps, Misses: 2 * len(queries)}, res
}

// perQuery lays out the maps of n queries as Index.maps holds them,
// query i's being the pair pick(i) returns. Both directions share one
// array.
func perQuery(n int, pick func(i int) (fwd, bwd *msbfs.DistMap)) [2][]*msbfs.DistMap {
	maps := make([]*msbfs.DistMap, 2*n)
	for i := 0; i < n; i++ {
		maps[i], maps[n+i] = pick(i)
	}
	return [2][]*msbfs.DistMap{Forward: maps[:n:n], Backward: maps[n:]}
}

// pairIndex is the index of a batch of one query served the maps fwd
// and bwd.
func pairIndex(fwd, bwd *msbfs.DistMap) *Index {
	maps := []*msbfs.DistMap{fwd, bwd}
	return &Index{maps: [2][]*msbfs.DistMap{Forward: maps[:1:1], Backward: maps[1:]}}
}

type srcKey struct {
	v graph.VertexID
	k uint8
}

// dedup collects the distinct (vertex, cap) pairs pick produces into
// one pass on g, and returns for each query the position of its pair —
// which is also the position of its map among the pass's results.
func dedup(g *graph.Graph, queries []query.Query, pick func(query.Query) (graph.VertexID, uint8)) (msbfs.Pass, []int32) {
	pass := msbfs.Pass{G: g}
	slot := make(map[srcKey]int32)
	assign := make([]int32, len(queries))
	for i, q := range queries {
		v, k := pick(q)
		key := srcKey{v, k}
		s, ok := slot[key]
		if !ok {
			s = int32(len(pass.Sources))
			slot[key] = s
			pass.Sources = append(pass.Sources, v)
			pass.Caps = append(pass.Caps, k)
		}
		assign[i] = s
	}
	return pass, assign
}

// dist returns query i's map in direction d.
func (idx *Index) dist(i int, d Direction) *msbfs.DistMap { return idx.maps[d][i] }

// Reachable reports whether query i's target is within its hop budget of
// its source at all; unreachable queries have empty result sets and can
// be skipped by every engine.
func (idx *Index) Reachable(i int, q query.Query) bool {
	return idx.dist(i, Forward).Dist(q.T) <= q.K
}

// Direction selects the forward (on G) or backward (on Gr) half of the
// index.
type Direction int

// Direction values.
const (
	Forward Direction = iota
	Backward
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// DistMapFor exposes the raw per-query DistMap: the enumeration's
// distances, and Γ(q)/Γr(q) as its visited set on every index but a
// one-query batch's (AcquireOne), whose maps stop at the subgraph.
func (idx *Index) DistMapFor(i int, dir Direction) *msbfs.DistMap { return idx.dist(i, dir) }
