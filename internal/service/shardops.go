package service

import (
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/pathenum"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/store"
)

// The hooks in this file expose the pieces of a worker the in-process
// sharded coordinator (internal/shard) composes across shards: pinning a
// snapshot, resolving one endpoint's distance map through this
// worker's index cache, and running one half of the bidirectional
// search on this worker's graph. Single-process callers never need
// them — Submit covers the whole pipeline.

// CurrentSnapshot pins the store's current snapshot. Snapshots are
// immutable: the caller can keep reading it while later updates move
// the store to newer epochs.
func (s *Service) CurrentSnapshot() *store.Snapshot { return s.st.Current() }

// AcquireDist resolves the hop-bounded distance map of root in
// direction dir (Forward: distances from root over the graph;
// Backward: distances from root over the reverse) through this
// worker's cross-batch index cache, on the given snapshot's epoch. The
// returned Index handle owns the map — the caller must Release it when
// done — and carries the Hits/Misses of the probe for stats.
func (s *Service) AcquireDist(snap *store.Snapshot, root graph.VertexID, k uint8, dir hcindex.Direction) (*msbfs.DistMap, *hcindex.Index) {
	// A root-to-root query acquires both directions from the same
	// vertex; we use the requested one. The opposite-direction map rides
	// along in the cache, warm for the reverse role the same endpoint
	// plays in later queries.
	idx := s.provider.Acquire(snap.Graph(), snap.Reverse(), snap.Epoch(), []query.Query{{S: root, T: root, K: k}})
	return idx.DistMapFor(0, dir), idx
}

// HalfPaths runs one pruned half-DFS on this worker's copy of the
// snapshot: forward collects every simple partial path from root over
// the graph, backward over the reverse, up to budget hops, pruned
// against other — the opposite endpoint's distance map in the opposite
// direction (see pathenum.CollectHalf). Results append to out; ctrl
// carries the query's cancellation and deadline across workers.
func (s *Service) HalfPaths(snap *store.Snapshot, dir hcindex.Direction, root graph.VertexID, budget, k uint8, other *msbfs.DistMap, ctrl *query.Control, out *pathjoin.Store) {
	g := snap.Graph()
	if dir == hcindex.Backward {
		g = snap.Reverse()
	}
	pathenum.CollectHalf(g, root, budget, k, other, pathenum.Options{}, ctrl, out)
}
