// Package pathjoin implements the path concatenation operator ⊕ of
// Def. 3.1: hash-joining a set of forward partial paths (rooted at s on
// G) with a set of backward partial paths (rooted at t on Gr) on their
// meeting vertex, filtering non-simple concatenations.
//
// The paper leaves the duplicate-avoidance rule implicit; we make it
// explicit: a result path of length L is accounted to the unique split
// (a, b) = (⌈L/2⌉, ⌊L/2⌋), so a forward path of length a only joins
// backward paths of lengths a and a−1. Every HC-s-t path is therefore
// emitted exactly once (TestJoinUniqueSplit proves this against a
// brute-force oracle).
//
// Paths are stored in a Store arena — one flat vertex array plus offsets —
// so that enumerating millions of partial paths does not fragment the
// heap; this matters at Exp-7 scale where path counts grow exponentially
// with k.
package pathjoin

import (
	"repro/internal/graph"
	"repro/internal/query"
)

// Store is an append-only arena of paths. The zero value is ready to use.
type Store struct {
	verts []graph.VertexID
	offs  []int32
}

// NewStore returns a store with capacity hints.
func NewStore(pathHint, vertHint int) *Store {
	return &Store{
		verts: make([]graph.VertexID, 0, vertHint),
		offs:  make([]int32, 1, pathHint+1),
	}
}

// Add copies p into the arena and returns its index.
//
//hcpath:noalloc
func (s *Store) Add(p []graph.VertexID) int {
	if len(s.offs) == 0 {
		s.offs = append(s.offs, 0)
	}
	s.verts = append(s.verts, p...)
	s.offs = append(s.offs, int32(len(s.verts)))
	return len(s.offs) - 2
}

// AddConcat copies the concatenation prefix+suffix as one path and
// returns its index, avoiding an intermediate allocation.
//
//hcpath:noalloc
func (s *Store) AddConcat(prefix, suffix []graph.VertexID) int {
	if len(s.offs) == 0 {
		s.offs = append(s.offs, 0)
	}
	s.verts = append(s.verts, prefix...)
	s.verts = append(s.verts, suffix...)
	s.offs = append(s.offs, int32(len(s.verts)))
	return len(s.offs) - 2
}

// Path returns the i-th path. The slice aliases the arena and must not
// be modified or retained across Adds.
func (s *Store) Path(i int) []graph.VertexID {
	return s.verts[s.offs[i]:s.offs[i+1]]
}

// Len returns the number of stored paths.
func (s *Store) Len() int {
	if len(s.offs) == 0 {
		return 0
	}
	return len(s.offs) - 1
}

// NumVertices returns the total vertex footprint, used by the Fig. 3(c)
// materialisation measurements.
func (s *Store) NumVertices() int { return len(s.verts) }

// Reset empties the store, retaining capacity.
func (s *Store) Reset() {
	s.verts = s.verts[:0]
	s.offs = s.offs[:1]
	s.offs[0] = 0
}

// Each calls fn for every stored path.
func (s *Store) Each(fn func(p []graph.VertexID)) {
	for i := 0; i < s.Len(); i++ {
		fn(s.Path(i))
	}
}

// Raw exposes the arena's flat contents — the vertex array and the
// Len()+1 offsets array — so hcpath can cut a reply into Paths without
// copying. Both slices alias internal storage and must not be modified; a
// zero-value store reports (nil, nil).
func (s *Store) Raw() (verts []graph.VertexID, offs []int32) { return s.verts, s.offs }

// hashKey packs (meet vertex, path length) into one map key.
func hashKey(meet graph.VertexID, length int) uint64 {
	return uint64(meet)<<16 | uint64(uint16(length))
}

// HashIndex groups paths of a store by (endpoint, length) for ⊕ probing.
type HashIndex struct {
	store   *Store
	buckets map[uint64][]int32
}

// BuildHashIndex indexes every path of s by its final vertex and length.
func BuildHashIndex(s *Store) *HashIndex {
	h := &HashIndex{store: s, buckets: make(map[uint64][]int32, s.Len())}
	for i := 0; i < s.Len(); i++ {
		p := s.Path(i)
		k := hashKey(p[len(p)-1], len(p)-1)
		h.buckets[k] = append(h.buckets[k], int32(i))
	}
	return h
}

// Probe calls fn for every indexed path ending at meet with the given
// hop length.
func (h *HashIndex) Probe(meet graph.VertexID, length int, fn func(p []graph.VertexID)) {
	for _, i := range h.buckets[hashKey(meet, length)] {
		fn(h.store.Path(int(i)))
	}
}

// JoinHalves computes Pf ⊕ Pb with the unique-split pairing rule and
// calls emit with every simple result path of length ≤ k (at least 1).
// fwd holds partial paths rooted at s on G; bwd holds partial paths
// rooted at t on Gr. Backward paths are reversed during concatenation.
// The emitted slice is reused between calls and must be copied to be
// retained.
//
// When backHeavy is false the forward side owns the deeper budget
// (⌈k/2⌉ forward, ⌊k/2⌋ backward) and a result of length L is accounted
// to the unique split a = ⌈L/2⌉, realised by joining only pairs with
// b ∈ {a, a−1}. When backHeavy is true the roles are mirrored
// (b ∈ {a, a+1}, split a = ⌊L/2⌋), which the optimised engines use when
// the backward frontier is the cheaper one to deepen. Either way every
// HC-s-t path is emitted exactly once.
func JoinHalves(fwd, bwd *Store, k uint8, backHeavy bool, emit func(path []graph.VertexID)) {
	JoinHalvesIndexed(fwd, BuildHashIndex(bwd), k, backHeavy, nil, 0, emit)
}

// JoinHalvesIndexed is JoinHalves with a prebuilt backward-side index,
// under a query.Control. Batch engines reuse one index across every
// query whose backward half aliases the same shared store, instead of
// rebuilding it per query. Every emission first reserves a slot on
// qid's limit; the first refusal ends the join, so the engine learns
// the result set was truncated (one probe past the limit) without
// enumerating the rest. Cancellation is polled per probe, not per
// forward path — a handful of forward paths can fan out into
// arbitrarily large buckets, so a per-path cadence could run a
// cancelled join to completion. A nil ctrl joins to completion.
func JoinHalvesIndexed(fwd *Store, h *HashIndex, k uint8, backHeavy bool, ctrl *query.Control, qid int, emit func(path []graph.VertexID)) {
	buf := make([]graph.VertexID, 0, int(k)+1)
	steps, stopped := 0, false
	for i := 0; i < fwd.Len(); i++ {
		if stopped || ctrl.HitLimit(qid) {
			return
		}
		pf := fwd.Path(i)
		a := len(pf) - 1
		meet := pf[len(pf)-1]
		pair := [2]int{a, a - 1}
		if backHeavy {
			pair = [2]int{a, a + 1}
		}
		for _, b := range pair {
			if b < 0 || a+b > int(k) || a+b < 1 {
				continue
			}
			h.Probe(meet, b, func(pb []graph.VertexID) {
				if ctrl.Poll(&steps, &stopped) {
					return // drain the bucket without emitting
				}
				if ctrl.HitLimit(qid) {
					return // drain the bucket without emitting
				}
				if !DisjointExceptMeet(pf, pb) {
					return
				}
				if !ctrl.Allow(qid) {
					return
				}
				buf = buf[:0]
				buf = append(buf, pf...)
				for j := len(pb) - 2; j >= 0; j-- {
					buf = append(buf, pb[j])
				}
				emit(buf)
			})
		}
	}
}

// DisjointExceptMeet reports whether forward path pf and backward path
// pb share no vertex other than their common meeting vertex
// (pf's last element, which equals pb's last element). Both slices are
// internally duplicate-free, so a pairwise scan suffices; partial paths
// are short (≤ ⌈k/2⌉+1 vertices, k ≤ ~15 in practice), making the
// quadratic scan faster than hashing.
func DisjointExceptMeet(pf, pb []graph.VertexID) bool {
	for i := 0; i < len(pf)-1; i++ {
		for j := 0; j < len(pb)-1; j++ {
			if pf[i] == pb[j] {
				return false
			}
		}
	}
	return true
}

// IsSimple reports whether p has no repeated vertices, used by tests and
// by engines validating spliced cache results.
func IsSimple(p []graph.VertexID) bool {
	switch {
	case len(p) <= 1:
		return true
	case len(p) <= 16: // quadratic beats hashing for short paths
		for i := 0; i < len(p); i++ {
			for j := i + 1; j < len(p); j++ {
				if p[i] == p[j] {
					return false
				}
			}
		}
		return true
	default:
		seen := make(map[graph.VertexID]struct{}, len(p))
		for _, v := range p {
			if _, dup := seen[v]; dup {
				return false
			}
			seen[v] = struct{}{}
		}
		return true
	}
}

// ContainsVertex reports whether path p visits v.
func ContainsVertex(p []graph.VertexID, v graph.VertexID) bool {
	for _, u := range p {
		if u == v {
			return true
		}
	}
	return false
}
