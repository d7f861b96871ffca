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

// HashIndex groups paths of a store by (endpoint, length) for ⊕
// probing. It is a counting sort of the store's path indices by key:
// every bucket is one contiguous run of items, in store order, so an
// index costs a key→bucket map and two int32 arrays however many paths
// share a key.
type HashIndex struct {
	store  *Store
	bucket map[uint64]int32 // key → bucket number
	start  []int32          // bucket b's paths are items[start[b]:start[b+1]]
	items  []int32          // path indices, bucket by bucket
}

// BuildHashIndex indexes every path of s by its final vertex and length.
func BuildHashIndex(s *Store) *HashIndex {
	n := s.Len()
	h := &HashIndex{store: s, bucket: make(map[uint64]int32, n)}
	arrays := make([]int32, 2*n+1)
	h.items, h.start = arrays[:n:n], arrays[n:]
	of := make([]int32, n) // each path's bucket
	for i := 0; i < n; i++ {
		p := s.Path(i)
		k := hashKey(p[len(p)-1], len(p)-1)
		b, ok := h.bucket[k]
		if !ok {
			b = int32(len(h.bucket))
			h.bucket[k] = b
		}
		h.start[b]++
		of[i] = b
	}
	buckets := len(h.bucket)
	// Running sums turn the counts into bucket ends; placing the paths
	// last to first walks each end back to its bucket's start and
	// leaves every bucket in store order.
	for b := 1; b < buckets; b++ {
		h.start[b] += h.start[b-1]
	}
	for i := n - 1; i >= 0; i-- {
		b := of[i]
		h.start[b]--
		h.items[h.start[b]] = int32(i)
	}
	h.start = h.start[: buckets+1 : buckets+1]
	h.start[buckets] = int32(n)
	return h
}

// paths returns the indices of the paths ending at meet with the given
// hop length.
func (h *HashIndex) paths(meet graph.VertexID, length int) []int32 {
	b, ok := h.bucket[hashKey(meet, length)]
	if !ok {
		return nil
	}
	return h.items[h.start[b]:h.start[b+1]]
}

// Probe calls fn for every indexed path ending at meet with the given
// hop length.
func (h *HashIndex) Probe(meet graph.VertexID, length int, fn func(p []graph.VertexID)) {
	for _, i := range h.paths(meet, length) {
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
	JoinHalvesIndexed(fwd, BuildHashIndex(bwd), k, backHeavy, nil, emit)
}

// JoinHalvesIndexed is JoinHalves with a prebuilt backward-side index,
// under the Control of one query, ID 0 (see Joiner). A nil ctrl joins
// to completion.
func JoinHalvesIndexed(fwd *Store, h *HashIndex, k uint8, backHeavy bool, ctrl *query.Control, emit func(path []graph.VertexID)) {
	j := NewJoiner(h, k, backHeavy, ctrl, queryZero, EmitFunc(emit))
	j.JoinStore(fwd)
}

// queryZero is the class of a one-query join whose query has ID 0.
// Sinks never write into a class's IDs, so every such join shares it.
var queryZero = []int{0}

// EmitFunc adapts a one-query emit callback to query.Sink by dropping
// the query IDs: it calls the callback once per member of the class. A
// func value converts to an interface without an allocation, so a
// single-query join pays nothing for the adapter.
type EmitFunc func(path []graph.VertexID)

// Emit implements query.Sink.
//
//hcpath:noalloc
func (f EmitFunc) Emit(ids []int, path []graph.VertexID) {
	for range ids {
		f(path)
	}
}

// Joiner is the ⊕ join of one class of queries whose joins read the
// same inputs — the same forward half, backward index, k and split
// side — and so emit the same paths in the same order. The class is a
// lead query and the rest, IDs in one slice, lead first; a single query
// is a class of one. Every result path is built once and handed to the
// sink once, with the whole class, so each member receives exactly the
// sequence its own join would emit (query.Sink forbids writing into
// the slices).
//
// The forward side is streamed: each Join call pairs one forward path
// with the indexed backward paths, so a forward search can join every
// prefix as it finds it instead of storing the half first. Feeding the
// forward paths in store order (JoinStore) emits exactly what
// JoinHalvesIndexed emits, in the same order.
//
// The members share one Control, hence one limit and one cancellation.
// Every emission charges every member's limit, which keeps their
// budgets in lockstep: the lead's answer is every member's, and the
// join stops when the lead's limit refuses. The joiner's goroutine must
// own every member (the Control's single-owner rule).
type Joiner struct {
	h         *HashIndex
	k         uint8
	backHeavy bool
	ctrl      *query.Control
	ids       []int // the class, lead first
	sink      query.Sink
	buf       []graph.VertexID
	steps     int
	stopped   bool
}

// NewJoiner returns the join of the class ids (lead first, at least
// one) against the backward index h. The other arguments mean what they
// mean for JoinHalvesIndexed, and sink receives every result path once,
// with ids. The joiner keeps ids: it must not change while the join
// runs.
func NewJoiner(h *HashIndex, k uint8, backHeavy bool, ctrl *query.Control, ids []int, sink query.Sink) Joiner {
	return Joiner{h: h, k: k, backHeavy: backHeavy, ctrl: ctrl, ids: ids, sink: sink,
		buf: make([]graph.VertexID, 0, int(k)+1)}
}

// JoinStore joins the forward paths of fwd in store order until the
// join stops.
func (j *Joiner) JoinStore(fwd *Store) {
	for i := 0; i < fwd.Len() && j.Join(fwd.Path(i)); i++ {
	}
}

// Join emits every result path whose forward part is pf and reports
// whether the join goes on: false once the run is cancelled or the
// lead's limit refused an emission, after which later calls emit
// nothing. Every emission first reserves a slot on each member's limit;
// the first refusal ends the join, so the engine learns the result set
// was truncated (one probe past the limit) without enumerating the
// rest. Cancellation is polled per probe, not per forward path — a
// handful of forward paths can fan out into arbitrarily large buckets,
// so a per-path cadence could run a cancelled join to completion.
func (j *Joiner) Join(pf []graph.VertexID) bool {
	lead := j.ids[0]
	if j.stopped || j.ctrl.HitLimit(lead) {
		return false
	}
	a := len(pf) - 1
	meet := pf[len(pf)-1]
	pair := [2]int{a, a - 1}
	if j.backHeavy {
		pair = [2]int{a, a + 1}
	}
	for _, b := range pair {
		if b < 0 || a+b > int(j.k) || a+b < 1 {
			continue
		}
		for _, i := range j.h.paths(meet, b) {
			// Once stopped or satisfied, drain the bucket without emitting.
			if j.ctrl.Poll(&j.steps, &j.stopped) || j.ctrl.HitLimit(lead) {
				break
			}
			pb := j.h.store.Path(int(i))
			if !DisjointExceptMeet(pf, pb) {
				continue
			}
			// Charge every member, refused or not, so that each one
			// latches its own limit hit.
			ok := j.ctrl.Allow(lead)
			for _, id := range j.ids[1:] {
				j.ctrl.Allow(id)
			}
			if !ok {
				continue
			}
			buf := append(j.buf[:0], pf...)
			for x := len(pb) - 2; x >= 0; x-- {
				buf = append(buf, pb[x])
			}
			j.sink.Emit(j.ids, buf)
		}
	}
	return !j.stopped && !j.ctrl.HitLimit(lead)
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

// IsSimple reports whether p has no repeated vertices. It is a test
// oracle: the engines keep paths simple by construction and never call
// it.
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
