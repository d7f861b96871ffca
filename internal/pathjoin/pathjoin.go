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
// with k. The batch engines go one step further and carve their stores
// and probe indexes from an Arena, a region (Hanson, "Fast allocation
// and deallocation of memory based on object lifetimes", SP&E 1990)
// of pooled fixed-size chunks that dies whole when its owner is done.
package pathjoin

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/scratch"
)

// Store is an append-only arena of paths. The zero value is ready to use.
type Store struct {
	verts []graph.VertexID
	offs  []int32
	// arena is set while the store is an Arena's open store: a path
	// that does not fit the arrays' capacity moves them (Arena.grow)
	// instead of letting append reallocate them.
	arena *Arena
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
	if s.arena != nil && (len(s.verts)+len(p) > cap(s.verts) || len(s.offs) == cap(s.offs)) {
		s.arena.grow(s, len(p))
	}
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
	n := len(prefix) + len(suffix)
	if s.arena != nil && (len(s.verts)+n > cap(s.verts) || len(s.offs) == cap(s.offs)) {
		s.arena.grow(s, n)
	}
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

// Reset empties a heap store, keeping its arrays for the next Adds. It
// must not be called on an Arena's store.
func (s *Store) Reset() {
	s.verts, s.offs = s.verts[:0], s.offs[:0]
}

// Clone returns a copy of s whose vertex and offset arrays are exactly
// its size: two allocations however the paths arrived, and none for an
// empty store, whose copy is the zero value.
func (s *Store) Clone() Store {
	if s.Len() == 0 {
		return Store{}
	}
	return Store{
		verts: append(make([]graph.VertexID, 0, len(s.verts)), s.verts...),
		offs:  append(make([]int32, 0, len(s.offs)), s.offs...),
	}
}

// staging recycles the heap stores that collect result sets whose size
// is not known until their run ends (GetStaging, PutStaging).
var staging sync.Pool

// maxStagingWords bounds what a pooled staging store retains: PutStaging
// drops a store whose vertex or offset array grew past it, as an Arena
// never pools a store larger than a chunk. It is four chunks, not one,
// because an ordinary large reply outgrows one: the 2510 paths of a
// 7-hop query on a 14-vertex complete DAG hold 17 308 vertices.
const maxStagingWords = 4 * scratch.ChunkLen

// GetStaging returns an empty store from the staging pool. A caller
// fills it with Add while its run emits, copies the result out at its
// final size with Clone, and hands the store back with PutStaging, so
// the growth of a result set is paid once per pooled store, not once
// per result set.
func GetStaging() *Store {
	if s, _ := staging.Get().(*Store); s != nil {
		return s
	}
	return new(Store)
}

// PutStaging empties s and returns it to the staging pool, unless its
// arrays grew past maxStagingWords. The caller must not use s again.
func PutStaging(s *Store) {
	if cap(s.verts) > maxStagingWords || cap(s.offs) > maxStagingWords {
		return
	}
	s.Reset()
	staging.Put(s)
}

// Arena hands out stores whose vertex and offset arrays are carved from
// pooled chunks of scratch.ChunkLen words, and carves the int32 arrays
// of their probe indexes (BuildHashIndex) from the same supply. Nothing
// carved from an arena is freed alone: Release returns every chunk at
// once, when its owner is done with all of them.
//
// Stores are handed out one at a time. Open returns an empty store that
// Add and AddConcat fill in place, at the unclaimed tail of the arena's
// current chunk, and Seal claims what it filled and caps its arrays, so
// a sealed store never moves and an Add on it reallocates instead of
// overwriting its neighbour. A path that does not fit what is left of
// the chunk moves the open store whole to a fresh chunk; a store larger
// than a chunk moves to a dedicated allocation, which is never pooled,
// so what the pools retain stays bounded by the chunks in use.
//
// The zero value is ready to use. An arena is not safe for concurrent
// use, but its sealed stores and indexes may be read from any goroutine
// until Release, after which nothing carved from it may be read.
type Arena struct {
	verts []graph.VertexID // the unclaimed tail of the current vertex allocation
	ints  []int32          // the unclaimed tail of the current int32 allocation
	// The pooled chunks drawn, for Release. A dedicated allocation is
	// left to the collector, which frees it with the last store in it.
	vchunks [][]graph.VertexID
	ichunks [][]int32
	open    *Store
}

// Open returns an empty store, filled in place until Seal. Only one
// store of an arena is open at a time, and no index is built from the
// arena while it is.
func (a *Arena) Open() *Store {
	if a.open != nil {
		panic("pathjoin: Arena.Open while a store is open")
	}
	if len(a.ints) == 0 {
		a.ints = a.drawInts(1, 0)
	}
	s := &Store{verts: a.verts[:0], offs: a.ints[:1], arena: a}
	s.offs[0] = 0
	a.open = s
	return s
}

// Seal closes the open store s: the arena claims its arrays and caps
// them at their length.
func (a *Arena) Seal(s *Store) {
	if a.open != s {
		panic("pathjoin: Arena.Seal of a store that is not open")
	}
	nv, no := len(s.verts), len(s.offs)
	s.verts, s.offs = s.verts[:nv:nv], s.offs[:no:no]
	a.verts, a.ints = a.verts[nv:], a.ints[no:]
	s.arena, a.open = nil, nil
}

// Release returns every pooled chunk of the arena to the supply and
// empties it for reuse. Nothing carved from it may be read afterwards.
func (a *Arena) Release() {
	for _, c := range a.vchunks {
		scratch.VertexChunks.Put(c)
	}
	for _, c := range a.ichunks {
		scratch.Int32Chunks.Put(c)
	}
	*a = Arena{}
}

// grow moves the open store s, whose next path of extra vertices does
// not fit its arrays, to fresh allocations: the vertices, the offsets,
// or both. The open store begins each of the arena's tails, so the new
// allocation becomes the tail.
//
//hcpath:noalloc
func (a *Arena) grow(s *Store, extra int) {
	if need := len(s.verts) + extra; need > cap(s.verts) {
		a.verts = a.drawVerts(need, len(s.verts))
		s.verts = a.verts[:copy(a.verts, s.verts)]
	}
	if len(s.offs) == cap(s.offs) {
		a.ints = a.drawInts(len(s.offs)+1, len(s.offs))
		s.offs = a.ints[:copy(a.ints, s.offs)]
	}
}

// drawVerts returns a fresh vertex allocation of at least need words
// for an open store holding used of them: a pooled chunk when need fits
// one, otherwise a dedicated allocation that at least doubles it.
//
//hcpath:noalloc
func (a *Arena) drawVerts(need, used int) []graph.VertexID {
	c := scratch.VertexChunks.Get(drawLen(need, used))
	if len(c) == scratch.ChunkLen {
		a.vchunks = append(a.vchunks, c)
	}
	return c
}

// drawInts is drawVerts for the int32 supply.
//
//hcpath:noalloc
func (a *Arena) drawInts(need, used int) []int32 {
	c := scratch.Int32Chunks.Get(drawLen(need, used))
	if len(c) == scratch.ChunkLen {
		a.ichunks = append(a.ichunks, c)
	}
	return c
}

// drawLen is the length to draw for need words when used of them move:
// need itself when it fits a chunk, else at least twice used, so a store
// larger than a chunk grows by doubling as append would grow it.
//
//hcpath:noalloc
func drawLen(need, used int) int {
	if need > scratch.ChunkLen {
		return max(need, 2*used)
	}
	return need
}

// int32s returns n zeroed int32s carved from a, or allocated when a is
// nil.
func (a *Arena) int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	if a.open != nil {
		panic("pathjoin: index carved while a store is open")
	}
	if len(a.ints) < n {
		a.ints = a.drawInts(n, 0)
	}
	b := a.ints[:n:n]
	a.ints = a.ints[n:]
	clear(b)
	return b
}

// hashKey packs (meet vertex, path length) into one key.
func hashKey(meet graph.VertexID, length int) uint64 {
	return uint64(meet)<<16 | uint64(uint16(length))
}

// HashIndex groups paths of a store by (endpoint, length) for ⊕
// probing. It is a counting sort of the store's path indices by key:
// every bucket is one contiguous run of items, in store order, named
// after its first path r, so its run is items[start[r]:start[r+1]]
// (start[x] for an x that names no bucket is the end of the bucket
// before it). The keys live in a flat open-addressed table of the
// bucket names, probed linearly from a Fibonacci hash of the key; a
// slot's key is read off its bucket's first path, so the table is one
// int32 per slot, at most half of them full. An index costs four int32
// arrays however many paths share a key.
type HashIndex struct {
	store *Store
	table []int32 // r+1 for the bucket named r, 0 for an empty slot
	shift uint    // 64 − log2(len(table))
	start []int32 // len Len()+1
	items []int32 // path indices, bucket by bucket
}

// BuildHashIndex indexes every path of s by its final vertex and length,
// carving the index's arrays from a, or allocating them when a is nil.
func BuildHashIndex(s *Store, a *Arena) *HashIndex {
	n := s.Len()
	logSize := bits.Len(uint(max(2*n-1, 0))) // at least 2n slots
	h := &HashIndex{
		store: s,
		table: a.int32s(1 << logSize),
		shift: uint(64 - logSize),
		start: a.int32s(n + 1),
		items: a.int32s(n),
	}
	of := a.int32s(n) // each path's bucket
	for i := 0; i < n; i++ {
		p := s.Path(i)
		slot := h.slot(p[len(p)-1], len(p)-1)
		if h.table[slot] == 0 {
			h.table[slot] = int32(i) + 1
		}
		r := h.table[slot] - 1
		h.start[r]++
		of[i] = r
	}
	// Running sums turn the counts into bucket ends; placing the paths
	// last to first walks each end back to its bucket's start and
	// leaves every bucket in store order.
	for r := 1; r <= n; r++ {
		h.start[r] += h.start[r-1]
	}
	for i := n - 1; i >= 0; i-- {
		r := of[i]
		h.start[r]--
		h.items[h.start[r]] = int32(i)
	}
	return h
}

// slot returns the table slot of key (meet, length): the slot holding
// its bucket, or the empty slot where the bucket belongs.
func (h *HashIndex) slot(meet graph.VertexID, length int) int {
	mask := len(h.table) - 1
	for i := int(hashKey(meet, length) * 0x9E3779B97F4A7C15 >> h.shift); ; i = (i + 1) & mask {
		r := h.table[i]
		if r == 0 {
			return i
		}
		if p := h.store.Path(int(r - 1)); p[len(p)-1] == meet && len(p)-1 == length {
			return i
		}
	}
}

// paths returns the indices of the paths ending at meet with the given
// hop length.
func (h *HashIndex) paths(meet graph.VertexID, length int) []int32 {
	r := h.table[h.slot(meet, length)]
	if r == 0 {
		return nil
	}
	return h.items[h.start[r-1]:h.start[r]]
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
// (b ∈ {a, a+1}, split a = ⌊L/2⌋), which the "+" engines' cut uses when
// the backward frontier is the cheaper one to deepen. Either way every
// HC-s-t path is emitted exactly once.
func JoinHalves(fwd, bwd *Store, k uint8, backHeavy bool, emit func(path []graph.VertexID)) {
	j := NewJoiner(BuildHashIndex(bwd, nil), k, backHeavy, nil, queryZero, EmitFunc(emit))
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
// JoinHalves emits, in the same order.
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
// one) against the backward index h, under ctrl (nil joins to
// completion). k and backHeavy mean what they mean for JoinHalves, and
// sink receives every result path once, with ids. The joiner keeps ids:
// it must not change while the join runs.
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
