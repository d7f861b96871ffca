// Package scratch recycles the dense per-vertex state of the
// enumeration DFS kernels (batchenum's Ψ traversal, pathenum's half
// search) through one process-wide pool, so a sharing group or a single
// query pays for the vertices it visits, never Θ(|V|) of
// allocate-zero-collect up front. It is the enumeration-side twin of
// msbfs.Pool (Then et al.'s MS-BFS state-reuse discipline): recycle,
// and restore cleanliness sparsely instead of by memset.
//
// It is also the chunk supply of pathjoin.Arena: fixed-length chunks of
// 4-byte words (VertexChunks for path vertices, Int32Chunks for offsets
// and probe indexes), recycled through two more pools. Chunks are never
// cleared: an arena writes every word before it reads it. Every chunk
// has the same length, so a pooled chunk holds no more memory than the
// largest store it ever served; a request larger than a chunk gets a
// dedicated allocation that is never pooled.
//
// Three invariants make reuse free of any clearing pass:
//
//   - OnPath comes back clean. A DFS sets OnPath[v] on push and clears
//     it on pop, and the unwind runs to the root on every exit —
//     completed, limit-stopped or cancelled — so a kernel returns every
//     entry false. A kernel that panics mid-search must not Put.
//   - Slot comes back zero: its user clears every entry it set, as
//     batchenum's splice index does once it has grouped a store.
//   - The memo is generation-stamped. MemoVal[v] is meaningful only
//     while MemoGen[v] equals the generation NextGen last returned;
//     stale stamps from earlier users simply read as misses.
package scratch

import (
	"math"
	"sync"
)

// Scratch is one DFS's dense per-vertex state, valid for graphs of up
// to len(OnPath) vertices. The slices may be longer than the graph in
// use; entries beyond its vertex count are never touched.
type Scratch struct {
	// OnPath marks the vertices of the current DFS prefix.
	OnPath []bool
	// MemoVal and MemoGen are a per-vertex memo: MemoVal[v] holds for
	// the current generation iff MemoGen[v] equals it.
	MemoVal []int16
	MemoGen []int32
	// Slot is a per-vertex number, zero except while its user has set
	// it.
	Slot []int32

	gen int32
}

var pool sync.Pool

// Get returns scratch for a graph of n vertices: OnPath all false, no
// memo entry stamped with a generation NextGen will return. A pooled
// entry is accepted whenever it is long enough, so a vertex space that
// grows across epochs reallocates once and then recycles again.
func Get(n int) *Scratch {
	if s := get(n); s != nil {
		return s
	}
	return &Scratch{
		OnPath:  make([]bool, n),
		MemoVal: make([]int16, n),
		MemoGen: make([]int32, n),
		Slot:    make([]int32, n),
	}
}

// get pops a pooled entry long enough for n vertices, or returns nil.
// A too-short entry is dropped: it would only be rejected again.
//
//hcpath:noalloc
func get(n int) *Scratch {
	s, _ := pool.Get().(*Scratch)
	if s == nil || len(s.OnPath) < n {
		return nil
	}
	return s
}

// Put returns s to the pool. The caller must have unwound its DFS, so
// OnPath is all false again (see the package comment).
//
//hcpath:noalloc
func Put(s *Scratch) { pool.Put(s) }

// NextGen opens a fresh memo generation and returns its stamp. When the
// counter would wrap, the stamps are cleared once so a stale entry can
// never collide with a reused generation number.
//
//hcpath:noalloc
func (s *Scratch) NextGen() int32 {
	if s.gen == math.MaxInt32 {
		clear(s.MemoGen)
		s.gen = 0
	}
	s.gen++
	return s.gen
}

// ChunkLen is the length of a pooled chunk in elements: 64 KiB of
// 4-byte words.
const ChunkLen = 16 << 10

// Chunks supplies fixed-length chunks of T.
type Chunks[T uint32 | int32] struct{ pool sync.Pool }

// The chunk supplies of pathjoin.Arena.
var (
	VertexChunks Chunks[uint32]
	Int32Chunks  Chunks[int32]
)

// Get returns at least n elements of arbitrary contents: a pooled chunk
// of ChunkLen when n fits one, otherwise a dedicated allocation of n
// that Put drops.
func (c *Chunks[T]) Get(n int) []T {
	if n > ChunkLen {
		return make([]T, n)
	}
	if p, _ := c.pool.Get().(*[ChunkLen]T); p != nil {
		return p[:]
	}
	return new([ChunkLen]T)[:]
}

// Put recycles a chunk Get returned. The caller must not use it again.
//
//hcpath:noalloc
func (c *Chunks[T]) Put(b []T) {
	if len(b) == ChunkLen {
		c.pool.Put((*[ChunkLen]T)(b))
	}
}
