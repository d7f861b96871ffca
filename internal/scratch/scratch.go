// Package scratch recycles the dense per-vertex state of the
// enumeration DFS kernels (batchenum's Ψ traversal, pathenum's half
// search) through one process-wide pool, so a sharing group or a single
// query pays for the vertices it visits, never Θ(|V|) of
// allocate-zero-collect up front. It is the enumeration-side twin of
// msbfs.Pool (Then et al.'s MS-BFS state-reuse discipline): recycle,
// and restore cleanliness sparsely instead of by memset.
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
