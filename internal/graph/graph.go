// Package graph provides the directed-graph substrate used by all
// enumeration algorithms in this repository: a compact CSR (compressed
// sparse row) representation with O(1) out-neighbour slicing, the reverse
// graph for backward searches, a paged copy-on-write delta overlay that
// lets the versioned store publish an updated graph per epoch without
// rebuilding the CSR, loaders and writers for edge-list and binary
// formats, degree statistics matching Table I of the paper, vertex and
// edge sampling for the scalability experiment (Exp-5), and synthetic
// generators used as stand-ins for the paper's twelve real-world datasets.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. Vertices are dense integers in [0, N).
type VertexID = uint32

// NoVertex is a sentinel that is never a valid vertex id.
const NoVertex = ^VertexID(0)

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src VertexID
	Dst VertexID
}

// Graph is an immutable unweighted directed graph in CSR form.
//
// offsets has length n+1; the out-neighbours of v are
// targets[offsets[v]:offsets[v+1]]. Neighbour lists are sorted by vertex
// id and deduplicated; self-loops are removed at construction time (a
// simple path can never use one).
//
// A Graph may additionally carry a delta overlay (see Overlay): a set of
// adjacency rows that supersede the CSR rows of the vertices they name,
// plus optional vertex growth beyond the CSR. The rows live in a paged
// copy-on-write table — one pointer per pageRows vertices, nil where no
// row in the page changed — so a successor graph shares every page its
// update did not touch. Overlay graphs answer the same neighbour-access
// calls as plain ones — every engine works unchanged — at the cost of
// an out-of-line call, two indexed loads and two nil checks per access;
// plain graphs pay a single flag test. The versioned store
// (internal/store) builds one overlay graph per update epoch and folds
// it back into a plain CSR when the delta grows (Flatten).
type Graph struct {
	offsets []int64
	targets []VertexID

	// overlay marks a graph whose pages supersede the CSR rows of the
	// vertices they name: page v/pageRows, slot v%pageRows. A nil page or
	// slot reads the CSR row (no row at all for a grown vertex); an
	// emptied row is a non-nil empty slice. Rows are sorted, deduplicated
	// and self-loop free, like CSR rows, and pages are never written once
	// published. ovN/ovM are the overlay graph's vertex and edge totals
	// (ovN ≥ len(offsets)-1: updates may add vertices, never remove).
	overlay bool
	pages   []*page
	ovN     int
	ovM     int
}

// pageRows is the number of vertices one overlay page covers: the unit
// an update copies.
const pageRows = 16

// page holds the overlay rows of pageRows consecutive vertices.
type page [pageRows][]VertexID

// emptyRow is the row of a vertex whose every edge was deleted: non-nil,
// so it supersedes the CSR row.
var emptyRow = []VertexID{}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int {
	if g.overlay {
		return g.ovN
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of directed edges m (after dedup).
func (g *Graph) NumEdges() int {
	if g.overlay {
		return g.ovM
	}
	return len(g.targets)
}

// OutNeighbors returns the sorted out-neighbour list of v. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	if g.overlay {
		return g.overlayRow(v)
	}
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	if g.overlay {
		return len(g.overlayRow(v))
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// overlayRow is OutNeighbors on an overlay graph. It stays out of line
// so that OutNeighbors and OutDegree keep a plain-CSR body small enough
// to inline into every traversal (CI checks that they still do).
//
//go:noinline
func (g *Graph) overlayRow(v VertexID) []VertexID {
	if p := g.pages[v/pageRows]; p != nil {
		if row := p[v%pageRows]; row != nil {
			return row
		}
	}
	if int(v) >= len(g.offsets)-1 {
		return nil // grown vertex with no overlay row
	}
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the edge (u, v) exists, via binary search on
// u's sorted neighbour list.
func (g *Graph) HasEdge(u, v VertexID) bool {
	nbrs := g.OutNeighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Edges calls fn for every edge in the graph, in (src, dst) order.
// Iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(src, dst VertexID) bool) {
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.OutNeighbors(VertexID(v)) {
			if !fn(VertexID(v), w) {
				return
			}
		}
	}
}

// Reverse builds the reverse graph Gr: edge (u,v) becomes (v,u). The
// construction is a counting sort and runs in O(n+m). Reversing an
// overlay graph produces a plain CSR (the overlay is folded in); the
// versioned store keeps its own symmetric reverse overlay instead of
// calling this per epoch.
func (g *Graph) Reverse() *Graph {
	if g.overlay {
		g = g.Flatten()
	}
	n := g.NumVertices()
	rev := &Graph{
		offsets: make([]int64, n+1),
		targets: make([]VertexID, len(g.targets)),
	}
	// Count in-degrees.
	for _, w := range g.targets {
		rev.offsets[w+1]++
	}
	for v := 0; v < n; v++ {
		rev.offsets[v+1] += rev.offsets[v]
	}
	cursor := make([]int64, n)
	copy(cursor, rev.offsets[:n])
	for v := 0; v < n; v++ {
		for _, w := range g.OutNeighbors(VertexID(v)) {
			rev.targets[cursor[w]] = VertexID(v)
			cursor[w]++
		}
	}
	// Counting sort over sorted source ids yields sorted neighbour lists
	// already, because sources are visited in increasing order.
	return rev
}

// Builder accumulates edges and produces an immutable Graph. The zero
// value is ready to use.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph with at least n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records the directed edge (src, dst). Vertex ids beyond the
// initial n grow the graph. Self-loops are silently dropped.
func (b *Builder) AddEdge(src, dst VertexID) {
	if src == dst {
		return
	}
	if int(src) >= b.n {
		b.n = int(src) + 1
	}
	if int(dst) >= b.n {
		b.n = int(dst) + 1
	}
	b.edges = append(b.edges, Edge{src, dst})
}

// AddEdges records a batch of edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
}

// Build sorts, deduplicates and freezes the edges into a CSR Graph.
// The builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].Src != b.edges[j].Src {
			return b.edges[i].Src < b.edges[j].Src
		}
		return b.edges[i].Dst < b.edges[j].Dst
	})
	g := &Graph{offsets: make([]int64, b.n+1)}
	g.targets = make([]VertexID, 0, len(b.edges))
	var prev Edge
	first := true
	for _, e := range b.edges {
		if !first && e == prev {
			continue // duplicate edge
		}
		first, prev = false, e
		g.targets = append(g.targets, e.Dst)
		g.offsets[e.Src+1]++
	}
	for v := 0; v < b.n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	return g
}

// FromEdges is a convenience constructor building a graph directly from
// an edge slice.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.AddEdges(edges)
	return b.Build()
}

// Row is one adjacency row handed to Overlay: the out-neighbours of V.
type Row struct {
	V    VertexID
	Nbrs []VertexID
}

// Overlay returns the successor of prev: prev's CSR base and overlay
// rows, with rows superseding the rows of the vertices they name, over
// a vertex space of n ≥ prev.NumVertices() ids holding m edges. rows
// must be sorted by V; each row's Nbrs must be sorted ascending,
// deduplicated, free of self-loops, and contain only ids below n — the
// invariants CSR rows hold (internal/store maintains them when merging
// deltas, and carries m forward by the rows' length changes). An empty
// Nbrs empties the row. Only the page table and the pages rows land in
// are copied; every other page, the base and the rows are shared, so
// all of them must stay immutable for the overlay's lifetime.
func Overlay(prev *Graph, n, m int, rows []Row) *Graph {
	g := &Graph{
		offsets: prev.offsets,
		targets: prev.targets,
		overlay: true,
		ovN:     max(n, prev.NumVertices()),
		ovM:     m,
	}
	g.pages = make([]*page, (g.ovN+pageRows-1)/pageRows)
	copy(g.pages, prev.pages)
	for i := 0; i < len(rows); {
		pi := rows[i].V / pageRows
		p := new(page)
		if old := g.pages[pi]; old != nil {
			*p = *old
		}
		for ; i < len(rows) && rows[i].V/pageRows == pi; i++ {
			row := rows[i].Nbrs
			if row == nil {
				row = emptyRow // a nil slot would read the CSR row
			}
			p[rows[i].V%pageRows] = row
		}
		g.pages[pi] = p
	}
	return g
}

// IsOverlay reports whether the graph carries a delta overlay.
func (g *Graph) IsOverlay() bool { return g.overlay }

// Flatten folds an overlay graph into a plain CSR with identical
// vertices and edges — the compaction step of the versioned store. The
// result is byte-identical to building the same edge set from scratch
// (rows are already sorted and deduplicated). Plain graphs return
// themselves.
func (g *Graph) Flatten() *Graph {
	if !g.overlay {
		return g
	}
	n := g.NumVertices()
	flat := &Graph{
		offsets: make([]int64, n+1),
		targets: make([]VertexID, 0, g.NumEdges()),
	}
	for v := 0; v < n; v++ {
		nbrs := g.OutNeighbors(VertexID(v))
		flat.targets = append(flat.targets, nbrs...)
		flat.offsets[v+1] = flat.offsets[v] + int64(len(nbrs))
	}
	return flat
}

// Stats summarises a graph in the shape of the paper's Table I.
type Stats struct {
	NumVertices int
	NumEdges    int
	AvgDegree   float64 // davg = m / n
	MaxDegree   int     // dmax, maximum total (in+out) degree
}

// ComputeStats computes Table-I style statistics. dmax is the maximum
// total degree: generators that skew in-degree only (preferential
// attachment targets) would otherwise report a flat dmax.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	s := Stats{NumVertices: n, NumEdges: g.NumEdges()}
	if n > 0 {
		s.AvgDegree = float64(s.NumEdges) / float64(n)
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] += g.OutDegree(VertexID(v))
		for _, w := range g.OutNeighbors(VertexID(v)) {
			deg[w]++
		}
	}
	for _, d := range deg {
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}

// String renders the statistics as a single human-readable line.
func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d davg=%.1f dmax=%d",
		s.NumVertices, s.NumEdges, s.AvgDegree, s.MaxDegree)
}

// Validate checks structural invariants of the CSR arrays (and, for
// overlay graphs, of the overlay rows and totals). It is used by tests
// and by loaders that read untrusted input.
func (g *Graph) Validate() error {
	if len(g.offsets) == 0 {
		return fmt.Errorf("graph: missing offset array")
	}
	baseN := len(g.offsets) - 1
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.offsets[baseN] != int64(len(g.targets)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[baseN], len(g.targets))
	}
	for v := 0; v < baseN; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	n := g.NumVertices()
	m := 0
	for v := 0; v < n; v++ {
		nbrs := g.OutNeighbors(VertexID(v))
		m += len(nbrs)
		for i, w := range nbrs {
			if int(w) >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range n=%d", v, w, n)
			}
			if w == VertexID(v) {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && nbrs[i-1] >= w {
				return fmt.Errorf("graph: neighbours of %d not strictly sorted", v)
			}
		}
	}
	if g.overlay {
		if g.ovN < baseN {
			return fmt.Errorf("graph: overlay shrinks vertex space (%d < %d)", g.ovN, baseN)
		}
		if m != g.ovM {
			return fmt.Errorf("graph: overlay edge total %d, want %d", g.ovM, m)
		}
		if len(g.pages) != (n+pageRows-1)/pageRows {
			return fmt.Errorf("graph: %d overlay pages for n=%d", len(g.pages), n)
		}
		if tail := n % pageRows; tail != 0 && g.pages[len(g.pages)-1] != nil {
			for i, row := range g.pages[len(g.pages)-1][tail:] {
				if row != nil {
					return fmt.Errorf("graph: overlay row for out-of-range vertex %d (n=%d)", n+i, n)
				}
			}
		}
	}
	return nil
}
