package graph

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// TestOverlayCopiesOnlyTouchedPages pins the copy-on-write contract: a
// successor copies exactly the pages its rows land in, shares every
// other page with its predecessor, and never writes into a page the
// predecessor can still read.
func TestOverlayCopiesOnlyTouchedPages(t *testing.T) {
	base := GenRandom(100, 3, 1) // 7 pages, the last one partial
	m := base.NumEdges() - base.OutDegree(17) - base.OutDegree(50) + 2
	first := Overlay(base, 100, m, []Row{{V: 17, Nbrs: []VertexID{3}}, {V: 50, Nbrs: []VertexID{4}}})
	m = first.NumEdges() - first.OutDegree(18) - first.OutDegree(40) - first.OutDegree(41) + 4
	next := Overlay(first, 120, m, []Row{
		{V: 18, Nbrs: []VertexID{5}},    // beside first's row 17
		{V: 40},                         // emptied: nil Nbrs
		{V: 41, Nbrs: []VertexID{0, 1}}, // same page as 40
		{V: 110, Nbrs: []VertexID{2}},   // grown, past the old last page
	})
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(next.pages) != 8 {
		t.Fatalf("%d pages for n=120, want 8", len(next.pages))
	}
	for i, p := range next.pages {
		switch i {
		case 3:
			if p != first.pages[3] {
				t.Fatal("untouched page 3 (vertex 50) was copied")
			}
		case 1, 2, 6:
			if p == nil || i < len(first.pages) && p == first.pages[i] {
				t.Fatalf("touched page %d is not a fresh copy", i)
			}
		default:
			if p != nil {
				t.Fatalf("page %d materialised with no row in it", i)
			}
		}
	}
	for v, want := range map[VertexID][]VertexID{17: {3}, 18: {5}, 40: {}, 41: {0, 1}, 50: {4}, 105: nil, 110: {2}} {
		if got := next.OutNeighbors(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d reads %v, want %v", v, got, want)
		}
	}
	if first.NumVertices() != 100 || !reflect.DeepEqual(first.OutNeighbors(18), base.OutNeighbors(18)) ||
		first.OutDegree(40) != base.OutDegree(40) || first.Validate() != nil {
		t.Fatal("predecessor changed under its successor")
	}
}

// TestWriteBinaryStreamsOverlay: an overlay writes the same bytes as its
// folded CSR, and writing allocates one chunk buffer, not buffers sized
// by the graph.
func TestWriteBinaryStreamsOverlay(t *testing.T) {
	base := GenRandom(25000, 5, 3)
	if base.NumEdges() < 100_000 {
		t.Fatalf("m=%d, want a graph past 100k edges", base.NumEdges())
	}
	m := base.NumEdges() - base.OutDegree(5) - base.OutDegree(6) + 3
	ov := Overlay(base, 25010, m, []Row{
		{V: 5, Nbrs: []VertexID{}},
		{V: 6, Nbrs: []VertexID{1, 25009}},
		{V: 25003, Nbrs: []VertexID{0}},
	})
	var got, want bytes.Buffer
	if err := WriteBinary(&got, ov); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&want, ov.Flatten()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("overlay and its folded CSR serialise differently")
	}

	const runs = 4
	write := func() {
		if err := WriteBinary(io.Discard, ov); err != nil {
			t.Fatal(err)
		}
	}
	write()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	perWrite := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("WriteBinary of n=%d m=%d: %d B allocated per write (the graph is %d B)",
		ov.NumVertices(), ov.NumEdges(), perWrite, 8*ov.NumVertices()+4*ov.NumEdges())
	if perWrite > writeChunkBytes+4<<10 {
		t.Fatalf("WriteBinary allocated %d B per write, want about one %d B chunk", perWrite, writeChunkBytes)
	}
}
