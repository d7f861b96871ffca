package pathjoin

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/scratch"
)

// arenaCheck fills stores of one arena and checks, after every step,
// that every path written so far reads back intact: the stores'
// contents are mirrored in want.
type arenaCheck struct {
	t      *testing.T
	a      *Arena
	stores []*Store
	want   [][][]graph.VertexID
	next   graph.VertexID // path vertices count up, so no two paths agree
}

// open opens the arena's next store.
func (c *arenaCheck) open() *Store {
	s := c.a.Open()
	c.stores = append(c.stores, s)
	c.want = append(c.want, nil)
	return s
}

// add appends a fresh path of n vertices to the open store, as one
// Add, or as an AddConcat of two halves when concat is set.
func (c *arenaCheck) add(n int, concat bool) {
	p := make([]graph.VertexID, n)
	for i := range p {
		p[i] = c.next
		c.next++
	}
	s := c.stores[len(c.stores)-1]
	i := -1
	if concat {
		i = s.AddConcat(p[:n/2], p[n/2:])
	} else {
		i = s.Add(p)
	}
	w := &c.want[len(c.want)-1]
	if i != len(*w) {
		c.t.Fatalf("store %d: path added as %d, want %d", len(c.stores)-1, i, len(*w))
	}
	*w = append(*w, p)
}

// seal seals the open store.
func (c *arenaCheck) seal() { c.a.Seal(c.stores[len(c.stores)-1]) }

// verify fails unless every store reads back exactly what was added.
func (c *arenaCheck) verify(step string) {
	c.t.Helper()
	for si, s := range c.stores {
		if s.Len() != len(c.want[si]) {
			c.t.Fatalf("%s: store %d holds %d paths, want %d", step, si, s.Len(), len(c.want[si]))
		}
		for pi, w := range c.want[si] {
			if got := s.Path(pi); !slices.Equal(got, w) {
				c.t.Fatalf("%s: store %d path %d reads %v, want %v", step, si, pi, got, w)
			}
		}
	}
}

// TestArenaChunkBoundary covers the three ways an arena store meets the
// end of a chunk — a path that does not fit the open chunk's remainder,
// stores that cross several chunks, one path longer than a chunk — and
// checks after each step that every earlier path, and every earlier
// sealed store, reads back intact.
func TestArenaChunkBoundary(t *testing.T) {
	const L = scratch.ChunkLen

	t.Run("path past the remainder", func(t *testing.T) {
		var a Arena
		defer a.Release()
		c := &arenaCheck{t: t, a: &a}
		c.open()
		for i := 0; i < (L-3)/4; i++ { // leaves 3..6 words of the chunk
			c.add(4, false)
		}
		c.seal()
		c.open()
		c.add(2, false) // fits the remainder
		c.verify("small path in the remainder")
		c.add(8, true) // does not: the store moves to a fresh chunk
		c.verify("store moved")
		for i := 0; i < 100; i++ {
			c.add(3, i%2 == 0)
		}
		c.seal()
		c.verify("second store sealed")
		// A sealed store is capped: an Add on it reallocates instead of
		// overwriting the store after it.
		c.stores[0].Add([]graph.VertexID{1, 2, 3})
		c.want[0] = append(c.want[0], []graph.VertexID{1, 2, 3})
		c.verify("add to a sealed store")
	})

	t.Run("stores across several chunks", func(t *testing.T) {
		var a Arena
		defer a.Release()
		c := &arenaCheck{t: t, a: &a}
		// Short paths fill the offsets' chunks as fast as the vertices'.
		for si := 0; si < 40; si++ {
			c.open()
			for i := 0; i < 1000+97*si; i++ {
				c.add(1+(i+si)%5, i%3 == 0)
			}
			c.seal()
			if si%5 == 0 {
				c.verify(fmt.Sprintf("store %d sealed", si))
			}
			if si%7 == 0 { // an index carved between stores
				s := c.stores[si]
				h, ref := BuildHashIndex(s, &a), BuildHashIndex(s, nil)
				for pi := 0; pi < s.Len(); pi++ {
					p := s.Path(pi)
					if got, want := probe(h, p[len(p)-1], len(p)-1), probe(ref, p[len(p)-1], len(p)-1); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("store %d: carved index probes %v, allocated %v", si, got, want)
					}
				}
			}
		}
		if len(a.vchunks) < 4 || len(a.ichunks) < 4 {
			t.Fatalf("the stores drew %d vertex and %d int32 chunks, want several of each", len(a.vchunks), len(a.ichunks))
		}
		// One store grows from a chunk's tail through a fresh chunk to
		// dedicated allocations of several chunks.
		c.open()
		for i := 0; i < 3*L/4; i++ {
			c.add(4, i%2 == 1)
		}
		c.seal()
		c.verify("store larger than a chunk")
	})

	t.Run("path longer than a chunk", func(t *testing.T) {
		var a Arena
		defer a.Release()
		c := &arenaCheck{t: t, a: &a}
		c.open()
		c.add(5, false)
		c.seal()
		c.open()
		c.add(3, false)
		c.add(L+10, false)
		c.add(7, true)
		c.seal()
		c.open()
		c.add(L+1, true)
		c.seal()
		c.open()
		c.add(2, false)
		c.seal()
		c.verify("long paths")
	})
}

// TestArenaReleaseRecycles: a released arena's chunks serve the next
// arena (outside -race, whose sync.Pool drops some Puts), and stores
// carved from recycled chunks read back what they were given, not what
// the chunks held before.
func TestArenaReleaseRecycles(t *testing.T) {
	var a Arena
	c := &arenaCheck{t: t, a: &a}
	c.open()
	for i := 0; i < 5000; i++ {
		c.add(3, false)
	}
	c.seal()
	c.verify("first use")
	a.Release()
	if a.vchunks != nil || a.ichunks != nil || a.verts != nil || a.ints != nil {
		t.Fatal("Release left chunks in the arena")
	}
	c = &arenaCheck{t: t, a: &a, next: 1 << 20}
	for si := 0; si < 3; si++ {
		c.open()
		for i := 0; i < 700; i++ {
			c.add(2+i%3, false)
		}
		c.seal()
	}
	c.verify("recycled chunks")
	a.Release()
}

// TestArenaOneOpenStore: the arena hands out one store at a time and
// carves no index while it is open.
func TestArenaOneOpenStore(t *testing.T) {
	var a Arena
	defer a.Release()
	s := a.Open()
	mustPanic(t, "a second Open", func() { a.Open() })
	mustPanic(t, "an index carved while a store is open", func() { BuildHashIndex(s, &a) })
	a.Seal(s)
	mustPanic(t, "a second Seal", func() { a.Seal(s) })
	a.Seal(a.Open())
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
