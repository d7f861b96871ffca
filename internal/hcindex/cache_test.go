package hcindex

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
)

func cacheFixture(t *testing.T) (g, gr *graph.Graph, qs []query.Query) {
	t.Helper()
	g = graph.GenRandom(400, 4, 3)
	gr = g.Reverse()
	raw := []query.Query{
		{S: 1, T: 200, K: 4},
		{S: 1, T: 200, K: 4}, // duplicate: must share maps
		{S: 7, T: 31, K: 5},
		{S: 1, T: 31, K: 3}, // repeats endpoint 1 with narrower cap
	}
	qs, err := query.Batch(g, raw)
	if err != nil {
		t.Fatal(err)
	}
	return g, gr, qs
}

// indexesAgree compares every per-query map of two indexes over all
// vertices.
func indexesAgree(t *testing.T, label string, g *graph.Graph, want, got *Index, nq int) {
	t.Helper()
	for i := 0; i < nq; i++ {
		for _, dir := range []Direction{Forward, Backward} {
			w, o := want.DistMapFor(i, dir), got.DistMapFor(i, dir)
			for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
				if a, b := w.Dist(v), o.Dist(v); a != b {
					t.Fatalf("%s: query %d %v dist(%d): %d vs %d", label, i, dir, v, b, a)
				}
			}
			if a, b := w.NumVisited(), o.NumVisited(); a != b {
				t.Fatalf("%s: query %d %v |Γ|: %d vs %d", label, i, dir, b, a)
			}
		}
	}
}

// TestCacheMatchesColdBuild: a cache must reproduce Build exactly, on
// its cold pass and again on its fully warm pass.
func TestCacheMatchesColdBuild(t *testing.T) {
	g, gr, qs := cacheFixture(t)
	want := Build(g, gr, qs)
	c := NewCache(0)
	for _, round := range []string{"cold", "warm"} {
		idx := c.Acquire(g, gr, 0, qs)
		indexesAgree(t, round, g, want, idx, len(qs))
		if round == "warm" && idx.Misses != 0 {
			t.Errorf("warm pass missed %d probes", idx.Misses)
		}
		if idx.Hits+idx.Misses != 2*len(qs) {
			t.Errorf("%s: %d probes accounted, want %d", round, idx.Hits+idx.Misses, 2*len(qs))
		}
		idx.Release()
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.BytesInUse == 0 || st.Entries == 0 {
		t.Errorf("implausible stats after warm pass: %+v", st)
	}
}

// TestCacheWidening: entries built at a larger cap must serve narrower
// queries through threshold filtering, and the served maps must match a
// cold build at the narrow cap exactly.
func TestCacheWidening(t *testing.T) {
	g, gr, _ := cacheFixture(t)
	wideRaw := []query.Query{{S: 3, T: 50, K: 8}, {S: 90, T: 3, K: 8}}
	narrowRaw := []query.Query{{S: 3, T: 50, K: 5}, {S: 90, T: 3, K: 5}}
	wide, err := query.Batch(g, wideRaw)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := query.Batch(g, narrowRaw)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	c.Acquire(g, gr, 0, wide).Release()
	idx := c.Acquire(g, gr, 0, narrow)
	if idx.Misses != 0 {
		t.Fatalf("widened pass missed %d probes", idx.Misses)
	}
	indexesAgree(t, "widened", g, Build(g, gr, narrow), idx, len(narrow))
	idx.Release()
	if w := c.Stats().Widened; w == 0 {
		t.Error("no widened hits recorded")
	}
}

// TestCacheSubsumesNarrowEntries: inserting a wider entry drops the now
// redundant narrower one for the same endpoint.
func TestCacheSubsumesNarrowEntries(t *testing.T) {
	g, gr, _ := cacheFixture(t)
	narrow, _ := query.Batch(g, []query.Query{{S: 3, T: 50, K: 3}})
	wide, _ := query.Batch(g, []query.Query{{S: 3, T: 50, K: 7}})
	c := NewCache(0)
	c.Acquire(g, gr, 0, narrow).Release()
	if got := c.Stats().Entries; got != 2 {
		t.Fatalf("after narrow pass: %d entries, want 2", got)
	}
	c.Acquire(g, gr, 0, wide).Release()
	// Forward (3, cap 3) and backward (50, cap 3) are both subsumed by
	// their cap-7 rebuilds.
	if got := c.Stats().Entries; got != 2 {
		t.Errorf("after wide pass: %d entries, want 2 (narrow subsumed)", got)
	}
	idx := c.Acquire(g, gr, 0, narrow)
	if idx.Misses != 0 {
		t.Errorf("narrow re-query missed %d probes, want widened hits", idx.Misses)
	}
	idx.Release()
}

// TestCacheEviction: a tiny budget must evict continuously without ever
// corrupting in-flight results, and pinned entries must survive until
// release.
func TestCacheEviction(t *testing.T) {
	g, gr, qs := cacheFixture(t)
	c := NewCache(1) // evict everything as soon as it is unpinned
	want := Build(g, gr, qs)
	idx := c.Acquire(g, gr, 0, qs)
	indexesAgree(t, "pinned", g, want, idx, len(qs))
	if c.Stats().BytesInUse == 0 {
		t.Error("pinned entries not accounted")
	}
	idx.Release()
	st := c.Stats()
	if st.Entries != 0 || st.BytesInUse != 0 {
		t.Errorf("budget 1: %d entries / %d bytes survive release", st.Entries, st.BytesInUse)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	// Second pass over the flushed cache must still be correct.
	idx2 := c.Acquire(g, gr, 0, qs)
	indexesAgree(t, "after-evict", g, want, idx2, len(qs))
	idx2.Release()
}

// TestCacheRebind: acquiring with a different graph replaces the
// binding and serves the new graph correctly; rebinding back to the
// first graph replaces it again and rebuilds, correctly too.
func TestCacheRebind(t *testing.T) {
	g, gr, qs := cacheFixture(t)
	g2 := graph.GenGrid(10, 10)
	gr2 := g2.Reverse()
	qs2, err := query.Batch(g2, []query.Query{{S: 0, T: 99, K: 18}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	c.Acquire(g, gr, 0, qs).Release()
	idx := c.Acquire(g2, gr2, 0, qs2)
	indexesAgree(t, "rebind", g2, Build(g2, gr2, qs2), idx, len(qs2))
	idx.Release()
	idx2 := c.Acquire(g, gr, 0, qs)
	indexesAgree(t, "rebind-back", g, Build(g, gr, qs), idx2, len(qs))
	idx2.Release()
}

// TestCacheConcurrent hammers one cache from many goroutines (mixed
// caps so widening, insertion races and eviction all fire) under -race.
func TestCacheConcurrent(t *testing.T) {
	g := graph.GenRandom(300, 4, 9)
	gr := g.Reverse()
	c := NewCache(200_000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				raw := []query.Query{
					{S: graph.VertexID((w + i) % 300), T: graph.VertexID((w*17 + i*3 + 1) % 300), K: uint8(3 + (w+i)%4)},
					{S: graph.VertexID(i % 7), T: graph.VertexID(200 + w), K: uint8(3 + i%4)},
				}
				if raw[0].S == raw[0].T || raw[1].S == raw[1].T {
					continue
				}
				qs, err := query.Batch(g, raw)
				if err != nil {
					t.Error(err)
					return
				}
				idx := c.Acquire(g, gr, 0, qs)
				want := Build(g, gr, qs)
				for qi := range qs {
					got, ref := idx.DistMapFor(qi, Forward), want.DistMapFor(qi, Forward)
					for _, v := range ref.Visited() {
						if got.Dist(v) != ref.Dist(v) {
							t.Errorf("worker %d: fwd divergence", w)
							break
						}
					}
				}
				idx.Release()
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 {
		t.Error("concurrent run produced no hits")
	}
}

// TestCacheEpochSeparation is the staleness guard of the live-update
// contract: the same graph pointers acquired under a new epoch must
// miss (the graph's content is presumed changed), never serve the old
// epoch's maps; a straggler back on the old epoch is built privately,
// correct and all misses, and leaves the new epoch fully warm.
func TestCacheEpochSeparation(t *testing.T) {
	g, gr, qs := cacheFixture(t)
	want := Build(g, gr, qs)
	c := NewCache(0)
	c.Acquire(g, gr, 0, qs).Release()

	warm := c.Acquire(g, gr, 0, qs)
	if warm.Misses != 0 {
		t.Fatalf("epoch 0 re-acquire missed %d probes", warm.Misses)
	}
	warm.Release()

	bumped := c.Acquire(g, gr, 1, qs)
	if bumped.Hits != 0 {
		t.Fatalf("epoch 1 acquire served %d stale probes from epoch 0", bumped.Hits)
	}
	indexesAgree(t, "epoch-1", g, want, bumped, len(qs))
	bumped.Release()

	straggler := c.Acquire(g, gr, 0, qs)
	if straggler.Hits != 0 {
		t.Errorf("epoch 0 straggler served %d probes from epoch 1", straggler.Hits)
	}
	indexesAgree(t, "epoch-0-straggler", g, want, straggler, len(qs))
	straggler.Release()
	one := c.AcquireOne(g, gr, 0, qs[0])
	if one.Hits != 0 {
		t.Errorf("epoch 0 one-query straggler served %d probes from epoch 1", one.Hits)
	}
	one.Release()

	idx := c.Acquire(g, gr, 1, qs)
	if idx.Misses != 0 {
		t.Errorf("epoch 1 warm acquire after stragglers missed %d probes", idx.Misses)
	}
	indexesAgree(t, "epoch-1-warm", g, want, idx, len(qs))
	idx.Release()
}

// TestCachePinnedSurviveRebind: an in-flight index keeps its maps
// usable after one newer epoch replaces its binding and orphans them,
// until it releases them.
func TestCachePinnedSurviveRebind(t *testing.T) {
	g, gr, qs := cacheFixture(t)
	c := NewCache(0)
	want := Build(g, gr, qs)
	held := c.Acquire(g, gr, 0, qs) // pinned, not released
	entries := c.Stats().Entries

	c.Acquire(g, gr, 1, qs).Release()
	if ev := c.Stats().Evictions; ev != int64(entries) {
		t.Errorf("rebind dropped %d entries, want all %d", ev, entries)
	}

	indexesAgree(t, "held-after-rebind", g, want, held, len(qs))
	held.Release() // orphaned entries release here; must not panic
	if st := c.Stats(); st.Entries != entries {
		t.Errorf("after release: %d entries, want epoch 1's %d", st.Entries, entries)
	}
}

// TestCacheConcurrentEpochs races generation replacement against
// in-flight builds under -race: goroutines acquire k-ball and one-query
// batches on epochs drawn from one rising counter, so some batches are
// stragglers on an already replaced epoch and some see their binding
// replaced while they build. Odd and even epochs run on two graphs of
// one size, so a map that leaks across epochs answers wrong. Every
// index must match a cold build on its epoch's graph.
func TestCacheConcurrentEpochs(t *testing.T) {
	var gs, grs [2]*graph.Graph
	for i := range gs {
		gs[i] = graph.GenRandom(300, 4, int64(9+i))
		grs[i] = gs[i].Reverse()
	}
	c := NewCache(0)
	var clock atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				epoch := clock.Load()
				if (w+i)%5 == 0 {
					epoch = clock.Add(1)
				}
				g, gr := gs[epoch%2], grs[epoch%2]
				// Few endpoints, so entries a batch inserts are read back.
				raw := []query.Query{
					{S: graph.VertexID((w + i) % 5), T: graph.VertexID(100 + (w*3+i)%5), K: uint8(3 + (w+i)%4)},
					{S: graph.VertexID(i % 7), T: graph.VertexID(200 + w), K: uint8(3 + i%4)},
				}
				qs, err := query.Batch(g, raw)
				if err != nil {
					t.Error(err)
					return
				}
				var idx, want *Index
				if i%2 == 0 {
					idx, want = c.Acquire(g, gr, epoch, qs), Build(g, gr, qs)
				} else {
					idx = c.AcquireOne(g, gr, epoch, qs[0])
					want = pairIndex(msbfs.Subgraph(g, gr, qs[0].S, qs[0].T, qs[0].K, nil))
					qs = qs[:1]
				}
				for qi := range qs {
					for _, dir := range []Direction{Forward, Backward} {
						got, ref := idx.DistMapFor(qi, dir), want.DistMapFor(qi, dir)
						for _, v := range ref.Visited() {
							if got.Dist(v) != ref.Dist(v) {
								t.Errorf("worker %d epoch %d: query %d %v divergence at %d", w, epoch, qi, dir, v)
								break
							}
						}
					}
				}
				idx.Release()
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 || st.Evictions == 0 {
		t.Errorf("no hits or no rebind drops: %+v", st)
	}
}

// TestCacheChargesHeldCapacity: an entry is charged the storage its map
// holds. A visited list recycled from an evicted wide entry keeps its
// capacity when a narrow source reuses it, and the byte budget must see
// that capacity, not the short set inside it.
func TestCacheChargesHeldCapacity(t *testing.T) {
	g, gr, _ := cacheFixture(t)
	wide, _ := query.Batch(g, []query.Query{{S: 3, T: 50, K: 8}})
	narrow, _ := query.Batch(g, []query.Query{{S: 90, T: 120, K: 1}})
	c := NewCache(1) // an unpinned entry is evicted at once: its list goes back to the pool
	c.Acquire(g, gr, 0, wide).Release()
	idx := c.Acquire(g, gr, 0, narrow)
	defer idx.Release()
	gamma, gammaR := idx.DistMapFor(0, Forward).Visited(), idx.DistMapFor(0, Backward).Visited()
	held := int64(2*g.NumVertices()) + 4*int64(cap(gamma)+cap(gammaR))
	if got := c.Stats().BytesInUse; got != held {
		t.Errorf("BytesInUse = %d, want %d (dense arrays + list capacity)", got, held)
	}
	if cap(gamma) == len(gamma) && cap(gammaR) == len(gammaR) {
		t.Error("no recycled list was reused: the test exercises nothing")
	}
}

// TestCacheMissAllocCeiling pins that serving builds serially: a
// one-query miss through a cache of width 1 — the Service's — costs no
// more than the 25 allocations it cost before builds could run wide:
// no task list, no goroutine. A one-byte budget evicts both entries on
// Release, so every call misses.
func TestCacheMissAllocCeiling(t *testing.T) {
	g, gr, qs := cacheFixture(t)
	c := NewCache(1)
	one := qs[2:3]
	got := testing.AllocsPerRun(20, func() {
		idx := c.Acquire(g, gr, 0, one)
		if idx.Misses != 2 {
			t.Fatalf("%d misses, want 2: the call must build both directions", idx.Misses)
		}
		idx.Release()
	})
	const ceiling = 25
	t.Logf("%.0f allocs per one-query miss (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("%.0f allocs per one-query miss exceeds %d", got, ceiling)
	}
}

// TestEqualKeysShareOneMap: on both providers — cold, warm and through
// widened views alike — queries with equal (endpoint, cap) keys share
// one *DistMap and queries with distinct keys do not: sharegraph's
// constraint merge keys on that identity.
func TestEqualKeysShareOneMap(t *testing.T) {
	g, gr, qs := cacheFixture(t)
	// Forward keys (1,4) (1,4) (7,5) (1,3); backward (200,4) (200,4)
	// (31,5) (31,3).
	key := func(q query.Query, dir Direction) [2]int {
		if dir == Forward {
			return [2]int{int(q.S), int(q.K)}
		}
		return [2]int{int(q.T), int(q.K)}
	}
	wide := append([]query.Query(nil), qs...)
	for i := range wide {
		wide[i].K++
	}
	warm := NewCache(0)
	warm.Acquire(g, gr, 0, wide).Release()
	for name, idx := range map[string]*Index{
		"build":         Build(g, gr, qs),
		"cache":         NewCache(0).Acquire(g, gr, 0, qs),
		"cache-widened": warm.Acquire(g, gr, 0, qs),
	} {
		for _, dir := range []Direction{Forward, Backward} {
			for i := range qs {
				for j := i + 1; j < len(qs); j++ {
					same := idx.DistMapFor(i, dir) == idx.DistMapFor(j, dir)
					if want := key(qs[i], dir) == key(qs[j], dir); same != want {
						t.Errorf("%s %v: queries %d and %d share a map: %v, want %v", name, dir, i, j, same, want)
					}
				}
			}
		}
		idx.Release()
	}
}
