package batchenum

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/scratch"
)

// blocks is disjoint complete DAGs of the given sizes, numbered in
// order: a batch on it forms one sharing group per block it touches.
func blocks(sizes ...int) *graph.Graph {
	n := 0
	for _, sz := range sizes {
		n += sz
	}
	bld := graph.NewBuilder(n)
	first := 0
	for _, sz := range sizes {
		for i := first; i < first+sz; i++ {
			for j := i + 1; j < first+sz; j++ {
				bld.AddEdge(graph.VertexID(i), graph.VertexID(j))
			}
		}
		first += sz
	}
	return bld.Build()
}

// scribble draws n chunks of each kind from the arena's chunk supply,
// overwrites them and returns them: whatever a released arena left in
// the pool is garbage afterwards.
func scribble(n int) {
	vs := make([][]uint32, n)
	is := make([][]int32, n)
	for i := range n {
		vs[i], is[i] = scratch.VertexChunks.Get(1), scratch.Int32Chunks.Get(1)
		for j := range vs[i] {
			vs[i][j], is[i][j] = 1<<31, -1<<30
		}
	}
	for i := range n {
		scratch.VertexChunks.Put(vs[i])
		scratch.Int32Chunks.Put(is[i])
	}
}

// TestArenaReuseMatchesOracle runs BatchEnum+ on chunks a previous run
// left in the pool, through a sink that overwrites every pooled chunk
// at each query's first emission, and judges every run against the
// oracle: widths 1, 2 and 4; no limit, limits 1 and 3; and cancelled
// at the first emission, a third and two thirds of the way — mid-join,
// and on the wider runs with other groups mid-build. A group whose
// arena went back to the pool before its joins ended would join
// overwritten stores.
func TestArenaReuseMatchesOracle(t *testing.T) {
	g := blocks(18, 14, 6)
	gr := g.Reverse()
	var qs []query.Query
	for _, s := range []graph.VertexID{0, 1} {
		for _, tt := range []graph.VertexID{16, 17} {
			for _, k := range []uint8{4, 5} {
				qs = append(qs, query.Query{S: s, T: tt, K: k})
			}
		}
	}
	for _, s := range []graph.VertexID{18, 19} {
		for _, tt := range []graph.VertexID{30, 31} {
			qs = append(qs, query.Query{S: s, T: tt, K: 4})
		}
	}
	qs = append(qs, query.Query{S: 32, T: 37, K: 4}, query.Query{S: 17, T: 0, K: 3}) // a singleton, an empty query
	want := bruteSet(g, qs)
	oracle := make([]map[string]bool, len(qs))
	total := 0
	for i := range qs {
		oracle[i] = map[string]bool{}
		for _, p := range want[i] {
			oracle[i][p] = true
		}
		total += len(want[i])
	}

	run := func(workers int, ctrl *query.Control, onEmit func()) ([][]string, *Stats) {
		per := make([][]string, len(qs))
		st, err := Run(g, gr, qs, Options{Algorithm: BatchPlus, Workers: workers}, ctrl,
			query.FuncSink(func(ids []int, p []graph.VertexID) {
				for _, id := range ids {
					if per[id] == nil {
						scribble(4)
					}
					per[id] = append(per[id], pathKey(p))
					if onEmit != nil {
						onEmit()
					}
				}
			}))
		if err != nil && !ctrl.Cancelled() {
			t.Fatal(err)
		}
		return per, st
	}
	// check fails unless every query emitted distinct oracle paths, all
	// of them when complete says so.
	check := func(row string, got [][]string, complete func(i int) bool) {
		t.Helper()
		for i := range qs {
			seen := map[string]bool{}
			for _, p := range got[i] {
				if !oracle[i][p] || seen[p] {
					t.Fatalf("%s: query %d emitted %s: not an oracle path, or twice", row, i, p)
				}
				seen[p] = true
			}
			if complete(i) && len(got[i]) != len(want[i]) {
				t.Fatalf("%s: query %d complete with %d of %d paths", row, i, len(got[i]), len(want[i]))
			}
		}
	}

	_, st := run(1, nil, nil) // primes the pool
	if st.NumGroups < 3 || st.CachedPaths == 0 {
		t.Fatalf("the batch formed %d groups caching %d paths; want sharing groups and a singleton", st.NumGroups, st.CachedPaths)
	}
	for _, workers := range []int{1, 2, 4} {
		got, _ := run(workers, nil, nil)
		check(fmt.Sprintf("workers=%d", workers), got, func(int) bool { return true })

		for _, limit := range []int64{1, 3} {
			ctrl := query.NewControl(context.Background(), time.Time{}, limit, len(qs))
			got, _ := run(workers, ctrl, nil)
			row := fmt.Sprintf("workers=%d limit=%d", workers, limit)
			check(row, got, func(i int) bool { return !ctrl.Truncated(i) })
			for i := range qs {
				if n := min(len(want[i]), int(limit)); len(got[i]) != n {
					t.Fatalf("%s: query %d emitted %d paths, want %d", row, i, len(got[i]), n)
				}
			}
		}

		for _, at := range []int64{1, int64(total / 3), int64(total * 2 / 3)} {
			ctx, cancel := context.WithCancel(context.Background())
			ctrl := query.NewControl(ctx, time.Time{}, 0, len(qs))
			var emitted atomic.Int64
			got, _ := run(workers, ctrl, func() {
				if emitted.Add(1) == at {
					cancel()
				}
			})
			cancel()
			check(fmt.Sprintf("workers=%d cancel at %d", workers, at), got, func(i int) bool { return ctrl.QueryErr(i) == nil })
		}
	}
}

// TestOneArenaPerWorker: every group a worker builds is carved from
// the worker's one arena, which the run registers and releases. A batch
// of five sharing groups registers one arena at width one and at most
// one per worker wider, and a warm run draws no fresh chunks: an arena
// per group would leave the chunks of every group but the first out of
// the pool, and the next run would allocate them anew.
func TestOneArenaPerWorker(t *testing.T) {
	g := blocks(10, 10, 10, 10, 10)
	gr := g.Reverse()
	var qs []query.Query
	for first := graph.VertexID(0); first < 50; first += 10 {
		qs = append(qs, query.Query{S: first, T: first + 9, K: 4}, query.Query{S: first + 1, T: first + 9, K: 4})
	}
	for _, workers := range []int{1, 2, 4} {
		// Run's steps, keeping the batch to read its arenas.
		opts := Options{Algorithm: BatchPlus, Workers: workers}
		vqs, err := query.Batch(g, qs)
		if err != nil {
			t.Fatal(err)
		}
		leads, classes := distinct(vqs, true)
		idx := opts.acquire(g, gr, leads)
		st := &Stats{}
		b := &batch{g: g, gr: gr, qs: leads, classes: classes, idx: idx, opts: opts, sink: query.NewCountSink(len(qs)), st: st}
		b.drain(partition(leads, classes, idx, opts, st))
		for _, a := range b.arenas {
			a.Release()
		}
		idx.Release()
		if st.NumGroups != 5 || st.CachedPaths == 0 {
			t.Fatalf("the batch formed %d groups caching %d paths; want five sharing groups", st.NumGroups, st.CachedPaths)
		}
		if n := len(b.arenas); n < 1 || n > workers || workers == 1 && n != 1 {
			t.Errorf("workers=%d: the run registered %d arenas for its five groups", workers, n)
		}
	}

	run := func() {
		if _, err := Run(g, gr, qs, Options{Algorithm: BatchPlus, Workers: 1}, nil, query.NewCountSink(len(qs))); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	// The least of several runs: a Put the pool dropped (under -race, or
	// across a collection) costs one run a chunk, a leak costs every run.
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 10 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	t.Logf("a warm run of five groups allocates %d bytes", least)
	// Every arena draws a vertex chunk and an int32 chunk.
	if pair := uint64(2 * 4 * scratch.ChunkLen); least >= pair {
		t.Errorf("a warm run allocates %d bytes, at least the %d of a fresh pair of chunks: its arenas' chunks did not all return to the pool", least, pair)
	}
}
