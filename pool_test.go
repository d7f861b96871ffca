package hcpath

// Memory-discipline tests: the steady-state query path allocates in
// proportion to its output, never to |V| (pooled enumeration scratch,
// the engine's pooled index builder), a reply is one flat arena
// however many paths it carries, and the pools that make that true are
// safe to share — across cancelled runs, graph sizes, vertex growth
// and concurrent deployments in one process.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/testgraphs"
	"repro/internal/workload"
)

// padIsolated returns g plus extra isolated vertices: the same edges,
// the same answers, a larger |V|.
func padIsolated(g *graph.Graph, extra int) *graph.Graph {
	var edges []graph.Edge
	g.Edges(func(src, dst graph.VertexID) bool {
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
		return true
	})
	return graph.FromEdges(g.NumVertices()+extra, edges)
}

// bytesPerCall returns the mean bytes allocated, process-wide, by one
// call of f once it is warm.
func bytesPerCall(rounds int, f func()) float64 {
	f()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds)
}

// TestAllocationIndependentOfVertexCount answers identical batches on a
// graph G and on G plus ten times as many isolated vertices. Nothing
// about the work differs, so a warmed Engine (sequential and parallel)
// and a warmed Service must allocate the same per call to within 10 %.
// Before enumeration scratch was pooled and the engine held a pooled
// builder, the padded graph cost roughly ten times as much.
func TestAllocationIndependentOfVertexCount(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	small := graph.GenPowerLaw(3000, 4, 7)
	big := padIsolated(small, 10*small.NumVertices())
	iqs, err := workload.Random(small, workload.Config{N: 40, KMin: 4, KMax: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, len(iqs))
	for i, q := range iqs {
		qs[i] = Query{S: q.S, T: q.T, K: int(q.K)}
	}

	check := func(name string, perCall func(g *Graph) float64) {
		t.Helper()
		a, b := perCall(wrap(small)), perCall(wrap(big))
		t.Logf("%s: %.0f B/call at |V|=%d, %.0f B/call at |V|=%d", name, a, small.NumVertices(), b, big.NumVertices())
		if diff := (b - a) / a; diff > 0.10 || diff < -0.10 {
			t.Errorf("%s: allocation moved %.0f%% when |V| grew 11x with identical work (%.0f → %.0f B/call)",
				name, 100*diff, a, b)
		}
	}
	for _, workers := range []int{0, 2} {
		check(fmt.Sprintf("Engine.Count/workers=%d", workers), func(g *Graph) float64 {
			eng := NewEngine(g, &Options{Workers: workers})
			return bytesPerCall(20, func() {
				if _, _, err := eng.Count(qs); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
	check("Service.Query", func(g *Graph) float64 {
		// Every round submits the same queries at once; how they split
		// into batches is up to the schedule, on either graph alike.
		svc := NewService(g, &ServiceOptions{MaxBatch: len(qs)})
		defer svc.Close()
		return bytesPerCall(20, func() {
			var wg sync.WaitGroup
			for _, q := range qs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := svc.Query(context.Background(), q); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		})
	})
}

// allocsOfOneQuery reports the mean allocations of answer, which
// returns one query's paths, once warm, and fails unless it returns
// want paths.
func allocsOfOneQuery(t *testing.T, want int, answer func() []Path) float64 {
	t.Helper()
	var paths []Path
	allocs := testing.AllocsPerRun(50, func() { paths = answer() })
	if len(paths) != want {
		t.Fatalf("fixture returned %d paths, want %d", len(paths), want)
	}
	return allocs
}

// TestServiceQueryAllocsPerPath pins the reply's cost: a batch collects
// each reply's paths in a pooled staging store and copies them out
// once, at their final size, so a reply of 2510 paths costs no more
// allocations than a reply of one. (A reply that grew by appending,
// rebuilt at every doubling of either array, read 61 against 31.)
func TestServiceQueryAllocsPerPath(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	svc := NewService(wrap(testgraphs.CompleteDAG(14)), &ServiceOptions{MaxBatch: 1})
	defer svc.Close()
	query := func(k int) func() []Path {
		return func() []Path {
			paths, _, err := svc.Query(context.Background(), Query{S: 0, T: 13, K: k})
			if err != nil {
				t.Fatal(err)
			}
			return paths
		}
	}
	one := allocsOfOneQuery(t, 1, query(1))
	many := allocsOfOneQuery(t, 2510, query(7)) // every ≤7-hop chain through 12 inner vertices
	t.Logf("Service.Query: %.0f allocations for 1 path, %.0f for 2510", one, many)
	if many > one {
		t.Errorf("Service.Query: %.0f allocations for 2510 paths, more than the %.0f for one path", many, one)
	}
}

// TestEnumerateAllocsPerPath is TestServiceQueryAllocsPerPath for
// Engine.Enumerate, which stages each query's paths the same way. (A
// slice per path, appended to the query's result, read 2555 against
// 33.)
func TestEnumerateAllocsPerPath(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	eng := NewEngine(wrap(testgraphs.CompleteDAG(14)), nil)
	enumerate := func(k int) func() []Path {
		return func() []Path {
			res, err := eng.Enumerate([]Query{{S: 0, T: 13, K: k}})
			if err != nil {
				t.Fatal(err)
			}
			return res.Paths(0)
		}
	}
	one := allocsOfOneQuery(t, 1, enumerate(1))
	many := allocsOfOneQuery(t, 2510, enumerate(7))
	t.Logf("Engine.Enumerate: %.0f allocations for 1 path, %.0f for 2510", one, many)
	if many > one {
		t.Errorf("Engine.Enumerate: %.0f allocations for 2510 paths, more than the %.0f for one path", many, one)
	}
}

// TestQueryPathsAreCapClipped: the Paths of one reply share an arena,
// so each must be clipped to its own length — growing one reallocates
// instead of writing into its neighbour.
func TestQueryPathsAreCapClipped(t *testing.T) {
	svc := NewService(wrap(testgraphs.CompleteDAG(7)), nil)
	defer svc.Close()
	paths, _, err := svc.Query(context.Background(), Query{S: 0, T: 6, K: 4})
	if err != nil || len(paths) < 2 {
		t.Fatalf("got %d paths, err %v", len(paths), err)
	}
	want := make([]Path, len(paths))
	for i, p := range paths {
		if cap(p) != len(p) {
			t.Fatalf("path %d has len %d but cap %d: an append would overwrite its neighbour", i, len(p), cap(p))
		}
		want[i] = slices.Clone(p)
	}
	for i := range paths {
		paths[i] = append(paths[i], 0xDEAD)
	}
	for i := range paths {
		if !slices.Equal(paths[i][:len(want[i])], want[i]) {
			t.Fatalf("path %d changed after appending to its neighbours: %v, want %v", i, paths[i][:len(want[i])], want[i])
		}
	}
}

// checkCorpusAgainstOracle answers the whole testgraphs corpus with all
// four algorithms, sequentially and in parallel, and requires exactly
// the brute-force oracle's path sets.
func checkCorpusAgainstOracle(t *testing.T, label string) {
	t.Helper()
	for _, tc := range equivalenceCorpus() {
		gr := tc.g.Reverse()
		want := oracleSets(tc.g, tc.qs)
		for _, alg := range []batchenum.Algorithm{batchenum.Basic, batchenum.BasicPlus, batchenum.Batch, batchenum.BatchPlus} {
			opts := batchenum.Options{Algorithm: alg, Gamma: 0.8}
			seq := query.NewCollectSink(len(tc.qs))
			if _, err := batchenum.Run(tc.g, gr, tc.qs, opts, nil, seq); err != nil {
				t.Fatalf("%s: %s/%v: %v", label, tc.name, alg, err)
			}
			par := query.NewCollectSink(len(tc.qs))
			opts.Workers = 2
			if _, err := batchenum.Run(tc.g, gr, tc.qs, opts, nil, par); err != nil {
				t.Fatalf("%s: %s/%v parallel: %v", label, tc.name, alg, err)
			}
			for i := range tc.qs {
				diffQuery(t, fmt.Sprintf("%s: %s/%v seq", label, tc.name, alg), i, want[i], canonical(seq.Paths)[i])
				diffQuery(t, fmt.Sprintf("%s: %s/%v par", label, tc.name, alg), i, want[i], canonical(par.Paths)[i])
			}
		}
	}
}

// TestPoolHygieneAfterCancelledRuns pins the scratch pool's
// clean-on-return invariant: runs cut short mid-DFS — by a context
// deadline, by a service QueryTimeout, by a per-query Limit — hand
// their scratch back, and everything answered afterwards from the same
// process must still be exact. A DFS that unwound without clearing its
// on-path marks would poison the next user of the entry.
func TestPoolHygieneAfterCancelledRuns(t *testing.T) {
	g := denseGraph()
	hostile := []Query{{S: 0, T: 1, K: 15}, {S: 2, T: 3, K: 15}}
	for _, alg := range []Algorithm{BatchEnumPlus, BatchEnum, BasicEnumPlus, BasicEnum} {
		for _, workers := range []int{0, 2} {
			eng := NewEngine(g, &Options{Algorithm: alg, Workers: workers})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			_, _, err := eng.CountContext(ctx, hostile)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%v/workers=%d: hostile batch returned %v, want a deadline", alg, workers, err)
			}
			checkCorpusAgainstOracle(t, fmt.Sprintf("after ctx-cancelled %v/workers=%d", alg, workers))
		}
	}

	svc := NewService(g, &ServiceOptions{QueryTimeout: 5 * time.Millisecond})
	if _, _, err := svc.Count(context.Background(), hostile[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryTimeout batch returned %v, want a deadline", err)
	}
	svc.Close()
	checkCorpusAgainstOracle(t, "after QueryTimeout")

	limited := NewEngine(wrap(testgraphs.CompleteDAG(12)), &Options{Limit: 3, Workers: 2})
	if _, st, err := limited.Count([]Query{{S: 0, T: 11, K: 8}, {S: 1, T: 10, K: 8}}); err != nil || st.Truncated != 2 {
		t.Fatalf("limited batch: err %v, %d truncated, want 2", err, st.Truncated)
	}
	checkCorpusAgainstOracle(t, "after Limit")
}

// TestVertexGrowthPastPooledScratch grows a live service's vertex space
// beyond anything the pool has seen, then asks for paths that run
// through the new vertices: the too-short pooled entries must be
// replaced, not indexed out of range.
func TestVertexGrowthPastPooledScratch(t *testing.T) {
	const n0, n1 = 10, 400
	svc := NewService(wrap(testgraphs.Line(n0)), nil)
	defer svc.Close()
	// Prime the pool with entries sized for the 10-vertex graph.
	if paths, _, err := svc.Query(context.Background(), Query{S: 0, T: n0 - 1, K: n0 - 1}); err != nil || len(paths) != 1 {
		t.Fatalf("line query: %d paths, err %v", len(paths), err)
	}
	// Extend the line through new vertices and add a second route, so
	// the answers need both DFS directions to walk ids ≥ n0.
	var adds []Edge
	edges := []graph.Edge{}
	for v := 0; v+1 < n0; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)})
	}
	for v := n0 - 1; v+1 < n1; v++ {
		adds = append(adds, Edge{VertexID(v), VertexID(v + 1)})
	}
	adds = append(adds, Edge{n0 - 1, n1 - 3}, Edge{n1 - 5, n1 - 1})
	for _, e := range adds {
		edges = append(edges, graph.Edge{Src: e.Src, Dst: e.Dst})
	}
	if _, err := svc.ApplyUpdates(adds, nil); err != nil {
		t.Fatal(err)
	}
	rebuilt := graph.FromEdges(n1, edges)
	qs := []Query{{S: n0 - 2, T: n1 - 1, K: 6}, {S: n1 - 8, T: n1 - 1, K: 7}, {S: 0, T: n1 - 2, K: 12}}
	got := servicePaths(t, svc, qs)
	for i, q := range qs {
		var want []string
		for _, p := range oracle.Paths(rebuilt, query.Query{S: q.S, T: q.T, K: uint8(q.K)}) {
			want = append(want, Path(p).String())
		}
		if len(want) == 0 {
			t.Fatalf("query %d has no paths through the new vertices; the fixture is vacuous", i)
		}
		slices.Sort(want)
		diffQuery(t, "after vertex growth", i, want, got[i])
	}
}

// TestDeploymentsShareScratchPool runs the three deployments — single
// process, in-process shards, and a loopback wire cluster — at once in
// one process, so concurrent micro-batches and cross-shard half-path
// legs all draw on the one scratch pool. Run under -race it is the
// pool's concurrency test; the answers must match the engine's.
func TestDeploymentsShareScratchPool(t *testing.T) {
	g := wireTestGraph(t)
	qs := wireTestQueries(g)
	res, err := NewEngine(g, nil).Enumerate(qs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(qs))
	for i := range qs {
		for _, p := range res.Paths(i) {
			want[i] = append(want[i], p.String())
		}
		slices.Sort(want[i])
	}

	single := NewService(g, &ServiceOptions{MaxBatch: 4})
	defer single.Close()
	sharded := NewService(g, &ServiceOptions{MaxBatch: 4, Shards: 2})
	defer sharded.Close()
	cluster, err := ConnectService(context.Background(), startWireCluster(t, g, 2, &ServiceOptions{MaxBatch: 4}), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var wg sync.WaitGroup
	for name, svc := range map[string]*Service{"single": single, "shards": sharded, "cluster": cluster} {
		for round := 0; round < 3; round++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := servicePaths(t, svc, qs)
				for i := range qs {
					diffQuery(t, name, i, want[i], got[i])
				}
			}()
		}
	}
	wg.Wait()
}
