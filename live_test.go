package hcpath

// Live-update equivalence: after any sequence of edge additions and
// deletions (including forced compactions), every engine running on the
// versioned store's live Snapshot must produce exactly the oracle's
// result sets on a from-scratch CSR rebuilt from the surviving edges —
// sequential and parallel, cold and through an epoch-keyed shared index
// cache (where a single stale hit would surface as a divergence). The
// concurrent test drives ApplyUpdates against live service traffic
// under the race detector.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/store"
)

// oracleSets enumerates every query with the unpruned DFS oracle on a
// from-scratch rebuild and canonicalises the per-query path sets.
func oracleSets(rebuilt *graph.Graph, qs []query.Query) [][]string {
	out := make([][]string, len(qs))
	for i, q := range qs {
		for _, p := range oracle.Paths(rebuilt, q) {
			out[i] = append(out[i], fmt.Sprint(p))
		}
		sort.Strings(out[i])
	}
	return out
}

// liveQueries picks a deterministic query set that stays valid (vertex
// ids in range, S != T) for a graph of at least n vertices.
func liveQueries(n int) []query.Query {
	var qs []query.Query
	for i := 0; i < 6; i++ {
		s := graph.VertexID((i * 3) % n)
		t := graph.VertexID((i*5 + 1) % n)
		if s == t {
			t = (t + 1) % graph.VertexID(n)
		}
		qs = append(qs, query.Query{S: s, T: t, K: uint8(3 + i%2)})
	}
	return qs
}

// TestLiveSnapshotEnginesMatchRebuild is the acceptance property of the
// versioned store: a random add/delete sequence with forced compaction,
// checked after every epoch against the oracle on a rebuilt CSR, for
// all four algorithms, sequentially and in parallel, cold and through a
// shared epoch-keyed index cache.
func TestLiveSnapshotEnginesMatchRebuild(t *testing.T) {
	const n = 40 // past two 16-row overlay pages
	rng := rand.New(rand.NewSource(11))
	live := make(map[graph.Edge]bool)
	var seed []graph.Edge
	for i := 0; i < 160; i++ {
		e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n))}
		if e.Src != e.Dst && !live[e] {
			live[e] = true
			seed = append(seed, e)
		}
	}
	st := store.New(graph.FromEdges(n, seed), store.Options{CompactAfter: 10})
	cache := hcindex.NewCache(0)
	algorithms := []batchenum.Algorithm{batchenum.BatchPlus, batchenum.Batch, batchenum.BasicPlus, batchenum.Basic}

	compacted := 0
	for step := 0; step < 12; step++ {
		var adds, dels []graph.Edge
		for i := 0; i < 2+rng.Intn(3); i++ {
			e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n))}
			if rng.Intn(3) == 0 {
				dels = append(dels, e)
				delete(live, e)
			} else if e.Src != e.Dst {
				adds = append(adds, e)
				live[e] = true
			}
		}
		snap, err := st.ApplyUpdates(adds, dels)
		if err != nil {
			t.Fatalf("ApplyUpdates: %v", err)
		}
		if !snap.Graph().IsOverlay() {
			compacted++
		}

		var all []graph.Edge
		for e := range live {
			all = append(all, e)
		}
		rebuilt := graph.FromEdges(n, all)
		qs, err := query.Batch(rebuilt, liveQueries(n))
		if err != nil {
			t.Fatal(err)
		}
		want := oracleSets(rebuilt, qs)

		for _, alg := range algorithms {
			for _, mode := range []string{"seq", "par", "cached"} {
				label := fmt.Sprintf("step %d epoch %d %v/%s", step, snap.Epoch(), alg, mode)
				opts := batchenum.Options{Algorithm: alg, Epoch: snap.Epoch()}
				if mode == "cached" {
					opts.Provider = cache // shared across epochs: stale hits would diverge
				}
				sink := query.NewCollectSink(len(qs))
				if mode == "par" {
					opts.Workers = 4
				}
				_, runErr := batchenum.Run(snap.Graph(), snap.Reverse(), qs, opts, nil, sink)
				if runErr != nil {
					t.Fatalf("%s: %v", label, runErr)
				}
				for i, got := range canonical(sink.Paths) {
					diffQuery(t, label, i, want[i], got)
				}
			}
		}
	}
	if compacted == 0 {
		t.Fatal("sequence never compacted; lower CompactAfter")
	}
}

// TestServiceApplyUpdates exercises the public live-update surface: a
// cached service answers, the graph changes (including vertex growth),
// and post-update answers must match a fresh engine on the rebuilt
// graph — through the same epoch-keyed cache that served the pre-update
// traffic.
func TestServiceApplyUpdates(t *testing.T) {
	g, err := NewGraph(4, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(g, &ServiceOptions{MaxBatch: 1})
	defer svc.Close()

	ask := func(q Query) []string {
		t.Helper()
		paths, _, err := svc.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		var out []string
		for _, p := range paths {
			out = append(out, p.String())
		}
		sort.Strings(out)
		return out
	}
	check := func(label string, q Query, want []string) {
		t.Helper()
		got := ask(q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %v, want %v", label, got, want)
		}
	}

	check("initial", Query{S: 0, T: 3, K: 3}, []string{"(v0, v1, v2, v3)", "(v0, v2, v3)"})
	ask(Query{S: 0, T: 3, K: 3}) // warm the cache at epoch 0

	if epoch, err := svc.ApplyUpdates([]Edge{{1, 3}, {3, 4}}, []Edge{{0, 2}}); err != nil || epoch != 1 {
		t.Fatalf("ApplyUpdates: epoch %d, err %v", epoch, err)
	}
	// A stale epoch-0 index hit would claim 0⇝3 still reachable via v2.
	check("post-update", Query{S: 0, T: 3, K: 3}, []string{"(v0, v1, v2, v3)", "(v0, v1, v3)"})
	check("grown-vertex", Query{S: 0, T: 4, K: 3}, []string{"(v0, v1, v3, v4)"})

	if tot := svc.Totals(); tot.Epoch != 1 || tot.UpdatesApplied == 0 {
		t.Fatalf("totals don't reflect the update: %+v", tot)
	}
}

// TestDurableStateSurvivesCloseAcrossFolds pins the compaction edge of
// a clean restart: on a durable service whose updates cross
// CompactAfter several times, the State read before Close is the State
// after reopening, epoch included, because every fold lands inside the
// update that triggered it. The epoch counts exactly the effective
// updates plus the folds. Close comes with a delta pending, and the
// reopened service, given the same CompactAfter and more updates, must
// step through the same epochs as an in-memory service that never
// stopped: the restart reloads the pending delta, so the next fold
// lands where it would have.
func TestDurableStateSurvivesCloseAcrossFolds(t *testing.T) {
	dir := t.TempDir()
	g, err := NewGraph(8, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	opts := &ServiceOptions{DataDir: dir, CompactAfter: 3}
	svc, err := OpenService(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewService(g, &ServiceOptions{CompactAfter: 3})
	defer ref.Close()
	// Every update is effective: each adds an edge absent until now.
	update := func(s *Service, i int) {
		t.Helper()
		add := []Edge{{VertexID(i % 8), VertexID(8 + i)}}
		if _, err := s.ApplyUpdates(add, nil); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	const updates, more = 14, 10
	for i := 0; i < updates; i++ {
		update(svc, i)
		update(ref, i)
	}
	tot := svc.Totals()
	if tot.Compactions < 3 || tot.DeltaEdges == 0 {
		t.Fatalf("setup: %d compactions, %d delta edges pending; want several and some", tot.Compactions, tot.DeltaEdges)
	}
	if got, want := svc.Epoch(), uint64(updates+tot.Compactions); got != want {
		t.Fatalf("Epoch() = %d, want %d effective updates + %d compactions", got, updates, tot.Compactions)
	}
	want := svc.State()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	svc, err = OpenService(nil, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc.Close()
	if got := svc.State(); got != want {
		t.Fatalf("reopened State %+v, want %+v", got, want)
	}
	for i := updates; i < updates+more; i++ {
		update(svc, i)
		update(ref, i)
		if got, want := svc.State(), ref.State(); got != want {
			t.Fatalf("update %d after reopen: State %+v, uninterrupted in-memory run %+v", i, got, want)
		}
	}
}

// TestConcurrentUpdatesAndQueries races ApplyUpdates against live
// service traffic. Exact result sets are epoch-dependent mid-flight, so
// the invariant checked per reply is structural: every returned path
// starts at S, ends at T, respects K, and is simple; and the service
// must answer every query. The real assertions are the race detector
// and the cache's internal consistency under epoch churn.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	base := graph.GenRandom(200, 3, 5)
	var edges []Edge
	base.Edges(func(src, dst graph.VertexID) bool {
		edges = append(edges, Edge{Src: src, Dst: dst})
		return true
	})
	g, err := NewGraph(base.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(g, &ServiceOptions{MaxBatch: 8, CompactAfter: 40})
	defer svc.Close()

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ { // writers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 25; i++ {
				var adds, dels []Edge
				for j := 0; j < 4; j++ {
					adds = append(adds, Edge{Src: VertexID(rng.Intn(200)), Dst: VertexID(rng.Intn(200))})
					dels = append(dels, edges[rng.Intn(len(edges))])
				}
				if _, err := svc.ApplyUpdates(adds, dels); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for c := 0; c < 6; c++ { // readers
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 30; i++ {
				q := Query{S: VertexID(rng.Intn(200)), T: VertexID(rng.Intn(200)), K: 4}
				if q.S == q.T {
					continue
				}
				paths, _, err := svc.Query(context.Background(), q)
				if err != nil {
					t.Errorf("reader %d: %v", c, err)
					return
				}
				for _, p := range paths {
					if len(p) < 2 || p[0] != q.S || p[len(p)-1] != q.T || p.Len() > q.K {
						t.Errorf("reader %d: malformed path %v for %+v", c, p, q)
						return
					}
					seen := make(map[VertexID]bool, len(p))
					for _, v := range p {
						if seen[v] {
							t.Errorf("reader %d: non-simple path %v", c, p)
							return
						}
						seen[v] = true
					}
				}
			}
		}(c)
	}
	wg.Wait()

	if tot := svc.Totals(); tot.Epoch == 0 || tot.Queries == 0 {
		t.Fatalf("concurrent run did not exercise updates and queries: %+v", tot)
	}
}
