package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/testgraphs"
)

// shardCounts is the deployment sizes the differential suite proves
// result-identical to the single-process service.
var shardCounts = []int{2, 3, 8}

// submitter is the surface the differential tests drive — satisfied by
// both *service.Service and *Coordinator, which is the point.
type submitter interface {
	Submit(ctx context.Context, caller string, q query.Query, collect bool) (*service.Reply, error)
}

// outcome is one query's canonicalised answer.
type outcome struct {
	count     int64
	paths     []string
	truncated bool
	qerr      error
	err       error
}

func renderPaths(paths *pathjoin.Store) []string {
	out := make([]string, paths.Len())
	for i := range out {
		p := paths.Path(i)
		var b strings.Builder
		for j, v := range p {
			if j > 0 {
				b.WriteByte('-')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// oraclePaths is the brute-force answer to q on g, canonicalised like
// renderPaths.
func oraclePaths(g *graph.Graph, q query.Query) []string {
	var paths pathjoin.Store
	oracle.Enumerate(g, q, func(p []graph.VertexID) { paths.Add(p) })
	return renderPaths(&paths)
}

// runAll submits every query concurrently (so they micro-batch on the
// single-process side and mix single-/cross-shard on the sharded side)
// and returns the canonicalised per-query outcomes.
func runAll(sub submitter, qs []query.Query) []outcome {
	out := make([]outcome, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q query.Query) {
			defer wg.Done()
			r, err := sub.Submit(context.Background(), "", q, true)
			if err != nil {
				out[i].err = err
				return
			}
			out[i].count = r.Count
			out[i].paths = renderPaths(&r.Paths)
			out[i].truncated = r.Truncated
			out[i].qerr = r.Err
		}(i, q)
	}
	wg.Wait()
	return out
}

func diffOutcomes(t *testing.T, label string, qs []query.Query, want, got []outcome) {
	t.Helper()
	for i := range qs {
		w, g := want[i], got[i]
		if (w.err == nil) != (g.err == nil) {
			t.Errorf("%s: query %d (%d→%d k=%d): submit err mismatch: single %v, sharded %v",
				label, i, qs[i].S, qs[i].T, qs[i].K, w.err, g.err)
			continue
		}
		if w.count != g.count {
			t.Errorf("%s: query %d (%d→%d k=%d): count %d (single) vs %d (sharded)",
				label, i, qs[i].S, qs[i].T, qs[i].K, w.count, g.count)
		}
		if len(w.paths) != len(g.paths) {
			t.Errorf("%s: query %d: %d paths vs %d", label, i, len(w.paths), len(g.paths))
			continue
		}
		for j := range w.paths {
			if w.paths[j] != g.paths[j] {
				t.Errorf("%s: query %d path %d: %s vs %s", label, i, j, w.paths[j], g.paths[j])
			}
		}
		if w.truncated != g.truncated {
			t.Errorf("%s: query %d: truncated %v vs %v", label, i, w.truncated, g.truncated)
		}
	}
}

// allPairQueries generates every s≠t pair of g at the given hop caps.
func allPairQueries(g *graph.Graph, ks ...uint8) []query.Query {
	n := g.NumVertices()
	var qs []query.Query
	for _, k := range ks {
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				if s == t {
					continue
				}
				qs = append(qs, query.Query{S: graph.VertexID(s), T: graph.VertexID(t), K: k})
			}
		}
	}
	return qs
}

type corpusCase struct {
	name string
	g    *graph.Graph
	qs   []query.Query
}

func corpus() []corpusCase {
	paper := testgraphs.Paper()
	var paperQs []query.Query
	for _, q := range testgraphs.PaperQueries() {
		paperQs = append(paperQs, query.Query{S: graph.VertexID(q[0]), T: graph.VertexID(q[1]), K: uint8(q[2])})
	}
	paperQs = append(paperQs, allPairQueries(paper, 2, 5)...)
	return []corpusCase{
		{"paper", paper, paperQs},
		{"diamond", testgraphs.Diamond(), allPairQueries(testgraphs.Diamond(), 1, 2, 3)},
		{"cycle8", testgraphs.Cycle(8), allPairQueries(testgraphs.Cycle(8), 3, 7)},
		{"line10", testgraphs.Line(10), allPairQueries(testgraphs.Line(10), 4, 9)},
		{"completeDAG7", testgraphs.CompleteDAG(7), allPairQueries(testgraphs.CompleteDAG(7), 2, 6)},
	}
}

func testConfig() service.Config {
	return service.Config{MaxBatch: 32, Engine: batchenum.Options{Workers: 4}}
}

// TestDifferentialCorpus proves sharded enumeration result-identical to
// the single-process service over the testgraphs corpus for every
// deployment size in shardCounts.
func TestDifferentialCorpus(t *testing.T) {
	for _, tc := range corpus() {
		gr := tc.g.Reverse()
		single := service.New(tc.g, gr, testConfig())
		want := runAll(single, tc.qs)
		single.Close()
		for _, n := range shardCounts {
			cfg := testConfig()
			cfg.Shards = n
			coord := New(tc.g, gr, cfg)
			got := runAll(coord, tc.qs)
			diffOutcomes(t, fmt.Sprintf("%s/shards=%d", tc.name, n), tc.qs, want, got)
			rs := coord.Routing()
			if rs.SingleShard+rs.CrossShard != int64(len(tc.qs)) {
				t.Errorf("%s/shards=%d: routed %d single + %d cross, want %d total",
					tc.name, n, rs.SingleShard, rs.CrossShard, len(tc.qs))
			}
			coord.Close()
		}
	}
}

// randomUpdateWaves drives both deployments through the same random
// update stream, comparing results after every wave.
func randomUpdateWaves(t *testing.T, n int, waves int, seed int64) {
	t.Helper()
	g := testgraphs.Cycle(8)
	gr := g.Reverse()
	cfgSingle := testConfig()
	// Align the single service's epoch numbering with the workers'
	// (synchronous compaction) so the Epoch comparison below is exact.
	cfgSingle.SyncCompact = true
	cfgSingle.CompactAfter = 8
	single := service.New(g, gr, cfgSingle)
	defer single.Close()

	cfg := testConfig()
	cfg.Shards = n
	cfg.CompactAfter = 8
	coord := New(g, gr, cfg)
	defer coord.Close()

	rng := rand.New(rand.NewSource(seed))
	maxV := 8
	for wave := 0; wave < waves; wave++ {
		var adds, dels []graph.Edge
		for i := 0; i < 4; i++ {
			if rng.Intn(3) == 0 && maxV < 14 {
				// Grow the vertex space.
				adds = append(adds, graph.Edge{Src: graph.VertexID(rng.Intn(maxV)), Dst: graph.VertexID(maxV)})
				maxV++
			} else {
				e := graph.Edge{Src: graph.VertexID(rng.Intn(maxV)), Dst: graph.VertexID(rng.Intn(maxV))}
				if rng.Intn(2) == 0 {
					adds = append(adds, e)
				} else {
					dels = append(dels, e)
				}
			}
		}
		es, err := single.ApplyUpdates(adds, dels)
		if err != nil {
			t.Fatalf("wave %d: single ApplyUpdates: %v", wave, err)
		}
		ec, err := coord.ApplyUpdates(adds, dels)
		if err != nil {
			t.Fatalf("wave %d: sharded ApplyUpdates: %v", wave, err)
		}
		if es != ec {
			t.Fatalf("wave %d: epochs diverged: single %d, sharded %d", wave, es, ec)
		}
		cur := single.CurrentSnapshot().Graph()
		qs := allPairQueries(cur, 3, uint8(4+wave%3))
		got := runAll(coord, qs)
		diffOutcomes(t, fmt.Sprintf("shards=%d/wave=%d", n, wave), qs, runAll(single, qs), got)
		// A cross-shard reply comes from its source owner's replica, run
		// inline off that worker's queue: hold every cross-shard reply to
		// the oracle on this wave's graph as well.
		for i, q := range qs {
			if ShardOf(q.S, n) != ShardOf(q.T, n) && !slices.Equal(got[i].paths, oraclePaths(cur, q)) {
				t.Errorf("shards=%d/wave=%d: cross-shard %s answered %v, oracle on epoch %d says %v",
					n, wave, q, got[i].paths, ec, oraclePaths(cur, q))
			}
		}
	}
	if got, want := coord.State(), single.State(); got != want {
		t.Errorf("final state mismatch: sharded %+v, single %+v", got, want)
	}
	if rs := coord.Routing(); rs.EpochRetries != 0 {
		t.Errorf("EpochRetries = %d; a join pins its epoch and never restarts", rs.EpochRetries)
	}
}

// TestDifferentialLiveUpdates proves the equivalence holds across live
// update waves — including compactions and vertex growth — for every
// deployment size.
func TestDifferentialLiveUpdates(t *testing.T) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			randomUpdateWaves(t, n, 6, int64(1000+n))
		})
	}
}

// TestConcurrentUpdatesAndQueries hammers a sharded deployment with
// simultaneous queries and update fan-outs; run under -race it is the
// issue's concurrency gate. Each query may land on either side of an
// update, but on one side: every reply must equal the oracle's answer
// on one of the graph versions current while it ran — a join whose
// halves came from two epochs would match none. The other assertions
// are crash-freedom, valid replies, and epoch alignment throughout.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	g := testgraphs.Paper()
	cfg := testConfig()
	cfg.Shards = 3
	cfg.CompactAfter = 4
	coord := New(g, g.Reverse(), cfg)
	defer coord.Close()
	// ref applies the same updates first, to name each version's graph.
	ref := service.New(g, g.Reverse(), testConfig())
	defer ref.Close()

	// versions[i] is the graph after i updates. Update i is appended and
	// begun raised to i before the deployment sees it, done raised to i
	// after: a query submitted at done = lo and answered at begun = hi
	// ran on one of versions[lo..hi].
	var (
		vmu         sync.Mutex
		versions    = []*graph.Graph{g}
		begun, done atomic.Int64
	)

	const queriers, rounds = 8, 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < queriers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := query.Query{
					S: graph.VertexID(rng.Intn(16)),
					T: graph.VertexID(rng.Intn(16)),
					K: uint8(1 + rng.Intn(5)),
				}
				if q.S == q.T {
					continue
				}
				lo := done.Load()
				r, err := coord.Submit(context.Background(), fmt.Sprintf("c%d", c), q, true)
				hi := begun.Load()
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if int64(r.Paths.Len()) != r.Count {
					t.Errorf("reply invariant broken: %d paths, count %d", r.Paths.Len(), r.Count)
					return
				}
				vmu.Lock()
				window := versions[lo : hi+1]
				vmu.Unlock()
				got := renderPaths(&r.Paths)
				if !slices.ContainsFunc(window, func(v *graph.Graph) bool { return slices.Equal(got, oraclePaths(v, q)) }) {
					t.Errorf("%s answered %v: the oracle's answer on none of versions %d..%d", q, got, lo, hi)
					return
				}
			}
		}(c)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < rounds; i++ {
		e := graph.Edge{Src: graph.VertexID(rng.Intn(16)), Dst: graph.VertexID(rng.Intn(16))}
		adds, dels := []graph.Edge{e}, []graph.Edge(nil)
		if i%2 == 1 {
			adds, dels = dels, adds
		}
		if _, err := ref.ApplyUpdates(adds, dels); err != nil {
			t.Fatalf("round %d: reference ApplyUpdates: %v", i, err)
		}
		vmu.Lock()
		versions = append(versions, ref.CurrentSnapshot().Graph())
		vmu.Unlock()
		begun.Store(int64(i + 1))
		if _, err := coord.ApplyUpdates(adds, dels); err != nil {
			t.Fatalf("round %d: ApplyUpdates: %v", i, err)
		}
		done.Store(int64(i + 1))
		for s, tot := range coord.ShardTotals() {
			if tot.Epoch != coord.Epoch() {
				t.Fatalf("round %d: shard %d at epoch %d, deployment at %d", i, s, tot.Epoch, coord.Epoch())
			}
		}
	}
	close(stop)
	wg.Wait()
	if rs := coord.Routing(); rs.EpochRetries != 0 {
		t.Errorf("EpochRetries = %d; a join pins its epoch and never restarts", rs.EpochRetries)
	}
}

// findPair returns a vertex pair of g classified as wanted (same-shard
// or cross-shard) under n shards.
func findPair(t *testing.T, g *graph.Graph, n int, cross bool) (graph.VertexID, graph.VertexID) {
	t.Helper()
	nv := g.NumVertices()
	for s := 0; s < nv; s++ {
		for v := 0; v < nv; v++ {
			if s == v {
				continue
			}
			if (ShardOf(graph.VertexID(s), n) != ShardOf(graph.VertexID(v), n)) == cross {
				return graph.VertexID(s), graph.VertexID(v)
			}
		}
	}
	t.Fatalf("no pair with cross=%v among %d vertices on %d shards", cross, nv, n)
	return 0, 0
}

func TestShardOfPartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		hit := make([]int, n)
		for v := 0; v < 1024; v++ {
			s := ShardOf(graph.VertexID(v), n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", v, n, s)
			}
			if s != ShardOf(graph.VertexID(v), n) {
				t.Fatalf("ShardOf(%d, %d) not deterministic", v, n)
			}
			hit[s]++
		}
		for s, c := range hit {
			if c == 0 {
				t.Errorf("n=%d: shard %d owns none of the first 1024 vertices", n, s)
			}
		}
	}
	if ShardOf(7, 0) != 0 || ShardOf(7, 1) != 0 || ShardOf(7, -3) != 0 {
		t.Error("ShardOf must map everything to 0 for n <= 1")
	}
}

// TestSelfLoopQueryParity: s==t always lands on one shard (the hash is
// a function of the ID), so the worker's validation answers it — with
// exactly the single-process error.
func TestSelfLoopQueryParity(t *testing.T) {
	g := testgraphs.Diamond()
	gr := g.Reverse()
	single := service.New(g, gr, testConfig())
	defer single.Close()
	cfg := testConfig()
	cfg.Shards = 2
	coord := New(g, gr, cfg)
	defer coord.Close()

	q := query.Query{S: 1, T: 1, K: 3}
	_, wantErr := single.Submit(context.Background(), "", q, true)
	_, gotErr := coord.Submit(context.Background(), "", q, true)
	if wantErr == nil || gotErr == nil {
		t.Fatalf("self-loop query must be rejected: single %v, sharded %v", wantErr, gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Errorf("error text diverged: single %q, sharded %q", wantErr, gotErr)
	}
}

// TestCollidingEndpointsStaySingleShard: two distinct endpoints hashing
// to the same worker under a 2-shard deployment must be routed as
// single-shard, into that worker's micro-batches.
func TestCollidingEndpointsStaySingleShard(t *testing.T) {
	g := testgraphs.CompleteDAG(7)
	cfg := testConfig()
	cfg.Shards = 2
	coord := New(g, g.Reverse(), cfg)
	defer coord.Close()

	s, v := findPair(t, g, 2, false)
	if _, err := coord.Submit(context.Background(), "", query.Query{S: s, T: v, K: 3}, true); err != nil {
		t.Fatalf("submit: %v", err)
	}
	rs := coord.Routing()
	if rs.SingleShard != 1 || rs.CrossShard != 0 {
		t.Errorf("colliding endpoints routed as %+v, want 1 single-shard / 0 cross-shard", rs)
	}
}

// TestVertexGrowthLandsOnCorrectShard grows the vertex space through
// ApplyUpdates and checks the new vertex is owned — and answered — by
// the shard the hash assigns it.
func TestVertexGrowthLandsOnCorrectShard(t *testing.T) {
	g := testgraphs.Line(4)
	gr := g.Reverse()
	cfgSingle := testConfig()
	cfgSingle.SyncCompact = true
	single := service.New(g, gr, cfgSingle)
	defer single.Close()
	cfg := testConfig()
	cfg.Shards = 2
	coord := New(g, gr, cfg)
	defer coord.Close()

	// Vertex 9 does not exist yet; its owner is already defined.
	grown := graph.VertexID(9)
	owner := coord.ShardOf(grown)
	adds := []graph.Edge{{Src: 3, Dst: grown}, {Src: grown, Dst: 0}}
	if _, err := single.ApplyUpdates(adds, nil); err != nil {
		t.Fatalf("single ApplyUpdates: %v", err)
	}
	if _, err := coord.ApplyUpdates(adds, nil); err != nil {
		t.Fatalf("sharded ApplyUpdates: %v", err)
	}
	per := coord.ShardTotals()
	for s, tot := range per {
		if tot.Epoch != per[0].Epoch {
			t.Fatalf("shard %d epoch %d diverged from %d after growth", s, tot.Epoch, per[0].Epoch)
		}
	}

	qs := []query.Query{
		{S: 0, T: grown, K: 5}, // 0→1→2→3→9
		{S: grown, T: 2, K: 3}, // 9→0→1→2
	}
	diffOutcomes(t, "growth", qs, runAll(single, qs), runAll(coord, qs))

	before := coord.Routing()
	q := query.Query{S: grown, T: 2, K: 3}
	if _, err := coord.Submit(context.Background(), "", q, true); err != nil {
		t.Fatalf("submit grown query: %v", err)
	}
	after := coord.Routing()
	wantCross := owner != coord.ShardOf(2)
	if gotCross := after.CrossShard-before.CrossShard == 1; gotCross != wantCross {
		t.Errorf("grown-vertex query classified cross=%v, hash says cross=%v", gotCross, wantCross)
	}
}

// TestK1CrossShard: a cross-shard K=1 query reduces to "does the edge
// exist", which the source's owner must answer with the one path or
// none.
func TestK1CrossShard(t *testing.T) {
	// Line(10): edge i→i+1 only.
	g := testgraphs.Line(10)
	cfg := testConfig()
	cfg.Shards = 2
	coord := New(g, g.Reverse(), cfg)
	defer coord.Close()

	var s graph.VertexID = 255
	for v := 0; v+1 < 10; v++ {
		if ShardOf(graph.VertexID(v), 2) != ShardOf(graph.VertexID(v+1), 2) {
			s = graph.VertexID(v)
			break
		}
	}
	if s == 255 {
		t.Skip("no adjacent cross-shard pair in Line(10) under 2 shards")
	}
	r, err := coord.Submit(context.Background(), "", query.Query{S: s, T: s + 1, K: 1}, true)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if r.Count != 1 || r.Paths.Len() != 1 {
		t.Fatalf("K=1 over existing edge %d→%d: got %d paths, want exactly 1", s, s+1, r.Count)
	}
	if p := r.Paths.Path(0); len(p) != 2 || p[0] != s || p[1] != s+1 {
		t.Errorf("K=1 path = %v, want [%d %d]", p, s, s+1)
	}
	// The reverse direction has no edge: zero paths, not an error.
	r, err = coord.Submit(context.Background(), "", query.Query{S: s + 1, T: s, K: 1}, true)
	if err != nil {
		t.Fatalf("submit reverse: %v", err)
	}
	if r.Count != 0 {
		t.Errorf("K=1 over absent edge: got %d paths, want 0", r.Count)
	}
}

// TestCrossShardLimitTruncation: the per-query Limit applies to
// cross-shard queries with the same semantics as the worker pipeline.
func TestCrossShardLimitTruncation(t *testing.T) {
	g := testgraphs.CompleteDAG(7)
	cfg := testConfig()
	cfg.Shards = 2
	cfg.Limit = 2
	coord := New(g, g.Reverse(), cfg)
	defer coord.Close()

	s, v := findPair(t, g, 2, true)
	if s > v {
		s, v = v, s // DAG edges go low→high; many paths need s < v
	}
	r, err := coord.Submit(context.Background(), "", query.Query{S: s, T: v, K: 6}, true)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if r.Count > 2 {
		t.Errorf("limit 2 delivered %d paths", r.Count)
	}
	if r.Count == 2 {
		if !r.Truncated || !errors.Is(r.Err, query.ErrLimitReached) {
			t.Errorf("at limit: truncated=%v err=%v, want truncated with ErrLimitReached", r.Truncated, r.Err)
		}
		if rs := coord.Routing(); rs.CrossShard != 1 {
			t.Errorf("query not classified cross-shard: %+v", rs)
		}
	}
}

// TestClosedCoordinator: Close is idempotent and everything after it
// reports service.ErrClosed.
func TestClosedCoordinator(t *testing.T) {
	g := testgraphs.Diamond()
	cfg := testConfig()
	cfg.Shards = 3
	coord := New(g, g.Reverse(), cfg)
	if err := coord.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	s, v := findPair(t, g, 3, true)
	if _, err := coord.Submit(context.Background(), "", query.Query{S: s, T: v, K: 2}, true); !errors.Is(err, service.ErrClosed) {
		t.Errorf("cross-shard submit after close: %v, want ErrClosed", err)
	}
	s, v = findPair(t, g, 3, false)
	if _, err := coord.Submit(context.Background(), "", query.Query{S: s, T: v, K: 2}, true); !errors.Is(err, service.ErrClosed) {
		t.Errorf("single-shard submit after close: %v, want ErrClosed", err)
	}
	if _, err := coord.ApplyUpdates([]graph.Edge{{Src: 0, Dst: 2}}, nil); !errors.Is(err, service.ErrClosed) {
		t.Errorf("ApplyUpdates after close: %v, want ErrClosed", err)
	}
}

// TestStatsComposition: the merged deployment Totals counts every query
// exactly once — each in exactly one worker's Totals, cross-shard
// queries in their source owner's — and does not multiply the
// replicated update stream.
func TestStatsComposition(t *testing.T) {
	g := testgraphs.Paper()
	cfg := testConfig()
	cfg.Shards = 3
	coord := New(g, g.Reverse(), cfg)
	defer coord.Close()

	qs := allPairQueries(g, 3)
	runAll(coord, qs)
	if _, err := coord.ApplyUpdates([]graph.Edge{{Src: 0, Dst: 6}}, nil); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}

	tot := coord.Stats()
	if tot.Queries != int64(len(qs)) {
		t.Errorf("merged Queries = %d, want %d", tot.Queries, len(qs))
	}
	if tot.UpdatesApplied != 1 {
		t.Errorf("merged UpdatesApplied = %d, want 1 (logical stream counted once)", tot.UpdatesApplied)
	}
	rs := coord.Routing()
	var perQueries int64
	for _, st := range coord.ShardTotals() {
		perQueries += st.Queries
	}
	if perQueries != rs.SingleShard+rs.CrossShard {
		t.Errorf("workers carried %d queries, router routed %d+%d", perQueries, rs.SingleShard, rs.CrossShard)
	}
	if rs.SingleShard+rs.CrossShard != tot.Queries {
		t.Errorf("routing %d+%d does not account for %d merged queries",
			rs.SingleShard, rs.CrossShard, tot.Queries)
	}
}

// TestCrossShardCountsOnSourceOwner: an in-process cross-shard query
// runs as a batch of one on the worker owning its source, so it lands
// in that worker's Totals (one query, one batch) and nowhere else, and
// OnBatch sees it.
func TestCrossShardCountsOnSourceOwner(t *testing.T) {
	g := testgraphs.CompleteDAG(7)
	var (
		bmu     sync.Mutex
		batches []service.BatchStats
	)
	cfg := testConfig()
	cfg.Shards = 2
	cfg.OnBatch = func(bs service.BatchStats) {
		bmu.Lock()
		batches = append(batches, bs)
		bmu.Unlock()
	}
	coord := New(g, g.Reverse(), cfg)
	defer coord.Close()

	s, v := findPair(t, g, 2, true)
	if s > v {
		s, v = v, s // DAG edges go low→high
	}
	r, err := coord.Submit(context.Background(), "", query.Query{S: s, T: v, K: 4}, true)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if r.Count == 0 || r.Batch.Queries != 1 {
		t.Errorf("reply: %d paths, batch of %d; want paths from a batch of 1", r.Count, r.Batch.Queries)
	}
	owner := coord.ShardOf(s)
	for i, tot := range coord.ShardTotals() {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if tot.Queries != want || tot.Batches != want {
			t.Errorf("shard %d (source owner %d): %d queries in %d batches, want %d in %d",
				i, owner, tot.Queries, tot.Batches, want, want)
		}
	}
	bmu.Lock()
	defer bmu.Unlock()
	if len(batches) != 1 || batches[0].Queries != 1 {
		t.Errorf("OnBatch saw %+v, want one batch of 1 query", batches)
	}
}
