package pathenum

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/oracle"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

func sorted(paths []string) []string { sort.Strings(paths); return paths }

// posMod is a non-negative modulo for quick-generated (possibly
// negative) seeds.
func posMod(x, m int) int { return ((x % m) + m) % m }

func enumStrings(g, gr *graph.Graph, q query.Query, opts Options) []string {
	var out []string
	Enumerate(g, gr, q, msbfs.Single(g, q.S, q.K), msbfs.Single(gr, q.T, q.K), opts, func(p []graph.VertexID) {
		out = append(out, fmt.Sprint(p))
	})
	return sorted(out)
}

func bruteStrings(g *graph.Graph, q query.Query) []string {
	var out []string
	oracle.Enumerate(g, q, func(p []graph.VertexID) {
		out = append(out, fmt.Sprint(p))
	})
	return sorted(out)
}

func TestPaperGroundTruth(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	wantCounts := map[int]int{0: 3, 1: 3, 2: 1, 3: 2, 4: 2}
	for i, spec := range testgraphs.PaperQueries() {
		q := query.Query{ID: i, S: spec[0], T: spec[1], K: uint8(spec[2])}
		got := enumStrings(g, gr, q, Options{})
		if len(got) != wantCounts[i] {
			t.Errorf("%s: %d paths, want %d: %v", q, len(got), wantCounts[i], got)
		}
		if brute := bruteStrings(g, q); fmt.Sprint(got) != fmt.Sprint(brute) {
			t.Errorf("%s: PathEnum %v != BruteForce %v", q, got, brute)
		}
	}
}

func TestPaperQ0ExactPaths(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	q := query.Query{ID: 0, S: 0, T: 11, K: 5}
	got := enumStrings(g, gr, q, Options{})
	want := sorted([]string{
		fmt.Sprint([]graph.VertexID{0, 1, 7, 10, 12, 11}),
		fmt.Sprint([]graph.VertexID{0, 4, 9, 3, 6, 11}),
		fmt.Sprint([]graph.VertexID{0, 4, 9, 15, 6, 11}),
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("q0: got %v want %v", got, want)
	}
}

func TestOptimizedMatchesPlain(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GenRandom(30, 3.5, seed)
		gr := g.Reverse()
		for trial := 0; trial < 5; trial++ {
			s := graph.VertexID(posMod(int(seed)+trial*3, 30))
			tt := graph.VertexID(posMod(int(seed)*5+trial*11+1, 30))
			if s == tt {
				continue
			}
			k := uint8(trial%6 + 1)
			q := query.Query{S: s, T: tt, K: k}
			plain := enumStrings(g, gr, q, Options{})
			opt := enumStrings(g, gr, q, Options{Optimized: true})
			if fmt.Sprint(plain) != fmt.Sprint(opt) {
				t.Logf("seed=%d q=%v\nplain %v\nopt   %v", seed, q, plain, opt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAgainstBruteForceRandom(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GenRandom(24, 3, seed)
		gr := g.Reverse()
		for trial := 0; trial < 4; trial++ {
			s := graph.VertexID(posMod(int(seed)*7+trial, 24))
			tt := graph.VertexID(posMod(int(seed)+trial*5+2, 24))
			if s == tt {
				continue
			}
			k := uint8(trial%7 + 1)
			q := query.Query{S: s, T: tt, K: k}
			if fmt.Sprint(enumStrings(g, gr, q, Options{})) != fmt.Sprint(bruteStrings(g, q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHopConstraintRespected(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	for k := uint8(1); k <= 7; k++ {
		q := query.Query{S: 0, T: 11, K: k}
		Enumerate(g, gr, q, msbfs.Single(g, q.S, q.K), msbfs.Single(gr, q.T, q.K), Options{}, func(p []graph.VertexID) {
			if uint8(len(p)-1) > k {
				t.Fatalf("k=%d: path %v exceeds hop constraint", k, p)
			}
			if p[0] != 0 || p[len(p)-1] != 11 {
				t.Fatalf("path %v has wrong endpoints", p)
			}
		})
	}
}

func TestKOne(t *testing.T) {
	g := testgraphs.Diamond()
	gr := g.Reverse()
	// direct edge 0→3 is the only 1-hop path
	got := enumStrings(g, gr, query.Query{S: 0, T: 3, K: 1}, Options{})
	if len(got) != 1 {
		t.Fatalf("k=1: got %v", got)
	}
	// k=2 adds the two 2-hop paths
	got = enumStrings(g, gr, query.Query{S: 0, T: 3, K: 2}, Options{})
	if len(got) != 3 {
		t.Fatalf("k=2: got %v", got)
	}
}

func TestUnreachableTarget(t *testing.T) {
	g := testgraphs.Line(5)
	gr := g.Reverse()
	// 4 cannot reach 0 (edges point forward only)
	got := enumStrings(g, gr, query.Query{S: 4, T: 0, K: 7}, Options{})
	if len(got) != 0 {
		t.Fatalf("got %v for unreachable target", got)
	}
	// 0 reaches 4 in exactly 4 hops; k=3 is too tight
	if got := enumStrings(g, gr, query.Query{S: 0, T: 4, K: 3}, Options{}); len(got) != 0 {
		t.Fatalf("k too small still produced %v", got)
	}
	if got := enumStrings(g, gr, query.Query{S: 0, T: 4, K: 4}, Options{}); len(got) != 1 {
		t.Fatalf("exact-k path missing: %v", got)
	}
}

func TestCycleGraph(t *testing.T) {
	g := testgraphs.Cycle(6)
	gr := g.Reverse()
	// only one simple path 0→3 (through 1,2), length 3
	got := enumStrings(g, gr, query.Query{S: 0, T: 3, K: 6}, Options{})
	if len(got) != 1 {
		t.Fatalf("cycle: got %v", got)
	}
}

func TestEnumerateWithSharedIndex(t *testing.T) {
	// Enumerate (non-standalone) must work with caps larger than k, as
	// the batch index may have been built for a bigger query.
	g := testgraphs.Paper()
	gr := g.Reverse()
	q := query.Query{S: 4, T: 14, K: 4}
	fwd := msbfs.Single(g, q.S, 7)
	bwd := msbfs.Single(gr, q.T, 7)
	var n int
	Enumerate(g, gr, q, fwd, bwd, Options{}, func(p []graph.VertexID) { n++ })
	if n != 2 {
		t.Fatalf("q3 with oversized index: %d paths, want 2", n)
	}
}

// collectResults materialises a query's full results into a store.
func collectResults(g, gr *graph.Graph, q query.Query) *pathjoin.Store {
	s := pathjoin.NewStore(8, 64)
	Enumerate(g, gr, q, msbfs.Single(g, q.S, q.K), msbfs.Single(gr, q.T, q.K), Options{}, func(p []graph.VertexID) { s.Add(p) })
	return s
}

func TestMaterializedScan(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	q := query.Query{S: 0, T: 11, K: 5}
	store := collectResults(g, gr, q)
	if got := Materialized(store); got != 3 {
		t.Fatalf("Materialized = %d, want 3", got)
	}
}

func TestEmittedSliceReused(t *testing.T) {
	// The emit contract says the slice is reused; verify results stay
	// correct when the caller copies, and that our own internals do not
	// depend on callers keeping the slice intact.
	g := testgraphs.Paper()
	gr := g.Reverse()
	q := query.Query{S: 0, T: 11, K: 5}
	var stash [][]graph.VertexID
	Enumerate(g, gr, q, msbfs.Single(g, q.S, q.K), msbfs.Single(gr, q.T, q.K), Options{}, func(p []graph.VertexID) {
		cp := make([]graph.VertexID, len(p))
		copy(cp, p)
		stash = append(stash, cp)
		for i := range p {
			p[i] = 999 // scribble; engine must not care
		}
	})
	if len(stash) != 3 {
		t.Fatalf("got %d paths", len(stash))
	}
	for _, p := range stash {
		if p[0] != 0 || p[len(p)-1] != 11 {
			t.Fatalf("stashed path corrupted: %v", p)
		}
	}
}

// TestStreamedForwardHalfMatchesStoredJoin: EnumerateControlled joins
// each forward prefix as the DFS yields it; collecting both halves and
// joining the stored forward half afterwards must give the same path
// sequence, and under a limit the same truncation point — under both
// cuts.
func TestStreamedForwardHalfMatchesStoredJoin(t *testing.T) {
	graphs := []*graph.Graph{testgraphs.Paper(), testgraphs.CompleteDAG(9)}
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, graph.GenRandom(40, 3, seed))
	}
	for gi, g := range graphs {
		gr := g.Reverse()
		n := g.NumVertices()
		for qi := 0; qi < 12; qi++ {
			s, tt := graph.VertexID((qi*7)%n), graph.VertexID((qi*13+5)%n)
			if s == tt {
				continue
			}
			q := query.Query{ID: 0, S: s, T: tt, K: uint8(3 + qi%4)}
			fwd, bwd := msbfs.Single(g, q.S, q.K), msbfs.Single(gr, q.T, q.K)
			for _, opts := range []Options{{}, {Optimized: true}} {
				// The reference: both halves stored, then joined.
				var want []string
				if bwd.Dist(q.S) <= q.K {
					fb, bb := q.FwdBudget(), q.BwdBudget()
					if opts.Optimized {
						fb, bb = BalancedCut(q, fwd, bwd)
					}
					fp, bp := pathjoin.NewStore(0, 0), pathjoin.NewStore(0, 0)
					CollectHalf(g, q.S, fb, q.K, bwd, opts, nil, fp)
					CollectHalf(gr, q.T, bb, q.K, fwd, opts, nil, bp)
					pathjoin.JoinHalves(fp, bp, q.K, fb < bb, func(p []graph.VertexID) {
						want = append(want, fmt.Sprint(p))
					})
				}
				for _, limit := range []int64{0, 1, 3} {
					label := fmt.Sprintf("graph %d %s %+v limit %d", gi, q, opts, limit)
					ctrl := query.NewControl(nil, time.Time{}, limit, 1)
					var got []string
					EnumerateControlled(g, gr, q, []int{q.ID}, fwd, bwd, opts, ctrl, pathjoin.EmitFunc(func(p []graph.VertexID) {
						got = append(got, fmt.Sprint(p))
					}))
					w, cut := want, false
					if limit > 0 && int64(len(want)) > limit {
						w, cut = want[:limit], true
					}
					if fmt.Sprint(got) != fmt.Sprint(w) {
						t.Errorf("%s: streamed %v, stored join %v", label, got, w)
					}
					if ctrl.Truncated(0) != cut {
						t.Errorf("%s: Truncated=%v, want %v", label, ctrl.Truncated(0), cut)
					}
				}
			}
		}
	}
}
