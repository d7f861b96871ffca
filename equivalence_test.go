package hcpath

// Equivalence under concurrency: the micro-batching Service and the
// parallel engine must return exactly the sequential engine's per-query
// result sets, for every algorithm, on the whole testgraphs corpus.
// Running `go test -race` over this file exercises the per-worker
// buffered sinks, the batch collector, and the future hand-off under the
// race detector.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

type corpusCase struct {
	name string
	g    *graph.Graph
	qs   []query.Query
}

// equivalenceCorpus covers every fixture family of internal/testgraphs:
// the paper's running example plus shapes with known path structure.
func equivalenceCorpus() []corpusCase {
	var paperQs []query.Query
	for _, d := range testgraphs.PaperQueries() {
		paperQs = append(paperQs, query.Query{S: d[0], T: d[1], K: uint8(d[2])})
	}
	return []corpusCase{
		{"paper", testgraphs.Paper(), paperQs},
		{"diamond", testgraphs.Diamond(), []query.Query{
			{S: 0, T: 3, K: 1}, {S: 0, T: 3, K: 2}, {S: 0, T: 3, K: 3},
		}},
		{"cycle8", testgraphs.Cycle(8), []query.Query{
			{S: 0, T: 5, K: 5}, {S: 0, T: 7, K: 7}, {S: 1, T: 4, K: 3},
		}},
		{"line10", testgraphs.Line(10), []query.Query{
			{S: 0, T: 9, K: 9}, {S: 0, T: 5, K: 5}, {S: 2, T: 7, K: 5},
		}},
		{"completeDAG7", testgraphs.CompleteDAG(7), []query.Query{
			{S: 0, T: 6, K: 3}, {S: 0, T: 6, K: 6}, {S: 1, T: 5, K: 4},
		}},
	}
}

// canonical sorts each query's collected paths into comparable strings.
func canonical(paths [][][]graph.VertexID) [][]string {
	out := make([][]string, len(paths))
	for i, ps := range paths {
		for _, p := range ps {
			out[i] = append(out[i], fmt.Sprint(p))
		}
		sort.Strings(out[i])
	}
	return out
}

func diffQuery(t *testing.T, label string, i int, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: query %d: %d paths, want %d", label, i, len(got), len(want))
		return
	}
	for j := range want {
		if want[j] != got[j] {
			t.Errorf("%s: query %d: path sets diverge at %d: %s vs %s", label, i, j, got[j], want[j])
			return
		}
	}
}

// newPinnedService starts a Service whose collector has to hold what it
// is sent: a gate in OnBatch parks a runner in every idle batch slot —
// one warm query per core, each answered and then stuck behind the gate
// with its slot held, because a slot returns only after the callback —
// so with MaxWait out of reach (an hour, unless opts sets it) a batch
// leaves only full (MaxBatch). That makes batch composition exact
// instead of a matter of timing. stop opens the gate and closes the
// service.
func newPinnedService(t *testing.T, g *Graph, opts ServiceOptions, warm Query) (svc *Service, stop func()) {
	t.Helper()
	gate := make(chan struct{})
	if opts.MaxWait == 0 {
		opts.MaxWait = time.Hour
	}
	opts.OnBatch = func(BatchStats) { <-gate }
	svc = NewService(g, &opts)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		if _, bs, err := svc.Count(context.Background(), warm); err != nil || bs.Queries != 1 {
			t.Fatalf("warm query %d rode a batch of %d, err %v; want an idle-slot batch of 1", i, bs.Queries, err)
		}
	}
	return svc, func() {
		close(gate)
		svc.Close()
	}
}

// TestServiceAndParallelMatchSequential is the concurrency equivalence
// property: for all four algorithms on the whole corpus, a fanned Run and
// the Service (queries submitted from concurrent goroutines, batched by
// the collector) reproduce the inline Run's per-query path sets exactly.
func TestServiceAndParallelMatchSequential(t *testing.T) {
	algorithms := []Algorithm{BatchEnumPlus, BatchEnum, BasicEnumPlus, BasicEnum}
	for _, c := range equivalenceCorpus() {
		gr := c.g.Reverse()
		for _, alg := range algorithms {
			label := fmt.Sprintf("%s/%v", c.name, alg)
			opts := batchenum.Options{Algorithm: alg.internal(), Gamma: 0.8}

			seq := query.NewCollectSink(len(c.qs))
			if _, err := batchenum.Run(c.g, gr, c.qs, opts, nil, seq); err != nil {
				t.Fatalf("%s: sequential: %v", label, err)
			}
			want := canonical(seq.Paths)

			par := query.NewCollectSink(len(c.qs))
			popts := opts
			popts.Workers = 4
			if _, err := batchenum.Run(c.g, gr, c.qs, popts, nil, par); err != nil {
				t.Fatalf("%s: parallel: %v", label, err)
			}
			for i, g := range canonical(par.Paths) {
				diffQuery(t, label+"/parallel", i, want[i], g)
			}

			svc := NewService(&Graph{g: c.g, gr: gr}, &ServiceOptions{
				Options:  Options{Algorithm: alg, Gamma: 0.8, Workers: -1},
				MaxBatch: len(c.qs),
				MaxWait:  5 * time.Millisecond,
			})
			got := make([][]string, len(c.qs))
			var wg sync.WaitGroup
			for i, q := range c.qs {
				wg.Add(1)
				go func(i int, q query.Query) {
					defer wg.Done()
					paths, _, err := svc.Query(context.Background(),
						Query{S: q.S, T: q.T, K: int(q.K)})
					if err != nil {
						t.Errorf("%s: service query %d: %v", label, i, err)
						return
					}
					for _, p := range paths {
						got[i] = append(got[i], fmt.Sprint([]graph.VertexID(p)))
					}
					sort.Strings(got[i])
				}(i, q)
			}
			wg.Wait()
			svc.Close()
			for i := range got {
				diffQuery(t, label+"/service", i, want[i], got[i])
			}
		}
	}
}

// TestServiceBatchSizeEquivalence: what a query is answered with does
// not depend on the company it was dispatched in. On the whole corpus,
// the same queries go through a pinned service in batches of exactly
// b = 1…n — a chunk of b concurrent queries fills MaxBatch b and leaves
// as one batch, whose runner then parks behind the gate too — and come
// back with the inline Run's per-query path sets every time. (The
// unpinned arm, batch sizes as the schedule has them, is
// TestServiceAndParallelMatchSequential.)
func TestServiceBatchSizeEquivalence(t *testing.T) {
	for _, c := range equivalenceCorpus() {
		gr := c.g.Reverse()
		seq := query.NewCollectSink(len(c.qs))
		opts := batchenum.Options{Algorithm: batchenum.BatchPlus, Gamma: 0.8}
		if _, err := batchenum.Run(c.g, gr, c.qs, opts, nil, seq); err != nil {
			t.Fatalf("%s: sequential: %v", c.name, err)
		}
		want := canonical(seq.Paths)
		public := func(i int) Query { return Query{S: c.qs[i].S, T: c.qs[i].T, K: int(c.qs[i].K)} }

		for b := 1; b <= len(c.qs); b++ {
			label := fmt.Sprintf("%s/batches of %d", c.name, b)
			svc, stop := newPinnedService(t, &Graph{g: c.g, gr: gr},
				ServiceOptions{Options: Options{Gamma: 0.8}, MaxBatch: b}, public(0))
			// Chunks wrap around the query list so that every one is full;
			// a short last chunk would be held for good.
			for lo := 0; lo < len(c.qs); lo += b {
				var wg sync.WaitGroup
				for j := 0; j < b; j++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						paths, bs, err := svc.Query(context.Background(), public(i))
						if err != nil {
							t.Errorf("%s: query %d: %v", label, i, err)
							return
						}
						if bs.Queries != b {
							t.Errorf("%s: query %d rode a batch of %d", label, i, bs.Queries)
						}
						var got []string
						for _, p := range paths {
							got = append(got, fmt.Sprint([]graph.VertexID(p)))
						}
						sort.Strings(got)
						diffQuery(t, label, i, want[i], got)
					}((lo + j) % len(c.qs))
				}
				wg.Wait()
			}
			stop()
		}
	}
}

// TestLimitHitMatchesSequentialPrefix is the limit-hit equivalence
// property: for all four algorithms on the whole corpus, sequential and
// parallel runs under Options.Limit deliver min(limit, |P(q)|) distinct
// members of the sequential full result set per query, with truncation
// reported exactly for the queries that lost paths.
func TestLimitHitMatchesSequentialPrefix(t *testing.T) {
	const limit = 2
	algorithms := []Algorithm{BatchEnumPlus, BatchEnum, BasicEnumPlus, BasicEnum}
	for _, c := range equivalenceCorpus() {
		gr := c.g.Reverse()
		for _, alg := range algorithms {
			label := fmt.Sprintf("%s/%v", c.name, alg)

			full := query.NewCollectSink(len(c.qs))
			if _, err := batchenum.Run(c.g, gr, c.qs,
				batchenum.Options{Algorithm: alg.internal(), Gamma: 0.8}, nil, full); err != nil {
				t.Fatalf("%s: full run: %v", label, err)
			}
			fullSets := make([]map[string]bool, len(c.qs))
			for i, ps := range full.Paths {
				fullSets[i] = map[string]bool{}
				for _, p := range ps {
					fullSets[i][fmt.Sprint(p)] = true
				}
			}

			qsPub := make([]Query, len(c.qs))
			for i, q := range c.qs {
				qsPub[i] = Query{S: q.S, T: q.T, K: int(q.K)}
			}
			for _, workers := range []int{0, 4} {
				eng := NewEngine(&Graph{g: c.g, gr: gr},
					&Options{Algorithm: alg, Gamma: 0.8, Workers: workers, Limit: limit})
				res, err := eng.Enumerate(qsPub)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", label, workers, err)
				}
				wantTrunc := 0
				for i := range c.qs {
					total := len(fullSets[i])
					wantN := total
					if limit < total {
						wantN = limit
						wantTrunc++
					}
					if res.Count(i) != wantN {
						t.Errorf("%s workers=%d: query %d: %d paths, want %d of %d",
							label, workers, i, res.Count(i), wantN, total)
					}
					seen := map[string]bool{}
					for _, p := range res.Paths(i) {
						k := fmt.Sprint([]graph.VertexID(p))
						if !fullSets[i][k] || seen[k] {
							t.Errorf("%s workers=%d: query %d: bogus or duplicate path %s",
								label, workers, i, k)
						}
						seen[k] = true
					}
					if res.Truncated(i) != (limit < total) {
						t.Errorf("%s workers=%d: query %d: Truncated=%v, want %v",
							label, workers, i, res.Truncated(i), limit < total)
					}
				}
				if res.Stats().Truncated != wantTrunc {
					t.Errorf("%s workers=%d: Stats.Truncated=%d, want %d",
						label, workers, res.Stats().Truncated, wantTrunc)
				}
			}
		}
	}
}

// TestServiceCancelledCallerDoesNotPoisonBatch is the isolation
// property of the acceptance criteria: a heavy K=15 query on a dense
// graph, cancelled by its own caller after 10ms, returns ctx.Err() in
// well under 500ms while the queries co-batched with it complete with
// exactly their full result sets.
func TestServiceCancelledCallerDoesNotPoisonBatch(t *testing.T) {
	g := denseGraph()

	// Expected results of the light co-batched queries, from the
	// offline sequential engine.
	light := []Query{{S: 2, T: 3, K: 2}, {S: 4, T: 5, K: 2}, {S: 6, T: 7, K: 2}}
	eng := NewEngine(g, nil)
	wantRes, err := eng.Enumerate(light)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(light))
	for i := range light {
		for _, p := range wantRes.Paths(i) {
			want[i] = append(want[i], fmt.Sprint([]graph.VertexID(p)))
		}
		sort.Strings(want[i])
	}

	// BasicEnum+ with 4 workers: each co-batched query runs on its own
	// worker, so the heavy one cannot starve the light ones even on a
	// small CI machine; QueryTimeout bounds the heavy enumeration so
	// Close cannot hang. Pinned, so that the four leave as one batch
	// (MaxBatch) however their arrivals are spaced; MaxWait only covers
	// the heavy caller giving up before it ever took its seat.
	svc, stop := newPinnedService(t, g, ServiceOptions{
		Options:      Options{Algorithm: BasicEnumPlus, Workers: 4},
		MaxBatch:     len(light) + 1,
		MaxWait:      5 * time.Second,
		QueryTimeout: 2 * time.Second,
	}, light[0])
	defer stop()

	var wg sync.WaitGroup
	got := make([][]string, len(light))
	gotErr := make([]error, len(light))
	for i, q := range light {
		wg.Add(1)
		go func(i int, q Query) {
			defer wg.Done()
			paths, _, err := svc.Query(context.Background(), q)
			gotErr[i] = err
			for _, p := range paths {
				got[i] = append(got[i], fmt.Sprint([]graph.VertexID(p)))
			}
			sort.Strings(got[i])
		}(i, q)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, _, heavyErr := svc.Query(ctx, Query{S: 0, T: 1, K: 15})
	heavyElapsed := time.Since(t0)
	wg.Wait()

	if !errors.Is(heavyErr, context.DeadlineExceeded) {
		t.Fatalf("heavy query err = %v, want its ctx deadline error", heavyErr)
	}
	if heavyElapsed > 500*time.Millisecond {
		t.Fatalf("cancelled caller took %v to detach, want well under 500ms", heavyElapsed)
	}
	for i := range light {
		if gotErr[i] != nil {
			t.Errorf("co-batched query %d failed: %v", i, gotErr[i])
			continue
		}
		diffQuery(t, "co-batched", i, want[i], got[i])
	}
}

// TestServiceQueryTimeoutPartialResults: with a tiny QueryTimeout, a
// heavy query is answered with a partial (possibly empty) result set
// and context.DeadlineExceeded rather than blocking forever, and the
// service records the truncation.
func TestServiceQueryTimeoutPartialResults(t *testing.T) {
	g := denseGraph()
	svc := NewService(g, &ServiceOptions{
		Options:      Options{Algorithm: BatchEnumPlus},
		QueryTimeout: 20 * time.Millisecond,
	})
	defer svc.Close()

	t0 := time.Now()
	count, bs, err := svc.Count(context.Background(), Query{S: 0, T: 1, K: 15})
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded batch took %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if count < 0 {
		t.Fatalf("partial count = %d", count)
	}
	if bs.Truncated != 1 {
		t.Fatalf("BatchStats.Truncated = %d, want 1", bs.Truncated)
	}
	if tot := svc.Totals(); tot.Truncated != 1 || tot.DeadlineBatches != 1 {
		t.Fatalf("Totals truncated=%d deadlineBatches=%d, want 1/1", tot.Truncated, tot.DeadlineBatches)
	}
}

// TestServiceLimitTruncation: Options.Limit through the service yields
// exactly limit paths with ErrLimitReached alongside them.
func TestServiceLimitTruncation(t *testing.T) {
	g := testgraphs.CompleteDAG(7)
	svc := NewService(&Graph{g: g, gr: g.Reverse()}, &ServiceOptions{
		Options: Options{Limit: 5},
	})
	defer svc.Close()
	paths, bs, err := svc.Query(context.Background(), Query{S: 0, T: 6, K: 6}) // 32 paths
	if !errors.Is(err, ErrLimitReached) {
		t.Fatalf("err = %v, want ErrLimitReached", err)
	}
	if len(paths) != 5 {
		t.Fatalf("%d paths, want exactly 5", len(paths))
	}
	if bs.Truncated != 1 {
		t.Fatalf("BatchStats.Truncated = %d, want 1", bs.Truncated)
	}
}
