package service

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/testgraphs"
)

func paperService(t *testing.T, cfg Config) (*Service, *graph.Graph) {
	t.Helper()
	g := testgraphs.Paper()
	s := New(g, g.Reverse(), cfg)
	t.Cleanup(func() { s.Close() })
	return s, g
}

// paperCounts is the ground-truth result count of each paperQueries entry.
var paperCounts = []int64{3, 3, 1, 2, 2}

func paperQueries() []query.Query {
	var qs []query.Query
	for _, d := range testgraphs.PaperQueries() {
		qs = append(qs, query.Query{S: d[0], T: d[1], K: uint8(d[2])})
	}
	return qs
}

// TestSingleQuery: one submission to an idle service leaves at once as a
// batch of one and returns the paper's ground-truth count.
func TestSingleQuery(t *testing.T) {
	s, _ := paperService(t, Config{
		Engine: batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
	})
	r, err := s.Submit(context.Background(), "", query.Query{S: 0, T: 11, K: 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 3 || r.Paths.Len() != 3 {
		t.Fatalf("count=%d paths=%d, want 3/3", r.Count, r.Paths.Len())
	}
	if r.Batch.Queries != 1 {
		t.Errorf("batch coalesced %d queries, want 1", r.Batch.Queries)
	}
	if r.Batch.WaitNanos <= 0 || r.Batch.EnumerateNanos <= 0 {
		t.Errorf("batch timings not populated: %+v", r.Batch)
	}
}

// TestCoalescing: queries that arrive while every batch slot is busy land
// in one batch and each caller receives exactly its own results.
func TestCoalescing(t *testing.T) {
	var batches []BatchStats
	qs := paperQueries()
	s, _, release := pinnedService(t, Config{
		MaxBatch:     16,
		MaxWait:      time.Hour, // dispatch only on release
		Engine:       batchenum.Options{Algorithm: batchenum.BatchPlus, Gamma: 0.8, Workers: 4},
		MaxPerCaller: 10 * len(qs), // roomy: only engages the admission counters
		OnBatch:      func(b BatchStats) { batches = append(batches, b) },
	})
	warm := int64(s.idle) // pinnedService's batches of one
	var wg sync.WaitGroup
	counts := make([]int64, len(qs))
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q query.Query) {
			defer wg.Done()
			r, err := s.Submit(context.Background(), "", q, false)
			if err != nil {
				t.Error(err)
				return
			}
			counts[i] = r.Count
		}(i, q)
	}
	waitQueued(t, s, len(qs))
	release()
	wg.Wait()
	for i, w := range paperCounts {
		if counts[i] != w {
			t.Errorf("query %d: count %d, want %d", i, counts[i], w)
		}
	}
	tot := s.Stats()
	if tot.Queries != warm+int64(len(qs)) {
		t.Errorf("totals report %d queries, want %d", tot.Queries, warm+int64(len(qs)))
	}
	if tot.Batches != warm+1 {
		t.Errorf("no coalescing: %d batches for %d queries, want %d", tot.Batches, tot.Queries, warm+1)
	}
	s.Close() // flush callbacks before reading batches
	var seen int
	for _, b := range batches {
		seen += b.Queries
		if b.Queries > 1 && b.SharingRatio() <= 0 {
			t.Errorf("multi-query batch reports sharing ratio %v: %+v", b.SharingRatio(), b)
		}
	}
	if seen != int(warm)+len(qs) {
		t.Errorf("OnBatch saw %d queries, want %d", seen, int(warm)+len(qs))
	}
}

// TestMaxBatchDispatch: with every idle slot busy a full batch leaves
// without waiting for a slot or for MaxWait.
func TestMaxBatchDispatch(t *testing.T) {
	s, _, _ := pinnedService(t, Config{
		MaxBatch: 2,
		MaxWait:  10 * time.Second, // must not matter
		Engine:   batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
	})
	qs := paperQueries()[:4]
	var wg sync.WaitGroup
	start := time.Now()
	for _, q := range qs {
		wg.Add(1)
		go func(q query.Query) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "", q, false); err != nil {
				t.Error(err)
			}
		}(q)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("size-triggered dispatch waited %v", elapsed)
	}
	if got := s.Stats().LargestBatch; got > 2 {
		t.Errorf("batch of %d formed despite MaxBatch=2", got)
	}
}

// TestValidationIsolation: a malformed query is rejected at Submit and
// cannot poison the batch it would have joined.
func TestValidationIsolation(t *testing.T) {
	s, _ := paperService(t, Config{
		MaxBatch: 8,
		MaxWait:  20 * time.Millisecond,
		Engine:   batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
	})
	var wg sync.WaitGroup
	wg.Add(2)
	var goodCount int64
	var badErr error
	go func() {
		defer wg.Done()
		r, err := s.Submit(context.Background(), "", query.Query{S: 0, T: 11, K: 5}, false)
		if err != nil {
			t.Error(err)
			return
		}
		goodCount = r.Count
	}()
	go func() {
		defer wg.Done()
		_, badErr = s.Submit(context.Background(), "", query.Query{S: 7, T: 7, K: 3}, false)
	}()
	wg.Wait()
	if badErr == nil {
		t.Error("self-loop query accepted")
	}
	if goodCount != 3 {
		t.Errorf("good query got %d paths, want 3", goodCount)
	}
}

// TestContextCancellation: a caller abandoning its future does not wedge
// the batch or the service.
func TestContextCancellation(t *testing.T) {
	s, _, release := pinnedService(t, Config{
		MaxBatch: 64,
		MaxWait:  time.Hour, // held behind the pinned slots: only cancellation can release the caller
		Engine:   batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, "", query.Query{S: 0, T: 11, K: 5}, false); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	release()
	s.Close() // must not deadlock on the abandoned request
}

// TestClose: pending work drains, later submissions are refused, double
// Close is a no-op.
func TestClose(t *testing.T) {
	s, _, release := pinnedService(t, Config{
		MaxWait:      time.Hour, // held behind the pinned slots: dispatch must come from Close itself
		Engine:       batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
		MaxPerCaller: 10, // roomy: only engages the admission counters
	})
	pending := submitAsync(s, "", q0)
	waitQueued(t, s, 1)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	// Close dispatches the held batch beside the pinned ones (MaxInFlight
	// is unlimited), so the future resolves before any slot is released.
	select {
	case <-pending.done:
		if pending.err != nil || pending.reply.Count != 3 {
			t.Fatalf("drained reply (%+v, %v), want clean count 3", pending.reply, pending.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain the pending batch")
	}
	release() // Close also waits for the pinned runners
	<-closed
	s.Close() // idempotent
	if _, err := s.Submit(context.Background(), "", query.Query{S: 0, T: 11, K: 5}, false); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestAnswer: Answer runs one query as a batch of one on its caller's
// goroutine with Submit's validation, admission bookkeeping, Totals
// and errors; a caller whose context fired gets its error.
func TestAnswer(t *testing.T) {
	s, _ := paperService(t, Config{
		Engine:       batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
		MaxPerCaller: 1, // engages the admission counters; Answer must release its seat
	})
	for i := 0; i < 2; i++ {
		r, err := s.Answer(context.Background(), "c", q0, true)
		if err != nil || r.Count != 3 || r.Paths.Len() != 3 || r.Batch.Queries != 1 {
			t.Fatalf("answer %d: reply %+v, err %v; want 3 paths from a batch of one", i, r, err)
		}
	}
	if tot := s.Stats(); tot.Queries != 2 || tot.Batches != 2 {
		t.Errorf("Totals: %d queries in %d batches, want 2 in 2", tot.Queries, tot.Batches)
	}

	bad := query.Query{S: 7, T: 7, K: 3}
	_, wantErr := s.Submit(context.Background(), "", bad, false)
	if _, err := s.Answer(context.Background(), "", bad, false); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("self-loop: Answer %v, Submit %v", err, wantErr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Answer(ctx, "c", q0, false); err != context.Canceled {
		t.Errorf("cancelled answer: err %v, want context.Canceled", err)
	}
	if queued, _ := admissionState(s); queued != 0 || len(s.adm.perCaller) != 0 {
		t.Errorf("admission after answers: %d queued, callers %v; want none", queued, s.adm.perCaller)
	}

	s.Close()
	if _, err := s.Answer(context.Background(), "", q0, false); err != ErrClosed {
		t.Errorf("answer after close: %v, want ErrClosed", err)
	}
}

// TestResultsMatchSequential: a storm of concurrent submissions across
// random batching boundaries returns exactly the sequential engine's
// per-query path sets.
func TestResultsMatchSequential(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	qs := paperQueries()

	want := make([][]string, len(qs))
	for i, q := range qs {
		cs := query.NewCollectSink(1)
		if _, err := batchenum.Run(g, gr, []query.Query{q}, batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4}, nil, cs); err != nil {
			t.Fatal(err)
		}
		for _, p := range cs.Paths[0] {
			want[i] = append(want[i], pathKey(p))
		}
		sort.Strings(want[i])
	}

	s := New(g, gr, Config{
		MaxBatch: 3, // force several partial batches per round
		MaxWait:  time.Millisecond,
		Engine:   batchenum.Options{Algorithm: batchenum.BatchPlus, Gamma: 0.8, Workers: 4},
	})
	defer s.Close()
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		for i, q := range qs {
			wg.Add(1)
			go func(i int, q query.Query) {
				defer wg.Done()
				r, err := s.Submit(context.Background(), "", q, true)
				if err != nil {
					t.Error(err)
					return
				}
				var got []string
				r.Paths.Each(func(p []graph.VertexID) {
					got = append(got, pathKey(p))
				})
				sort.Strings(got)
				if len(got) != len(want[i]) {
					t.Errorf("query %d: %d paths, want %d", i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("query %d path %d: %s, want %s", i, j, got[j], want[i][j])
						return
					}
				}
			}(i, q)
		}
		wg.Wait()
	}
}

func pathKey(p []graph.VertexID) string {
	b := make([]byte, 0, len(p)*3)
	for _, v := range p {
		b = append(b, byte(v), '.')
	}
	return string(b)
}

// TestCrossBatchIndexCache: by default a service shares one index cache
// across micro-batches, so repeating the same query in later batches
// hits it; with a negative IndexCacheBytes every batch is all misses.
func TestCrossBatchIndexCache(t *testing.T) {
	q := query.Query{S: 0, T: 11, K: 5}
	submit := func(s *Service) BatchStats {
		r, err := s.Submit(context.Background(), "", q, false)
		if err != nil {
			t.Fatal(err)
		}
		return r.Batch
	}

	s, _ := paperService(t, Config{
		MaxWait: time.Millisecond,
		Engine:  batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
	})
	first := submit(s)
	if first.IndexHits != 0 || first.IndexMisses != 2 {
		t.Errorf("first batch: %d hits / %d misses, want 0/2", first.IndexHits, first.IndexMisses)
	}
	second := submit(s)
	if second.IndexHits != 2 || second.IndexMisses != 0 {
		t.Errorf("second batch: %d hits / %d misses, want 2/0", second.IndexHits, second.IndexMisses)
	}
	tot := s.Stats()
	if tot.IndexHits != 2 || tot.IndexMisses != 2 {
		t.Errorf("totals: %d hits / %d misses, want 2/2", tot.IndexHits, tot.IndexMisses)
	}
	if tot.IndexCacheBytes == 0 {
		t.Error("cache bytes not reported")
	}
	if r := tot.IndexHitRatio(); r != 0.5 {
		t.Errorf("hit ratio %.2f, want 0.50", r)
	}

	cold, _ := paperService(t, Config{
		MaxWait:         time.Millisecond,
		Engine:          batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
		IndexCacheBytes: -1,
	})
	submit(cold)
	if b := submit(cold); b.IndexHits != 0 || b.IndexMisses != 2 {
		t.Errorf("uncached repeat batch: %d hits / %d misses, want 0/2", b.IndexHits, b.IndexMisses)
	}
}

// TestDurableServiceRoundTrip: a service opened with a DataDir
// persists updates across Close/Open, reports durability counters in
// its totals, and recovers the exact store state.
func TestDurableServiceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		MaxWait: time.Millisecond,
		Engine:  batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
		DataDir: dir,
		Fsync:   store.FsyncOff,
	}
	g := testgraphs.Paper()
	s, err := Open(g, g.Reverse(), cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.ApplyUpdates([]graph.Edge{{Src: 0, Dst: 9}}, []graph.Edge{{Src: 0, Dst: 1}}); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	want := s.State()
	tot := s.Stats()
	if tot.WALRecords != 1 || tot.Epoch != 1 {
		t.Fatalf("pre-close totals: %+v", tot)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen with a nil graph: the data directory alone restores state.
	s2, err := Open(nil, nil, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.State(); got != want {
		t.Fatalf("recovered state %+v, want %+v", got, want)
	}
	tot = s2.Stats()
	if tot.WALRecords != 1 || tot.Epoch != 1 || tot.SnapshotEpoch != 0 {
		t.Fatalf("post-reopen totals: %+v", tot)
	}

	// The recovered graph serves queries and reflects the update: the
	// added 0→9 edge joins the paper graph's existing (0,4,9) path.
	r, err := s2.Submit(context.Background(), "", query.Query{S: 0, T: 9, K: 2}, true)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if r.Count != 2 {
		t.Fatalf("query on recovered graph: count %d, want 2 (direct edge + (0,4,9))", r.Count)
	}
}
