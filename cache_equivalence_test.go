package hcpath

// Equivalence under caching: engines running through the cached/pooled
// index providers must return exactly the cold builder's per-query
// result sets — for all four algorithms, across the testgraphs corpus,
// on cold, warm, widened (a cached Cap=8 entry serving k=5 through
// threshold filtering) and eviction-thrashed passes, and from
// concurrent batches sharing one cache. `go test -race` over this file
// exercises the cache's pin/evict/recycle machinery.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/query"
)

// runWith answers the corpus case with the given provider and returns
// canonicalised per-query path sets.
func runWith(t *testing.T, c corpusCase, gr *graph.Graph, alg Algorithm, provider hcindex.Provider) [][]string {
	t.Helper()
	sink := query.NewCollectSink(len(c.qs))
	opts := batchenum.Options{Algorithm: alg.internal(), Gamma: 0.8, Provider: provider}
	if _, err := batchenum.Run(c.g, gr, c.qs, opts, nil, sink); err != nil {
		t.Fatalf("%s/%v: %v", c.name, alg, err)
	}
	return canonical(sink.Paths)
}

// TestCachedProviderMatchesColdBuilder is the caching equivalence
// property of the provider refactor.
func TestCachedProviderMatchesColdBuilder(t *testing.T) {
	algorithms := []Algorithm{BatchEnumPlus, BatchEnum, BasicEnumPlus, BasicEnum}
	for _, c := range equivalenceCorpus() {
		gr := c.g.Reverse()
		for _, alg := range algorithms {
			label := fmt.Sprintf("%s/%v", c.name, alg)
			want := runWith(t, c, gr, alg, nil) // cold free-function build

			// Pooled cold builder, twice: the second pass runs on
			// recycled, sparsely-reset arrays.
			pooled := hcindex.NewBuilder(true)
			for _, pass := range []string{"cold", "recycled"} {
				for i, got := range runWith(t, c, gr, alg, pooled) {
					diffQuery(t, label+"/pooled-"+pass, i, want[i], got)
				}
			}

			// Shared cache, twice: cold fill then all-hit pass.
			cache := hcindex.NewCache(0)
			for _, pass := range []string{"cold", "warm"} {
				for i, got := range runWith(t, c, gr, alg, cache) {
					diffQuery(t, label+"/cached-"+pass, i, want[i], got)
				}
			}

			// Pathological budget: every entry is evicted the moment its
			// batch releases it.
			tiny := hcindex.NewCache(1)
			for i, got := range runWith(t, c, gr, alg, tiny) {
				diffQuery(t, label+"/cached-tiny", i, want[i], got)
			}
		}
	}
}

// TestCacheWideningMatchesCold warms the cache with Cap = k+3 variants
// of every corpus query, then answers the original k queries: every
// probe is served from a wider entry via threshold filtering, and the
// result sets must still match the cold builder exactly.
func TestCacheWideningMatchesCold(t *testing.T) {
	for _, c := range equivalenceCorpus() {
		gr := c.g.Reverse()
		for _, alg := range []Algorithm{BatchEnumPlus, BasicEnum} {
			label := fmt.Sprintf("%s/%v", c.name, alg)
			wide := make([]query.Query, len(c.qs))
			for i, q := range c.qs {
				wide[i] = query.Query{S: q.S, T: q.T, K: q.K + 3}
			}
			cache := hcindex.NewCache(0)
			wq, err := query.Batch(c.g, wide)
			if err != nil {
				t.Fatal(err)
			}
			cache.Acquire(c.g, gr, 0, wq).Release()

			want := runWith(t, c, gr, alg, nil)
			for i, got := range runWith(t, c, gr, alg, cache) {
				diffQuery(t, label+"/widened", i, want[i], got)
			}
			st := cache.Stats()
			if st.Widened == 0 {
				t.Errorf("%s: widened pass recorded no widened hits (%+v)", label, st)
			}
		}
	}
}

// TestConcurrentBatchesShareCache runs many concurrent batches of the
// paper's running example through one cache (the service's deployment
// shape) and checks every batch's results against the cold builder.
func TestConcurrentBatchesShareCache(t *testing.T) {
	corpus := equivalenceCorpus()
	c := corpus[0] // paper graph
	gr := c.g.Reverse()
	want := runWith(t, c, gr, BatchEnumPlus, nil)
	cache := hcindex.NewCache(0)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				sink := query.NewCollectSink(len(c.qs))
				opts := batchenum.Options{Algorithm: batchenum.BatchPlus, Gamma: 0.8, Provider: cache}
				if _, err := batchenum.Run(c.g, gr, c.qs, opts, nil, sink); err != nil {
					t.Error(err)
					return
				}
				for i, got := range canonical(sink.Paths) {
					diffQuery(t, "concurrent", i, want[i], got)
				}
			}
		}()
	}
	wg.Wait()
}
