// Package query defines the HC-s-t path query type shared by every
// engine in the repository, plus result sinks that decouple enumeration
// from result handling (collection, counting, streaming).
package query

import (
	"fmt"

	"repro/internal/graph"
)

// Query is a hop-constrained s-t simple path enumeration query q(s,t,k):
// report every simple path from S to T with at most K hops.
type Query struct {
	ID int // position within the batch; engines report results by ID
	S  graph.VertexID
	T  graph.VertexID
	K  uint8
}

// FwdBudget is the forward-half hop budget ⌈k/2⌉ used by the
// bidirectional strategy (§III of the paper). Written as k/2 + k%2 so
// the uint8 arithmetic cannot overflow at k = 255.
func (q Query) FwdBudget() uint8 { return q.K/2 + q.K%2 }

// BwdBudget is the backward-half hop budget ⌊k/2⌋.
func (q Query) BwdBudget() uint8 { return q.K / 2 }

// String renders the query as in the paper, e.g. "q3(v4, v14, 4)".
func (q Query) String() string {
	return fmt.Sprintf("q%d(v%d, v%d, %d)", q.ID, q.S, q.T, q.K)
}

// Validate reports whether the query is well-formed for graph g.
func (q Query) Validate(g *graph.Graph) error {
	return q.ValidateN(graph.VertexID(g.NumVertices()))
}

// ValidateN is Validate against a bare vertex count, for callers — the
// remote sharded coordinator — that know the cluster's vertex space but
// hold no local graph. The two produce identical errors, so validation
// failures read the same whether a deployment is local or remote.
func (q Query) ValidateN(n graph.VertexID) error {
	if q.S >= n {
		return fmt.Errorf("query %s: source out of range (n=%d)", q, n)
	}
	if q.T >= n {
		return fmt.Errorf("query %s: target out of range (n=%d)", q, n)
	}
	if q.S == q.T {
		return fmt.Errorf("query %s: source equals target", q)
	}
	if q.K == 0 {
		return fmt.Errorf("query %s: hop constraint must be positive", q)
	}
	return nil
}

// Batch assigns sequential IDs to a set of queries, as the engines
// require, and validates each against g.
func Batch(g *graph.Graph, qs []Query) ([]Query, error) {
	out := make([]Query, len(qs))
	for i, q := range qs {
		q.ID = i
		if err := q.Validate(g); err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// Sink receives enumerated HC-s-t paths. Emit is called once per result
// path of a class of queries — the batch IDs in ids, lead first — with
// the full vertex sequence from S to T: the path is a result of every
// query in ids, and the sink takes it once for each of them. The batch
// engines answer copies of one query once, as one class; any other
// query is a class of one. Both slices are only valid during the
// call and must be copied to be retained, and Emit must not write into
// either: a class's IDs and path are shared with the engine.
//
// One query's emissions never overlap: an engine enumerates each query
// on one goroutine at a time. Emissions of different queries may run
// concurrently, so a sink that shares state across queries must guard
// it itself; state kept per query needs no lock.
type Sink interface {
	Emit(ids []int, path []graph.VertexID)
}

// cacheLine is the padding unit for per-query state that concurrent
// workers write once per emitted path: two queries' counters on one
// line would make every emission on one core invalidate the other's.
const cacheLine = 64

// paddedCount is one query's counter on a cache line of its own.
type paddedCount struct {
	n int64
	_ [cacheLine - 8]byte
}

// CountSink counts results per query without retaining paths — the mode
// used by the benchmark harness, since path counts grow exponentially
// with k (Exp-7). Each query's counter sits on its own cache line, so
// queries emitting concurrently do not contend.
type CountSink struct {
	counts []paddedCount
}

// NewCountSink returns a CountSink for a batch of n queries.
func NewCountSink(n int) *CountSink { return &CountSink{counts: make([]paddedCount, n)} }

// Emit implements Sink.
//
//hcpath:noalloc
func (c *CountSink) Emit(ids []int, _ []graph.VertexID) {
	for _, id := range ids {
		c.counts[id].n++
	}
}

// Counts returns a copy of the per-query counts, indexed by query ID;
// read it after the run has returned.
func (c *CountSink) Counts() []int64 {
	out := make([]int64, len(c.counts))
	for i := range c.counts {
		out[i] = c.counts[i].n
	}
	return out
}

// Total returns the sum of all per-query counts.
func (c *CountSink) Total() int64 {
	var t int64
	for i := range c.counts {
		t += c.counts[i].n
	}
	return t
}

// CollectSink materialises every result path, grouped by query. Intended
// for tests and small workloads.
type CollectSink struct {
	Paths [][][]graph.VertexID
}

// NewCollectSink returns a CollectSink for a batch of n queries.
func NewCollectSink(n int) *CollectSink {
	return &CollectSink{Paths: make([][][]graph.VertexID, n)}
}

// Emit implements Sink; it gives every query of the class its own copy
// of the path.
func (c *CollectSink) Emit(ids []int, path []graph.VertexID) {
	for _, id := range ids {
		cp := make([]graph.VertexID, len(path))
		copy(cp, path)
		c.Paths[id] = append(c.Paths[id], cp)
	}
}

// FuncSink adapts a function to the Sink interface; the function takes
// each class whole, under Emit's rules.
type FuncSink func(ids []int, path []graph.VertexID)

// Emit implements Sink.
//
//hcpath:noalloc
func (f FuncSink) Emit(ids []int, path []graph.VertexID) { f(ids, path) }
