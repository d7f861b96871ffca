package query

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/graph"
)

func diamond() *graph.Graph {
	return graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 3}, {Src: 2, Dst: 3},
	})
}

func TestBudgets(t *testing.T) {
	cases := []struct {
		k, fwd, bwd uint8
	}{
		{1, 1, 0}, {2, 1, 1}, {3, 2, 1}, {4, 2, 2}, {5, 3, 2}, {7, 4, 3},
	}
	for _, c := range cases {
		q := Query{K: c.k}
		if q.FwdBudget() != c.fwd || q.BwdBudget() != c.bwd {
			t.Errorf("k=%d: budgets (%d,%d), want (%d,%d)",
				c.k, q.FwdBudget(), q.BwdBudget(), c.fwd, c.bwd)
		}
	}
}

// TestBudgetsSumToK is the property the bidirectional split relies on.
func TestBudgetsSumToK(t *testing.T) {
	f := func(k uint8) bool {
		q := Query{K: k}
		return q.FwdBudget()+q.BwdBudget() == k && q.FwdBudget() >= q.BwdBudget()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	q := Query{ID: 3, S: 4, T: 14, K: 4}
	if got := q.String(); got != "q3(v4, v14, 4)" {
		t.Errorf("String() = %q", got)
	}
}

func TestValidate(t *testing.T) {
	g := diamond()
	cases := []struct {
		q  Query
		ok bool
	}{
		{Query{S: 0, T: 3, K: 2}, true},
		{Query{S: 0, T: 0, K: 2}, false}, // s == t
		{Query{S: 9, T: 3, K: 2}, false}, // s out of range
		{Query{S: 0, T: 9, K: 2}, false}, // t out of range
		{Query{S: 0, T: 3, K: 0}, false}, // k == 0
	}
	for i, c := range cases {
		err := c.q.Validate(g)
		if (err == nil) != c.ok {
			t.Errorf("case %d (%v): err=%v, want ok=%v", i, c.q, err, c.ok)
		}
	}
}

func TestBatchAssignsIDs(t *testing.T) {
	g := diamond()
	qs, err := Batch(g, []Query{{S: 0, T: 3, K: 2}, {S: 1, T: 3, K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if q.ID != i {
			t.Errorf("query %d has ID %d", i, q.ID)
		}
	}
	if _, err := Batch(g, []Query{{S: 0, T: 0, K: 2}}); err == nil {
		t.Error("invalid query accepted by Batch")
	}
}

func TestCountSink(t *testing.T) {
	s := NewCountSink(4)
	s.Emit([]int{0}, []graph.VertexID{0, 1})
	s.Emit([]int{2}, []graph.VertexID{0, 1, 2})
	s.Emit([]int{2, 3}, []graph.VertexID{0, 2}) // a class counts once per member
	if c := s.Counts(); c[0] != 1 || c[1] != 0 || c[2] != 2 || c[3] != 1 {
		t.Errorf("counts = %v", c)
	}
	if s.Total() != 4 {
		t.Errorf("total = %d", s.Total())
	}
}

func TestCollectSinkCopies(t *testing.T) {
	s := NewCollectSink(1)
	buf := []graph.VertexID{0, 1, 2}
	s.Emit([]int{0}, buf)
	buf[0] = 99 // mutate the emitted slice; the sink must hold a copy
	if s.Paths[0][0][0] != 0 {
		t.Error("CollectSink retained the caller's slice instead of copying")
	}
}

// TestCollectSinkClassCopies: every member of a class gets the path,
// each in a copy of its own, so editing one member's result leaves the
// others' intact.
func TestCollectSinkClassCopies(t *testing.T) {
	s := NewCollectSink(4)
	buf := []graph.VertexID{0, 1, 2}
	s.Emit([]int{3, 0, 2}, buf)
	buf[0] = 99
	for _, id := range []int{3, 0, 2} {
		if len(s.Paths[id]) != 1 || fmt.Sprint(s.Paths[id][0]) != "[0 1 2]" {
			t.Fatalf("query %d collected %v, want [[0 1 2]]", id, s.Paths[id])
		}
	}
	if len(s.Paths[1]) != 0 {
		t.Errorf("query 1 is no member but collected %v", s.Paths[1])
	}
	s.Paths[3][0][1] = 77
	if s.Paths[0][0][1] != 1 || s.Paths[2][0][1] != 1 {
		t.Error("class members share one copy of the path")
	}
}

func TestFuncSink(t *testing.T) {
	var got string
	FuncSink(func(ids []int, p []graph.VertexID) {
		got = fmt.Sprint(ids, p)
	}).Emit([]int{7, 2}, []graph.VertexID{1, 2})
	if got != "[7 2] [1 2]" {
		t.Errorf("FuncSink saw %q", got)
	}
}

// TestPerQueryStateFillsACacheLine: the state concurrent workers write
// once per emitted path — a Control's per-query budget and a
// CountSink's counter — is one cache line per query, so two queries
// emitting on different cores never write the same line.
func TestPerQueryStateFillsACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(qstate{}); n != cacheLine {
		t.Errorf("qstate is %d bytes, want %d", n, cacheLine)
	}
	if n := unsafe.Sizeof(paddedCount{}); n != cacheLine {
		t.Errorf("paddedCount is %d bytes, want %d", n, cacheLine)
	}
}
