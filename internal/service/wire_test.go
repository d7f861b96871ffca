package service

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/timing"
	"repro/internal/wirefmt"
)

func TestQueryWireRoundTrip(t *testing.T) {
	in := query.Query{ID: 12345, S: 7, T: 4100000000, K: 9}
	r := wirefmt.NewReader(AppendQueryWire(nil, in))
	got := ReadQueryWire(r)
	if err := r.Close(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
	if got != in {
		t.Fatalf("decoded %+v, want %+v", got, in)
	}
}

func TestErrWireRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   error
		want error // nil means compare by message
	}{
		{"nil", nil, nil},
		{"limit", query.ErrLimitReached, query.ErrLimitReached},
		{"deadline", context.DeadlineExceeded, context.DeadlineExceeded},
		{"canceled", context.Canceled, context.Canceled},
		{"other", errors.New("some engine failure"), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := wirefmt.NewReader(appendErrWire(nil, c.in))
			got := readErrWire(r)
			if err := r.Close(); err != nil {
				t.Fatalf("trailing bytes: %v", err)
			}
			if c.in == nil {
				if got != nil {
					t.Fatalf("decoded %v, want nil", got)
				}
				return
			}
			if c.want != nil {
				if !errors.Is(got, c.want) {
					t.Fatalf("decoded %v, want %v", got, c.want)
				}
				return
			}
			if got.Error() != c.in.Error() {
				t.Fatalf("decoded %q, want %q", got, c.in)
			}
		})
	}
}

func fullBatchStats() BatchStats {
	var ph timing.Breakdown
	ph.Add(timing.BuildIndex, 11)
	ph.Add(timing.ClusterQuery, 22)
	ph.Add(timing.IdentifySubquery, 33)
	ph.Add(timing.Enumeration, 44)
	return BatchStats{
		Queries: 1, Groups: 2, SharedQueries: 3, SplicedPaths: 4, Paths: 5,
		WaitNanos: 6, EnumerateNanos: 7, IndexHits: 8, IndexMisses: 9, Truncated: 10,
		Phases: ph,
	}
}

// TestBatchStatsWireRoundTrip fills every field with a distinct value:
// a codec that drops or reorders a field fails here (and the statsmerge
// directive fails hcpathvet at build time).
func TestBatchStatsWireRoundTrip(t *testing.T) {
	in := fullBatchStats()
	r := wirefmt.NewReader(AppendBatchStatsWire(nil, in))
	got := ReadBatchStatsWire(r)
	if err := r.Close(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
	if got != in {
		t.Fatalf("decoded %+v, want %+v", got, in)
	}
}

func TestReplyWireRoundTrip(t *testing.T) {
	in := &Reply{
		Count:     3,
		Truncated: true,
		Err:       query.ErrLimitReached,
		Batch:     fullBatchStats(),
	}
	want := [][]graph.VertexID{
		{1, 2, 3},
		{1, 9},
		{1, 4, 5, 6, 7},
	}
	for _, p := range want {
		in.Paths.Add(p)
	}
	r := wirefmt.NewReader(AppendReplyWire(nil, in))
	got := ReadReplyWire(r)
	if err := r.Close(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
	if got.Count != in.Count || got.Truncated != in.Truncated || !errors.Is(got.Err, in.Err) || got.Batch != in.Batch {
		t.Fatalf("decoded %+v, want %+v", got, in)
	}
	if got.Paths.Len() != len(want) {
		t.Fatalf("decoded %d paths, want %d", got.Paths.Len(), len(want))
	}
	for i, p := range want {
		if !slices.Equal(got.Paths.Path(i), p) {
			t.Fatalf("path %d: %v vs %v", i, got.Paths.Path(i), p)
		}
	}

	// Count-only mode: no paths on the wire.
	in.Paths = pathjoin.Store{}
	r = wirefmt.NewReader(AppendReplyWire(nil, in))
	got = ReadReplyWire(r)
	if err := r.Close(); err != nil {
		t.Fatalf("count-only: trailing bytes: %v", err)
	}
	if got.Paths.Len() != 0 {
		t.Fatalf("count-only reply decoded %d paths", got.Paths.Len())
	}
}

// TestReplyWireSize holds ReplyWireSize to the length AppendReplyWire
// writes, for every error code (a message longer than a u16 prefix
// can carry is cut to it), with no paths, one and many.
func TestReplyWireSize(t *testing.T) {
	errs := []error{nil, query.ErrLimitReached, context.DeadlineExceeded, context.Canceled,
		errors.New("some engine failure"), errors.New(strings.Repeat("x", 1<<17))}
	for _, err := range errs {
		for _, paths := range []int{0, 1, 300} {
			rep := &Reply{Count: int64(paths), Err: err, Batch: fullBatchStats()}
			for i := 0; i < paths; i++ {
				rep.Paths.Add(make([]graph.VertexID, 1+i%9))
			}
			if got, want := ReplyWireSize(rep), len(AppendReplyWire(nil, rep)); got != want {
				t.Errorf("error %.20v, %d paths: ReplyWireSize %d, encoding %d bytes", err, paths, got, want)
			}
		}
	}
}

// TestReplyWireRejectsAbsurdCounts feeds ReadReplyWire path and hop
// counts exceeding the payload: the reader must end poisoned (caller
// drops the frame), not attempt the allocation.
func TestReplyWireRejectsAbsurdCounts(t *testing.T) {
	in := &Reply{Count: 1}
	enc := AppendReplyWire(nil, in)
	// The path count is the final u32; claim 2^30 paths.
	copy(enc[len(enc)-4:], wirefmt.AppendU32(nil, 1<<30))
	r := wirefmt.NewReader(enc)
	ReadReplyWire(r)
	if r.Err() == nil {
		t.Fatal("absurd path count left the reader clean")
	}

	in.Paths.Add([]graph.VertexID{1, 2})
	enc = AppendReplyWire(nil, in)
	// The hop count is the u16 right after the path count: claim 2^15
	// hops with only 8 bytes of vertices behind it.
	copy(enc[len(enc)-10:], wirefmt.AppendU16(nil, 1<<15))
	r = wirefmt.NewReader(enc)
	ReadReplyWire(r)
	if r.Err() == nil {
		t.Fatal("absurd hop count left the reader clean")
	}
}

// TestTotalsWireRoundTrip fills all 24 fields with distinct values.
func TestTotalsWireRoundTrip(t *testing.T) {
	in := Totals{
		Batches: 1, Queries: 2, LargestBatch: 3, Groups: 4, SharedQueries: 5,
		SplicedPaths: 6, Paths: 7, WaitNanos: 8, EnumerateNanos: 9,
		IndexHits: 10, IndexMisses: 11, IndexWidened: 12, IndexEvictions: 13,
		IndexCacheBytes: 14, Truncated: 15, DeadlineBatches: 16, Epoch: 17,
		UpdatesApplied: 18, Compactions: 19, DeltaEdges: 20, WALRecords: 21,
		Checkpoints: 22, SnapshotEpoch: 23, Shed: 24,
	}
	r := wirefmt.NewReader(AppendTotalsWire(nil, in))
	got := ReadTotalsWire(r)
	if err := r.Close(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
	if got != in {
		t.Fatalf("decoded %+v, want %+v", got, in)
	}
}

// TestPhasesWireOrder pins the wire layout of the four-phase breakdown:
// reordering wirePhases would silently swap phase attributions between
// processes.
func TestPhasesWireOrder(t *testing.T) {
	var b timing.Breakdown
	b.Add(timing.BuildIndex, 1*time.Nanosecond)
	b.Add(timing.ClusterQuery, 2*time.Nanosecond)
	b.Add(timing.IdentifySubquery, 3*time.Nanosecond)
	b.Add(timing.Enumeration, 4*time.Nanosecond)
	enc := appendPhasesWire(nil, b)
	r := wirefmt.NewReader(enc)
	for i, want := range []int64{1, 2, 3, 4} {
		if got := r.I64(); got != want {
			t.Fatalf("phase slot %d carries %d, want %d", i, got, want)
		}
	}
}
