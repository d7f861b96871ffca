package service

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

// replyPaths copies a reply's paths out in the oracle's order.
func replyPaths(rep *Reply) [][]graph.VertexID {
	var got [][]graph.VertexID
	rep.Paths.Each(func(p []graph.VertexID) { got = append(got, slices.Clone(p)) })
	oracle.SortPaths(got)
	return got
}

// TestSettledReplyIsExactSize: a reply's arrays are copied out of the
// staging store at their final size, on Submit's route and on Answer's;
// a count-only reply carries none.
func TestSettledReplyIsExactSize(t *testing.T) {
	g := testgraphs.CompleteDAG(12)
	s := New(g, g.Reverse(), Config{Engine: batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 2}})
	defer s.Close()
	q := query.Query{S: 0, T: 11, K: 6} // 638 paths
	for _, route := range []string{"Submit", "Answer"} {
		for _, collect := range []bool{true, false} {
			answer := s.Submit
			if route == "Answer" {
				answer = s.Answer
			}
			rep, err := answer(context.Background(), "", q, collect)
			if err != nil {
				t.Fatal(err)
			}
			verts, offs := rep.Paths.Raw()
			if !collect {
				if verts != nil || offs != nil || rep.Count != 638 {
					t.Errorf("%s count-only: %d paths counted, arrays of %d and %d; want 638 and none", route, rep.Count, len(verts), len(offs))
				}
				continue
			}
			if rep.Paths.Len() != 638 || int64(rep.Paths.Len()) != rep.Count {
				t.Fatalf("%s: %d paths, count %d; want 638", route, rep.Paths.Len(), rep.Count)
			}
			if cap(verts) != len(verts) || cap(offs) != len(offs) {
				t.Errorf("%s: vertex array len %d cap %d, offsets len %d cap %d; want cap == len",
					route, len(verts), cap(verts), len(offs), cap(offs))
			}
		}
	}
}

// TestStagedRepliesNeverLeak: replies that callers keep stay exactly
// what their batches emitted, oracle paths each once, while later
// batches recycle the staging stores they were copied from. First,
// batches on a second service, which shares the staging pool, are cut
// short by its QueryTimeout until three have left a partly filled
// store behind (the Control reads the clock itself, so this needs no
// second P). Then concurrent callers query, some abandoning futures
// whose batches still run, while Answer runs are cancelled through
// their contexts. Last, a batch fails systemically. A store recycled
// without being emptied shows as extra paths in a later reply, a reply
// that aliases its store as paths overwritten by a later batch.
func TestStagedRepliesNeverLeak(t *testing.T) {
	g := testgraphs.CompleteDAG(16)
	engine := batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 2}
	s := New(g, g.Reverse(), Config{MaxBatch: 4, Engine: engine})
	defer s.Close()
	var qs []query.Query
	for _, src := range []graph.VertexID{0, 1, 2} {
		for _, dst := range []graph.VertexID{13, 15} {
			for _, k := range []uint8{2, 4, 6} {
				qs = append(qs, query.Query{S: src, T: dst, K: k})
			}
		}
	}
	big := query.Query{S: 0, T: 15, K: 9} // 12 911 paths
	want := map[query.Query][][]graph.VertexID{}
	for _, q := range append(qs, big) {
		want[q] = oracle.Paths(g, q)
	}

	type kept struct {
		q   query.Query
		rep *Reply
	}
	var mu sync.Mutex
	var replies []kept
	keep := func(q query.Query, rep *Reply) {
		mu.Lock()
		replies = append(replies, kept{q, rep})
		mu.Unlock()
	}

	partial := 0
	for d := 20 * time.Microsecond; partial < 3 && d < time.Second; d += d / 4 {
		timed := New(g, g.Reverse(), Config{QueryTimeout: d, Engine: engine})
		rep, err := timed.Answer(context.Background(), "", big, true)
		timed.Close()
		if err != nil {
			t.Fatal(err)
		}
		keep(big, rep)
		if rep.Err == nil {
			break // the whole run now fits the deadline
		}
		if rep.Count > 0 {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no batch was cut short after its first emission")
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := qs[(7*c+i)%len(qs)]
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%5 == 4 {
					// Abandons the future, most often while its batch runs.
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
				}
				rep, err := s.Submit(ctx, "", q, true)
				cancel()
				switch {
				case err == nil:
					keep(q, rep)
				case !errors.Is(err, context.DeadlineExceeded):
					t.Error(err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			// Cancels the run, most often after its first emissions.
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(200*(i+1))*time.Microsecond)
			rep, err := s.Answer(ctx, "", big, true)
			cancel()
			switch {
			case err == nil:
				keep(big, rep)
			case !errors.Is(err, context.DeadlineExceeded):
				t.Error(err)
			}
		}
	}()
	wg.Wait()

	// An out-of-range vertex fails the whole batch (Submit and Answer
	// would have refused it): every caller gets the error and no paths,
	// and the batch hands its staging stores back.
	failing := []*request{{q: qs[5]}, {q: query.Query{S: 0, T: 99, K: 3}}, {q: big}}
	for _, r := range failing {
		r.collect, r.enqueued, r.done = true, time.Now(), make(chan error, 1)
	}
	s.runBatch(context.Background(), failing)
	for i, r := range failing {
		if err := <-r.done; err == nil {
			t.Errorf("failed batch: request %d resolved without an error", i)
		}
		if r.stage != nil || r.reply.Paths.Len() != 0 {
			t.Errorf("failed batch: request %d kept its staging store or received %d paths", i, r.reply.Paths.Len())
		}
	}
	for _, q := range qs {
		rep, err := s.Submit(context.Background(), "", q, true)
		if err != nil {
			t.Fatal(err)
		}
		keep(q, rep)
	}

	for i, k := range replies {
		got := replyPaths(k.rep)
		if k.rep.Count != int64(len(got)) || !isSubset(got, want[k.q]) || k.rep.Err == nil && len(got) != len(want[k.q]) {
			t.Fatalf("kept reply %d (%v, err %v): %d paths counted, %d held; want that many distinct oracle paths, all %d when complete",
				i, k.q, k.rep.Err, k.rep.Count, len(got), len(want[k.q]))
		}
	}
	t.Logf("%d kept replies match the oracle; %d batches cut short first", len(replies), partial)
}

// isSubset reports whether got, sorted as oracle.SortPaths sorts, holds
// distinct paths of want, sorted alike.
func isSubset(got, want [][]graph.VertexID) bool {
	j := 0
	for _, p := range got {
		for j < len(want) && !slices.Equal(want[j], p) {
			j++
		}
		if j == len(want) {
			return false
		}
		j++
	}
	return true
}
