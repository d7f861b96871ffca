package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/batchenum"
)

// The four events that make the collector dispatch — an idle slot, a
// slot coming free, MaxWait running out, Close — each in isolation. Every
// test but the first pins the idle slots (pinnedService) and puts MaxWait
// out of reach unless MaxWait is the trigger under test, so exactly one
// trigger can fire.

// TestDispatchIdle: with a slot idle, a lone query leaves at once as a
// batch of one, however long MaxWait is.
func TestDispatchIdle(t *testing.T) {
	s, _ := paperService(t, Config{
		MaxWait: time.Hour,
		Engine:  batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
	})
	r, err := s.Submit(context.Background(), "", q0, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 3 || r.Batch.Queries != 1 {
		t.Fatalf("count %d in a batch of %d, want 3 in a batch of 1", r.Count, r.Batch.Queries)
	}
	// First enqueue → dispatch is a channel hand-off and a goroutine
	// start: microseconds. A second is the slack a loaded race-detector
	// run needs, and still far from any MaxWait.
	t.Logf("idle-path WaitNanos = %v", time.Duration(r.Batch.WaitNanos))
	if r.Batch.WaitNanos <= 0 || r.Batch.WaitNanos >= int64(time.Second) {
		t.Errorf("idle-path WaitNanos = %v, want a positive sub-second hand-off time", time.Duration(r.Batch.WaitNanos))
	}
}

// TestDispatchSlotFree: a burst that arrives while every slot is busy is
// held as one forming batch, and a single slot coming free sends all of
// it — one batch, with the sharing the paper queries offer.
func TestDispatchSlotFree(t *testing.T) {
	qs := paperQueries()
	s, releaseOne, _ := pinnedService(t, Config{
		MaxBatch:     16,
		MaxWait:      time.Hour,
		Engine:       batchenum.Options{Algorithm: batchenum.BatchPlus, Gamma: 0.8, Workers: 4},
		MaxPerCaller: 10 * len(qs), // roomy: only engages the admission counters
	})
	subs := make([]*submission, len(qs))
	for i, q := range qs {
		subs[i] = submitAsync(s, "", q)
	}
	waitQueued(t, s, len(qs))
	if got := s.Stats().Batches; got != int64(s.idle) {
		t.Fatalf("%d batches dispatched with every slot pinned, want only the %d warm ones", got, s.idle)
	}

	releaseOne()
	for i, sub := range subs {
		<-sub.done
		if sub.err != nil {
			t.Fatalf("query %d: %v", i, sub.err)
		}
		if sub.reply.Count != paperCounts[i] {
			t.Errorf("query %d: count %d, want %d", i, sub.reply.Count, paperCounts[i])
		}
		if b := sub.reply.Batch; b.Queries != len(qs) || b.SharingRatio() <= 0 {
			t.Errorf("query %d rode a batch of %d with sharing ratio %v, want all %d sharing",
				i, b.Queries, b.SharingRatio(), len(qs))
		}
	}
	if got := s.Stats().Batches; got != int64(s.idle)+1 {
		t.Errorf("%d batches in total, want the %d warm ones plus one", got, s.idle)
	}
}

// TestDispatchMaxWaitBound: slots pinned and never released. Without a
// MaxInFlight bound the held batch leaves when it is MaxWait old — one
// stuck batch per core cannot hold later traffic hostage. With every
// idle slot also the last MaxInFlight allows, it does not, however old:
// it stays queued and MaxQueued sheds behind it.
func TestDispatchMaxWaitBound(t *testing.T) {
	const maxWait = 20 * time.Millisecond
	t.Run("unlimited", func(t *testing.T) {
		s, _, _ := pinnedService(t, Config{
			MaxBatch: 64,
			MaxWait:  maxWait,
			Engine:   batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
		})
		r, err := s.Submit(context.Background(), "", q0, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.Count != 3 || r.Batch.Queries != 1 {
			t.Fatalf("count %d in a batch of %d, want 3 in a batch of 1", r.Count, r.Batch.Queries)
		}
		// Only the timer can have sent it, so it waited MaxWait out.
		if r.Batch.WaitNanos < int64(maxWait) {
			t.Errorf("held batch left after %v, before MaxWait %v", time.Duration(r.Batch.WaitNanos), maxWait)
		}
	})
	t.Run("at-max-in-flight", func(t *testing.T) {
		s, _, release := pinnedService(t, Config{
			MaxBatch:    64,
			MaxWait:     maxWait,
			Engine:      batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
			MaxInFlight: runtime.GOMAXPROCS(0), // every idle slot, and no more
			MaxQueued:   1,
		})
		probe := submitAsync(s, "", q0)
		waitQueued(t, s, 1)
		// Not synchronisation: the clock has to pass MaxWait for the
		// timer to have had its chance. Every assertion below holds on a
		// correct collector however long or short this really sleeps.
		time.Sleep(3 * maxWait)
		if queued, _ := admissionState(s); queued != 1 {
			t.Fatalf("queue holds %d after MaxWait at the MaxInFlight bound, want the probe still held", queued)
		}
		if _, err := s.Submit(context.Background(), "", q0, false); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("overflow submission returned %v, want ErrOverloaded", err)
		}
		release()
		<-probe.done
		if probe.err != nil || probe.reply.Count != 3 {
			t.Fatalf("probe resolved (%+v, %v), want clean count 3", probe.reply, probe.err)
		}
		if got := s.Stats().Shed; got != 1 {
			t.Errorf("Totals.Shed = %d, want 1", got)
		}
	})
}

// TestDispatchCloseDrainsHeldBatch: Close with a batch held behind busy
// slots sends it and resolves every future — at once when MaxInFlight
// leaves room beside the pinned batches, after a slot frees when it
// does not.
func TestDispatchCloseDrainsHeldBatch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxInFlight int
	}{
		{"unlimited", 0},
		{"at-max-in-flight", runtime.GOMAXPROCS(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qs := paperQueries()
			s, _, release := pinnedService(t, Config{
				MaxBatch:     16,
				MaxWait:      time.Hour,
				Engine:       batchenum.Options{Algorithm: batchenum.BatchPlus, Gamma: 0.8, Workers: 4},
				MaxInFlight:  tc.maxInFlight,
				MaxPerCaller: 10 * len(qs), // roomy: only engages the admission counters
			})
			subs := make([]*submission, len(qs))
			for i, q := range qs {
				subs[i] = submitAsync(s, "", q)
			}
			waitQueued(t, s, len(qs))
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				s.Close()
			}()
			if tc.maxInFlight > 0 {
				// At the bound Close has to wait for a slot like any other
				// dispatch: nothing may resolve until one is released.
				waitUntil(t, "Close under way", func() bool {
					s.closing.RLock()
					defer s.closing.RUnlock()
					return s.closed
				})
				for i, sub := range subs {
					select {
					case <-sub.done:
						t.Fatalf("query %d resolved during Close with every MaxInFlight slot still pinned", i)
					default:
					}
				}
				release()
			}
			for i, sub := range subs {
				<-sub.done
				if sub.err != nil {
					t.Fatalf("query %d: %v", i, sub.err)
				}
				if sub.reply.Count != paperCounts[i] || sub.reply.Batch.Queries != len(qs) {
					t.Errorf("query %d: count %d in a batch of %d, want %d in the one batch of %d",
						i, sub.reply.Count, sub.reply.Batch.Queries, paperCounts[i], len(qs))
				}
			}
			release() // Close also waits for the pinned runners
			<-closed
		})
	}
}
