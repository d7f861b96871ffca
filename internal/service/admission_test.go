package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batchenum"
	"repro/internal/query"
)

// admissionState reads the admission counters white-box; the boundary
// tests spin on them instead of sleeping, which keeps every assertion
// deterministic under the race detector. It reads under the closing
// write lock, which no Submit holds between taking its queue seat and
// handing its request to the collector: every query counted as queued
// is in the collector's hands (its batch or the submit buffer), so the
// next dispatch is sure to carry it.
func admissionState(s *Service) (queued int, shed int64) {
	s.closing.Lock()
	defer s.closing.Unlock()
	s.adm.mu.Lock()
	defer s.adm.mu.Unlock()
	return s.adm.queued, s.adm.shed
}

// pinnedService starts a paper-graph service from cfg with every idle
// batch slot occupied, so the collector holds whatever is submitted next
// instead of dispatching it the moment it arrives. The pin is a gate in
// front of cfg.OnBatch: one warm query per idle slot is answered, and
// its runner then parks in (or, behind the callback mutex, before) the
// gated callback with its slot still held, because a slot returns only
// when runBatch does. releaseOne lets exactly one parked runner finish;
// release opens the gate for good (also run at cleanup, before Close).
// Each warm query is its own batch of one under caller "warm": it counts
// in Totals and reaches cfg.OnBatch once released.
func pinnedService(t *testing.T, cfg Config) (s *Service, releaseOne, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	releaseOne = func() { gate <- struct{}{} }
	onBatch := cfg.OnBatch
	cfg.OnBatch = func(b BatchStats) {
		<-gate
		if onBatch != nil {
			onBatch(b)
		}
	}
	s, _ = paperService(t, cfg)
	t.Cleanup(release) // cleanups run last-in first-out: the gate opens before paperService's Close
	for i := 0; i < s.idle; i++ {
		r, err := s.Submit(context.Background(), "warm", q0, false)
		if err != nil || r.Batch.Queries != 1 {
			t.Fatalf("warm query %d: reply %+v, err %v; want a clean batch of one", i, r, err)
		}
	}
	if got := int(s.running.Load()); got != s.idle {
		t.Fatalf("%d batches pinned, want all %d idle slots", got, s.idle)
	}
	return s, releaseOne, release
}

// waitQueued spins until exactly n admitted queries are in the
// collector's hands, undispatched.
func waitQueued(t *testing.T, s *Service, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d queries held by the collector", n), func() bool {
		queued, _ := admissionState(s)
		return queued == n
	})
}

// waitUntil spins until cond holds or the test deadline budget runs out.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// submission is one async Submit with its eventual outcome.
type submission struct {
	reply *Reply
	err   error
	done  chan struct{}
}

func submitAsync(s *Service, caller string, q query.Query) *submission {
	sub := &submission{done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		sub.reply, sub.err = s.Submit(context.Background(), caller, q, false)
	}()
	return sub
}

// q0 is the paper graph's q0(v0, v11, 5), ground-truth count 3.
var q0 = query.Query{S: 0, T: 11, K: 5}

// TestMaxQueuedBoundaries drives a burst of submissions into a service
// whose collector cannot dispatch yet (every idle slot pinned, MaxWait
// out of reach), at the MaxQueued boundaries 0 (unlimited), 1, and
// exact capacity. The shed count is
// exact, every shed error is ErrOverloaded, and — the no-poisoning
// contract — every admitted query still resolves with its full
// ground-truth result even when its burst siblings were shed at the
// same admission gate.
func TestMaxQueuedBoundaries(t *testing.T) {
	const burst = 8
	cases := []struct {
		name      string
		maxQueued int
		wantShed  int
	}{
		{"unlimited", 0, 0},
		{"one", 1, burst - 1},
		{"exact-capacity", burst, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				MaxBatch:  64,
				MaxWait:   time.Hour, // dispatch only on release
				Engine:    batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
				MaxQueued: tc.maxQueued,
				// A per-caller quota far above the burst keeps the
				// admission bookkeeping engaged even at MaxQueued 0, so
				// the unlimited row exercises "configured but roomy"
				// rather than skipping admission entirely.
				MaxPerCaller: 10 * burst,
			}
			s, _, release := pinnedService(t, cfg)

			subs := make([]*submission, burst)
			for i := range subs {
				subs[i] = submitAsync(s, "", q0)
			}
			// Every submission has either taken a queue seat or been shed
			// once queued+shed reaches the burst size; nothing dispatches
			// before the release.
			waitUntil(t, "burst fully admitted or shed", func() bool {
				queued, shed := admissionState(s)
				return queued+int(shed) == burst
			})
			if _, shed := admissionState(s); int(shed) != tc.wantShed {
				t.Fatalf("shed %d submissions, want %d", shed, tc.wantShed)
			}

			release() // a slot frees: the held batch leaves, all futures resolve
			var okCount, shedCount int
			for i, sub := range subs {
				<-sub.done
				switch {
				case sub.err == nil:
					okCount++
					if sub.reply.Count != 3 {
						t.Errorf("submission %d: count %d, want 3", i, sub.reply.Count)
					}
				case errors.Is(sub.err, ErrOverloaded):
					shedCount++
				default:
					t.Errorf("submission %d: unexpected error %v", i, sub.err)
				}
			}
			if shedCount != tc.wantShed || okCount != burst-tc.wantShed {
				t.Fatalf("resolved %d ok / %d shed, want %d / %d",
					okCount, shedCount, burst-tc.wantShed, tc.wantShed)
			}
			if got := s.Stats().Shed; got != int64(tc.wantShed) {
				t.Errorf("Totals.Shed = %d, want %d", got, tc.wantShed)
			}
		})
	}
}

// TestMaxInFlightBoundaries pins an exact number of batches in flight —
// the first OnBatch callback blocks, and a blocked callback holds its
// batch's in-flight slot because the slot releases only when runBatch
// returns (later completed batches chain behind it on the callback
// mutex, each holding its own slot) — then checks the hard bound at
// MaxInFlight 0 (unlimited), 1, and exact capacity: whether a following
// full batch (MaxBatch 1) dispatches beside the pinned ones (draining
// the queue) or waits for a slot however old it gets (leaving the queue
// full, so a further submission sheds). It counts its pins itself
// rather than use pinnedService, because the bound, unlike the idle
// slots, must not depend on the machine's core count.
func TestMaxInFlightBoundaries(t *testing.T) {
	cases := []struct {
		name        string
		maxInFlight int
		warm        int // batches resolved and then pinned in flight
		wantShed    bool
	}{
		{"unlimited", 0, 1, false},
		{"one", 1, 1, true},
		{"exact-capacity", 2, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			first := true
			cfg := Config{
				MaxBatch:    1, // every submission is its own batch
				MaxWait:     time.Millisecond,
				Engine:      batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
				MaxInFlight: tc.maxInFlight,
				MaxQueued:   1,
				OnBatch: func(BatchStats) {
					if first {
						first = false // OnBatch calls are serialised; no race
						<-release
					}
				},
			}
			s, _ := paperService(t, cfg)
			defer func() {
				select {
				case <-release:
				default:
					close(release)
				}
			}()

			// Warm batches: each resolves its caller, then its runBatch
			// goroutine parks in (or behind) the blocked callback with
			// its slot held. Receiving the reply before submitting the
			// next proves the service had a free slot for each.
			for i := 0; i < tc.warm; i++ {
				sub := submitAsync(s, "", q0)
				<-sub.done
				if sub.err != nil {
					t.Fatalf("warm batch %d: %v", i, sub.err)
				}
			}

			// The probe query takes the single queue seat. With a free
			// slot it dispatches immediately (queue drains); with all
			// slots pinned it stays queued.
			probe := submitAsync(s, "", q0)
			if tc.wantShed {
				waitQueued(t, s, 1)
				if _, err := s.Submit(context.Background(), "", q0, false); !errors.Is(err, ErrOverloaded) {
					t.Fatalf("overflow submission returned %v, want ErrOverloaded", err)
				}
			} else {
				// No in-flight bound: the probe's batch dispatches and
				// resolves even while the pinned batch blocks its callback
				// (futures resolve before OnBatch), the queue seat frees,
				// and a further submission is admitted.
				<-probe.done
				if probe.err != nil {
					t.Fatalf("probe shed on unlimited in-flight: %v", probe.err)
				}
				extra := submitAsync(s, "", q0)
				<-extra.done
				if extra.err != nil {
					t.Fatalf("post-probe submission shed on unlimited in-flight: %v", extra.err)
				}
			}

			close(release) // unpin; the probe's batch may now run
			<-probe.done
			if probe.err != nil || probe.reply.Count != 3 {
				t.Fatalf("probe resolved (%v, count %v), want clean count 3",
					probe.err, probe.reply)
			}
			wantShed := int64(0)
			if tc.wantShed {
				wantShed = 1
			}
			if got := s.Stats().Shed; got != wantShed {
				t.Errorf("Totals.Shed = %d, want %d", got, wantShed)
			}
		})
	}
}

// TestFairnessQuotaStopsStarvation: a hostile caller flooding the
// service hits its MaxPerCaller quota and is shed, while a victim
// caller arriving afterwards — with the queue already carrying the
// hostile caller's full quota — is still admitted and answered. Without
// the quota the hostile flood would have filled MaxQueued and starved
// the victim outright.
func TestFairnessQuotaStopsStarvation(t *testing.T) {
	const quota = 2
	s, _, release := pinnedService(t, Config{
		MaxBatch:     64,
		MaxWait:      time.Hour, // dispatch only on release
		Engine:       batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: 4},
		MaxQueued:    quota + 1, // room for the quota plus one victim
		MaxPerCaller: quota,
	})

	var hostile []*submission
	for i := 0; i < 6; i++ {
		hostile = append(hostile, submitAsync(s, "hostile", q0))
	}
	waitUntil(t, "hostile flood settled", func() bool {
		queued, shed := admissionState(s)
		return queued == quota && int(shed) == len(hostile)-quota
	})

	victim := submitAsync(s, "victim", q0)
	waitQueued(t, s, quota+1)

	release()
	<-victim.done
	if victim.err != nil || victim.reply.Count != 3 {
		t.Fatalf("victim starved: err=%v reply=%+v", victim.err, victim.reply)
	}
	admitted, shed := 0, 0
	for _, sub := range hostile {
		<-sub.done
		switch {
		case sub.err == nil:
			admitted++
			if sub.reply.Count != 3 {
				t.Errorf("admitted hostile query answered %d paths, want 3", sub.reply.Count)
			}
		case errors.Is(sub.err, ErrOverloaded):
			shed++
			// The quota names the caller in the wrapped message so an
			// operator can see who is being shed.
			if !strings.Contains(sub.err.Error(), `"hostile"`) {
				t.Errorf("shed error does not name the caller: %v", sub.err)
			}
		default:
			t.Errorf("hostile submission: unexpected error %v", sub.err)
		}
	}
	if admitted != quota || shed != len(hostile)-quota {
		t.Fatalf("hostile flood resolved %d admitted / %d shed, want %d / %d",
			admitted, shed, quota, len(hostile)-quota)
	}
}
