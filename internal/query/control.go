package query

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrLimitReached marks a query whose result set was cut short because
// its per-query emission budget (Control limit) was exhausted while more
// paths remained. It is reported per query through Control.QueryErr — a
// run-level error is reserved for cancellation, since in one batch some
// queries may hit their limit while others complete in full.
var ErrLimitReached = errors.New("query: result limit reached")

// PollInterval is the recommended number of DFS expansion steps between
// Control.Cancelled checks in enumeration hot loops: frequent enough
// that a cancelled query unwinds in microseconds, rare enough that the
// check (one atomic load plus a channel select) stays invisible next to
// the expansion work. It is a power of two so loops can test
// steps&(PollInterval-1) == 0 instead of dividing.
const PollInterval = 256

// stop reasons latched by Cancelled.
const (
	running int32 = iota
	stopCtx
	stopDeadline
)

// qstate tracks one query's emission budget. Each query is owned by
// exactly one enumeration goroutine at a time (an engine's task owns
// its queries until it ends and hands them on), so the fields are
// plain; cross-goroutine reads only happen after the run's completion
// barrier. Allow writes `emitted` once per path, so each query's state
// fills a cache line of its own: neighbours on one line would make
// concurrent queries' emissions invalidate each other.
type qstate struct {
	emitted  int64
	limitHit bool // an emission was refused: more paths existed than emitted
	complete bool // the engine finished this query deliberately
	_        [cacheLine - 16]byte
}

// Control threads cooperative cancellation and per-query result budgets
// from a caller's context into the enumeration hot loops. One Control
// governs one batch run and is shared by every worker of that run:
// Cancelled is safe to call concurrently (the stop decision is latched
// atomically), while the per-query budget methods follow the engines'
// single-owner discipline — only the goroutine currently enumerating a
// query touches that query's state.
//
// A nil *Control is valid everywhere and means "run to completion":
// every method has a nil fast path, so engines thread the pointer
// unconditionally and uncontrolled runs pay one nil check per poll.
type Control struct {
	done     <-chan struct{}
	ctxErr   func() error
	deadline time.Time
	limit    int64
	reason   atomic.Int32
	qs       []qstate
}

// NewControl builds the Control for a batch of n queries. ctx supplies
// the cancellation signal and its error; deadline, when non-zero, also
// stops the run at that instant (the per-batch deadline a service
// derives from its QueryTimeout, independent of any caller context);
// limit > 0 caps the paths emitted per query. When nothing can stop the
// run — background context, no deadline, no limit — NewControl returns
// nil so the hot loops take only their nil fast path.
func NewControl(ctx context.Context, deadline time.Time, limit int64, n int) *Control {
	var done <-chan struct{}
	var ctxErr func() error
	if ctx != nil {
		done = ctx.Done()
		ctxErr = ctx.Err
	}
	if done == nil && deadline.IsZero() && limit <= 0 {
		return nil
	}
	return &Control{
		done:     done,
		ctxErr:   ctxErr,
		deadline: deadline,
		limit:    limit,
		qs:       make([]qstate, n),
	}
}

// Cancelled reports whether the run must stop: the context fired or the
// deadline passed. The first true answer is latched, so after
// cancellation the check is a single atomic load. Hot loops call this
// every PollInterval expansion steps and unwind immediately on true.
//
//hcpath:noalloc
func (c *Control) Cancelled() bool {
	if c == nil {
		return false
	}
	if c.reason.Load() != running {
		return true
	}
	if c.done != nil {
		select {
		case <-c.done:
			c.reason.CompareAndSwap(running, stopCtx)
			return true
		default:
		}
	}
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		c.reason.CompareAndSwap(running, stopDeadline)
		return true
	}
	return false
}

// Poll is the hot-loop form of Cancelled, shared by every enumeration
// DFS: it increments the caller's step counter and consults Cancelled
// only every PollInterval-th step, latching the answer into *stopped so
// the unwind after cancellation is a single branch. It returns the
// latched value; callers return immediately on true. steps and stopped
// are caller-owned (one pair per goroutine), which keeps Poll free of
// shared mutable state.
//
//hcpath:noalloc
func (c *Control) Poll(steps *int, stopped *bool) bool {
	*steps++
	if *stopped || (*steps&(PollInterval-1) == 0 && c.Cancelled()) {
		*stopped = true
		return true
	}
	return false
}

// Err returns why the run stopped: the context's error, or
// context.DeadlineExceeded for the Control's own deadline. It returns
// nil while the run is live — limit exhaustion is per query, not a run
// error (see ErrLimitReached and QueryErr).
func (c *Control) Err() error {
	if c == nil {
		return nil
	}
	switch c.reason.Load() {
	case stopCtx:
		if c.ctxErr != nil {
			if err := c.ctxErr(); err != nil {
				return err
			}
		}
		return context.Canceled
	case stopDeadline:
		return context.DeadlineExceeded
	}
	return nil
}

// Allow reserves one emission slot for query qid: true means the caller
// must emit the path, false means the limit is exhausted and the path
// must be dropped. The first refusal latches HitLimit, which is how the
// run distinguishes "exactly limit paths existed" (never refused, not
// truncated) from "more paths remained" (refused, truncated) — engines
// therefore stop a query on the first refusal, one probe past the
// limit, rather than at the limit itself.
func (c *Control) Allow(qid int) bool {
	if c == nil || c.limit <= 0 {
		return true
	}
	q := &c.qs[qid]
	if q.emitted >= c.limit {
		q.limitHit = true
		return false
	}
	q.emitted++
	return true
}

// HitLimit reports whether query qid had an emission refused; join and
// output loops test it at each iteration head to stop a satisfied query
// without disturbing its batch siblings.
func (c *Control) HitLimit(qid int) bool {
	return c != nil && c.qs[qid].limitHit
}

// MarkComplete records that the engine finished query qid deliberately
// (full enumeration, or stopped at its limit) — as opposed to being
// abandoned mid-flight by cancellation. Engines call it exactly when a
// query's processing ends without the run being cancelled.
func (c *Control) MarkComplete(qid int) {
	if c != nil {
		c.qs[qid].complete = true
	}
}

// Truncated reports whether query qid's result set is known incomplete:
// its limit refused an emission, or the run was cancelled before the
// engine finished it.
func (c *Control) Truncated(qid int) bool {
	if c == nil {
		return false
	}
	q := &c.qs[qid]
	return q.limitHit || (!q.complete && c.reason.Load() != running)
}

// QueryErr explains query qid's truncation: nil for a complete result
// set, ErrLimitReached when the per-query limit cut it short, or the
// run's cancellation error when the query was abandoned mid-flight. A
// query that finished before the run was cancelled still reports nil —
// its results are whole regardless of how the run ended.
func (c *Control) QueryErr(qid int) error {
	if c == nil {
		return nil
	}
	q := &c.qs[qid]
	if q.limitHit {
		return ErrLimitReached
	}
	if !q.complete && c.reason.Load() != running {
		return c.Err()
	}
	return nil
}

// NumTruncated counts the batch's truncated queries; call it only after
// the run's completion barrier.
func (c *Control) NumTruncated() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.qs {
		if c.Truncated(i) {
			n++
		}
	}
	return n
}
