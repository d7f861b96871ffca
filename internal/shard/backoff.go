package shard

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"
)

// Backoff is the retry policy shared by everything in the deployment
// that backs off from ErrOverloaded: replay clients (cmd/hcpath), the
// wire client's connect-time dial loop, and any caller honouring a
// server's retry-after hint. It is exponential with a per-attempt
// ceiling, equal-jittered so synchronized clients desynchronize, and —
// unlike the unbounded loop it replaced — bounded in total: once the
// slept budget is spent the Sleeper refuses loudly instead of retrying
// forever against a service that is not recovering.
type Backoff struct {
	// Base is the first attempt's nominal delay; zero means 1ms.
	Base time.Duration
	// Cap is the per-attempt ceiling the exponential stops at; zero
	// means 64ms.
	Cap time.Duration
	// Total bounds the sum of slept delays; once exceeded Sleep returns
	// ErrBackoffExhausted. Zero means 2s; negative means unbounded
	// (the caller owns termination through its context).
	Total time.Duration
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = time.Millisecond
	}
	if b.Cap <= 0 {
		b.Cap = 64 * time.Millisecond
	}
	if b.Total == 0 {
		b.Total = 2 * time.Second
	}
	return b
}

// ErrBackoffExhausted marks a retry loop that gave up: the policy's
// Total sleep budget was spent and the operation still sheds.
var ErrBackoffExhausted = fmt.Errorf("shard: backoff budget exhausted")

// Start returns a fresh Sleeper applying the policy. Sleepers are not
// safe for concurrent use; start one per retry loop.
func (b Backoff) Start() *Sleeper { return &Sleeper{pol: b.withDefaults()} }

// Sleeper tracks one retry loop's position in its Backoff schedule.
type Sleeper struct {
	pol      Backoff
	attempts int
	slept    time.Duration
}

// Attempts returns the number of completed sleeps.
func (s *Sleeper) Attempts() int { return s.attempts }

// Sleep blocks for the next jittered delay. It returns nil after
// sleeping, ctx.Err() if the context fires first, or an error wrapping
// ErrBackoffExhausted — with the attempt count and budget in the
// message — when the Total budget cannot cover the next delay. A
// positive hint (a server's retry-after) replaces the scheduled delay
// for this attempt without advancing the exponential.
func (s *Sleeper) Sleep(ctx context.Context, hint time.Duration) error {
	d := s.pol.Base << uint(s.attempts)
	if d > s.pol.Cap || d <= 0 { // <= 0: shift overflow
		d = s.pol.Cap
	}
	if hint > 0 {
		d = hint
		if d > s.pol.Cap {
			d = s.pol.Cap
		}
	}
	// Equal jitter: half the delay is deterministic, half uniform, so
	// clients shedding together do not retry together.
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	if s.pol.Total >= 0 && s.slept+d > s.pol.Total {
		return fmt.Errorf("%w after %d attempts (%v slept of %v budget)",
			ErrBackoffExhausted, s.attempts, s.slept.Round(time.Millisecond), s.pol.Total)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
	}
	s.attempts++
	s.slept += d
	return nil
}
