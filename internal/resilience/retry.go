package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// errTransient is the sentinel transient faults wrap: a refused or timed-out
// hook delivery — conditions where retrying after a short backoff is
// expected to succeed.
var errTransient = errors.New("transient")

// Transient marks err as retryable. Retry backs off and re-attempts
// operations whose error IsTransient; everything else fails immediately.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errTransient, err)
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	return errors.Is(err, errTransient)
}

// RetryPolicy shapes the capped exponential backoff applied to transient
// faults. The zero value takes the documented defaults.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries, first included (default 4).
	MaxAttempts int
	// Base is the first backoff (default 1ms); each retry doubles it.
	Base time.Duration
	// Max caps the backoff growth (default 100ms).
	Max time.Duration
	// Jitter is the fraction of each backoff randomized (default 0.25).
	// The jitter stream is seeded, so a retry schedule is reproducible.
	Jitter float64
	// Seed drives the jitter (same seed, same schedule).
	Seed int64
	// Sleep is the delay function (nil = time.Sleep); tests inject a
	// recorder so retry schedules are asserted without real waiting.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.Base <= 0 {
		p.Base = time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 100 * time.Millisecond
	}
	if p.Jitter == 0 {
		p.Jitter = 0.25
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Backoff returns the delay before retry attempt (1-based: attempt 1 is
// the wait after the first failure), jittered by rng deterministically.
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.Base << uint(attempt-1)
	if d > p.Max || d <= 0 {
		d = p.Max
	}
	if p.Jitter > 0 {
		// Spread the final fraction of the delay uniformly so synchronized
		// retries against a shared source fan out.
		j := float64(d) * p.Jitter
		d = time.Duration(float64(d) - j + rng.Float64()*j)
	}
	return d
}

// Run invokes fn until it succeeds, fails permanently, exhausts
// MaxAttempts, or ctx is done. Only errors marked Transient are retried;
// the last error is returned (wrapped with the attempt count when the
// budget ran out). onRetry, when non-nil, observes each backoff — the
// hook runner counts retries into its metrics there.
func (p RetryPolicy) Run(ctx context.Context, op string, fn func() error, onRetry func(attempt int, wait time.Duration)) error {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed)) //mslint:allow nondet seeded local source: the jitter schedule is reproducible by construction
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%s: %w", op, cerr)
		}
		if err = fn(); err == nil || !IsTransient(err) {
			return err
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("%s: %d attempts exhausted: %w", op, attempt, err)
		}
		wait := p.backoff(attempt, rng)
		if onRetry != nil {
			onRetry(attempt, wait)
		}
		p.Sleep(wait)
	}
}
