package par

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rng"
)

// Backoff describes the delay schedule between retry attempts: bounded
// exponential growth with deterministic jitter. The zero value retries
// immediately, as MapRetry does.
//
// The delay before retry attempt a (a = 1 for the first retry) of task i is
//
//	min(Base·2^(a-1), Max) · (1 − Jitter·u)
//
// where u ∈ [0,1) is drawn from an rng.Source seeded with Seed, i, and a.
// Seeding by (task, attempt) rather than sharing one stream keeps the
// schedule a pure function of the task — independent of worker scheduling —
// so retried fan-outs stay as reproducible as everything else in the pool.
type Backoff struct {
	// Base is the delay before the first retry; 0 disables waiting.
	Base time.Duration
	// Max caps the exponentially growing delay; 0 means no cap.
	Max time.Duration
	// Jitter is the fraction of each delay randomly shaved off, in [0,1]:
	// 0 = fixed schedule, 1 = uniform over (0, delay].
	Jitter float64
	// Seed drives the jitter draws (with the task index and attempt
	// number); equal seeds reproduce the exact schedule.
	Seed uint64
}

// DefaultBackoff is a reasonable schedule for transiently failing jobs:
// 100 ms doubling to a 5 s cap, with half-range jitter.
var DefaultBackoff = Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second, Jitter: 0.5}

// Delay returns the wait before retry attempt a (1-based) of task i.
// Attempts <= 0 and a zero Base yield no delay.
func (b Backoff) Delay(i, a int) time.Duration {
	if b.Base <= 0 || a <= 0 {
		return 0
	}
	d := b.Base
	for k := 1; k < a; k++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
		if d < 0 { // overflow far past any sane Max
			d = b.Max
			if d <= 0 {
				d = 1<<63 - 1
			}
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		src := rng.New(b.Seed ^ uint64(i)<<32 ^ uint64(a))
		d = time.Duration(float64(d) * (1 - j*src.Float64()))
	}
	return d
}

// sleep waits for d or until ctx is cancelled, returning context.Cause(ctx)
// in the latter case — the cancel cause (a deadline sentinel, a drain
// reason) is more useful to the caller than the bare context.Canceled, and
// errors.Is against the plain sentinels still holds for plain cancels. A
// non-positive d returns immediately (but still observes an
// already-cancelled context, so a retry loop never outruns cancellation).
func sleep(ctx context.Context, d time.Duration) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// Retry runs fn up to 1+retries times with bo's delay schedule between
// attempts, treating the call as task index i of a fan-out (the index feeds
// the jitter seed). It returns nil on the first success; a cancellation
// (fn returned a context error, or ctx was cancelled while waiting) is
// returned at once without burning the remaining budget. A panicking attempt
// is recovered into a *PanicError and retried like any other failure. The
// final attempt's error is returned along with the number of attempts made.
func Retry(ctx context.Context, i, retries int, bo Backoff, fn func() error) (attempts int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if retries < 0 {
		retries = 0
	}
	attempt := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				poolStats.panics.Add(1)
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		// Chaos injection: stall, panic, or fail this attempt. The panic
		// lands inside the recover above, exercising the same isolation a
		// real panicking task gets.
		if f := faultinject.Check(faultinject.ParAttempt); f != nil {
			if f.Delay > 0 {
				time.Sleep(f.Delay)
			}
			if f.Panic {
				panic(fmt.Sprintf("faultinject: injected panic at %s", f.Point))
			}
			if f.Err != nil {
				return f.Err
			}
		}
		return fn()
	}
	for a := 0; a <= retries; a++ {
		if a > 0 {
			poolStats.retries.Add(1)
			if werr := sleep(ctx, bo.Delay(i, a)); werr != nil {
				return attempts, werr
			}
		} else if ctx.Err() != nil {
			// Already cancelled on entry: don't burn an attempt.
			return 0, context.Cause(ctx)
		}
		attempts = a + 1
		err = attempt()
		if err == nil {
			return attempts, nil
		}
		if ctx.Err() != nil ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) {
			return attempts, err
		}
	}
	return attempts, err
}
