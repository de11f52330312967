package par

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// errStopDeploy is a distinctive cancel cause for the tests below.
var errStopDeploy = errors.New("deploy window closed")

// TestRetryCancelMidBackoffSleep pins the satellite contract: a context
// cancelled while Retry is sleeping between attempts is honoured promptly
// (well before the backoff delay elapses) and surfaces context.Cause.
func TestRetryCancelMidBackoffSleep(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	attemptStarted := make(chan struct{}, 8)
	fail := errors.New("transient")
	bo := Backoff{Base: time.Hour} // sleeps forever unless cancel interrupts

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Retry(ctx, 0, 3, bo, func() error {
			attemptStarted <- struct{}{}
			return fail
		})
		done <- err
	}()

	<-attemptStarted // first attempt failed; Retry is now in sleep(1h)
	time.Sleep(5 * time.Millisecond)
	cancel(errStopDeploy)

	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancel honoured after %v; want promptly", elapsed)
		}
		if !errors.Is(err, errStopDeploy) {
			t.Fatalf("Retry = %v, want the cancel cause errStopDeploy", err)
		}
		if errors.Is(err, fail) {
			t.Fatalf("Retry returned the attempt error %v, want the cancel cause", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Retry still sleeping 10s after cancel")
	}
}

// TestRetryCancelBeforeSleep: a context already cancelled when the backoff
// sleep starts returns the cause without waiting at all.
func TestRetryCancelBeforeSleep(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errStopDeploy)
	start := time.Now()
	attempts, err := Retry(ctx, 0, 5, Backoff{Base: time.Hour}, func() error {
		t.Error("fn ran under an already-cancelled context")
		return errors.New("transient")
	})
	if time.Since(start) > time.Minute {
		t.Fatalf("took %v; want immediate return", time.Since(start))
	}
	if attempts != 0 {
		t.Fatalf("attempts = %d, want 0 (no attempt after cancel)", attempts)
	}
	if !errors.Is(err, errStopDeploy) {
		t.Fatalf("err = %v, want cancel cause", err)
	}
}

// TestSleepPlainCancelIsContextCanceled: with no explicit cause,
// context.Cause degrades to context.Canceled, so existing errors.Is
// call sites keep working.
func TestSleepPlainCancelIsContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleep = %v, want context.Canceled", err)
	}
}

// TestSleepDeadlineCause: a deadline-expired context surfaces
// context.DeadlineExceeded through Cause.
func TestSleepDeadlineCause(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	if err := sleep(ctx, time.Hour); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sleep = %v, want context.DeadlineExceeded", err)
	}
}

// TestForEachBackoffUndispatchedCause: tasks never dispatched after a
// cancellation are marked with the cancel cause, not bare context.Canceled.
func TestForEachBackoffUndispatchedCause(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errStopDeploy)
	errs := mapErr(ctx, 2, 8, 0, func(i int) error {
		t.Errorf("task %d ran under a cancelled context", i)
		return nil
	})
	if len(errs) != 8 {
		t.Fatalf("got %d task errors, want 8", len(errs))
	}
	for _, te := range errs {
		if !errors.Is(te.Err, errStopDeploy) {
			t.Fatalf("task %d err = %v, want cancel cause", te.Index, te.Err)
		}
	}
}

func armPlane(t *testing.T, rules ...faultinject.Rule) *faultinject.Plane {
	t.Helper()
	pl := faultinject.NewPlane(7, rules...)
	if err := pl.Arm(); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	t.Cleanup(faultinject.Disarm)
	return pl
}

// TestInjectedAttemptFailureIsRetried: an injected par.attempt error burns
// one attempt and the next one succeeds.
func TestInjectedAttemptFailureIsRetried(t *testing.T) {
	armPlane(t, faultinject.Rule{Point: faultinject.ParAttempt})
	var calls int
	attempts, err := Retry(context.Background(), 0, 2, Backoff{}, func() error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v, want nil", err)
	}
	if attempts != 2 || calls != 1 {
		t.Fatalf("attempts = %d (want 2), fn calls = %d (want 1: first attempt consumed by injection)", attempts, calls)
	}
}

// TestInjectedAttemptPanicIsRecovered: an injected panic is recovered into
// a *PanicError like any organic panic, and retry still wins through.
func TestInjectedAttemptPanicIsRecovered(t *testing.T) {
	armPlane(t, faultinject.Rule{Point: faultinject.ParAttempt, Panic: true, Times: 3})

	attempts, err := Retry(context.Background(), 0, 1, Backoff{}, func() error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Retry = %v (attempts %d), want *PanicError after exhausting budget", err, attempts)
	}

	// One trip left; this time the retry budget outlasts the injection.
	attempts, err = Retry(context.Background(), 0, 1, Backoff{}, func() error { return nil })
	if err != nil || attempts != 2 {
		t.Fatalf("Retry = %v, attempts %d; want success on attempt 2", err, attempts)
	}
}

// TestInjectedTaskStall: par.task Delay stalls the task but does not fail
// it; results are unchanged.
func TestInjectedTaskStall(t *testing.T) {
	armPlane(t, faultinject.Rule{Point: faultinject.ParTask, Delay: 10 * time.Millisecond, Times: 2})
	start := time.Now()
	errs := mapErr(context.Background(), 2, 4, 0, func(i int) error { return nil })
	if len(errs) != 0 {
		t.Fatalf("errs = %v, want none (stall only delays)", errs)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatalf("fan-out finished in %v; stall did not apply", time.Since(start))
	}
}
