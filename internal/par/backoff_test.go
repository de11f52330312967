package par

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestBackoffDelaySchedule(t *testing.T) {
	bo := Backoff{Base: 100 * time.Millisecond, Max: 450 * time.Millisecond}
	want := []time.Duration{
		100 * time.Millisecond, // attempt 1
		200 * time.Millisecond, // attempt 2
		400 * time.Millisecond, // attempt 3
		450 * time.Millisecond, // attempt 4 capped
		450 * time.Millisecond, // attempt 5 capped
	}
	for a, w := range want {
		if got := bo.Delay(0, a+1); got != w {
			t.Errorf("Delay(0,%d) = %v, want %v", a+1, got, w)
		}
	}
	if got := bo.Delay(0, 0); got != 0 {
		t.Errorf("Delay(0,0) = %v, want 0", got)
	}
	if got := (Backoff{}).Delay(3, 7); got != 0 {
		t.Errorf("zero Backoff Delay = %v, want 0", got)
	}
}

func TestBackoffDelayNoOverflow(t *testing.T) {
	bo := Backoff{Base: time.Hour}
	for a := 1; a < 128; a++ {
		if d := bo.Delay(0, a); d < 0 {
			t.Fatalf("Delay(0,%d) = %v, overflowed negative", a, d)
		}
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	bo := Backoff{Base: time.Second, Max: time.Minute, Jitter: 0.5, Seed: 42}
	for i := 0; i < 4; i++ {
		for a := 1; a <= 4; a++ {
			d1 := bo.Delay(i, a)
			d2 := bo.Delay(i, a)
			if d1 != d2 {
				t.Fatalf("Delay(%d,%d) not deterministic: %v vs %v", i, a, d1, d2)
			}
			full := Backoff{Base: bo.Base, Max: bo.Max}.Delay(i, a)
			if d1 > full || d1 < time.Duration(float64(full)*(1-bo.Jitter))-1 {
				t.Fatalf("Delay(%d,%d) = %v outside jitter window (full %v, jitter %v)",
					i, a, d1, full, bo.Jitter)
			}
		}
	}
	// Different seeds produce different schedules (overwhelmingly likely).
	other := bo
	other.Seed = 43
	same := 0
	for a := 1; a <= 8; a++ {
		if bo.Delay(0, a) == other.Delay(0, a) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("jitter schedule identical across different seeds")
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	calls := 0
	attempts, err := Retry(context.Background(), 0, 5, Backoff{Base: time.Microsecond}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry failed: %v", err)
	}
	if attempts != 3 || calls != 3 {
		t.Fatalf("attempts = %d, calls = %d, want 3, 3", attempts, calls)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	calls := 0
	attempts, err := Retry(context.Background(), 1, 2, Backoff{}, func() error {
		calls++
		return fmt.Errorf("fail %d", calls)
	})
	if err == nil || err.Error() != "fail 3" {
		t.Fatalf("err = %v, want the final attempt's error", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestRetryRecoversPanics(t *testing.T) {
	calls := 0
	attempts, err := Retry(context.Background(), 0, 1, Backoff{}, func() error {
		calls++
		panic("boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if attempts != 2 || calls != 2 {
		t.Fatalf("attempts = %d, calls = %d, want 2, 2", attempts, calls)
	}
}

func TestRetryHonorsCancellationBetweenAttempts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	// A long backoff that cancellation must interrupt promptly.
	bo := Backoff{Base: time.Hour}
	done := make(chan struct{})
	var attempts int
	var err error
	go func() {
		defer close(done)
		attempts, err = Retry(ctx, 0, 3, bo, func() error {
			calls++
			return errors.New("always fails")
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Retry did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no attempt after cancellation)", calls)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("Retry slept %v through cancellation", elapsed)
	}
}

func TestRetryDoesNotRetryContextErrors(t *testing.T) {
	calls := 0
	attempts, err := Retry(context.Background(), 0, 5, Backoff{}, func() error {
		calls++
		return fmt.Errorf("wrapped: %w", context.DeadlineExceeded)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if calls != 1 || attempts != 1 {
		t.Fatalf("calls = %d attempts = %d, want 1, 1", calls, attempts)
	}
}

func TestForEachErrStillRetriesImmediately(t *testing.T) {
	fails := make([]int, 3)
	start := time.Now()
	tes := mapErr(context.Background(), 1, 3, 3, func(i int) error {
		if fails[i] < 3 {
			fails[i]++
			return errors.New("transient")
		}
		return nil
	})
	if len(tes) != 0 {
		t.Fatalf("task errors: %v", tes)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("zero-backoff retries took %v", elapsed)
	}
}
