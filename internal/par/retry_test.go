package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// mapErr runs fn through MapRetry with no result value, returning only the
// task errors. The TestForEachErr* and TestForEachBackoff* tests drive
// MapRetry's error fan-out through it.
func mapErr(ctx context.Context, workers, n, retries int, fn func(i int) error) []TaskError {
	_, tes := MapRetry(ctx, workers, n, retries, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return tes
}

// TestForEachErrRecoversPanicsAndPreservesSiblings is the fault-isolation
// contract: a task that panics on every attempt is reported as a TaskError
// wrapping a PanicError, while all sibling tasks still run.
func TestForEachErrRecoversPanicsAndPreservesSiblings(t *testing.T) {
	for _, w := range []int{1, 8} {
		const n = 100
		var ran [n]atomic.Int32
		tes := mapErr(context.Background(), w, n, 1, func(i int) error {
			ran[i].Add(1)
			if i == 37 {
				panic("boom 37")
			}
			return nil
		})
		if len(tes) != 1 {
			t.Fatalf("workers=%d: %d task errors, want 1: %v", w, len(tes), tes)
		}
		te := tes[0]
		if te.Index != 37 || te.Attempts != 2 {
			t.Fatalf("workers=%d: TaskError = %+v, want index 37 after 2 attempts", w, te)
		}
		var pe *PanicError
		if !errors.As(te.Err, &pe) || pe.Value != "boom 37" {
			t.Fatalf("workers=%d: error %v does not unwrap to the panic", w, te.Err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError carries no stack", w)
		}
		for i := range ran {
			want := int32(1)
			if i == 37 {
				want = 2 // original attempt + one retry
			}
			if got := ran[i].Load(); got != want {
				t.Fatalf("workers=%d: task %d ran %d times, want %d", w, i, got, want)
			}
		}
	}
}

// TestForEachErrRetrySucceeds pins bounded retry: a task that fails once and
// then succeeds produces no TaskError and runs exactly twice.
func TestForEachErrRetrySucceeds(t *testing.T) {
	var attempts atomic.Int32
	tes := mapErr(context.Background(), 4, 10, 1, func(i int) error {
		if i == 3 && attempts.Add(1) == 1 {
			return errors.New("transient")
		}
		return nil
	})
	if len(tes) != 0 {
		t.Fatalf("task errors %v, want none (retry should have succeeded)", tes)
	}
	if attempts.Load() != 2 {
		t.Fatalf("flaky task attempted %d times, want 2", attempts.Load())
	}
}

// TestForEachErrNoRetryBudget verifies retries=0 means a single attempt.
func TestForEachErrNoRetryBudget(t *testing.T) {
	var attempts atomic.Int32
	tes := mapErr(context.Background(), 1, 1, 0, func(i int) error {
		attempts.Add(1)
		return errors.New("always")
	})
	if attempts.Load() != 1 || len(tes) != 1 || tes[0].Attempts != 1 {
		t.Fatalf("attempts=%d tes=%v, want exactly one attempt", attempts.Load(), tes)
	}
}

// TestForEachErrCancellationSkipsAndMarks pins cancellation semantics:
// tasks never dispatched after cancel are reported with Attempts == 0 and
// the context error, and cancellation errors are not retried.
func TestForEachErrCancellationSkipsAndMarks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 50
	var attempts [n]atomic.Int32
	tes := mapErr(ctx, 1, n, 3, func(i int) error {
		attempts[i].Add(1)
		if i == 4 {
			cancel()
			return ctx.Err()
		}
		return nil
	})
	if len(tes) != n-4 {
		t.Fatalf("%d task errors, want %d (task 4 plus the %d undispatched)", len(tes), n-4, n-5)
	}
	for _, te := range tes {
		if !errors.Is(te.Err, context.Canceled) {
			t.Fatalf("task %d error %v, want context.Canceled", te.Index, te.Err)
		}
		switch {
		case te.Index == 4 && te.Attempts != 1:
			t.Fatalf("cancelling task retried: %+v", te)
		case te.Index > 4 && te.Attempts != 0:
			t.Fatalf("undispatched task %d reports %d attempts", te.Index, te.Attempts)
		}
	}
	for i := 5; i < n; i++ {
		if attempts[i].Load() != 0 {
			t.Fatalf("task %d dispatched after cancellation", i)
		}
	}
}

// TestMapRetryPartialResults pins the partial-aggregation contract: failed
// slots hold the zero value, successful slots are valid, and the TaskError
// slice is sorted by index.
func TestMapRetryPartialResults(t *testing.T) {
	out, tes := MapRetry(context.Background(), 4, 10, 0, func(i int) (int, error) {
		if i%3 == 0 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i * 100, nil
	})
	if len(tes) != 4 { // 0, 3, 6, 9
		t.Fatalf("%d task errors, want 4: %v", len(tes), tes)
	}
	for k := 1; k < len(tes); k++ {
		if tes[k].Index <= tes[k-1].Index {
			t.Fatalf("task errors not sorted by index: %v", tes)
		}
	}
	for i, v := range out {
		want := i * 100
		if i%3 == 0 {
			want = 0
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestFailed pins the index lookup: every failed task maps to its own
// *TaskError, and succeeded tasks are absent.
func TestFailed(t *testing.T) {
	_, tes := MapRetry(context.Background(), 2, 6, 0, func(i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	})
	failed := Failed(tes)
	if len(failed) != 3 {
		t.Fatalf("Failed has %d entries, want 3: %v", len(failed), failed)
	}
	for i := 0; i < 6; i++ {
		err := failed[i]
		if i%2 == 0 {
			if err != nil {
				t.Fatalf("succeeded task %d maps to %v", i, err)
			}
			continue
		}
		var te *TaskError
		if !errors.As(err, &te) || te.Index != i || err.Error() != fmt.Sprintf("task %d failed after 1 attempt(s): fail %d", i, i) {
			t.Fatalf("Failed[%d] = %v, want task %d's TaskError", i, err, i)
		}
	}
	if len(Failed(nil)) != 0 {
		t.Fatal("Failed(nil) is not empty")
	}
}

// TestJoin covers the fold: nil for no failures, errors.As-compatible
// aggregate otherwise.
func TestJoin(t *testing.T) {
	if Join(nil) != nil {
		t.Fatal("Join(nil) must be nil")
	}
	err := Join([]TaskError{
		{Index: 2, Attempts: 2, Err: errors.New("x")},
		{Index: 7, Attempts: 1, Err: context.Canceled},
	})
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("joined error %v does not expose TaskError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joined error %v does not expose the underlying cause", err)
	}
	if !strings.Contains(err.Error(), "task 2 failed after 2 attempt(s)") {
		t.Fatalf("joined error %q lacks per-task detail", err)
	}
}
