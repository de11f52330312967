// Package par provides the bounded worker pool behind every parallel path
// in the reproduction: the multi-start Stage 1 harness (place.RunStage1N)
// and the experiment drivers (internal/exper Tables 3–4 and the figure
// sweeps).
//
// Determinism contract: the pool only distributes index-addressed work. Each
// task must derive its own seed from its index and write only to its own
// result slot; aggregation then happens serially in index order, so outputs
// are byte-identical for any worker count — including workers == 1, the
// fully serial reference path. Retries rerun a task with the same index and
// hence the same index-derived seed.
//
// Fault isolation: MapRetry confines a panicking or failing task to its own
// slot. The task is retried immediately up to a bounded number of times,
// then reported as a structured TaskError; sibling tasks always run to
// completion, so one bad (circuit, trial) cannot sink a whole experiment
// fan-out. Cancelling the context stops dispatch of not-yet-started tasks
// (in-flight tasks observe the context themselves) and records the cancel
// cause for every task that never ran. Retry is the single-task form with
// a Backoff schedule between attempts; the job service (internal/jobs)
// calls it directly for each job attempt.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// DefaultRetries is the per-task retry budget used by callers that do not
// choose their own: one retry, i.e. at most two attempts per task.
const DefaultRetries = 1

// poolStats counts pool activity process-wide, for the telemetry layer.
// The counters are observe-only (nothing in the pool reads them back), so
// they cannot perturb the determinism contract; each is a single atomic add
// per task, negligible against task granularity (whole annealing trials).
var poolStats struct {
	started, done, retries, panics atomic.Int64
	active, maxActive              atomic.Int64
}

// PoolStats is a snapshot of process-wide worker-pool activity: utilization
// raw material for the telemetry metrics registry.
type PoolStats struct {
	// TasksStarted and TasksDone count task attempts begun and finished.
	TasksStarted, TasksDone int64
	// Retries counts re-attempts after a failed or panicking attempt.
	Retries int64
	// Panics counts attempts that ended in a recovered panic.
	Panics int64
	// MaxConcurrent is the high-water mark of simultaneously running tasks.
	MaxConcurrent int64
}

// Stats returns a snapshot of the process-wide pool counters.
func Stats() PoolStats {
	return PoolStats{
		TasksStarted:  poolStats.started.Load(),
		TasksDone:     poolStats.done.Load(),
		Retries:       poolStats.retries.Load(),
		Panics:        poolStats.panics.Load(),
		MaxConcurrent: poolStats.maxActive.Load(),
	}
}

// countTask brackets one task execution in the pool counters.
func countTask(task func()) {
	poolStats.started.Add(1)
	a := poolStats.active.Add(1)
	for {
		m := poolStats.maxActive.Load()
		if a <= m || poolStats.maxActive.CompareAndSwap(m, a) {
			break
		}
	}
	defer func() {
		poolStats.active.Add(-1)
		poolStats.done.Add(1)
	}()
	// Chaos injection: par.task honours only Delay (slow/stalled worker).
	// Errors and panics belong at par.attempt, inside the recovery wrapper;
	// an unrecovered panic here would kill the process, which is the
	// subprocess chaos mode's job, not this one's.
	if f := faultinject.Check(faultinject.ParTask); f != nil && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	task()
}

// Workers resolves a requested worker count: values <= 0 select
// GOMAXPROCS, everything else passes through.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError wraps a recovered panic value and the stack at the panic site
// so a task panic can travel as an ordinary error.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// TaskError reports one failed task of a fan-out: its index, the number of
// attempts made (0 if the task was never dispatched because the context was
// already cancelled), and the error of the final attempt.
type TaskError struct {
	Index    int
	Attempts int
	Err      error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("task %d failed after %d attempt(s): %v", e.Index, e.Attempts, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// Join folds a TaskError slice into a single error: nil when the slice is
// empty, otherwise an error aggregating every per-task failure (compatible
// with errors.Is/As via errors.Join).
func Join(tes []TaskError) error {
	if len(tes) == 0 {
		return nil
	}
	errs := make([]error, len(tes))
	for i := range tes {
		te := tes[i]
		errs[i] = &te
	}
	return fmt.Errorf("par: %d of fan-out tasks failed: %w", len(tes), errors.Join(errs...))
}

// ForEach invokes fn(i) for every i in [0, n), distributing indices over at
// most Workers(workers) goroutines. It returns when all calls complete. A
// panic in any task is re-raised in the caller after the pool drains, so
// failures surface exactly as in the serial loop. New code that wants fault
// isolation instead of propagation should use MapRetry.
//
// fn must be safe to call concurrently with itself and must confine writes
// to per-index state (see the package determinism contract).
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var (
		panMu sync.Mutex
		pan   any
	)
	pool(workers, n, func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panMu.Lock()
				if pan == nil {
					pan = r
				}
				panMu.Unlock()
			}
		}()
		fn(i)
	})
	if pan != nil {
		panic(pan)
	}
}

// pool runs task(i) for every i in [0, n) on at most Workers(workers)
// goroutines and returns when all complete. task must not panic.
func pool(workers, n int, task func(i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			countTask(func() { task(i) })
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				countTask(func() { task(i) })
			}
		}()
	}
	wg.Wait()
}

// MapRetry runs fn(i) for every i in [0, n) on the pool with per-task panic
// recovery and bounded retry, storing each successful result in index
// order. A task whose attempt panics or returns a non-nil error is rerun
// immediately, up to retries more times (same index, hence the same
// index-derived seed); if every attempt fails it is reported as a TaskError
// and its slot keeps the zero value. Sibling tasks are unaffected, so
// callers can aggregate partial output deterministically. Cancellation
// errors (the task returned ctx.Err(), or the context is done) are never
// retried; once ctx is cancelled, tasks that have not started are skipped
// and reported with Attempts == 0 and Err == context.Cause(ctx).
//
// The TaskError slice is sorted by task index (empty means every task
// succeeded); fold it with Join when a single error value is needed, or
// index it with Failed.
func MapRetry[T any](ctx context.Context, workers, n, retries int, fn func(i int) (T, error)) ([]T, []TaskError) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	errs := make([]error, n)
	attempts := make([]int, n)
	pool(workers, n, func(i int) {
		if ctx.Err() != nil {
			errs[i] = context.Cause(ctx)
			return
		}
		attempts[i], errs[i] = Retry(ctx, i, retries, Backoff{}, func() error {
			v, err := fn(i)
			if err == nil {
				out[i] = v
			}
			return err
		})
	})
	var tes []TaskError
	for i, err := range errs {
		if err != nil {
			tes = append(tes, TaskError{Index: i, Attempts: attempts[i], Err: err})
		}
	}
	return out, tes
}

// Failed maps the index of each failed task to its *TaskError, for callers
// that walk MapRetry's results in index order and skip the failed slots.
func Failed(tes []TaskError) map[int]error {
	m := make(map[int]error, len(tes))
	for i := range tes {
		te := tes[i]
		m[te.Index] = &te
	}
	return m
}
