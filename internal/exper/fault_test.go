package exper

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/par"
)

// faultInjector panics on every attempt of one specific task id while
// recording how often each id was attempted.
type faultInjector struct {
	mu     sync.Mutex
	target string
	seen   map[string]int
}

func newFaultInjector(target string) *faultInjector {
	return &faultInjector{target: target, seen: map[string]int{}}
}

func (f *faultInjector) hook(id string) {
	f.mu.Lock()
	f.seen[id]++
	n := f.seen[id]
	f.mu.Unlock()
	if id == f.target {
		panic("injected fault in " + id + " attempt " + string(rune('0'+n)))
	}
}

func (f *faultInjector) attempts(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[id]
}

// TestTable3PanickingTrialIsRetriedAndIsolated is the acceptance scenario:
// one deliberately panicking experiment task is retried with the same seed,
// then reported per-task, while every sibling trial completes and the table
// still aggregates in index order.
func TestTable3PanickingTrialIsRetriedAndIsolated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := tiny()
		cfg.Trials = 2
		cfg.Circuits = []string{"i3", "i2"}
		cfg.Workers = workers
		inj := newFaultInjector("table3 i2 trial 1")
		cfg.TaskHook = inj.hook

		rows, err := Table3(cfg)
		if err == nil {
			t.Fatalf("workers=%d: injected panic not reported", workers)
		}
		var pe *par.PanicError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "injected fault") {
			t.Fatalf("workers=%d: error %v does not surface the panic", workers, err)
		}
		var te *par.TaskError
		if !errors.As(err, &te) || te.Attempts != 2 {
			t.Fatalf("workers=%d: failed task not reported with retry count: %v", workers, err)
		}
		if got := inj.attempts("table3 i2 trial 1"); got != 2 {
			t.Fatalf("workers=%d: faulty task attempted %d times, want 2 (retry with same seed)", workers, got)
		}
		// Siblings all ran exactly once and still aggregate.
		for _, id := range []string{"table3 i3 trial 0", "table3 i3 trial 1", "table3 i2 trial 0"} {
			if got := inj.attempts(id); got != 1 {
				t.Fatalf("workers=%d: sibling %q ran %d times, want 1", workers, id, got)
			}
		}
		if len(rows) != 2 {
			t.Fatalf("workers=%d: %d rows, want both circuits: %+v", workers, len(rows), rows)
		}
		if rows[0].Circuit != "i3" || rows[0].Trials != 2 {
			t.Fatalf("workers=%d: untouched circuit degraded: %+v", workers, rows[0])
		}
		if rows[1].Circuit != "i2" || rows[1].Trials != 1 {
			t.Fatalf("workers=%d: faulty circuit should average its 1 surviving trial: %+v", workers, rows[1])
		}
	}
}

// TestTable3RetryRecoversTransientPanic pins the bounded-retry upside: a
// task that panics only on its first attempt succeeds on the retry and the
// experiment finishes with no error and full trial counts.
func TestTable3RetryRecoversTransientPanic(t *testing.T) {
	cfg := tiny()
	cfg.Trials = 2
	var once sync.Once
	cfg.TaskHook = func(id string) {
		if id == "table3 i3 trial 0" {
			tripped := false
			once.Do(func() { tripped = true })
			if tripped {
				panic("transient")
			}
		}
	}
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatalf("transient panic not recovered: %v", err)
	}
	if len(rows) != 1 || rows[0].Trials != 2 {
		t.Fatalf("rows = %+v, want full trial count after recovery", rows)
	}
}

// TestTable4PanickingCircuitOmitted checks per-circuit isolation in Table 4:
// the panicking circuit's row is dropped, siblings keep theirs.
func TestTable4PanickingCircuitOmitted(t *testing.T) {
	cfg := tiny()
	cfg.Circuits = []string{"i3", "i2"}
	inj := newFaultInjector("table4 i2")
	cfg.TaskHook = inj.hook
	rows, err := Table4(cfg)
	if err == nil {
		t.Fatal("injected panic not reported")
	}
	if len(rows) != 1 || rows[0].Circuit != "i3" {
		t.Fatalf("rows = %+v, want only the surviving circuit", rows)
	}
	if got := inj.attempts("table4 i2"); got != 2 {
		t.Fatalf("faulty circuit attempted %d times, want 2", got)
	}
}

// TestRetriesDisabled checks Retries < 0 gives a single attempt.
func TestRetriesDisabled(t *testing.T) {
	cfg := tiny()
	cfg.Retries = -1
	inj := newFaultInjector("table3 i3 trial 0")
	cfg.TaskHook = inj.hook
	_, err := Table3(cfg)
	if err == nil {
		t.Fatal("injected panic not reported")
	}
	if got := inj.attempts("table3 i3 trial 0"); got != 1 {
		t.Fatalf("task attempted %d times with retries disabled, want 1", got)
	}
}

// TestTable3CancellationAggregatesCompleted pins cancellation semantics at
// the experiment level: cancelling mid-grid surfaces context.Canceled and
// never retries the cancellation.
func TestTable3CancellationAggregatesCompleted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := tiny()
	cfg.Trials = 2
	cfg.Circuits = []string{"i3", "i2"}
	cfg.Workers = 1
	cfg.Ctx = ctx
	cfg.TaskHook = func(id string) {
		if id == "table3 i2 trial 0" {
			cancel()
		}
	}
	_, err := Table3(cfg)
	if err == nil {
		t.Fatal("cancellation not reported")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// experiment returns the Experiments entry with the given id.
func experiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range Experiments {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no experiment %q", id)
	return Experiment{}
}

// TestPerCircuitStudiesIsolateFaults: refine and eqn22 run one task per
// circuit on perCircuit, so a circuit that keeps panicking is retried, then
// left out of the output while its sibling still prints.
func TestPerCircuitStudiesIsolateFaults(t *testing.T) {
	for _, tc := range []struct{ id, good, bad string }{
		{"refine", "circuit i3:", "circuit i2:"},
		{"eqn22", "i3: ", "i2: "},
	} {
		t.Run(tc.id, func(t *testing.T) {
			cfg := tiny()
			cfg.Circuits = []string{"i3", "i2"}
			cfg.Workers = 2
			inj := newFaultInjector(tc.id + " i2")
			cfg.TaskHook = inj.hook
			var sb strings.Builder
			err := experiment(t, tc.id).Run(cfg, &sb)
			var te *par.TaskError
			if !errors.As(err, &te) || te.Attempts != 2 {
				t.Fatalf("error %v does not report the failed circuit after its retry", err)
			}
			if got := inj.attempts(tc.id + " i3"); got != 1 {
				t.Fatalf("sibling ran %d times, want 1", got)
			}
			out := sb.String()
			if !strings.Contains(out, tc.good) || strings.Contains(out, tc.bad) {
				t.Fatalf("output should hold only the surviving circuit:\n%s", out)
			}
		})
	}
}

// TestExperimentsUnique: every experiment has a distinct id, a title and
// a Run, and none is named "all" (twexp's select-everything id).
func TestExperimentsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.ID == "all" || seen[e.ID] || e.Title == "" || e.Run == nil {
			t.Fatalf("bad or duplicate experiment %+v", e)
		}
		seen[e.ID] = true
	}
}
