package invariant

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestDisabledFastPath(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() = true after Disable")
	}
	Failf("noop", "must not be recorded")
	if Count() != 0 {
		t.Fatalf("Count() = %d, want 0", Count())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if Enabled() {
			t.Fatal("enabled")
		}
		Failf("noop", "discarded %d", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled Enabled/Failf allocates %.1f per run, want 0", allocs)
	}
}

func TestFailfCountsLogsAndMeters(t *testing.T) {
	var lines []string
	reg := telemetry.NewRegistry()
	Enable(Options{
		Logf:     func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
		Registry: reg,
	})
	defer Disable()

	Failf("jobs.transition", "bad %s", "queued->succeeded")
	Failf("jobs.transition", "again")
	Failf("place.cost", "drift")

	if got := Count(); got != 3 {
		t.Fatalf("Count() = %d, want 3", got)
	}
	if len(lines) != 3 || !strings.Contains(lines[0], "[jobs.transition]") ||
		!strings.Contains(lines[0], "queued->succeeded") {
		t.Fatalf("log lines = %q", lines)
	}
	if got := reg.Counter("invariant.violations").Value(); got != 3 {
		t.Fatalf("invariant.violations = %d, want 3", got)
	}
	if got := reg.Counter("invariant.violation.jobs.transition").Value(); got != 2 {
		t.Fatalf("per-check counter = %d, want 2", got)
	}

	// Re-enabling resets the count.
	Enable(Options{})
	if got := Count(); got != 0 {
		t.Fatalf("Count() after re-Enable = %d, want 0", got)
	}
}
