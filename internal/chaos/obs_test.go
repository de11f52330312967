package chaos

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestChaosNodeTimelines closes the observability loop on the multi-node
// chaos harness. RunNode itself already fails a schedule on any twobs
// error finding (verifyCold); this test adds completeness: after a full
// armed-churn-then-heal run, the analyzer must reconstruct, from the cold
// store files alone, a timeline for every job that interleaves journal
// and span records and closes with a terminal interval.
func TestChaosNodeTimelines(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos run skipped in -short mode")
	}
	dir := t.TempDir() // pin Dir so RunNode keeps the stores for analysis
	rep, err := RunNode(Options{
		Schedules: 2,
		Seed:      13,
		Dir:       dir,
		Logf:      t.Logf,
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("chaos contract violated, timelines not meaningful: %s", rep.Summary())
	}

	for i := 0; i < 2; i++ {
		sched := filepath.Join(dir, fmt.Sprintf("n%03d", i))
		report, err := obs.Analyze([]string{sched})
		if err != nil {
			t.Fatalf("schedule %d: %v", i, err)
		}
		if report.JobCount == 0 {
			t.Fatalf("schedule %d: no jobs reconstructed from %s", i, sched)
		}
		// Completeness: every reconstructed job must interleave journal and
		// span records — a journal-only timeline means span emission silently
		// died somewhere in the fleet path.
		for _, jt := range report.Jobs {
			kinds := map[string]int{}
			for _, ev := range jt.Events {
				kinds[ev.Kind]++
			}
			if kinds["journal"] == 0 || kinds["span"] == 0 {
				t.Errorf("schedule %d: %s: incomplete timeline (journal=%d span=%d claim=%d)",
					i, jt.Job, kinds["journal"], kinds["span"], kinds["claim"])
			}
			if jt.State == "" || !jt.Finished.After(jt.Submitted) {
				t.Errorf("schedule %d: %s: no terminal interval reconstructed (state=%q)", i, jt.Job, jt.State)
			}
		}
	}
}
