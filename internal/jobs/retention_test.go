package jobs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestGCJobsProtectsNumericHighWater: job IDs grow past six digits, so the
// high-water job is the numerically largest ID, not the lexically largest.
// A store holding j999999 and j1000000 must keep j1000000 through a GC that
// ages both out, and a reopened store must never mint an ID twice.
func TestGCJobsProtectsNumericHighWater(t *testing.T) {
	root := t.TempDir()
	st, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(StateCanceled, 0, "canceled"); err != nil {
		t.Fatal(err)
	}
	// Job directories carry their ID only in their name.
	if err := os.Rename(j.Dir(), filepath.Join(root, "j999999")); err != nil {
		t.Fatal(err)
	}

	st, err = Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	minted := map[string]bool{"j999999": true}
	top, err := st.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if top.ID != "j1000000" {
		t.Fatalf("job after j999999 is %s, want j1000000", top.ID)
	}
	minted[top.ID] = true
	if _, err := top.Append(StateCanceled, 0, "canceled"); err != nil {
		t.Fatal(err)
	}
	if ids := jobIDs(st.List()); len(ids) != 2 || ids[0] != "j999999" || ids[1] != "j1000000" {
		t.Fatalf("List order = %v, want [j999999 j1000000]", ids)
	}

	time.Sleep(time.Millisecond)
	if _, err := st.GCJobs(time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(top.Dir()); err != nil {
		t.Fatalf("high-water job j1000000 deleted by gc: %v", err)
	}

	st, err = Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	next, err := st.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if minted[next.ID] {
		t.Fatalf("reopened store minted %s a second time", next.ID)
	}
}

func jobIDs(js []*Job) []string {
	ids := make([]string, len(js))
	for i, j := range js {
		ids[i] = j.ID
	}
	return ids
}
