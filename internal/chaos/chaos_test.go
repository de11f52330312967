package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// TestChaosProperty is the acceptance property: 50 seeded randomized fault
// schedules against the jobs manager, every one terminating with
// byte-identical placements on success paths, explicit reasons or
// quarantines otherwise, and zero invariant violations. `go test -short`
// trims the schedule count for quick iteration; the full 50 run in the
// default suite and under make verify / -race.
func TestChaosProperty(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 12
	}
	reg := telemetry.NewRegistry()
	rep, err := Run(Options{
		Schedules: n,
		Seed:      7,
		Registry:  reg,
		Logf:      t.Logf,
		Verbose:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("schedule %d [%s]: %v", v.Schedule, v.RulesString(), v.Violation)
	}
	if rep.InvariantViolations != 0 {
		t.Errorf("%d invariant violations", rep.InvariantViolations)
	}
	if !rep.OK() {
		t.Fatalf("contract violated: %s", rep.Summary())
	}
	if rep.Trips == 0 {
		t.Fatal("no faults tripped: the schedules never exercised anything")
	}
	if rep.Succeeded == 0 {
		t.Fatal("no schedule produced a successful job; byte-identity never checked")
	}
	// The trip counters must have flowed into the registry (the /metrics
	// export path).
	if c := reg.Counter("faultinject.trips").Value(); c != rep.Trips {
		t.Fatalf("registry faultinject.trips = %d, report says %d", c, rep.Trips)
	}
	t.Logf("chaos: %s", rep.Summary())
}

// TestSchedulesAreDeterministic pins that a schedule's rule set is a pure
// function of (seed, index), so any failing schedule can be re-run alone.
func TestSchedulesAreDeterministic(t *testing.T) {
	gen := func() []string {
		var out []string
		for i := 0; i < 20; i++ {
			src := rng.New(99 ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
			o := Outcome{Rules: genRules(src)}
			out = append(out, o.RulesString())
		}
		return out
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule %d not deterministic:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	// Distinct indices must not all collapse to one rule set.
	distinct := map[string]bool{}
	for _, s := range a {
		distinct[s] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("only %d distinct rule sets in 20 schedules", len(distinct))
	}
}

// TestVerifyColdRejects proves the one verifier is not vacuous. Each case
// starts from a fresh clean store holding an executed job and a dedup alias
// of it, damages it one way, and requires verifyCold to reject it — except
// a job dir set aside under a quarantine name, which counts as quarantined,
// not lost.
func TestVerifyColdRejects(t *testing.T) {
	opts := &Options{Logf: t.Logf}
	opts.fill()
	refs, err := specRef(opts, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// cleanStore runs the spec to success, then submits it again, which
	// the dedupe cache turns into an alias of the first job.
	cleanStore := func(t *testing.T) (string, *jobs.Job, *jobs.Job) {
		dir := t.TempDir()
		st, err := jobs.Open(dir, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		m := jobs.NewManager(st, jobs.Config{Workers: 1, Backoff: fastBackoff, CheckpointEvery: 1, Logf: t.Logf})
		m.Start()
		defer drainQuiet(m)
		exec, err := m.Submit(opts.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := waitTerminal(exec, time.Minute); err != nil || rec.State != jobs.StateSucceeded {
			t.Fatalf("clean run ended %v (err %v)", rec.State, err)
		}
		alias, err := m.Submit(opts.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := waitTerminal(alias, time.Minute); err != nil || rec.State != jobs.StateDedup {
			t.Fatalf("duplicate submit ended %v (err %v), want a dedup alias", rec.State, err)
		}
		return dir, exec, alias
	}
	for _, c := range []struct {
		name   string
		damage func(t *testing.T, dir string, exec, alias *jobs.Job)
		want   string // substring of the violation; "" means accepted
	}{
		{"clean", func(*testing.T, string, *jobs.Job, *jobs.Job) {}, ""},
		{"tampered placement", func(t *testing.T, _ string, exec, _ *jobs.Job) {
			data, err := os.ReadFile(exec.PlacementPath())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(exec.PlacementPath(), append(data, "# tampered\n"...), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "placement"},
		{"unjournaled takeover", func(t *testing.T, _ string, exec, _ *jobs.Job) {
			// Another owner's running record straight after the first one,
			// with no takeover record between them.
			var recs []jobs.Record
			for _, rec := range exec.History() {
				recs = append(recs, rec)
				if rec.State == jobs.StateRunning && len(recs) == 2 {
					rec.Node = "n2"
					recs = append(recs, rec)
				}
			}
			for i := range recs {
				recs[i].Seq = i + 1
			}
			data, err := jobs.EncodeJournal(recs)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(jobs.JournalPath(exec.Dir()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "takeover-unjournaled"},
		{"alias source removed", func(t *testing.T, _ string, exec, _ *jobs.Job) {
			if err := os.RemoveAll(exec.Dir()); err != nil {
				t.Fatal(err)
			}
		}, "alias"},
		{"job dir deleted", func(t *testing.T, _ string, _, alias *jobs.Job) {
			if err := os.RemoveAll(alias.Dir()); err != nil {
				t.Fatal(err)
			}
		}, "silently lost"},
		{"job dir quarantined", func(t *testing.T, _ string, _, alias *jobs.Job) {
			if err := os.Rename(alias.Dir(), alias.Dir()+".quarantined.0"); err != nil {
				t.Fatal(err)
			}
		}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, exec, alias := cleanStore(t)
			c.damage(t, dir, exec, alias)
			var out Outcome
			_, err := verifyCold(opts, dir, []string{exec.ID, alias.ID}, false, refs, &out)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != "" && err == nil:
				t.Fatal("verifier accepted the damaged store")
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("rejected for the wrong reason (want %q): %v", c.want, err)
			}
			if c.name == "job dir quarantined" && out.Quarantined != 1 {
				t.Fatalf("quarantined = %d, want 1", out.Quarantined)
			}
		})
	}
}

// TestScheduleRulesGolden pins the schedule derivation: the rule strings of
// ScheduleRules and NodeScheduleRules for a fixed grid of seeds, schedule
// indices and slots, as testdata/rules.golden records them. A schedule is
// replayed from (seed, index) alone, so any change here changes every
// recorded failing schedule's meaning.
func TestScheduleRulesGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range []uint64{1, 7, 13, 29, 41} {
		for i := 0; i < 10; i++ {
			o := Outcome{Rules: ScheduleRules(s, i)}
			fmt.Fprintf(&b, "seed=%d i=%d: %s\n", s, i, o.RulesString())
			for slot := 0; slot < 3; slot++ {
				o := Outcome{Rules: NodeScheduleRules(s, i, slot)}
				fmt.Fprintf(&b, "seed=%d i=%d slot=%d: %s\n", s, i, slot, o.RulesString())
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "rules.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("schedule rules differ from testdata/rules.golden:\n%s", got)
	}
}
