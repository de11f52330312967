package scrub

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/par"
)

// fastSpec completes in tens of milliseconds (truncated anneal, DRC skipped).
func fastSpec(seed uint64) jobs.Spec {
	return jobs.Spec{
		Preset: "i1", Seed: seed, Ac: 8, MaxSteps: 8,
		SkipStage2: true, SkipDRC: true,
	}
}

// seedStore runs one real job to success under root and returns its ID.
// With aliases=true it also submits a byte-identical duplicate (a dedup
// cache-hit alias) and a keyed resubmit, populating both index trees.
func seedStore(t *testing.T, root string, aliases bool) string {
	t.Helper()
	st, err := jobs.Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(st, jobs.Config{
		Workers: 1, CheckpointEvery: 1, Logf: t.Logf,
		Backoff: par.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	})
	m.Start()
	j, err := m.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !j.Last().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", j.ID, j.Last().State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := j.Last().State; st != jobs.StateSucceeded {
		t.Fatalf("seed job ended %q", st)
	}
	if aliases {
		if _, err := m.Submit(fastSpec(1)); err != nil {
			t.Fatalf("alias submit: %v", err)
		}
		if _, _, err := m.SubmitIdem(fastSpec(1), "seed-key"); err != nil {
			t.Fatalf("keyed submit: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	return j.ID
}

// scan runs Scan over one root and fails the test on walk errors.
func scan(t *testing.T, root string, repair bool) *Report {
	t.Helper()
	rep, err := Scan([]string{root}, Options{Repair: repair, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// one asserts the report holds exactly one defect of the given kind and
// severity and returns it.
func one(t *testing.T, rep *Report, kind string, sev Severity) Defect {
	t.Helper()
	if len(rep.Defects) != 1 {
		t.Fatalf("got %d defects, want 1: %+v", len(rep.Defects), rep.Defects)
	}
	d := rep.Defects[0]
	if d.Kind != kind || d.Severity != sev {
		t.Fatalf("defect = %+v, want kind %q severity %q", d, kind, sev)
	}
	return d
}

func TestScanCleanStore(t *testing.T) {
	root := t.TempDir()
	seedStore(t, root, true)
	rep := scan(t, root, false)
	if len(rep.Defects) != 0 {
		t.Fatalf("clean store has defects: %+v", rep.Defects)
	}
	if rep.Jobs != 3 {
		t.Fatalf("scanned %d jobs, want 3 (executor + 2 aliases)", rep.Jobs)
	}
	if rep.Artifacts == 0 {
		t.Fatal("no artifacts verified")
	}
}

// TestScrubPlacementCRC pins byte-rot detection: one flipped bit in a
// succeeded job's placement fails the journal CRC; dry run detects
// without touching, repair quarantines the file.
func TestScrubPlacementCRC(t *testing.T) {
	root := t.TempDir()
	id := seedStore(t, root, false)
	ppath := filepath.Join(root, id, "placement.tw")
	data, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(ppath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d := one(t, scan(t, root, false), "placement", SevError)
	if d.Repaired {
		t.Fatal("dry run claims to have repaired")
	}
	if _, err := os.Stat(ppath); err != nil {
		t.Fatal("dry run moved the placement file")
	}

	d = one(t, scan(t, root, true), "placement", SevError)
	if !d.Repaired {
		t.Fatalf("repair run did not quarantine: %+v", d)
	}
	if _, err := os.Stat(ppath); !os.IsNotExist(err) {
		t.Fatalf("placement still present after quarantine: %v", err)
	}
	if _, err := os.Stat(ppath + ".quarantined.0"); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
}

// TestScrubJournalTail pins journal repair: garbage appended past the
// valid records is detected, and repair rewrites the valid prefix so a
// re-scan is clean.
func TestScrubJournalTail(t *testing.T) {
	root := t.TempDir()
	id := seedStore(t, root, false)
	jpath := jobs.JournalPath(filepath.Join(root, id))
	recs, err := jobs.ReadJournalDir(filepath.Join(root, id))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("twjob 1 deadbeef 10 {garbage!}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d := one(t, scan(t, root, true), "journal", SevError)
	if !d.Repaired {
		t.Fatalf("journal tail not repaired: %+v", d)
	}
	after, err := jobs.ReadJournalDir(filepath.Join(root, id))
	if err != nil {
		t.Fatalf("rewritten journal unreadable: %v", err)
	}
	if len(after) != len(recs) {
		t.Fatalf("rewritten journal has %d records, want %d", len(after), len(recs))
	}
	if rep := scan(t, root, false); len(rep.Defects) != 0 {
		t.Fatalf("store not clean after journal repair: %+v", rep.Defects)
	}
}

// TestScrubSpecDigest pins digest re-derivation: a tampered digest field
// is an error rewritten from canonical content; a missing one is a warning
// backfilled the same way. Both converge to a clean store.
func TestScrubSpecDigest(t *testing.T) {
	root := t.TempDir()
	id := seedStore(t, root, false)
	spath := filepath.Join(root, id, "spec.json")
	tamper := func(mutate func(map[string]any)) {
		t.Helper()
		data, err := os.ReadFile(spath)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(spath, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tamper(func(m map[string]any) {
		m["digest"] = "sha256:" + strings.Repeat("0", 64)
	})
	if d := one(t, scan(t, root, true), "digest", SevError); !d.Repaired {
		t.Fatalf("digest mismatch not repaired: %+v", d)
	}
	if rep := scan(t, root, false); len(rep.Defects) != 0 {
		t.Fatalf("store not clean after digest rewrite: %+v", rep.Defects)
	}

	tamper(func(m map[string]any) { delete(m, "digest") })
	if d := one(t, scan(t, root, true), "digest", SevWarn); !d.Repaired {
		t.Fatalf("missing digest not backfilled: %+v", d)
	}
	if rep := scan(t, root, false); len(rep.Defects) != 0 {
		t.Fatalf("store not clean after digest backfill: %+v", rep.Defects)
	}
}

// TestScrubUnparsableSpec pins wholesale quarantine: a job whose spec no
// longer parses is condemned as a unit, and the re-scan no longer sees it.
func TestScrubUnparsableSpec(t *testing.T) {
	root := t.TempDir()
	id := seedStore(t, root, false)
	// Drop the index so the report isolates the spec defect (quarantining
	// the job would otherwise cascade into a dangling digest entry).
	if err := os.RemoveAll(filepath.Join(root, "index")); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(root, id, "spec.json")
	if err := os.WriteFile(spath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d := one(t, scan(t, root, true), "spec", SevError); !d.Repaired {
		t.Fatalf("unparsable spec not quarantined: %+v", d)
	}
	if _, err := os.Stat(filepath.Join(root, id)); !os.IsNotExist(err) {
		t.Fatal("condemned job directory still published")
	}
	rep := scan(t, root, false)
	if rep.Jobs != 0 {
		t.Fatalf("re-scan still sees %d jobs", rep.Jobs)
	}
}

// TestScrubTornClaims pins the fencing rule: a torn claim below the
// high-water token is quarantined, but the one AT the high-water mark is
// reported and left in place even under -repair.
func TestScrubTornClaims(t *testing.T) {
	root := t.TempDir()
	id := seedStore(t, root, false)
	cdir := jobs.ClaimsDirPath(filepath.Join(root, id))
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		t.Fatal(err)
	}
	low := filepath.Join(cdir, "t00000001")
	high := filepath.Join(cdir, "t00000002")
	for _, p := range []string{low, high} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rep := scan(t, root, true)
	if got := len(rep.Defects); got != 2 {
		t.Fatalf("got %d defects, want 2: %+v", got, rep.Defects)
	}
	for _, d := range rep.Defects {
		if d.Kind != "claims" || d.Severity != SevWarn {
			t.Fatalf("defect = %+v, want claims warning", d)
		}
		switch d.Path {
		case low:
			if !d.Repaired {
				t.Fatalf("low claim not quarantined: %+v", d)
			}
		case high:
			if d.Repaired {
				t.Fatalf("high-water claim was repaired: %+v", d)
			}
		default:
			t.Fatalf("unexpected defect path %q", d.Path)
		}
	}
	if _, err := os.Stat(high); err != nil {
		t.Fatal("high-water claim removed — fencing token could be re-minted")
	}
	if _, err := os.Stat(low); !os.IsNotExist(err) {
		t.Fatal("low claim still present after repair")
	}
}

// TestScrubIndexDivergence pins index verification: a corrupt entry is a
// warning (O_EXCL tear debris), but a decodable entry whose digest no
// longer matches the job's spec is an error; both are quarantined.
func TestScrubIndexDivergence(t *testing.T) {
	root := t.TempDir()
	seedStore(t, root, true)

	// Corrupt the idempotency entry in place.
	idir := jobs.IdemDir(root)
	entries, err := os.ReadDir(idir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("idem index: %v (%d entries)", err, len(entries))
	}
	ipath := filepath.Join(idir, entries[0].Name())
	if err := os.WriteFile(ipath, []byte("twidx 1 00000000 2 {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := scan(t, root, true)
	d := one(t, rep, "index", SevWarn)
	if !d.Repaired || d.Path != ipath {
		t.Fatalf("corrupt idem entry: %+v", d)
	}

	// Divergence: re-point the digest generation at a job whose content
	// hashes differently by mutating the executor's spec seed... which is
	// itself a digest defect; instead move the entry under a wrong digest
	// directory, the divergence the index can express alone.
	ddir := jobs.DigestIndexDir(root)
	dirs, err := os.ReadDir(ddir)
	if err != nil || len(dirs) != 1 {
		t.Fatalf("digest index: %v (%d dirs)", err, len(dirs))
	}
	wrong := filepath.Join(ddir, strings.Repeat("0", 64))
	if err := os.Rename(filepath.Join(ddir, dirs[0].Name()), wrong); err != nil {
		t.Fatal(err)
	}
	rep = scan(t, root, true)
	d = one(t, rep, "index", SevError)
	if !d.Repaired {
		t.Fatalf("divergent digest entry not quarantined: %+v", d)
	}
}

// TestScrubAliasBrokenSource pins the no-auto-repair rule for aliases: a
// vanished source is reported as an error and nothing is moved.
func TestScrubAliasBrokenSource(t *testing.T) {
	root := t.TempDir()
	id := seedStore(t, root, true)

	// Remove the executor wholesale; its aliases now dangle. Drop the
	// index first so only the alias defects remain in the report.
	if err := os.RemoveAll(filepath.Join(root, "index")); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, id)); err != nil {
		t.Fatal(err)
	}
	rep := scan(t, root, true)
	if len(rep.Defects) != 2 {
		t.Fatalf("got %d defects, want 2 dangling aliases: %+v", len(rep.Defects), rep.Defects)
	}
	for _, d := range rep.Defects {
		if d.Kind != "alias" || d.Severity != SevError || d.Repaired {
			t.Fatalf("defect = %+v, want unrepaired alias error", d)
		}
	}
}

// armFaults arms a fault plane for one test.
func armFaults(t *testing.T, rules ...faultinject.Rule) *faultinject.Plane {
	t.Helper()
	pl := faultinject.NewPlane(1, rules...)
	if err := pl.Arm(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disarm)
	return pl
}

// TestScrubWalkFaultFailsScan: scrub.walk fires once per root, and an
// injected error fails the whole Scan. Aimed past the first root (which
// holds three job directories), it trips on its second hit, naming the
// second root.
func TestScrubWalkFaultFailsScan(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	seedStore(t, a, true)
	seedStore(t, b, false)
	pl := armFaults(t, faultinject.Rule{Point: faultinject.ScrubWalk, After: 1})
	rep, err := Scan([]string{a, b}, Options{Logf: t.Logf})
	if !errors.Is(err, faultinject.ErrInjected) || !strings.Contains(err.Error(), b) {
		t.Fatalf("Scan error = %v, want an injected fault naming the second root", err)
	}
	if rep != nil {
		t.Fatalf("failed Scan returned a report: %+v", rep)
	}
	if n := pl.Trips()[faultinject.ScrubWalk]; n != 1 {
		t.Fatalf("scrub.walk tripped %d times, want 1", n)
	}
}

// TestScrubVerifyFaultReportsDirectory: scrub.verify fires once per job
// directory (a pure-delay rule trips once for each of the three), and an
// injected error becomes one "verify" defect for that directory while the
// scan goes on. The idempotency-key entry naming the skipped job is not
// judged, so it is neither reported nor (under repair) quarantined as
// pointing at a vanished job.
func TestScrubVerifyFaultReportsDirectory(t *testing.T) {
	root := t.TempDir()
	seedStore(t, root, true)
	pl := armFaults(t, faultinject.Rule{Point: faultinject.ScrubVerify, Times: faultinject.Unlimited, Delay: time.Microsecond})
	rep := scan(t, root, false)
	if n := pl.Trips()[faultinject.ScrubVerify]; n != 3 || rep.Jobs != 3 || len(rep.Defects) != 0 {
		t.Fatalf("delay rule: %d trips, %d jobs, defects %+v; want 3 trips, 3 jobs, none", n, rep.Jobs, rep.Defects)
	}
	faultinject.Disarm()

	clean := rep.Artifacts
	armFaults(t, faultinject.Rule{Point: faultinject.ScrubVerify, After: 2})
	rep = scan(t, root, false)
	d := one(t, rep, "verify", SevError)
	if d.Job != "j000003" || !strings.Contains(d.Detail, "injected") {
		t.Fatalf("verify defect = %+v, want j000003's injected failure", d)
	}
	if rep.Jobs != 3 || rep.Artifacts >= clean {
		t.Fatalf("scanned %d jobs and %d artifacts, want 3 jobs and fewer than %d artifacts", rep.Jobs, rep.Artifacts, clean)
	}
}
