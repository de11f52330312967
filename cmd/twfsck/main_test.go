package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/par"
)

// TestMain doubles as the twfsck entry point: TestFsckSmoke re-execs this
// binary with TWFSCK_CHILD=1 to exercise the real CLI and its exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("TWFSCK_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// fsck runs the real twfsck binary over root and returns (exit code, output).
func fsck(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TWFSCK_CHILD=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if err == nil {
		return 0, out.String()
	}
	var ee *exec.ExitError
	if ok := errorsAs(err, &ee); ok {
		return ee.ExitCode(), out.String()
	}
	t.Fatalf("twfsck: %v\n%s", err, out.String())
	return -1, ""
}

func errorsAs(err error, ee **exec.ExitError) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*ee = e
	}
	return ok
}

// TestFsckSmoke is the end-to-end store-verification test `make fsck-smoke`
// runs: seed a real store (one executed job, one dedup alias, one
// idempotency key), assert a clean bill of health, flip one placement
// byte, and require twfsck to detect it (exit 1) and -repair to
// quarantine the damaged file.
func TestFsckSmoke(t *testing.T) {
	root := t.TempDir()
	st, err := jobs.Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(st, jobs.Config{
		Workers: 1, CheckpointEvery: 1, Logf: t.Logf,
		Backoff: par.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	})
	m.Start()
	spec := jobs.Spec{Preset: "i1", Seed: 1, Ac: 8, MaxSteps: 8, SkipStage2: true, SkipDRC: true}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !j.Last().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("seed job stuck in %q", j.Last().State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, err := m.SubmitIdem(spec, "smoke-key"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	if code, out := fsck(t, "-q", root); code != 0 || !bytes.Contains([]byte(out), []byte("clean: no defects")) {
		t.Fatalf("clean store: exit %d\n%s", code, out)
	}

	// One flipped bit in the executed job's placement.
	ppath := filepath.Join(root, j.ID, "placement.tw")
	data, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(ppath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, out := fsck(t, "-q", root)
	if code != 1 || !bytes.Contains([]byte(out), []byte("placement")) {
		t.Fatalf("corrupted store: exit %d, want 1 naming the placement\n%s", code, out)
	}
	if _, err := os.Stat(ppath); err != nil {
		t.Fatalf("read-only run moved the placement: %v", err)
	}

	code, out = fsck(t, "-q", "-repair", root)
	if code != 1 || !bytes.Contains([]byte(out), []byte("(repaired)")) {
		t.Fatalf("repair run: exit %d, want 1 with a repaired defect\n%s", code, out)
	}
	if _, err := os.Stat(ppath); !os.IsNotExist(err) {
		t.Fatalf("placement not quarantined: %v", err)
	}
	if _, err := os.Stat(ppath + ".quarantined.0"); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}

	// Usage error: no roots.
	if code, _ := fsck(t); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
}
