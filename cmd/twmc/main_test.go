package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the twmc entry point: TestResumeSmoke re-execs this
// binary with TWMC_CHILD=1 to drive the real CLI, its signal handling and
// its exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("TWMC_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// twmcCmd returns a command running the real twmc with args.
func twmcCmd(args ...string) (*exec.Cmd, *bytes.Buffer) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TWMC_CHILD=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	return cmd, &out
}

// exitCode maps a finished command's error to its exit status.
func exitCode(t *testing.T, err error, out *bytes.Buffer) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	t.Fatalf("twmc: %v\n%s", err, out)
	return -1
}

// TestResumeSmoke is the end-to-end resume test `make resume-smoke` runs,
// once for a single anneal and once for a 3-replica tempering ladder: a
// checkpointed i3 run is sent SIGINT as soon as its checkpoint exists, then
// -resume'd, and the resumed -out placement must be byte-identical to an
// uninterrupted run's. The resume passes -replicas 3 in both cases: the
// Stage 1 mode must come from the checkpoint, not from the flag.
func TestResumeSmoke(t *testing.T) {
	base := []string{"-preset", "i3", "-ac", "20", "-m", "4", "-seed", "1", "-workers", "1"}
	for _, tc := range []struct {
		name     string
		flags    []string
		wantMode string
	}{
		{"single", nil, "(single anneal)"},
		{"replicas3", []string{"-replicas", "3"}, "(parallel tempering, 3 replicas)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(append([]string(nil), base...), tc.flags...)
			at := func(name string) string { return filepath.Join(dir, name) }

			ref, out := twmcCmd(append(args, "-out", at("ref.twp"))...)
			if code := exitCode(t, ref.Run(), out); code != 0 {
				t.Fatalf("reference run exited %d:\n%s", code, out)
			}

			ck := at("run.ck")
			run, out := twmcCmd(append(args, "-checkpoint", ck, "-checkpoint-every", "1", "-out", at("int.twp"))...)
			if err := run.Start(); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- run.Wait() }()
			var err error
			deadline := time.After(60 * time.Second)
		wait:
			for {
				select {
				case err = <-done:
					break wait // finished before the checkpoint was seen
				case <-deadline:
					run.Process.Kill()
					t.Fatalf("no checkpoint within 60s:\n%s", out)
				case <-time.After(2 * time.Millisecond):
					if _, serr := os.Stat(ck); serr == nil {
						run.Process.Signal(syscall.SIGINT)
						err = <-done
						break wait
					}
				}
			}
			code := exitCode(t, err, out)
			if code != exitInterrupted && code != 0 {
				t.Fatalf("interrupted run exited %d, want %d or 0:\n%s", code, exitInterrupted, out)
			}
			t.Logf("checkpointed run exited %d", code)

			res, out := twmcCmd(append(append([]string(nil), base...), "-replicas", "3", "-resume", ck, "-out", at("res.twp"))...)
			if code := exitCode(t, res.Run(), out); code != 0 {
				t.Fatalf("resumed run exited %d:\n%s", code, out)
			}
			if !strings.Contains(out.String(), "resuming from checkpoint "+ck+": i3 at step ") ||
				!strings.Contains(out.String(), tc.wantMode) {
				t.Fatalf("resume line missing or names the wrong Stage 1 mode (want %s):\n%s", tc.wantMode, out)
			}
			if strings.Contains(out.String(), "stage 1: parallel tempering with") {
				t.Fatalf("resumed run printed the -replicas banner instead of the checkpoint's mode:\n%s", out)
			}
			want, err := os.ReadFile(at("ref.twp"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(at("res.twp"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("resumed placement differs from the uninterrupted run's")
			}
		})
	}
}
