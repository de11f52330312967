package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
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

// TestValidateFlags drives the real CLI with each flag combination
// validateFlags rejects: every one must be a usage error (exit 2) whose
// message names the offending flag.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-nstarts", "0"}, "-nstarts"},
		{[]string{"-replicas", "0"}, "-replicas"},
		{[]string{"-nstarts", "2", "-replicas", "2"}, "-nstarts and -replicas"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-ac", "-1"}, "-ac"},
		{[]string{"-m", "-1"}, "-m "},
		{[]string{"-refine", "-1"}, "-refine"},
		{[]string{"-checkpoint-every", "-1"}, "-checkpoint-every"},
		{[]string{"-r", "-1"}, "-r, "},
		{[]string{"-rho", "-1"}, "-rho"},
		{[]string{"-eta", "-1"}, "-eta"},
		{[]string{"-aspect", "0"}, "-aspect"},
		{[]string{"-aspect", "NaN"}, "-aspect"},
		{[]string{"-aspect", "+Inf"}, "-aspect"},
		{[]string{"-r", "+Inf"}, "-r, "},
		{[]string{"-rho", "NaN"}, "-rho"},
		{[]string{"-eta", "NaN"}, "-eta"},
		{[]string{"-eta", "+Inf"}, "-eta"},
		{[]string{"-deadline", "-1s"}, "-deadline"},
		{[]string{"-nstarts", "2", "-checkpoint", "ck"}, "-checkpoint/-resume"},
		{[]string{"-nstarts", "2", "-resume", "ck"}, "-checkpoint/-resume"},
		{[]string{"-resume", "ck", "-load", "p.twp"}, "-resume (annealing checkpoint) and -load"},
		{[]string{"-load", "p.twp", "-nstarts", "2"}, "-nstarts 2 has no effect with -load"},
		{[]string{"-load", "p.twp", "-replicas", "3"}, "-replicas 3 has no effect with -load"},
		{[]string{"-load", "p.twp", "-checkpoint", "ck"}, "-checkpoint has no effect with -load"},
	} {
		cmd, out := twmcCmd(append(tc.args, "-preset", "i3")...)
		if code := exitCode(t, cmd.Run(), out); code != 2 || !strings.Contains(out.String(), tc.flag) {
			t.Errorf("%v: exit %d, want 2 naming %q:\n%s", tc.args, code, tc.flag, out)
		}
	}
}

// TestLoadRefusesBadAspect saves a Stage 1 placement, sets one custom
// cell's aspect to NaN, and loads it: twmc must fail (exit 1) naming the
// cell, not route a degenerate one-unit-wide strip.
func TestLoadRefusesBadAspect(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "p.twp")
	cmd, out := twmcCmd("-preset", "i3", "-ac", "10", "-stage1-only", "-out", saved)
	if code := exitCode(t, cmd.Run(), out); code != 0 {
		t.Fatalf("stage 1 run exited %d:\n%s", code, out)
	}
	c, err := gen.Preset("i3", 17) // twmc's default -preset-seed
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	name := ""
	for k, l := range lines {
		f := strings.Fields(l)
		if len(f) != 7 || f[0] != "cell" {
			continue
		}
		inst, err := strconv.Atoi(f[5])
		if err != nil {
			t.Fatal(err)
		}
		if ci := c.CellByName(f[1]); c.Cells[ci].Instances[inst].IsCustomShape() {
			name, f[6] = f[1], "NaN"
			lines[k] = strings.Join(f, " ")
			break
		}
	}
	if name == "" {
		t.Fatal("no custom-shape cell in the saved placement")
	}
	bad := filepath.Join(dir, "nan.twp")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd, out = twmcCmd("-preset", "i3", "-ac", "10", "-load", bad, "-drc")
	if code := exitCode(t, cmd.Run(), out); code != 1 || !strings.Contains(out.String(), `cell "`+name+`"`) {
		t.Fatalf("-load of a NaN aspect: exit %d, want 1 naming cell %q:\n%s", code, name, out)
	}
}

// TestLoadKeepsBookkeeping saves a placement and loads it back with -drc:
// the file's core line moves the placement off its placeholder core, and
// the sign-off must find the incremental costs in step with a recompute.
// Raw overlaps of the short anneal may remain, so the exit code is not
// asserted; only the bookkeeping check is.
func TestLoadKeepsBookkeeping(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "p.twp")
	base := []string{"-preset", "i3", "-ac", "10", "-workers", "1"}
	cmd, out := twmcCmd(append(base, "-seed", "1", "-out", saved)...)
	if code := exitCode(t, cmd.Run(), out); code != 0 && code != 4 {
		t.Fatalf("saving run exited %d:\n%s", code, out)
	}
	cmd, out = twmcCmd(append(base, "-load", saved, "-stage1-only", "-drc")...)
	if code := exitCode(t, cmd.Run(), out); code != 0 && code != 4 {
		t.Fatalf("-load -drc exited %d:\n%s", code, out)
	}
	if !strings.Contains(out.String(), "drc:") {
		t.Fatalf("-load -drc printed no DRC report:\n%s", out)
	}
	if strings.Contains(out.String(), "bookkeeping") {
		t.Fatalf("-load -drc reports a bookkeeping violation:\n%s", out)
	}
}

// TestSVGCreateFailureKeepsMetrics: an -svg path that cannot be created
// fails the run (exit 1), but the run still flushes its telemetry, so the
// -metrics snapshot exists and parses.
func TestSVGCreateFailureKeepsMetrics(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	svg := filepath.Join(dir, "missing", "x.svg")
	cmd, out := twmcCmd("-preset", "i3", "-ac", "5", "-stage1-only", "-metrics", metrics, "-svg", svg)
	if code := exitCode(t, cmd.Run(), out); code != 1 {
		t.Fatalf("unwritable -svg: exit %d, want 1:\n%s", code, out)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("no -metrics snapshot after the -svg failure: %v\n%s", err, out)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-metrics snapshot does not parse: %v\n%s", err, data)
	}
}
