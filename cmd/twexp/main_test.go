package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the twexp entry point: TestGoldenOutput re-execs this
// binary with TWEXP_CHILD=1 to run the real CLI.
func TestMain(m *testing.M) {
	if os.Getenv("TWEXP_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestGoldenOutput pins twexp's stdout byte for byte: testdata/<id>.golden
// is the output of `twexp -exp <id>` at the small settings below. fig5 and
// fig6 have no golden because they sweep A_c up to 400 whatever -ac says
// (about 30 s).
func TestGoldenOutput(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens in testdata (%v)", err)
	}
	for _, path := range goldens {
		id := strings.TrimSuffix(filepath.Base(path), ".golden")
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], "-exp", id, "-ac", "5", "-m", "4",
				"-trials", "1", "-circuits", "i1,p1", "-workers", "2")
			cmd.Env = append(os.Environ(), "TWEXP_CHILD=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("twexp -exp %s: %v\n%s", id, err, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("twexp -exp %s stdout differs from %s:\n-- got --\n%s\n-- want --\n%s",
					id, path, got, want)
			}
		})
	}
}
