package place

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/gen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRefineGolden pins one refinement pass on fixedCircuit (a pre-placed
// pad among movable cells) against a file written before the pass moved
// onto the Stage 1 engine: the RefineResult fields bit for bit and the
// refined placement's bytes. Rewrite with go test -run TestRefineGolden
// -update, only for an intended change of trajectory.
//
// The golden is amd64-only: Go may fuse x*y+z into one FMA instruction on
// arm64, ppc64le, s390x and riscv64, which changes the low bits of the
// incremental cost sums and with them the Metropolis decisions.
func TestRefineGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is written on amd64; %s may contract floating-point expressions into FMA", runtime.GOARCH)
	}
	c := fixedCircuit(t)
	p, _ := RunStage1(c, Options{Seed: 4, Ac: 20})
	widths := make([][4]int, len(c.Cells))
	for i := range widths {
		widths[i] = [4]int{3, 3, 3, 3}
	}
	res, err := RunRefineCtx(context.Background(), p, widths, RefineOptions{Seed: 5, Ac: 20})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "teil %s overlap %d steps %d accept %s\n",
		strconv.FormatFloat(res.TEIL, 'g', -1, 64), res.Overlap, res.Steps,
		strconv.FormatFloat(res.AcceptRate, 'g', -1, 64))
	if err := WritePlacement(&b, p); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join("testdata", "refine_fixed.golden")
	if *update {
		if err := os.WriteFile(file, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("refinement differs from %s:\n got:\n%s\nwant:\n%s", file, b.Bytes(), want)
	}
}

// TestRefineCancelledMidPass interrupts a refinement pass partway through:
// the error wraps context.Canceled, and the placement handed back (the
// best step-boundary state, or the in-flight one when that is no worse)
// is valid with incremental cost accumulators that agree with a
// from-scratch recomputation.
func TestRefineCancelledMidPass(t *testing.T) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	widths := make([][4]int, len(c.Cells))
	for i := range widths {
		widths[i] = [4]int{4, 4, 4, 4}
	}
	ref, _ := RunStage1(c, Options{Seed: 2, Ac: 10})
	full, err := RunRefineCtx(context.Background(), ref, widths, RefineOptions{Seed: 3, Ac: 20})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := RunStage1(c, Options{Seed: 2, Ac: 10})
	res, err := RunRefineCtx(newCountdownCtx(20), p, widths, RefineOptions{Seed: 3, Ac: 20})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if res.Steps < 2 || res.Steps >= full.Steps {
		t.Fatalf("interrupted at step %d; want mid-pass (the full pass runs %d steps)", res.Steps, full.Steps)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("interrupted placement: %v", err)
	}
}
