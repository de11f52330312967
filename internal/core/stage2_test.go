package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/invariant"
	"repro/internal/place"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runEndSink keeps the run-end events of the refinement passes, which
// carry each pass's RefineResult.Steps and AcceptRate.
type runEndSink struct {
	mu   sync.Mutex
	ends map[string]telemetry.Event
}

func (s *runEndSink) Emit(ev telemetry.Event) {
	if ev.Type != telemetry.TypeRunEnd {
		return
	}
	s.mu.Lock()
	s.ends[ev.Run] = ev
	s.mu.Unlock()
}

// fmtFloat renders v in the shortest form that parses back to the same
// bits, so a golden comparison is a bit-for-bit comparison.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestStage2Golden pins the full flow's Stage 2 output on i3 (twmc's
// default preset circuit, Ac=50, M=20) against files written before the
// refinement pass moved onto the Stage 1 engine: the final placement
// bytes, every IterationStat field, and each pass's step count and
// acceptance rate bit for bit, at one and four router workers. Rewrite
// with go test -run TestStage2Golden -update, only for an intended change
// of trajectory.
//
// The goldens are amd64-only: Go may fuse x*y+z into one FMA instruction
// on arm64, ppc64le, s390x and riscv64, which changes the low bits of the
// incremental cost sums and with them the Metropolis decisions.
func TestStage2Golden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are written on amd64; %s may contract floating-point expressions into FMA", runtime.GOARCH)
	}
	c, err := gen.Preset("i3", 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2} {
		file := filepath.Join("testdata", fmt.Sprintf("stage2_i3_seed%d.golden", seed))
		for _, workers := range []int{1, 4} {
			sink := &runEndSink{ends: map[string]telemetry.Event{}}
			res, err := Place(c, Options{
				Seed: seed, Ac: 50, M: 20, Workers: workers,
				Tel: telemetry.New(sink, nil, nil),
			})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			var b strings.Builder
			for k, it := range res.Stage2.Iterations {
				end, ok := sink.ends[fmt.Sprintf("refine%d", k+1)]
				if !ok {
					t.Fatalf("seed %d: no run-end event for refine%d", seed, k+1)
				}
				fmt.Fprintf(&b, "iteration %d regions %d edges %d length %d excess %d teil %s area %d overlap %d steps %d accept %s\n",
					k+1, it.Regions, it.GraphEdges, it.RouteLength, it.Excess,
					fmtFloat(it.TEIL), it.ChipArea, it.Overlap, end.Step, fmtFloat(end.Acc))
			}
			if err := place.WritePlacement(&b, res.Placement); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, file, []byte(b.String()))
		}
	}
}

// compareGolden checks got against the golden file, or rewrites the file
// under -update.
func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden:\n got:\n%s\nwant:\n%s", file, got, want)
	}
}

// TestFlowCostInvariant runs the full i3 flow with the runtime invariants
// on. The place.cost drift check runs at every temperature-step boundary
// of Stage 1 and of each refinement pass (one annealer serves both), so
// any disagreement between the incremental cost accumulators and a
// from-scratch recomputation under static expansions shows up here.
func TestFlowCostInvariant(t *testing.T) {
	c, err := gen.Preset("i3", 17)
	if err != nil {
		t.Fatal(err)
	}
	invariant.Enable(invariant.Options{Logf: t.Logf})
	defer invariant.Disable()
	for _, seed := range []uint64{1, 2} {
		res, err := Place(c, Options{Seed: seed, Ac: 20, M: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Stage2.Iterations) != 3 {
			t.Fatalf("seed %d: %d refinement iterations, want 3", seed, len(res.Stage2.Iterations))
		}
	}
	if n := invariant.Count(); n != 0 {
		t.Fatalf("%d invariant violations", n)
	}
}
