package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
)

func testCircuit(t testing.TB) *netlist.Circuit {
	t.Helper()
	c, err := gen.Generate(gen.Spec{
		Name: "coret", Cells: 12, Nets: 30, Pins: 100,
		DimX: 300, DimY: 300, CustomFrac: 0.2, RectFrac: 0.2, EquivFrac: 0.03,
	}, 21)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlaceFullFlow(t *testing.T) {
	c := testCircuit(t)
	res, err := Place(c, Options{Seed: 1, Ac: 20, M: 6})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if res.Placement == nil || res.Stage2 == nil {
		t.Fatal("missing result components")
	}
	if res.TEIL <= 0 || res.ChipArea() <= 0 {
		t.Fatalf("degenerate result: TEIL=%v area=%v", res.TEIL, res.ChipArea())
	}
	if len(res.Stage2.Iterations) != 3 {
		t.Fatalf("got %d refinement iterations", len(res.Stage2.Iterations))
	}
	// Table 3 metrics are consistent with the raw numbers.
	wantPct := (res.TEIL - res.Stage1TEIL) / res.Stage1TEIL * 100
	if math.Abs(res.TEILChangePct()-wantPct) > 1e-9 {
		t.Fatal("TEILChangePct inconsistent")
	}
	if res.Stage2.Routing == nil || len(res.Stage2.Routing.Choice) != len(c.Nets) {
		t.Fatal("routing incomplete")
	}
	if err := res.Placement.Validate(); err != nil {
		t.Fatalf("final placement: %v", err)
	}
}

func TestPlaceSkipStage2(t *testing.T) {
	c := testCircuit(t)
	res, err := Place(c, Options{Seed: 2, Ac: 15, SkipStage2: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage2 != nil {
		t.Fatal("Stage2 ran despite SkipStage2")
	}
	if res.TEIL != res.Stage1TEIL {
		t.Fatal("TEIL should equal stage-1 TEIL")
	}
	if res.TEILChangePct() != 0 || res.AreaChangePct() != 0 {
		t.Fatal("change metrics should be zero")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	c := testCircuit(t)
	a, err := Place(c, Options{Seed: 5, Ac: 12, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(c, Options{Seed: 5, Ac: 12, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.TEIL != b.TEIL || a.ChipArea() != b.ChipArea() {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.TEIL, a.ChipArea(), b.TEIL, b.ChipArea())
	}
}

func TestPlaceRejectsInvalidCircuit(t *testing.T) {
	c := testCircuit(t)
	c.TrackSep = 0 // invalidate
	if _, err := Place(c, Options{Seed: 1, Ac: 5}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
}

func TestQualityScalesWithAc(t *testing.T) {
	// Figure 5's premise: more attempts per cell do not hurt, and usually
	// help. Compare a tiny-Ac run against a moderate one (averaged over
	// seeds to damp noise).
	c := testCircuit(t)
	var low, high float64
	const k = 3
	for s := uint64(0); s < k; s++ {
		a, err := Place(c, Options{Seed: 10 + s, Ac: 5, SkipStage2: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Place(c, Options{Seed: 10 + s, Ac: 60, SkipStage2: true})
		if err != nil {
			t.Fatal(err)
		}
		low += a.TEIL
		high += b.TEIL
	}
	if high >= low*1.05 {
		t.Fatalf("Ac=60 TEIL %.0f much worse than Ac=5 TEIL %.0f", high/k, low/k)
	}
}

// reload reads a saved placement of c the way twmc -load does: onto a
// unit placeholder core, which the file's core line replaces.
func reload(t *testing.T, c *netlist.Circuit, saved string) *place.Placement {
	t.Helper()
	p := place.New(c, geom.R(0, 0, 1, 1), nil)
	if err := place.ReadPlacement(strings.NewReader(saved), p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestResume(t *testing.T) {
	c := testCircuit(t)
	res, err := Place(c, Options{Seed: 4, Ac: 15, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := place.WritePlacement(&sb, res.Placement); err != nil {
		t.Fatal(err)
	}
	// Resume with Stage 2 skipped: state restored exactly.
	r2, err := Run(context.Background(), c, Start{Placement: reload(t, c, sb.String())}, Options{SkipStage2: true})
	if err != nil {
		t.Fatalf("Run from a saved placement: %v", err)
	}
	// The reloaded placement has zero dynamic expansion (static mode), so
	// compare raw geometry and TEIL rather than expanded bounds.
	if r2.Placement.TEIL() != res.Placement.TEIL() {
		t.Fatalf("resumed TEIL %v != saved %v", r2.Placement.TEIL(), res.Placement.TEIL())
	}
	for i := range c.Cells {
		if r2.Placement.State(i).Pos != res.Placement.State(i).Pos {
			t.Fatalf("cell %d position lost on resume", i)
		}
	}
	// The file's core line moves the placement off its placeholder core;
	// the cost bookkeeping must follow it exactly.
	if err := r2.Placement.Validate(); err != nil {
		t.Fatalf("reloaded placement: %v", err)
	}
	// Resume with Stage 2: runs and routes, refining the given placement
	// in place, and reports the placement's final TEIL and chip.
	start := reload(t, c, sb.String())
	r3, err := Run(context.Background(), c, Start{Placement: start}, Options{Seed: 5, Ac: 10, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stage2 == nil || len(r3.Stage2.Routing.Choice) != len(c.Nets) {
		t.Fatal("resume did not route")
	}
	if r3.Placement != start || r3.TEIL != start.TEIL() || r3.Chip != start.ExpandedBounds() {
		t.Fatal("Stage 2 result is not the start placement's final state")
	}
	if err := r3.Placement.Validate(); err != nil {
		t.Fatalf("refined reloaded placement: %v", err)
	}
	// A start is a checkpoint or a placement, never both.
	both := Start{Checkpoint: &place.AnyCheckpoint{}, Placement: reload(t, c, sb.String())}
	if _, err := Run(context.Background(), c, both, Options{}); err == nil {
		t.Fatal("Run accepted a checkpoint and a saved placement together")
	}
}

// TestRunRejectsPlacementOfAnotherCircuit: a start placement must be built
// on the very circuit Run is given. One built on another circuit — even an
// identical regeneration — is refused before Stage 2 touches it.
func TestRunRejectsPlacementOfAnotherCircuit(t *testing.T) {
	c, other := testCircuit(t), testCircuit(t)
	p := place.New(other, geom.R(0, 0, 300, 300), nil)
	before := p.TEIL()
	_, err := Run(context.Background(), c, Start{Placement: p}, Options{Seed: 1, Ac: 5, M: 4})
	if err == nil || !strings.Contains(err.Error(), "circuit") {
		t.Fatalf("placement of another circuit: err %v, want a circuit mismatch", err)
	}
	if p.TEIL() != before {
		t.Fatal("rejected start placement was modified")
	}
}

// countdownCtx is a context whose Err() trips to Canceled after a fixed
// number of calls, so a flow is interrupted inside Stage 1 (the anneal
// polls only Err()). It is safe for the tempering ladder's concurrent
// pollers.
type countdownCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remaining--
	if c.remaining <= 0 {
		return context.Canceled
	}
	return nil
}

// TestRunResumesCheckpoints interrupts full flows inside Stage 1, single
// and tempered, at several worker counts, and resumes each through Run from
// its checkpoint. The resumed Result — placement, Stage 1 metrics, Stage 2
// routing, TEIL, and chip — must equal the uninterrupted run's. The resume
// Options deliberately disagree with the original Seed/Ac/Rho/MaxSteps and
// Replicas: Stage 1 and Stage 2 must take them from the checkpoint.
func TestRunResumesCheckpoints(t *testing.T) {
	c := testCircuit(t)
	for _, replicas := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("replicas%d/workers%d", replicas, workers), func(t *testing.T) {
				opt := Options{Seed: 2, Ac: 10, Rho: 3, M: 4, MaxSteps: 8, Replicas: replicas, Workers: workers}
				ref, err := Place(c, opt)
				if err != nil {
					t.Fatal(err)
				}

				path := filepath.Join(t.TempDir(), "run.ckpt")
				o := opt
				o.CheckpointPath = path
				o.CheckpointEvery = 1
				ctx := &countdownCtx{Context: context.Background(), remaining: 7 * replicas}
				if _, err := PlaceCtx(ctx, c, o); !errors.Is(err, context.Canceled) {
					t.Fatalf("flow not interrupted in Stage 1 (err %v); lower the countdown", err)
				}
				ck, err := place.LoadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), c, Start{Checkpoint: ck},
					Options{Seed: 99, Ac: 5, Rho: 2, M: 4, MaxSteps: 3, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, ref, res)
			})
		}
	}
}

// requireSameResult asserts two flows ended identically: placement bytes,
// Stage 1 metrics, and the whole Stage 2 result.
func requireSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	var wb, gb strings.Builder
	if err := place.WritePlacement(&wb, want.Placement); err != nil {
		t.Fatal(err)
	}
	if err := place.WritePlacement(&gb, got.Placement); err != nil {
		t.Fatal(err)
	}
	if wb.String() != gb.String() {
		t.Fatal("placements differ")
	}
	if !reflect.DeepEqual(got.Stage1, want.Stage1) {
		t.Fatalf("Stage 1 results differ:\n got %+v\nwant %+v", got.Stage1, want.Stage1)
	}
	if got.Stage1TEIL != want.Stage1TEIL || got.Stage1Area != want.Stage1Area {
		t.Fatalf("Stage 1 TEIL/area %v/%v, want %v/%v", got.Stage1TEIL, got.Stage1Area, want.Stage1TEIL, want.Stage1Area)
	}
	if !reflect.DeepEqual(got.Stage2, want.Stage2) {
		t.Fatal("Stage 2 results (iterations, channel graph, routing) differ")
	}
	if got.TEIL != want.TEIL || got.Chip != want.Chip {
		t.Fatalf("TEIL/chip %v/%v, want %v/%v", got.TEIL, got.Chip, want.TEIL, want.Chip)
	}
}

func TestWriteReport(t *testing.T) {
	c := testCircuit(t)
	res, err := Place(c, Options{Seed: 3, Ac: 10, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"chip", "TEIL", "global routing", "worst nets", "channel occupancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Stage-1-only report works too.
	res1, err := Place(c, Options{Seed: 3, Ac: 5, SkipStage2: true})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := res1.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stage 1 only") {
		t.Error("stage-1-only report missing marker")
	}
}

func TestPlaceWithReplicas(t *testing.T) {
	c := testCircuit(t)
	opt := Options{Seed: 1, Ac: 10, M: 6, MaxSteps: 6, Replicas: 3}
	ref, err := Place(c, opt)
	if err != nil {
		t.Fatalf("Place with replicas: %v", err)
	}
	if ref.Placement == nil || ref.Stage2 == nil || ref.TEIL <= 0 {
		t.Fatal("degenerate tempered result")
	}
	// The full flow (including Stage 2 downstream of the tempered winner)
	// is worker-count independent.
	for _, workers := range []int{2, 4} {
		o := opt
		o.Workers = workers
		res, err := Place(c, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.TEIL != ref.TEIL || res.Chip != ref.Chip {
			t.Fatalf("workers=%d: TEIL/chip %v/%v, want %v/%v",
				workers, res.TEIL, res.Chip, ref.TEIL, ref.Chip)
		}
	}
}

func TestPlaceRejectsReplicasWithStarts(t *testing.T) {
	c := testCircuit(t)
	_, err := Place(c, Options{Seed: 1, Replicas: 2, Starts: 2})
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("Replicas+Starts accepted (err=%v)", err)
	}
}
