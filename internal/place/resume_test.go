package place

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// countdownCtx is a context whose Err() trips to Canceled after a fixed
// number of calls. Because the annealing inner loop polls only Err() (never
// Done()), this makes the interruption point fully deterministic: the run
// always stops at exactly the same stride boundary, so the test exercises
// the same mid-step checkpoint every time.
type countdownCtx struct {
	context.Context
	remaining int
	tripped   bool
}

func newCountdownCtx(calls int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), remaining: calls}
}

func (c *countdownCtx) Err() error {
	if c.tripped {
		return context.Canceled
	}
	c.remaining--
	if c.remaining <= 0 {
		c.tripped = true
		return context.Canceled
	}
	return nil
}

// statesOf snapshots every cell state of a placement for deep comparison.
func statesOf(p *Placement) []CellState {
	out := make([]CellState, len(p.Circuit.Cells))
	for i := range out {
		out[i] = p.State(i)
	}
	return out
}

// requireIdenticalOutcome asserts two runs produced bit-identical final
// placements and metrics.
func requireIdenticalOutcome(t *testing.T, label string, pRef *Placement, resRef Result, pGot *Placement, resGot Result) {
	t.Helper()
	if pGot.Cost() != pRef.Cost() {
		t.Fatalf("%s: final cost %v, want %v (bit-identical)", label, pGot.Cost(), pRef.Cost())
	}
	if !reflect.DeepEqual(statesOf(pGot), statesOf(pRef)) {
		t.Fatalf("%s: final cell states differ", label)
	}
	if !reflect.DeepEqual(resGot, resRef) {
		t.Fatalf("%s: results differ:\n got %+v\nwant %+v", label, resGot, resRef)
	}
}

// interruptOnce runs Stage 1 under a countdown context, requiring that it
// was actually interrupted and left a checkpoint behind.
func interruptOnce(t *testing.T, c *netlist.Circuit, opt Options, errCalls int) *Checkpoint {
	t.Helper()
	_, _, err := RunStage1Ctx(newCountdownCtx(errCalls), c, opt)
	if err == nil {
		t.Fatalf("run with countdown %d completed uninterrupted; lower the countdown", errCalls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt error %v does not wrap context.Canceled", err)
	}
	ck, lerr := LoadCheckpoint(opt.CheckpointPath)
	if lerr != nil {
		t.Fatalf("no checkpoint after interrupt: %v", lerr)
	}
	return ck.Single
}

// resumeFrom reloads a checkpoint and continues the run (optionally under
// another countdown context).
func resumeFrom(t *testing.T, ctx context.Context, c *netlist.Circuit, path string) (*Placement, Result, error) {
	t.Helper()
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return Resume(ctx, c, ck, Options{CheckpointPath: path}, 0)
}

// TestInterruptResumeBitIdentical is the tentpole property: for multiple
// circuits and seeds, interrupting a Stage 1 anneal mid-step and resuming
// from the checkpoint produces the exact placement, cost bits, and metrics
// of the uninterrupted run.
func TestInterruptResumeBitIdentical(t *testing.T) {
	for _, preset := range []string{"i3", "p1"} {
		for _, seed := range []uint64{3, 9} {
			// Vary the interruption point with the scenario so both early
			// and late mid-step cancellations are covered.
			errCalls := 7 + int(seed)
			t.Run(fmt.Sprintf("%s/seed%d", preset, seed), func(t *testing.T) {
				c, err := gen.Preset(preset, 11)
				if err != nil {
					t.Fatal(err)
				}
				opt := Options{Seed: seed, Ac: 8, MaxSteps: 10}
				pRef, resRef := RunStage1(c, opt)

				path := filepath.Join(t.TempDir(), "run.ckpt")
				opt.CheckpointPath = path
				ck := interruptOnce(t, c, opt, errCalls)
				if ck.Circuit != c.Name {
					t.Fatalf("checkpoint circuit %q, want %q", ck.Circuit, c.Name)
				}

				pRes, resRes, err := resumeFrom(t, context.Background(), c, path)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalOutcome(t, "interrupt+resume", pRef, resRef, pRes, resRes)
			})
		}
	}
}

// TestDoubleInterruptResumeBitIdentical chains two interruptions: run →
// interrupt → resume → interrupt again → resume to completion. The final
// outcome must still match the uninterrupted run bit for bit.
func TestDoubleInterruptResumeBitIdentical(t *testing.T) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 5, Ac: 8, MaxSteps: 10}
	pRef, resRef := RunStage1(c, opt)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt.CheckpointPath = path
	interruptOnce(t, c, opt, 6)

	// Second leg: resume, interrupt again mid-flight.
	_, _, err = resumeFrom(t, newCountdownCtx(9), c, path)
	if err == nil {
		t.Fatal("second leg completed; lower the countdown to re-interrupt")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("second interrupt error %v does not wrap context.Canceled", err)
	}

	// Third leg: resume to completion.
	pRes, resRes, err := resumeFrom(t, context.Background(), c, path)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalOutcome(t, "double interrupt", pRef, resRef, pRes, resRes)
}

// TestBoundaryCheckpointResumeBitIdentical covers the periodic (InnerDone
// == -1) checkpoint path: a run that completes normally leaves its last
// boundary checkpoint behind; resuming from it replays the remaining steps
// to the identical final state.
func TestBoundaryCheckpointResumeBitIdentical(t *testing.T) {
	c, err := gen.Preset("p1", 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 7, Ac: 8, MaxSteps: 9}
	pRef, resRef := RunStage1(c, opt)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt.CheckpointPath = path
	opt.CheckpointEvery = 4
	if _, _, err := RunStage1Ctx(context.Background(), c, opt); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Single.InnerDone != -1 {
		t.Fatalf("periodic checkpoint InnerDone = %d, want -1 (step boundary)", ck.Single.InnerDone)
	}
	if ck.Single.Ctl.Step >= resRef.Steps {
		t.Fatalf("boundary checkpoint at step %d leaves nothing to resume (run had %d steps)", ck.Single.Ctl.Step, resRef.Steps)
	}
	pRes, resRes, err := Resume(context.Background(), c, ck, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalOutcome(t, "boundary resume", pRef, resRef, pRes, resRes)
}

// TestInterruptReturnsBestSoFar checks the usable-result contract: the
// placement handed back by an interrupted run carries the best cost seen at
// any completed step, not whatever state the anneal was passing through.
func TestInterruptReturnsBestSoFar(t *testing.T) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt := Options{Seed: 3, Ac: 8, MaxSteps: 10, CheckpointPath: path}
	p, res, err := RunStage1Ctx(newCountdownCtx(25), c, opt)
	if err == nil {
		t.Fatal("run completed uninterrupted; lower the countdown")
	}
	best := 0.0
	for i, h := range res.History {
		if i == 0 || h.Cost < best {
			best = h.Cost
		}
	}
	if len(res.History) > 0 && p.Cost() > best {
		t.Fatalf("interrupted placement cost %v worse than best completed step %v", p.Cost(), best)
	}
	// The checkpoint, by contrast, stores the exact in-flight state, whose
	// cost accumulators must match what the resumed run continues from.
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Single.InnerDone < 0 {
		t.Fatalf("mid-step interrupt wrote a boundary checkpoint (InnerDone %d)", ck.Single.InnerDone)
	}
}

// TestResumeRejectsWrongCircuit ensures a checkpoint cannot be replayed
// onto a circuit it does not describe.
func TestResumeRejectsWrongCircuit(t *testing.T) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	interruptOnce(t, c, Options{Seed: 3, Ac: 8, MaxSteps: 10, CheckpointPath: path}, 8)
	other, err := gen.Preset("p1", 11)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(context.Background(), other, ck, Options{}, 0); err == nil {
		t.Fatal("resume accepted a checkpoint for a different circuit")
	}
}
