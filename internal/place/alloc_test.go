package place

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// TestSetStateZeroAllocs pins the structure-of-arrays refactor: the
// incremental cost update for a single move — the Stage 1 inner-loop unit
// of work — must not allocate. A regression here multiplies into millions
// of allocations per anneal.
func TestSetStateZeroAllocs(t *testing.T) {
	p := newTestPlacement(t, 25, true)
	src := rng.New(1)
	Randomize(p, src)
	states := make([]CellState, 64)
	cells := make([]int, len(states))
	for k := range states {
		i := src.Intn(len(p.Circuit.Cells))
		st := p.State(i)
		st.Pos = geom.Point{
			X: src.IntRange(p.Core.XLo, p.Core.XHi),
			Y: src.IntRange(p.Core.YLo, p.Core.YHi),
		}
		st.Orient = geom.Orient(src.Intn(geom.NumOrients))
		cells[k], states[k] = i, st
	}
	// Reach steady state first: spatial-index bins grow to their working
	// capacity during the first pass over the move pool.
	for k := range states {
		p.SetState(cells[k], states[k])
	}
	k := 0
	if got := testing.AllocsPerRun(500, func() {
		p.SetState(cells[k%len(states)], states[k%len(states)])
		k++
	}); got != 0 {
		t.Fatalf("SetState allocates %v per move, want 0", got)
	}
}

// TestRefineMoveZeroAllocs extends the guard to Stage 2: one refinement
// attempt (a displacement, or a pin-site move on a custom cell) reuses the
// annealer's state buffers and must not allocate, telemetry included.
func TestRefineMoveZeroAllocs(t *testing.T) {
	p := newTestPlacement(t, 25, true)
	Randomize(p, rng.New(2))
	widths := make([][4]int, len(p.Circuit.Cells))
	for i := range widths {
		widths[i] = [4]int{3, 3, 3, 3}
	}
	reg := telemetry.NewRegistry()
	s := newRefineRun(p, widths, RefineOptions{Seed: 2, Ac: 20, Tel: telemetry.New(nil, reg, nil)})
	s.initTelemetry()
	if !s.ctl.Next() {
		t.Fatal("controller refused to start")
	}
	// Reach steady state first: the state buffers grow to the widest
	// cell's unit count and the spatial-index bins to working capacity.
	for k := 0; k < 2000; k++ {
		s.moves.generate(s)
	}
	// AllocsPerRun truncates its average, and only custom cells with
	// uncommitted pins can allocate, so each run is a batch of attempts.
	if got := testing.AllocsPerRun(50, func() {
		for k := 0; k < 100; k++ {
			s.moves.generate(s)
		}
	}); got != 0 {
		t.Fatalf("refinement moves allocate %v per 100 attempts, want 0", got)
	}
	for _, class := range []string{"displace", "pin"} {
		if reg.Counter("refine.move."+class+".attempts").Value() == 0 {
			t.Fatalf("no %s moves attempted; the guard did not cover them", class)
		}
	}
}

// TestCalibrateP2ZeroAllocs pins the scratch-reuse path of the Eqn 9
// normalization sampling: after the placement's calibration scratch is
// warm, repeated calibrations must not allocate.
func TestCalibrateP2ZeroAllocs(t *testing.T) {
	p := newTestPlacement(t, 25, true)
	src := rng.New(3)
	Randomize(p, src)
	// Warm up: the first calibrations grow the snapshot scratch and the
	// spatial-index bins to their steady-state capacity.
	for i := 0; i < 10; i++ {
		CalibrateP2(p, 0.5, src, 5)
	}
	if got := testing.AllocsPerRun(50, func() {
		CalibrateP2(p, 0.5, src, 5)
	}); got != 0 {
		t.Fatalf("CalibrateP2 allocates %v per call, want 0", got)
	}
}
