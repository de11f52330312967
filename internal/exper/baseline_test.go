package exper

import (
	"context"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/refine"
)

// evaluateBaselineOracle is EvaluateBaseline as it was before it ran
// through core.Run: its own refine.RunCtx call, seeded Seed+99, with 2
// refinement executions, reading the final TEIL and chip off the placement.
func evaluateBaselineOracle(pl baseline.Placer, cc *netlist.Circuit, cfg Config) (float64, geom.Rect, error) {
	cfg.fill()
	p := pl.Place(cc, estimate.CoreSize(cc, estimate.DefaultParams(), 1), cfg.Seed+77)
	_, err := refine.RunCtx(context.Background(), p, refine.Options{
		Seed:       cfg.Seed + 99,
		Iterations: 2,
		Ac:         cfg.Ac,
		M:          cfg.M,
		Workers:    1,
	})
	return p.TEIL(), p.ExpandedBounds(), err
}

// TestEvaluateBaselineMatchesOracle pins Table 4's baseline columns across
// the move to core.Run: on one preset of each baseline family, TEIL and chip
// must equal the direct Stage 2 call's bit for bit.
func TestEvaluateBaselineMatchesOracle(t *testing.T) {
	cfg := Config{Seed: 1988, Ac: 5, M: 4}
	for _, name := range []string{"i1", "i3", "p1"} {
		t.Run(name, func(t *testing.T) {
			c, err := gen.Preset(name, cfg.Seed+17)
			if err != nil {
				t.Fatal(err)
			}
			pl, ok := baseline.ByName(BaselineFor(name))
			if !ok {
				t.Fatalf("no baseline placer for %s", name)
			}
			teil, chip, err := EvaluateBaseline(pl, c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantTEIL, wantChip, err := evaluateBaselineOracle(pl, c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(teil) != math.Float64bits(wantTEIL) || chip != wantChip {
				t.Fatalf("EvaluateBaseline = %v, %v; oracle %v, %v", teil, chip, wantTEIL, wantChip)
			}
		})
	}
}
