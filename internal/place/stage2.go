package place

import (
	"context"

	"repro/internal/anneal"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// RefineOptions configures one placement-refinement pass (§4.3).
type RefineOptions struct {
	Seed uint64
	// Ac is the number of attempts per cell per temperature.
	Ac int
	// Rho is the range-limiter shrink rate.
	Rho float64
	// StableStop selects the third-iteration stopping criterion: the run
	// ends when the cost is unchanged for 3 consecutive inner loops
	// instead of at minimum window span.
	StableStop bool
	// MaxSteps bounds the temperature count (0 = no bound).
	MaxSteps int
	// Tel, when non-nil, receives trace events, metrics, and progress lines.
	// Observe-only: results are bit-identical with or without it.
	Tel *telemetry.Tracer
	// Label names the pass in trace events and metric names; defaults to
	// "refine".
	Label string
}

func (o *RefineOptions) fill() {
	if o.Ac <= 0 {
		o.Ac = anneal.DefaultAc
	}
	if o.Rho <= 0 {
		o.Rho = 4
	}
	if o.Label == "" {
		o.Label = "refine"
	}
}

// RefineResult summarizes one refinement pass.
type RefineResult struct {
	TEIL       float64
	Overlap    int64
	Steps      int
	AcceptRate float64
}

// RunRefineCtx performs one low-temperature placement-refinement pass on
// p, using the given static per-cell, per-world-side expansions (half the
// required channel width per bordering edge, from channel definition and
// global routing). The pass runs on the Stage 1 annealer with the
// refinement controller configuration and move set: new states come only
// from single-cell displacements and pin-placement alterations;
// orientations and aspect ratios stay fixed (§4.3).
//
// On cancellation the pass stops at the next inner-loop stride, applies
// the best-so-far placement seen at a step boundary when it beats the
// current one, and returns an error wrapping ctx.Err(). Refinement starts
// from an already-valid placement, so a cancelled pass still leaves p
// usable (merely less refined); there is no checkpoint to write.
func RunRefineCtx(ctx context.Context, p *Placement, widths [][4]int, opt RefineOptions) (RefineResult, error) {
	s := newRefineRun(p, widths, opt)
	s.start(0)
	res, err := s.run(ctx)
	return RefineResult{
		TEIL:       res.TEIL,
		Overlap:    res.Overlap,
		Steps:      res.Steps,
		AcceptRate: res.AcceptRate,
	}, err
}

// newRefineRun switches p to the given static expansions and builds the
// refinement pass over it, ready to start.
func newRefineRun(p *Placement, widths [][4]int, opt RefineOptions) *annealRun {
	opt.fill()
	p.Est = nil
	for i := range p.Circuit.Cells {
		var w [4]int
		if i < len(widths) {
			w = widths[i]
		}
		p.SetStaticExpansion(i, w)
	}
	st := scaleFactor(p)
	src := rng.New(opt.Seed)
	ctl := anneal.NewController(refineConfig(opt, st, p.Core, len(p.Circuit.Cells)), src.Split())
	return &annealRun{
		p: p, ctl: ctl, src: src, moves: refineMoves, st: st,
		opt: Options{
			Seed: opt.Seed, Ac: opt.Ac, Rho: opt.Rho, MaxSteps: opt.MaxSteps,
			Tel: opt.Tel, Label: opt.Label,
		},
		movable: p.MovableCells(), resumeInner: -1,
	}
}
