// Package core orchestrates the complete TimberWolfMC flow: Stage 1
// simulated-annealing placement with the dynamic interconnect-area estimator
// (§3), followed by Stage 2's three executions of channel definition, global
// routing, and low-temperature placement refinement (§4).
package core

import (
	"context"
	"fmt"

	"repro/internal/channel"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/refine"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// Stage2SeedOffset is added to Options.Seed to seed Stage 2, so the
// refinement anneal draws a stream independent of Stage 1's.
const Stage2SeedOffset = 0x5eed

// Options configures a full TimberWolfMC run. Zero values select the
// paper's defaults.
type Options struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Ac is the attempts-per-cell inner-loop criterion (Figures 5–6;
	// default 400). Smaller values trade quality for speed, as in the
	// paper's early-design-phase recommendation.
	Ac int
	// R is the displacement:interchange ratio (Figure 3; default 10).
	R float64
	// Rho is the range-limiter shrink rate (default 4).
	Rho float64
	// Eta is the overlap-normalization target (Eqn 9; default 0.5).
	Eta float64
	// CoreAspect is the target core height/width ratio (default 1).
	CoreAspect float64
	// M is the number of alternative routes per net (default 20).
	M int
	// Iterations is the number of Stage 2 refinement executions
	// (default 3).
	Iterations int
	// Starts is the number of independent Stage 1 anneals; the trial with
	// the lowest final cost wins (deterministically, independent of worker
	// scheduling). Values <= 1 run the single classic anneal.
	Starts int
	// Replicas enables parallel tempering within the Stage 1 run: K coupled
	// anneals at staggered temperatures with deterministic replica-exchange
	// moves (see place.RunStage1TemperedCtx). Values <= 1 run the single
	// classic anneal. Mutually exclusive with Starts > 1.
	Replicas int
	// Workers bounds the goroutines used when Starts > 1 or Replicas > 1,
	// and those of the global router's phase one (0 = GOMAXPROCS). Results
	// are identical for every value.
	Workers int
	// SkipStage2 stops after Stage 1 (for estimator-accuracy studies).
	SkipStage2 bool
	// MaxSteps bounds each annealing run (tests only; 0 = paper
	// criteria).
	MaxSteps int
	// CheckpointPath enables resumable Stage 1 checkpoints at this path
	// (see place.Options.CheckpointPath). Incompatible with Starts > 1:
	// checkpointing is a single-run facility.
	CheckpointPath string
	// CheckpointEvery is the outer-step interval between periodic
	// checkpoints (default place.DefaultCheckpointEvery).
	CheckpointEvery int
	// CheckpointGuard is consulted before every checkpoint write; a non-nil
	// error aborts the write and the run (see place.Options.CheckpointGuard).
	CheckpointGuard func() error
	// Tel, when non-nil, receives trace events, metrics, and progress lines
	// from every stage of the flow. Telemetry is observe-only, so results
	// are bit-identical with or without it (TestTelemetryBitIdentity).
	Tel *telemetry.Tracer
}

// Result is the outcome of a full run.
type Result struct {
	// Placement is the final cell placement.
	Placement *place.Placement
	// Stage1 reports the Stage 1 metrics; Stage1TEIL and Stage1Area are
	// the Table 3 comparison points (end of Stage 1).
	Stage1     place.Result
	Stage1TEIL float64
	Stage1Area int64
	// Stage2 reports the refinement iterations and final routing; nil
	// when SkipStage2 is set.
	Stage2 *refine.Result
	// TEIL is the final total estimated interconnect length.
	TEIL float64
	// Chip is the final chip extent; its dimensions are the
	// "Area (x × y)" column of Table 4.
	Chip geom.Rect
}

// ChipArea returns the final chip area.
func (r *Result) ChipArea() int64 { return r.Chip.Area() }

// DRC runs the sign-off legality checks on the result: the placement checks
// always, plus the routing checks when Stage 2 produced a routing. This is
// the validation gate the job service applies before marking a job
// succeeded, and what twmc -drc reports.
func (r *Result) DRC() *drc.Result {
	var g *channel.Graph
	var rt *route.Result
	if r.Stage2 != nil {
		g, rt = r.Stage2.Graph, r.Stage2.Routing
	}
	return drc.Check(r.Placement, g, rt)
}

// TEILChangePct returns the percentage change in TEIL from the end of
// Stage 1 to the end of Stage 2 (negative = reduction): the Table 3 metric.
func (r *Result) TEILChangePct() float64 {
	if r.Stage1TEIL == 0 {
		return 0
	}
	return (r.TEIL - r.Stage1TEIL) / r.Stage1TEIL * 100
}

// AreaChangePct returns the percentage change in chip area from the end of
// Stage 1 to the end of Stage 2: the Table 3 metric.
func (r *Result) AreaChangePct() float64 {
	if r.Stage1Area == 0 {
		return 0
	}
	return float64(r.ChipArea()-r.Stage1Area) / float64(r.Stage1Area) * 100
}

// Place runs the complete TimberWolfMC flow on the circuit from a fresh
// Stage 1 anneal.
func Place(c *netlist.Circuit, opt Options) (*Result, error) {
	return Run(context.Background(), c, Start{}, opt)
}

// PlaceCtx is Place with cancellation and checkpointing: Run from a fresh
// start.
func PlaceCtx(ctx context.Context, c *netlist.Circuit, opt Options) (*Result, error) {
	return Run(ctx, c, Start{}, opt)
}

// Start selects where Run enters the flow. The zero Start is a fresh
// Stage 1 anneal; at most one field may be set.
type Start struct {
	// Checkpoint resumes an interrupted Stage 1 run of either kind (single
	// anneal or tempering ladder) and carries it through Stage 2. The
	// annealing parameters are replayed from the checkpoint itself,
	// including the Stage 2 seed derivation from its Seed/Ac/Rho/MaxSteps,
	// so the final layout is bit-identical to the uninterrupted run;
	// Options supply only the Stage 2 shape (Iterations, M, SkipStage2),
	// Workers, and the checkpoint-control fields of the continued run, and
	// Starts/Replicas are ignored.
	Checkpoint *place.AnyCheckpoint
	// Placement is a placement of the circuit made elsewhere: a layout
	// reloaded with place.ReadPlacement (the incremental-rework path) or a
	// baseline placer's output (Table 4). Run skips Stage 1 and runs
	// Stage 2 only (channel definition, global routing, refinement) on it
	// in place.
	Placement *place.Placement
}

// Run carries the circuit through the TimberWolfMC flow from the given
// start: Stage 1 (fresh, or resumed from a checkpoint) and then Stage 2,
// or Stage 2 alone from a saved placement. On cancellation it returns the
// best placement reached so far together with an error wrapping ctx.Err();
// when Options.CheckpointPath is set a Stage 1 interruption also leaves a
// resumable checkpoint there (load it with place.LoadCheckpoint and Run
// again with Start.Checkpoint). A cancelled multi-start run (Starts > 1)
// still selects the winner among the trials that completed, reporting the
// cancelled trials in the error.
func Run(ctx context.Context, c *netlist.Circuit, from Start, opt Options) (*Result, error) {
	if err := netlist.Validate(c); err != nil {
		return nil, err
	}
	switch {
	case from.Checkpoint != nil && from.Placement != nil:
		return nil, fmt.Errorf("core: start from a checkpoint or a placement, not both")
	case from.Checkpoint != nil:
		p, s1, err := place.Resume(ctx, c, from.Checkpoint, place.Options{
			CheckpointPath:  opt.CheckpointPath,
			CheckpointEvery: opt.CheckpointEvery,
			CheckpointGuard: opt.CheckpointGuard,
			Tel:             opt.Tel,
		}, opt.Workers)
		if err != nil && p == nil {
			return nil, err
		}
		// Stage 2 replays the parameters the checkpoint was written under,
		// so a resumed flow matches the uninterrupted one exactly.
		ck := from.Checkpoint.Options()
		opt.Seed, opt.Ac, opt.Rho, opt.MaxSteps = ck.Seed, ck.Ac, ck.Rho, ck.MaxSteps
		return handOff(ctx, p, s1, err, opt)
	case from.Placement != nil:
		if from.Placement.Circuit != c {
			return nil, fmt.Errorf("core: start placement is of circuit %q, not of the circuit %q being run",
				from.Placement.Circuit.Name, c.Name)
		}
		return handOff(ctx, from.Placement, place.Result{}, nil, opt)
	}
	if opt.CheckpointPath != "" && opt.Starts > 1 {
		return nil, fmt.Errorf("core: checkpointing is incompatible with %d parallel starts (run a single start, or drop the checkpoint)", opt.Starts)
	}
	if opt.Replicas > 1 && opt.Starts > 1 {
		return nil, fmt.Errorf("core: parallel tempering (%d replicas) is incompatible with %d parallel starts", opt.Replicas, opt.Starts)
	}
	s1opt := place.Options{
		Seed:            opt.Seed,
		Ac:              opt.Ac,
		R:               opt.R,
		Rho:             opt.Rho,
		Eta:             opt.Eta,
		CoreAspect:      opt.CoreAspect,
		MaxSteps:        opt.MaxSteps,
		CheckpointPath:  opt.CheckpointPath,
		CheckpointEvery: opt.CheckpointEvery,
		CheckpointGuard: opt.CheckpointGuard,
		Tel:             opt.Tel,
	}
	var (
		p   *place.Placement
		s1  place.Result
		err error
	)
	switch {
	case opt.Starts > 1:
		p, s1, _, err = place.RunStage1N(ctx, c, s1opt, opt.Starts, opt.Workers)
		if p == nil {
			return nil, fmt.Errorf("core: stage 1: %w", err)
		}
	case opt.Replicas > 1:
		p, s1, err = place.RunStage1TemperedCtx(ctx, c, s1opt, opt.Replicas, opt.Workers)
	default:
		p, s1, err = place.RunStage1Ctx(ctx, c, s1opt)
	}
	return handOff(ctx, p, s1, err, opt)
}

// handOff assembles the Result for p, which Stage 1 (or the caller's start
// placement) left with metrics s1, and carries it through Stage 2 unless
// Stage 1 ended with s1err — an interruption or partial failure, handed
// back as is with any configured checkpoint already written — or
// opt.SkipStage2 is set. The final TEIL and chip are read from p, so they
// hold on every return, an interrupted Stage 2 included.
//
// The Stage 2 seed is derived from the Stage 1 seed identically on every
// start (fresh, given placement, checkpoint) so the downstream
// trajectory never depends on how Stage 1 was executed.
func handOff(ctx context.Context, p *place.Placement, s1 place.Result, s1err error, opt Options) (*Result, error) {
	res := &Result{
		Placement:  p,
		Stage1:     s1,
		Stage1TEIL: p.TEIL(),
		Stage1Area: p.ExpandedBounds().Area(),
		TEIL:       p.TEIL(),
		Chip:       p.ExpandedBounds(),
	}
	if s1err != nil || opt.SkipStage2 {
		return res, s1err
	}
	s2, err := refine.RunCtx(ctx, p, refine.Options{
		Seed:       opt.Seed + Stage2SeedOffset,
		Iterations: opt.Iterations,
		Ac:         opt.Ac,
		Rho:        opt.Rho,
		M:          opt.M,
		MaxSteps:   opt.MaxSteps,
		Workers:    opt.Workers,
		Tel:        opt.Tel,
	})
	res.Stage2 = s2
	res.TEIL = p.TEIL()
	res.Chip = p.ExpandedBounds()
	if err != nil {
		return res, fmt.Errorf("core: stage 2: %w", err)
	}
	return res, nil
}
