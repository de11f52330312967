package place

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/anneal"
	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// DefaultCheckpointEvery is the outer-step interval between periodic
// checkpoints when Options.CheckpointPath is set but CheckpointEvery is not.
const DefaultCheckpointEvery = 5

// ctxCheckStride bounds how many inner-loop move attempts run between
// cancellation checks: small enough for prompt interruption, large enough
// to keep ctx.Err() off the per-move hot path. Cancellation observed at any
// stride point is resumable bit-identically because every mutable datum
// (placement, RNG streams, controller counters) is checkpointed.
const ctxCheckStride = 64

// Options configures a Stage 1 run.
type Options struct {
	// Seed drives all stochastic choices; equal seeds reproduce runs.
	Seed uint64
	// Ac is the number of attempted new states per cell per temperature
	// (Eqn 17, Figures 5–6); defaults to anneal.DefaultAc.
	Ac int
	// R is the ratio of single-cell displacements to pairwise interchanges
	// (Figure 3); defaults to anneal.DefaultR.
	R float64
	// Rho controls the range-limiter shrink rate (§3.2.2); defaults to 4.
	Rho float64
	// Eta sets the overlap normalization p2·C2 = η·C1 at T_∞ (Eqn 9);
	// defaults to 0.5.
	Eta float64
	// UseDr selects the uniform displacement-point function D_r instead of
	// the quantized D_s (§3.2.3 ablation).
	UseDr bool
	// CoreAspect is the target core height/width ratio; defaults to 1.
	CoreAspect float64
	// Params configures the interconnect-area estimator.
	Params estimate.Params
	// MaxSteps caps the temperature count (0 = paper stopping criterion).
	MaxSteps int
	// Core, if non-empty, overrides the computed target core region.
	Core geom.Rect
	// CheckpointPath, if non-empty, enables resumable checkpoints: a
	// snapshot is written atomically to this path every CheckpointEvery
	// outer steps and on context cancellation (see DESIGN.md §8).
	CheckpointPath string
	// CheckpointEvery is the outer-step interval between periodic
	// checkpoints; defaults to DefaultCheckpointEvery.
	CheckpointEvery int
	// CheckpointGuard, when non-nil, is consulted immediately before every
	// checkpoint write; a non-nil error aborts the write and the run. The
	// job layer uses it to validate its fencing token, so a stale worker
	// whose lease was taken over stops at the next checkpoint boundary
	// instead of overwriting the reclaimer's file (DESIGN.md §13). Not
	// persisted in checkpoints; supply it again on resume.
	CheckpointGuard func() error
	// Tel, when non-nil, receives trace events, metrics, and progress lines
	// for the run. Telemetry is observe-only — it never draws from the run's
	// RNG streams or alters decisions — so results are bit-identical with or
	// without it. Not persisted in checkpoints; supply it again on resume.
	Tel *telemetry.Tracer
	// Label names the run in trace events and metric names; defaults to
	// "stage1". Multi-start trials get a ".t<k>" suffix.
	Label string
}

// runLabel is the run's trace label: Label, or "stage1" when unset.
func (o *Options) runLabel() string {
	if o.Label == "" {
		return "stage1"
	}
	return o.Label
}

func (o *Options) fill() {
	if o.Ac <= 0 {
		o.Ac = anneal.DefaultAc
	}
	if o.R <= 0 {
		o.R = anneal.DefaultR
	}
	if o.Rho <= 0 {
		o.Rho = 4
	}
	if o.Eta <= 0 {
		o.Eta = 0.5
	}
	if o.CoreAspect <= 0 {
		o.CoreAspect = 1
	}
	if o.Params == (estimate.Params{}) {
		o.Params = estimate.DefaultParams()
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
}

// StepStat records one temperature step for the experiment harness.
type StepStat struct {
	T       float64
	Cost    float64
	TEIL    float64
	Overlap int64
}

// Result summarizes a Stage 1 run.
type Result struct {
	TEIL float64
	C1   float64
	// Overlap is the residual value of the C2 penalty (expanded tiles plus
	// border term) at T → T_0 (§3.2.2).
	Overlap int64
	// RawOverlap is actual cell-on-cell overlap of unexpanded tiles.
	RawOverlap int64
	C3         float64
	Steps      int
	Attempts   int64
	AcceptRate float64
	FinalT     float64
	P2         float64
	History    []StepStat
}

// Randomize scatters the cells uniformly over the core with random
// orientations and pin-site assignments: the random initial configuration
// of §3.2.1 (the initial state has no influence on the final TEIC).
func Randomize(p *Placement, src *rng.Source) {
	core := p.Core
	for i := range p.Circuit.Cells {
		// The reusable scratch state keeps the loop allocation-free; fixed
		// cells are refreshed too (their uncommitted pins are re-sited, and
		// the subtract/re-add of unchanged terms is part of the accumulator
		// history bit-identity is stated over).
		st := &p.scratchState
		p.StateInto(i, st)
		if p.Movable(i) {
			st.Pos = geom.Point{
				X: src.IntRange(core.XLo, core.XHi),
				Y: src.IntRange(core.YLo, core.YHi),
			}
			st.Orient = geom.Orient(src.Intn(geom.NumOrients))
		}
		for u := range st.Units {
			st.Units[u] = randomUnitAssign(p, i, u, src)
		}
		p.SetState(i, *st)
	}
}

func randomUnitAssign(p *Placement, cell, u int, src *rng.Source) UnitAssign {
	mask := p.units[cell][u].edges
	var edges [4]int
	n := 0
	for s := 0; s < 4; s++ {
		if mask.Has(sideOfMask(s)) {
			edges[n] = s
			n++
		}
	}
	if n == 0 {
		edges[0] = 0
		n = 1
	}
	return UnitAssign{
		Edge: edges[src.Intn(n)],
		Site: src.Intn(p.sitesPer[cell]),
	}
}

// CalibrateP2 estimates p2 so that p2·E[C2] = η·E[C1] over random states at
// T_∞ (Eqn 9). It samples full random placements and restores the original
// state afterwards. The snapshot lives in scratch buffers owned by the
// placement, so repeated calibrations allocate nothing.
func CalibrateP2(p *Placement, eta float64, src *rng.Source, samples int) float64 {
	if samples <= 0 {
		samples = 20
	}
	saved := p.snapshotScratch()
	var sumC1, sumC2 float64
	for s := 0; s < samples; s++ {
		Randomize(p, src)
		sumC1 += p.C1()
		sumC2 += float64(p.C2Raw())
	}
	for i := range saved {
		p.SetState(i, saved[i])
	}
	if sumC2 <= 0 {
		return 1
	}
	return eta * sumC1 / sumC2
}

// moveClass labels the paper's move kinds for per-class metrics: the A1
// displacement, its A1' inversion retry, the Ao orientation fallback, the
// Ap pin move, the At shape change, and the two interchange variants.
type moveClass uint8

const (
	mcDisplace moveClass = iota
	mcInvert
	mcOrient
	mcPin
	mcShape
	mcSwap
	mcSwapInvert
	numMoveClasses
)

var moveClassNames = [numMoveClasses]string{
	"displace", "invert", "orient", "pin", "shape", "swap", "swap-invert",
}

// moveSet is the data that sets one stage's annealer apart from another's
// besides its controller configuration: the generate function one
// inner-loop iteration runs, and the move classes it can attempt (the only
// ones whose metrics are registered).
type moveSet struct {
	generate func(*annealRun)
	classes  []moveClass
}

var (
	// stage1Moves is the full generate function of §3.2.1.
	stage1Moves = moveSet{(*annealRun).generateStage1,
		[]moveClass{mcDisplace, mcInvert, mcOrient, mcPin, mcShape, mcSwap, mcSwapInvert}}
	// refineMoves is the placement-refinement move set of §4.3: single-cell
	// displacements and pin-site moves only.
	refineMoves = moveSet{(*annealRun).generateRefine, []moveClass{mcDisplace, mcPin}}
)

// annealRun bundles the per-run state of one anneal: a Stage 1 run, one
// rung of a tempering ladder, or a Stage 2 refinement pass. They differ
// only in the controller configuration, the move set, and the options.
type annealRun struct {
	p       *Placement
	ctl     *anneal.Controller
	src     *rng.Source
	opt     Options
	moves   moveSet
	movable []int
	// st is the temperature scale factor S_T computed at run start; it is
	// carried in checkpoints because it depends on the initial random
	// placement and cannot be recomputed from a resumed state.
	st float64

	attempts int64
	history  []StepStat

	// Telemetry (observe-only; see internal/telemetry). tel == nil disables
	// everything: the hot path pays one pointer comparison and nothing else.
	// Instruments are resolved once at run start so recording a move is two
	// atomic adds and a histogram observe, with zero allocation.
	tel        *telemetry.Tracer
	runLabel   string
	mcAttempts [numMoveClasses]*telemetry.Counter
	mcAccepts  [numMoveClasses]*telemetry.Counter
	mcRatio    [numMoveClasses]*telemetry.Gauge
	deltaHist  *telemetry.Histogram
	gaugeT     *telemetry.Gauge
	gaugeBest  *telemetry.Gauge
	// Per-step cost gauges: cost, c1, teil, overlap, c3.
	gaugeCost, gaugeC1, gaugeTEIL, gaugeOverlap, gaugeC3 *telemetry.Gauge
	// best-so-far placement by full cost, sampled at step boundaries; the
	// usable result when a run is interrupted.
	best      []CellState
	bestCost  float64
	bestValid bool
	// resumeInner >= 0 resumes mid-step with that many inner iterations of
	// the current temperature step already executed; -1 starts (or resumes)
	// at an outer-step boundary.
	resumeInner int

	// cur and alt are reusable CellState buffers for the move generators:
	// cur snapshots the state being modified (and backs the revert), alt
	// holds the independent copy pin moves and interchanges need. Their
	// Units arrays grow to the per-cell maximum on first use and are reused
	// afterwards, keeping the inner loop at zero allocations per move.
	cur, alt CellState
}

// stage1Config builds the annealing controller configuration; RunStage1Ctx
// and Resume share it so a resumed controller is parameterized identically
// to the original.
func stage1Config(opt Options, st float64, core geom.Rect, numCells int) anneal.Config {
	return anneal.Config{
		ST:              st,
		Schedule:        anneal.Stage1Schedule(),
		Ac:              opt.Ac,
		NumCells:        numCells,
		WxInf:           2 * float64(core.W()),
		WyInf:           2 * float64(core.H()),
		Rho:             opt.Rho,
		StopOnMinWindow: true,
		MaxSteps:        opt.MaxSteps,
	}
}

// refineConfig builds a refinement pass's controller configuration (§4.3):
// the Table 2 schedule from the lowered start temperature of Eqn 26, ending
// at minimum window span, or after three inner loops of unchanged cost
// under StableStop. opt must be filled.
func refineConfig(opt RefineOptions, st float64, core geom.Rect, numCells int) anneal.Config {
	cfg := anneal.Config{
		ST:              st,
		TInf:            anneal.Stage2StartTemp(anneal.DefaultMu, anneal.StartTemp(st), opt.Rho),
		Schedule:        anneal.Stage2Schedule(),
		Ac:              opt.Ac,
		NumCells:        numCells,
		WxInf:           2 * float64(core.W()),
		WyInf:           2 * float64(core.H()),
		Rho:             opt.Rho,
		StopOnMinWindow: !opt.StableStop,
		MaxSteps:        opt.MaxSteps,
	}
	if opt.StableStop {
		cfg.StableSteps = 3
	}
	return cfg
}

// initTelemetry resolves the run's trace label and metric instruments. With
// no tracer every instrument stays nil (all nil-safe), so the disabled run
// does no lookups and no allocation.
func (s *annealRun) initTelemetry() {
	s.tel = s.opt.Tel
	s.runLabel = s.opt.runLabel()
	if s.tel == nil {
		return
	}
	reg := s.tel.Registry()
	for _, c := range s.moves.classes {
		base := s.runLabel + ".move." + moveClassNames[c]
		s.mcAttempts[c] = reg.Counter(base + ".attempts")
		s.mcAccepts[c] = reg.Counter(base + ".accepts")
		s.mcRatio[c] = reg.Gauge(base + ".accept_ratio")
	}
	s.deltaHist = reg.Histogram(s.runLabel+".delta_cost", telemetry.DeltaCostBounds())
	s.gaugeT = reg.Gauge(s.runLabel + ".T")
	s.gaugeBest = reg.Gauge(s.runLabel + ".best_cost")
	s.gaugeCost = reg.Gauge(s.runLabel + ".cost")
	s.gaugeC1 = reg.Gauge(s.runLabel + ".c1")
	s.gaugeTEIL = reg.Gauge(s.runLabel + ".teil")
	s.gaugeOverlap = reg.Gauge(s.runLabel + ".overlap")
	s.gaugeC3 = reg.Gauge(s.runLabel + ".c3")
}

// start resolves telemetry and emits the run-start event. t is the start
// temperature, recorded on tempering rungs only (0 leaves it out).
func (s *annealRun) start(t float64) {
	s.initTelemetry()
	s.tel.Emit(telemetry.Event{
		Type: telemetry.TypeRunStart, Run: s.runLabel, Label: s.p.Circuit.Name,
		Cells: len(s.p.Circuit.Cells), Seed: s.opt.Seed, Cost: s.p.Cost(), T: t,
	})
}

// record books one move attempt into the per-class metrics. Callers guard
// with s.tel != nil so the disabled hot path skips the call entirely.
func (s *annealRun) record(class moveClass, delta float64, accepted bool) {
	s.mcAttempts[class].Inc()
	if accepted {
		s.mcAccepts[class].Inc()
	}
	s.deltaHist.Observe(delta)
}

// RunStage1 executes the complete Stage 1 algorithm on the circuit and
// returns the final placement and run metrics. Use RunStage1Ctx to observe
// cancellation or checkpoint-write errors.
func RunStage1(c *netlist.Circuit, opt Options) (*Placement, Result) {
	p, res, _ := RunStage1Ctx(context.Background(), c, opt)
	return p, res
}

// RunStage1Ctx is RunStage1 with cancellation and checkpointing. On context
// cancellation the run stops at the next stride boundary, writes a
// resumable checkpoint (when Options.CheckpointPath is set), applies the
// best-so-far placement to the returned Placement, and returns an error
// wrapping ctx.Err(). Feed the checkpoint to Resume to continue the run:
// the resumed trajectory is bit-identical to the uninterrupted one.
func RunStage1Ctx(ctx context.Context, c *netlist.Circuit, opt Options) (*Placement, Result, error) {
	opt.fill()
	core := stage1CoreRegion(c, opt)
	est := estimate.New(c, core, opt.Params)
	p := New(c, core, est)
	src := rng.New(opt.Seed)
	Randomize(p, src)
	p.P2 = CalibrateP2(p, opt.Eta, src, 20)
	st := scaleFactor(p)
	ctl := anneal.NewController(stage1Config(opt, st, core, len(c.Cells)), src.Split())

	s := &annealRun{
		p: p, ctl: ctl, src: src, opt: opt, moves: stage1Moves, st: st,
		movable: p.MovableCells(), resumeInner: -1,
	}
	s.start(0)
	res, err := s.run(ctx)
	return p, res, err
}

// scaleFactor is the temperature scale S_T of a run starting from p: the
// average cell area including estimated interconnect (§3.3).
func scaleFactor(p *Placement) float64 {
	var expArea int64
	for i := range p.Circuit.Cells {
		expArea += p.Tiles(i).Area()
	}
	return anneal.ScaleFactor(float64(expArea) / float64(max(1, len(p.Circuit.Cells))))
}

// stage1CoreRegion computes the target core region for a run: the
// estimator-derived size (unless overridden), grown to cover any pre-placed
// cells. opt must be filled.
func stage1CoreRegion(c *netlist.Circuit, opt Options) geom.Rect {
	core := opt.Core
	if core.Empty() {
		core = estimate.CoreSize(c, opt.Params, opt.CoreAspect)
	}
	// Pre-placed cells must lie inside the core: grow it to cover them.
	for i := range c.Cells {
		cl := &c.Cells[i]
		if !cl.Fixed {
			continue
		}
		w, h := cl.Instances[0].Dims(1)
		bb := cl.FixedOrient.ApplyRect(geom.R(-w/2, -h/2, w-w/2, h-h/2)).
			Translate(cl.FixedPos)
		core = core.Union(bb.InflateUniform(2))
	}
	return core
}

// Resume continues a checkpointed Stage 1 run of either kind on the same
// circuit: a single anneal (from a step boundary or mid-step) or a
// parallel-tempering ladder. All annealing parameters come from the
// checkpoint, so the resumed run replays the original configuration
// exactly; opt supplies only the checkpoint-control fields
// (CheckpointPath, CheckpointEvery, CheckpointGuard), telemetry, and label
// for the continued run, and workers bounds a ladder's goroutines. The
// final placement, cost, and Result are bit-identical to the run the
// checkpoint was taken from had it never been interrupted — across any
// number of interrupt/resume cycles, at any worker count.
func Resume(ctx context.Context, c *netlist.Circuit, ck *AnyCheckpoint, opt Options, workers int) (*Placement, Result, error) {
	if err := ck.Validate(c); err != nil {
		return nil, Result{}, err
	}
	o := ck.Options().options()
	o.CheckpointPath = opt.CheckpointPath
	o.CheckpointEvery = opt.CheckpointEvery
	o.CheckpointGuard = opt.CheckpointGuard
	o.Tel = opt.Tel
	o.Label = opt.Label
	o.fill()
	if ck.Temper != nil {
		return resumeLadder(ctx, c, ck.Temper, o, workers)
	}
	sck := ck.Single
	s := restoreRun(c, sck.Core, sck.P2, stage1Config(o, sck.ST, sck.Core, len(c.Cells)), o, sck.run(), sck.InnerDone)
	res, err := s.run(ctx)
	return s.p, res, err
}

// restoreRun rebuilds a ready-to-run Stage 1 annealRun from one run's saved
// state r: a placement on core with r's cell states, its exact cost
// accumulators and the shared p2, the move RNG, a controller parameterized
// by cfg and then restored, the best-so-far, and the history. inner is the resume-inner
// index (-1 at a step boundary). Telemetry resolves under opt and records
// the resume. Resume uses it once for a single run, the ladder once per
// rung; r must have passed Validate.
func restoreRun(c *netlist.Circuit, core geom.Rect, p2 float64, cfg anneal.Config, opt Options, r *RunCheckpoint, inner int) *annealRun {
	p := New(c, core, estimate.New(c, core, opt.Params))
	for i := range r.States {
		p.SetState(i, cloneState(r.States[i]))
	}
	// Restore the exact cost accumulators: the incremental float sums
	// depend on the whole move history, and the per-move deltas that drive
	// Metropolis acceptance are computed from them.
	p.setCosts(r.Cost)
	p.P2 = p2

	src := rng.New(0)
	src.Restore(r.Src)
	ctl := anneal.NewController(cfg, rng.New(0))
	ctl.Restore(r.Ctl)

	s := &annealRun{
		p: p, ctl: ctl, src: src, opt: opt, moves: stage1Moves, st: cfg.ST,
		movable:     p.MovableCells(),
		attempts:    r.Attempts,
		history:     append([]StepStat(nil), r.History...),
		bestCost:    r.BestCost,
		bestValid:   r.BestValid,
		resumeInner: inner,
	}
	if r.BestValid {
		s.best = cloneStates(r.Best)
	}
	s.initTelemetry()
	if s.tel != nil {
		s.tel.Registry().Counter(s.runLabel + ".checkpoint.resumes").Inc()
		s.tel.Emit(telemetry.Event{
			Type: telemetry.TypeResume, Run: s.runLabel, Label: c.Name,
			Step: ctl.Step(), Inner: inner, Attempts: r.Attempts,
			Cost: p.Cost(), T: ctl.T(),
		})
		s.tel.Progressf("%s: resumed at step %d (inner %d, %d attempts)",
			s.runLabel, ctl.Step(), inner, r.Attempts)
	}
	return s
}

func cloneState(st CellState) CellState {
	st.Units = append([]UnitAssign(nil), st.Units...)
	return st
}

func cloneStates(states []CellState) []CellState {
	out := make([]CellState, len(states))
	for i := range states {
		out[i] = cloneState(states[i])
	}
	return out
}

// StartResult is one trial of a multi-start Stage 1 run.
type StartResult struct {
	// Trial is the trial index; Seed the derived seed the trial ran with.
	Trial int
	Seed  uint64
	// Cost is the trial's final Stage 1 objective C1 + p2·C2 + C3, the
	// winner-selection key.
	Cost   float64
	Result Result
	// Err is non-nil when the trial failed after retries or was cancelled;
	// failed trials do not participate in winner selection.
	Err error
}

// RunStage1N runs nstarts independent Stage 1 anneals of the circuit on a
// bounded worker pool and returns the best placement: PARSAC-style parallel
// trials exploiting SA's run-to-run variance. Trial 0 uses opt.Seed itself
// (so nstarts = 1 reproduces RunStage1 exactly); later trials use seeds
// fanned out from opt.Seed via rng.SplitSeeds. The winner is the trial with
// the lowest final cost, ties broken by the lowest trial index — a pure
// function of the trial results, so the outcome is independent of goroutine
// scheduling and worker count. workers <= 0 selects GOMAXPROCS.
//
// Fault isolation: a panicking or failing trial is retried once with its
// original index-derived seed, then reported in its StartResult.Err while
// the sibling trials complete; the returned error (non-nil when any trial
// failed) aggregates the per-trial failures. Cancelling ctx stops the
// trials; completed trials still compete for the winner. Checkpointing is a
// single-run facility: opt.CheckpointPath is ignored for nstarts > 1.
//
// The circuit is shared read-only across trials; each trial builds its own
// Placement and estimator.
func RunStage1N(ctx context.Context, c *netlist.Circuit, opt Options, nstarts, workers int) (*Placement, Result, []StartResult, error) {
	if nstarts < 1 {
		nstarts = 1
	}
	seeds := rng.New(opt.Seed).SplitSeeds(nstarts)
	seeds[0] = opt.Seed
	type trial struct {
		p   *Placement
		res Result
	}
	baseLabel := opt.runLabel()
	trials, tes := par.MapRetry(ctx, workers, nstarts, par.DefaultRetries, func(k int) (trial, error) {
		o := opt
		o.Seed = seeds[k]
		o.CheckpointPath = "" // per-trial checkpoints are not supported
		if nstarts > 1 {
			// Distinct labels keep concurrently-emitted trial events and
			// metric names apart (trace line order across trials is
			// scheduling-dependent; grouping by run label is not).
			o.Label = fmt.Sprintf("%s.t%d", baseLabel, k)
		}
		p, res, err := RunStage1Ctx(ctx, c, o)
		if err != nil {
			return trial{}, err
		}
		return trial{p: p, res: res}, nil
	})
	failed := par.Failed(tes)
	starts := make([]StartResult, nstarts)
	best := -1
	for k := range trials {
		starts[k] = StartResult{Trial: k, Seed: seeds[k]}
		if err, ok := failed[k]; ok {
			starts[k].Cost = math.Inf(1)
			starts[k].Err = err
			continue
		}
		starts[k].Cost = trials[k].p.Cost()
		starts[k].Result = trials[k].res
		if best < 0 || starts[k].Cost < starts[best].Cost {
			best = k
		}
	}
	if best < 0 {
		return nil, Result{}, starts, fmt.Errorf("place: all %d stage 1 trials failed: %w", nstarts, par.Join(tes))
	}
	return trials[best].p, trials[best].res, starts, par.Join(tes)
}

func (s *annealRun) run(ctx context.Context) (Result, error) {
	if len(s.movable) == 0 {
		// Everything pre-placed: nothing to anneal.
		return s.finish(nil)
	}
	if s.resumeInner >= 0 {
		// Finish the temperature step the checkpoint interrupted.
		if err := s.innerLoop(ctx, s.resumeInner); err != nil {
			return s.finish(err)
		}
		s.resumeInner = -1
		s.endStep()
		if err := s.maybeCheckpoint(); err != nil {
			return s.finish(err)
		}
	}
	for s.ctl.Next() {
		if err := s.innerLoop(ctx, 0); err != nil {
			return s.finish(err)
		}
		s.endStep()
		if err := s.maybeCheckpoint(); err != nil {
			return s.finish(err)
		}
	}
	return s.finish(nil)
}

// innerLoop executes the current temperature step's move attempts starting
// at iteration from (nonzero when resuming mid-step). On cancellation it
// writes a checkpoint recording exactly how far the step progressed (when
// the run has a checkpoint path) and returns an error wrapping ctx.Err().
func (s *annealRun) innerLoop(ctx context.Context, from int) error {
	inner := s.ctl.InnerIterations()
	for it := from; it < inner; it++ {
		if it%ctxCheckStride == 0 && ctx.Err() != nil {
			cause := ctx.Err()
			if s.opt.CheckpointPath != "" {
				if werr := s.saveCheckpoint(it); werr != nil {
					return fmt.Errorf("place: %s interrupted at step %d and checkpoint write failed: %v: %w",
						s.runLabel, s.ctl.Step(), werr, cause)
				}
			}
			return fmt.Errorf("place: %s interrupted at step %d: %w", s.runLabel, s.ctl.Step(), cause)
		}
		s.attempts++
		s.moves.generate(s)
	}
	return nil
}

// endStep closes the current temperature step: stopping-criterion
// accounting, history, best-so-far tracking, and the per-step trace event.
func (s *annealRun) endStep() {
	// Invariant place.cost: at every temperature-step boundary the
	// incremental cost accumulators must agree with a from-scratch
	// recomputation. Validate only observes (it restores the incremental
	// values), so the check cannot perturb the anneal (bit-identity is
	// pinned by tests).
	if invariant.Enabled() {
		if err := s.p.Validate(); err != nil {
			invariant.Failf("place.cost", "step %d: %v", s.ctl.Step(), err)
		}
	}
	cost := s.p.Cost()
	s.ctl.EndStep(cost)
	s.history = append(s.history, StepStat{
		T:       s.ctl.T(),
		Cost:    cost,
		TEIL:    s.p.TEIL(),
		Overlap: s.p.C2Raw(),
	})
	if !s.bestValid || cost < s.bestCost {
		s.bestValid = true
		s.bestCost = cost
		s.best = s.snapshotStates()
	}
	if s.tel != nil {
		wx, wy := s.ctl.Window()
		s.tel.Emit(telemetry.Event{
			Type: telemetry.TypeStep, Run: s.runLabel,
			Step: s.ctl.Step(), T: s.ctl.T(), Acc: s.ctl.StepAcceptRate(),
			Wx: wx, Wy: wy,
			Cost: cost, C1: s.p.C1(), C2: s.p.C2Raw(), C3: s.p.C3(),
			TEIL: s.p.TEIL(), Attempts: s.attempts,
		})
		s.gaugeCost.Set(cost)
		s.gaugeC1.Set(s.p.C1())
		s.gaugeTEIL.Set(s.p.TEIL())
		s.gaugeOverlap.Set(float64(s.p.C2Raw()))
		s.gaugeC3.Set(s.p.C3())
		// Annealing-health gauges for scrapes: schedule position, best cost
		// so far, and the cumulative acceptance ratio per move class.
		s.gaugeT.Set(s.ctl.T())
		s.gaugeBest.Set(s.bestCost)
		for _, c := range s.moves.classes {
			if n := s.mcAttempts[c].Value(); n > 0 {
				s.mcRatio[c].Set(float64(s.mcAccepts[c].Value()) / float64(n))
			}
		}
		s.tel.Progressf("%s: step %d T=%.4g cost=%.6g acc=%.2f",
			s.runLabel, s.ctl.Step(), s.ctl.T(), cost, s.ctl.StepAcceptRate())
	}
}

// maybeCheckpoint writes a boundary checkpoint when one is due.
func (s *annealRun) maybeCheckpoint() error {
	if s.opt.CheckpointPath == "" || s.ctl.Step()%s.opt.CheckpointEvery != 0 {
		return nil
	}
	return s.saveCheckpoint(-1)
}

func (s *annealRun) snapshotStates() []CellState {
	out := make([]CellState, len(s.p.Circuit.Cells))
	for i := range out {
		out[i] = s.p.State(i)
	}
	return out
}

// snapshot captures the run's resumable state. Best and History are
// shared, not copied: endStep replaces best rather than mutating it, and
// the capped history slice keeps later appends out of the snapshot.
func (s *annealRun) snapshot() RunCheckpoint {
	return RunCheckpoint{
		Ctl:       s.ctl.State(),
		Src:       s.src.State(),
		Cost:      s.p.costs(),
		States:    s.snapshotStates(),
		Best:      s.best,
		BestCost:  s.bestCost,
		BestValid: s.bestValid,
		Attempts:  s.attempts,
		History:   s.history[:len(s.history):len(s.history)],
	}
}

// saveCheckpoint writes the run's snapshot; innerDone is the number of
// inner iterations completed in the current step, or -1 at a boundary.
func (s *annealRun) saveCheckpoint(innerDone int) error {
	r := s.snapshot()
	ck := &Checkpoint{
		Version: checkpointFormat.Version, Circuit: s.p.Circuit.Name, Opt: snapshotOptions(s.opt),
		Core: s.p.Core, ST: s.st, P2: s.p.P2,
		Ctl: r.Ctl, Src: r.Src, InnerDone: innerDone, Attempts: r.Attempts, Cost: r.Cost,
		States: r.States, Best: r.Best, BestCost: r.BestCost, BestValid: r.BestValid, History: r.History,
	}
	return writeCheckpoint(&s.opt, s.runLabel, &AnyCheckpoint{Single: ck}, s.ctl.Step(), innerDone)
}

// writeCheckpoint is every checkpoint write, single-run and ladder alike:
// the guard, the atomic save to opt.CheckpointPath, then run's
// checkpoint.* metrics and trace event. step and inner locate the snapshot
// (inner is -1 at a step boundary).
func writeCheckpoint(opt *Options, run string, ck *AnyCheckpoint, step, inner int) error {
	if g := opt.CheckpointGuard; g != nil {
		if err := g(); err != nil {
			return err
		}
	}
	start := time.Now()
	err := SaveCheckpoint(opt.CheckpointPath, ck)
	tel := opt.Tel
	if err != nil || tel == nil {
		return err
	}
	durMS := float64(time.Since(start)) / float64(time.Millisecond)
	var size int64
	if fi, serr := os.Stat(opt.CheckpointPath); serr == nil {
		size = fi.Size()
	}
	reg := tel.Registry()
	reg.Counter(run + ".checkpoint.writes").Inc()
	reg.Counter(run + ".checkpoint.bytes").Add(size)
	reg.Gauge(run + ".checkpoint.last_ms").Set(durMS)
	tel.Emit(telemetry.Event{
		Type: telemetry.TypeCheckpoint, Run: run,
		Step: step, Inner: inner, Bytes: size, DurMS: durMS,
	})
	return nil
}

// finish assembles the Result. When the run was interrupted (err != nil)
// and a better-than-current placement was seen earlier, the best-so-far
// states are applied so the caller gets the strongest usable placement; the
// checkpoint written at the interruption point already captured the exact
// in-flight state, so resumability is unaffected.
func (s *annealRun) finish(err error) (Result, error) {
	if err != nil && s.bestValid && s.bestCost < s.p.Cost() {
		for i, st := range s.best {
			s.p.SetState(i, cloneState(st))
		}
	}
	res := Result{
		TEIL:       s.p.TEIL(),
		C1:         s.p.C1(),
		Overlap:    s.p.C2Raw(),
		RawOverlap: s.p.RawOverlap(),
		C3:         s.p.C3(),
		Steps:      s.ctl.Step(),
		Attempts:   s.attempts,
		AcceptRate: s.ctl.AcceptRate(),
		FinalT:     s.ctl.T(),
		P2:         s.p.P2,
		History:    s.history,
	}
	s.tel.Emit(telemetry.Event{
		Type: telemetry.TypeRunEnd, Run: s.runLabel,
		Step: res.Steps, T: res.FinalT, Acc: res.AcceptRate,
		Cost: s.p.Cost(), TEIL: res.TEIL, Attempts: res.Attempts,
	})
	return res, err
}

// tryMove applies st to cell i and keeps it if the Metropolis criterion
// accepts the cost change; old is the caller's snapshot of cell i's current
// state, reused for the revert so the attempt allocates nothing. class
// labels the attempt for per-class metrics; recording happens after the
// accept decision, so it cannot perturb it.
func (s *annealRun) tryMove(i int, old *CellState, st CellState, class moveClass) bool {
	before := s.p.Cost()
	s.p.SetState(i, st)
	delta := s.p.Cost() - before
	ok := s.ctl.Accept(delta)
	if s.tel != nil {
		s.record(class, delta, ok)
	}
	if ok {
		return true
	}
	s.p.SetState(i, *old)
	return false
}

// generateStage1 is one attempt of the paper's generate function (§3.2.1):
// a displacement with probability R/(R+1), else a pairwise interchange.
func (s *annealRun) generateStage1() {
	if s.src.Bool(s.opt.R / (s.opt.R + 1)) {
		s.generateDisplacement()
	} else {
		s.generateInterchange()
	}
}

// generateRefine is one attempt of the refinement generate function
// (§4.3): a pin-site move, one time in four for a custom cell with
// uncommitted pins, else a single-cell displacement (A1 alone).
// Orientations and shapes stay fixed.
func (s *annealRun) generateRefine() {
	p := s.p
	i := s.movable[s.src.Intn(len(s.movable))]
	if p.Circuit.Cells[i].Kind == netlist.Custom && p.Units(i) > 0 && s.src.Bool(0.25) {
		s.tryPinMove(i)
		return
	}
	cur := &s.cur
	p.StateInto(i, cur)
	st := *cur
	st.Pos = s.displacementTarget(cur.Pos)
	s.tryMove(i, cur, st, mcDisplace)
}

// displacementTarget draws a displacement inside the range-limiter window
// (D_s, or D_r under UseDr) and applies it to pos, clamped to the core.
func (s *annealRun) displacementTarget(pos geom.Point) geom.Point {
	wx, wy := s.ctl.Window()
	var dx, dy int
	if s.opt.UseDr {
		dx, dy = anneal.PickDisplacementDr(s.src, wx, wy)
	} else {
		dx, dy = anneal.PickDisplacementDs(s.src, wx, wy)
	}
	core := s.p.Core
	return geom.Point{
		X: clamp(pos.X+dx, core.XLo, core.XHi),
		Y: clamp(pos.Y+dy, core.YLo, core.YHi),
	}
}

// generateDisplacement implements the move_type == 1 branch of the paper's
// generate function (§3.2.1).
func (s *annealRun) generateDisplacement() {
	p := s.p
	i := s.movable[s.src.Intn(len(s.movable))]
	cur := &s.cur
	p.StateInto(i, cur)

	// A1: displace cell i to the target location. The trial state shares
	// cur's Units backing: displacement and orientation moves never touch
	// unit assignments, and SetState copies the values out.
	st := *cur
	st.Pos = s.displacementTarget(cur.Pos)
	if !s.tryMove(i, cur, st, mcDisplace) {
		// A1': retry with an aspect-ratio-inverting orientation
		// (Figure 2: cell C2 fits the target slot once inverted).
		st.Orient = s.randomInversion(cur.Orient)
		if !s.tryMove(i, cur, st, mcInvert) {
			// Ao: random orientation change in place.
			st = *cur
			st.Orient = geom.Orient(s.src.Intn(geom.NumOrients))
			if st.Orient != cur.Orient {
				s.tryMove(i, cur, st, mcOrient)
			}
		}
	}

	if p.Circuit.Cells[i].Kind == netlist.Custom {
		// Ap: one site-displacement attempt per uncommitted pin unit.
		for k := 0; k < p.Units(i); k++ {
			s.tryPinMove(i)
		}
		// At: aspect-ratio (or instance) change within bounds.
		s.tryShapeChange(i)
	}
}

// generateInterchange implements the move_type == 2 branch: a pairwise
// interchange, retried with aspect inversions on rejection.
func (s *annealRun) generateInterchange() {
	n := len(s.movable)
	if n < 2 {
		return
	}
	a := s.src.Intn(n)
	b := s.src.Intn(n - 1)
	if b >= a {
		b++
	}
	i, j := s.movable[a], s.movable[b]
	if !s.trySwap(i, j, false) {
		s.trySwap(i, j, true)
	}
}

func (s *annealRun) trySwap(i, j int, invert bool) bool {
	p := s.p
	before := p.Cost()
	oi, oj := &s.cur, &s.alt
	p.StateInto(i, oi)
	p.StateInto(j, oj)
	// The trial states share the snapshots' Units backing: interchanges
	// never touch unit assignments, and SetState copies the values out.
	ni, nj := *oi, *oj
	ni.Pos, nj.Pos = oj.Pos, oi.Pos
	class := mcSwap
	if invert {
		ni.Orient = s.randomInversion(ni.Orient)
		nj.Orient = s.randomInversion(nj.Orient)
		class = mcSwapInvert
	}
	p.SetState(i, ni)
	p.SetState(j, nj)
	delta := p.Cost() - before
	ok := s.ctl.Accept(delta)
	if s.tel != nil {
		s.record(class, delta, ok)
	}
	if ok {
		return true
	}
	p.SetState(i, *oi)
	p.SetState(j, *oj)
	return false
}

// tryPinMove displaces one random uncommitted pin unit of cell i to a new
// edge/site assignment.
func (s *annealRun) tryPinMove(i int) bool {
	p := s.p
	if p.Units(i) == 0 {
		return false
	}
	u := s.src.Intn(p.Units(i))
	p.StateInto(i, &s.cur)
	p.StateInto(i, &s.alt)
	s.alt.Units[u] = randomUnitAssign(p, i, u, s.src)
	return s.tryMove(i, &s.cur, s.alt, mcPin)
}

// tryShapeChange attempts an aspect-ratio change within the instance's
// bounds, or an instance switch when the cell has alternatives.
func (s *annealRun) tryShapeChange(i int) bool {
	p := s.p
	cl := &p.Circuit.Cells[i]
	cur := &s.cur
	p.StateInto(i, cur)
	// The trial state shares cur's Units backing: shape moves never touch
	// unit assignments.
	st := *cur
	if len(cl.Instances) > 1 && s.src.Bool(0.3) {
		next := s.src.Intn(len(cl.Instances) - 1)
		if next >= st.Instance {
			next++
		}
		st.Instance = next
		in := &cl.Instances[next]
		if in.IsCustomShape() {
			st.Aspect = in.ClampAspect(st.Aspect)
		}
		return s.tryMove(i, cur, st, mcShape)
	}
	in := &cl.Instances[st.Instance]
	if !in.IsCustomShape() {
		return false
	}
	if len(in.AspectChoices) > 0 {
		st.Aspect = in.AspectChoices[s.src.Intn(len(in.AspectChoices))]
	} else {
		factor := math.Exp((s.src.Float64()*2 - 1) * 0.4)
		st.Aspect = in.ClampAspect(st.Aspect * factor)
	}
	return s.tryMove(i, cur, st, mcShape)
}

// randomInversion returns a random orientation with the opposite axis-swap
// parity: the "aspect ratio inversion" of §3.2.1.
func (s *annealRun) randomInversion(o geom.Orient) geom.Orient {
	inv := o.AspectInversions()
	return inv[s.src.Intn(len(inv))]
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
