package place

import (
	"context"
	"fmt"
	"math"

	"repro/internal/anneal"
	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// TemperGamma is the temperature-ladder spacing factor for parallel
// tempering: replica k anneals at T_∞·γ^k. The hotter replicas explore
// coarse rearrangements the base replica's Metropolis criterion would
// reject, and the exchange moves funnel their discoveries down the ladder.
const TemperGamma = 1.5

// RunStage1TemperedCtx runs Stage 1 with parallel tempering (replica
// exchange): `replicas` coupled anneals of the same circuit at staggered
// temperatures T_∞·γ^k, advancing in lockstep. After every temperature step,
// adjacent replica pairs (alternating parity by step, so every rung of the
// ladder is exercised) may swap their placements under the replica-exchange
// Metropolis criterion
//
//	P(swap) = min(1, exp((1/T_i − 1/T_j)·(C_i − C_j)))
//
// so a hotter replica that found a lower-cost configuration hands it down
// the ladder with probability 1 (see DESIGN.md §12).
//
// Determinism: each replica runs on its own RNG stream fanned out of
// opt.Seed via rng.SplitSeeds, the exchange decisions draw from a dedicated
// stream, exactly one draw per considered pair regardless of outcome, and
// the step barrier plus index-addressed parallelism (internal/par) make the
// result byte-identical for a fixed seed at any worker count. workers <= 0
// selects GOMAXPROCS; replicas <= 1 degenerates to RunStage1Ctx.
//
// All replicas share the cost function: p2 is calibrated once on replica
// 0's initial placement, and the temperature scale factor S_T likewise.
// The returned placement is the lowest-cost replica's (ties to the lowest
// replica index — a pure function of the results, scheduling-independent).
//
// Checkpointing: with opt.CheckpointPath set, a TemperCheckpoint snapshot
// of all replicas is written at step boundaries (every CheckpointEvery
// steps, and on cancellation the last boundary is written, so resume re-runs
// the interrupted step). Feed it to Resume; the resumed trajectory is
// bit-identical to the uninterrupted one.
func RunStage1TemperedCtx(ctx context.Context, c *netlist.Circuit, opt Options, replicas, workers int) (*Placement, Result, error) {
	if replicas <= 1 {
		return RunStage1Ctx(ctx, c, opt)
	}
	opt.fill()
	core := stage1CoreRegion(c, opt)
	seeds := ladderSeeds(opt.Seed, replicas)
	xsrc := rng.New(seeds[replicas])

	reps := make([]*annealRun, replicas)
	// Replica construction is independent per slot (own placement, own
	// estimator, own RNG), so it parallelizes without ordering effects.
	par.ForEach(workers, replicas, func(k int) {
		est := estimate.New(c, core, opt.Params)
		p := New(c, core, est)
		src := rng.New(seeds[k])
		Randomize(p, src)
		reps[k] = &annealRun{p: p, src: src, moves: stage1Moves, resumeInner: -1}
	})

	// One cost function for the whole ladder: p2 and S_T from replica 0.
	p0 := reps[0].p
	p0.P2 = CalibrateP2(p0, opt.Eta, reps[0].src, 20)
	st := scaleFactor(p0)

	for k, s := range reps {
		s.p.P2 = p0.P2
		s.ctl = anneal.NewController(rungConfig(opt, st, core, len(c.Cells), k), s.src.Split())
		s.opt = rungOptions(opt, seeds, k)
		s.st = st
		s.movable = s.p.MovableCells()
		s.start(s.ctl.T())
	}
	return newTemperRun(c, reps, xsrc, opt, workers).run(ctx)
}

// resumeLadder continues a tempering checkpoint: every rung through
// restoreRun, then the exchange stream and counters, re-entering the
// lockstep loop at the step the snapshot closed. o holds the replayed,
// filled options of the ladder.
func resumeLadder(ctx context.Context, c *netlist.Circuit, tck *TemperCheckpoint, o Options, workers int) (*Placement, Result, error) {
	seeds := ladderSeeds(o.Seed, tck.Replicas)
	reps := make([]*annealRun, tck.Replicas)
	for k := range reps {
		reps[k] = restoreRun(c, tck.Core, tck.P2, rungConfig(o, tck.ST, tck.Core, len(c.Cells), k),
			rungOptions(o, seeds, k), &tck.Reps[k], -1)
	}
	xsrc := rng.New(0)
	xsrc.Restore(tck.XSrc)
	t := newTemperRun(c, reps, xsrc, o, workers)
	t.xAttempts, t.xAccepts = tck.ExchAttempts, tck.ExchAccepts
	if t.tel != nil {
		t.tel.Progressf("%s: tempering resumed at step %d (%d replicas)",
			t.label, reps[0].ctl.Step(), len(reps))
	}
	return t.run(ctx)
}

// ladderSeeds fans the per-replica move streams plus one exchange stream
// (the last) out of the run seed. Replica 0 keeps seed itself, mirroring
// RunStage1N's trial-0 convention.
func ladderSeeds(seed uint64, replicas int) []uint64 {
	seeds := rng.New(seed).SplitSeeds(replicas + 1)
	seeds[0] = seed
	return seeds
}

// rungConfig is rung k's controller configuration: the Stage 1 schedule,
// with T_∞ raised by γ^k above the base rung's.
func rungConfig(opt Options, st float64, core geom.Rect, numCells, k int) anneal.Config {
	cfg := stage1Config(opt, st, core, numCells)
	if k > 0 {
		cfg.TInf = anneal.StartTemp(st) * math.Pow(TemperGamma, float64(k))
	}
	return cfg
}

// rungOptions is rung k's run options: its own seed and trace label, and no
// checkpoint path, because checkpoints are ladder-wide, not per replica.
func rungOptions(opt Options, seeds []uint64, k int) Options {
	o := opt
	o.Seed = seeds[k]
	o.CheckpointPath = ""
	o.Label = fmt.Sprintf("%s.r%d", opt.runLabel(), k)
	return o
}

// temperRun drives the coupled replica ladder: lockstep temperature steps,
// parallel inner loops, serial exchange passes, and ladder-wide boundary
// checkpoints.
type temperRun struct {
	c       *netlist.Circuit
	reps    []*annealRun
	xsrc    *rng.Source // exchange-decision stream
	opt     Options     // ladder-wide options (checkpoint control lives here)
	workers int
	label   string
	tel     *telemetry.Tracer

	xAttempts, xAccepts int64
	errs                []error // per-replica inner-loop errors, reused
	// boundary is the snapshot of the last completed step (or the initial
	// state), written out on cancellation so the interrupted step re-runs
	// on resume. Captured only when checkpointing is enabled.
	boundary *TemperCheckpoint
}

func newTemperRun(c *netlist.Circuit, reps []*annealRun, xsrc *rng.Source, opt Options, workers int) *temperRun {
	return &temperRun{
		c: c, reps: reps, xsrc: xsrc, opt: opt,
		workers: workers, label: opt.runLabel(), tel: opt.Tel,
		errs: make([]error, len(reps)),
	}
}

func (t *temperRun) run(ctx context.Context) (*Placement, Result, error) {
	if t.opt.CheckpointPath != "" {
		t.boundary = t.buildCheckpoint()
	}
	// Replica 0 — the base-temperature anneal with the paper's schedule and
	// stopping criterion — decides when the ladder is done; the hotter
	// replicas advance in lockstep (their own, later-firing criteria are
	// ignored: a hotter rung never quenches before the base).
	for t.reps[0].ctl.Next() {
		for _, s := range t.reps[1:] {
			s.ctl.Next()
		}
		// Parallel inner loops: each slot touches only its own replica, so
		// any worker count produces the same per-replica trajectories.
		for k := range t.errs {
			t.errs[k] = nil
		}
		par.ForEach(t.workers, len(t.reps), func(k int) {
			t.errs[k] = t.reps[k].innerLoop(ctx, 0)
		})
		for _, err := range t.errs {
			if err != nil {
				return t.finish(err)
			}
		}
		for _, s := range t.reps {
			s.endStep()
		}
		t.exchange()
		if t.opt.CheckpointPath != "" {
			t.boundary = t.buildCheckpoint()
			if t.reps[0].ctl.Step()%t.opt.CheckpointEvery == 0 {
				if err := t.saveBoundary(); err != nil {
					return t.finish(err)
				}
			}
		}
	}
	return t.finish(nil)
}

// exchange runs one replica-exchange pass over adjacent pairs of
// alternating parity (step 1: (1,2),(3,4)…; step 2: (0,1),(2,3)…). Exactly
// one uniform draw is consumed per considered pair whatever the outcome, so
// the exchange stream position is a pure function of the step count — the
// property interrupt/resume bit-identity rests on. An accepted exchange
// swaps the two slots' placements; controllers, RNG streams, and telemetry
// labels stay with their temperature rung.
func (t *temperRun) exchange() {
	step := t.reps[0].ctl.Step()
	for k := step % 2; k+1 < len(t.reps); k += 2 {
		a, b := t.reps[k], t.reps[k+1]
		u := t.xsrc.Float64()
		ca, cb := a.p.Cost(), b.p.Cost()
		// P(swap) = min(1, exp((1/T_a − 1/T_b)(C_a − C_b))): T_a < T_b, so a
		// hotter replica holding the lower cost always hands it down.
		arg := (1/a.ctl.T() - 1/b.ctl.T()) * (ca - cb)
		acc := u < math.Exp(arg)
		t.xAttempts++
		if acc {
			t.xAccepts++
			a.p, b.p = b.p, a.p
		}
		if t.tel != nil {
			reg := t.tel.Registry()
			reg.Counter(t.label + ".exchange.attempts").Inc()
			if acc {
				reg.Counter(t.label + ".exchange.accepts").Inc()
			}
			accV := 0.0
			if acc {
				accV = 1
			}
			t.tel.Emit(telemetry.Event{
				Type: telemetry.TypeExchange, Run: t.label,
				Label: fmt.Sprintf("r%d<->r%d", k, k+1),
				Step:  step, Acc: accV, Cost: ca, C1: cb,
			})
		}
	}
}

// buildCheckpoint snapshots the whole ladder at a step boundary.
func (t *temperRun) buildCheckpoint() *TemperCheckpoint {
	reps := make([]RunCheckpoint, len(t.reps))
	for k, s := range t.reps {
		reps[k] = s.snapshot()
	}
	return &TemperCheckpoint{
		Version:      temperCheckpointFormat.Version,
		Circuit:      t.c.Name,
		Opt:          snapshotOptions(t.opt),
		Replicas:     len(t.reps),
		Core:         t.reps[0].p.Core,
		ST:           t.reps[0].st,
		P2:           t.reps[0].p.P2,
		XSrc:         t.xsrc.State(),
		Reps:         reps,
		ExchAttempts: t.xAttempts,
		ExchAccepts:  t.xAccepts,
	}
}

// saveBoundary writes the last boundary snapshot.
func (t *temperRun) saveBoundary() error {
	return writeCheckpoint(&t.opt, t.label, &AnyCheckpoint{Temper: t.boundary}, t.boundary.Reps[0].Ctl.Step, -1)
}

// finish closes out every replica (applying its best-so-far on
// interruption, emitting run-end events) and returns the lowest-cost
// replica's placement and result, ties to the lowest index. On interruption
// the last boundary snapshot is written first, so the run resumes from the
// start of the interrupted step.
func (t *temperRun) finish(err error) (*Placement, Result, error) {
	if err != nil && t.boundary != nil {
		if werr := t.saveBoundary(); werr != nil {
			err = fmt.Errorf("place: tempering interrupted and checkpoint write failed: %v: %w", werr, err)
		}
	}
	win := -1
	var wres Result
	for k, s := range t.reps {
		res, _ := s.finish(err)
		if win < 0 || s.p.Cost() < t.reps[win].p.Cost() {
			win = k
			wres = res
		}
	}
	if t.tel != nil {
		t.tel.Registry().Gauge(t.label + ".exchange.accept_rate").Set(t.exchangeRate())
		t.tel.Progressf("%s: tempering done: winner r%d, %d/%d exchanges accepted",
			t.label, win, t.xAccepts, t.xAttempts)
	}
	return t.reps[win].p, wres, err
}

func (t *temperRun) exchangeRate() float64 {
	if t.xAttempts == 0 {
		return 0
	}
	return float64(t.xAccepts) / float64(t.xAttempts)
}
