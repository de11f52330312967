// Package exper regenerates every table and figure of the paper's
// evaluation (§5 and the in-text studies): Table 3 (dynamic estimator
// accuracy), Table 4 (TEIL/area versus other placement methods), Figure 3
// (displacement:interchange ratio sweep), Figures 5–6 (inner-loop criterion
// sweeps), and the η, ρ, and D_s/D_r ablations. The same entry points back
// cmd/twexp (full size) and the root bench harness (calibrated size).
package exper

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// Config scales the experiments. Zero values select quick settings suitable
// for iteration; cmd/twexp -full selects paper-faithful settings.
type Config struct {
	// Seed is the base seed; trial t of circuit c derives its own.
	Seed uint64
	// Trials is the number of runs averaged per data point.
	Trials int
	// Ac is the inner-loop criterion for full TimberWolfMC runs.
	Ac int
	// M is the global router's alternatives-per-net.
	M int
	// Circuits restricts the preset list (nil = all nine).
	Circuits []string
	// Replicas enables parallel tempering inside each Stage 1 run of the
	// table experiments (see core.Options.Replicas). Replicas run serially
	// within a trial — the trial grid already saturates Workers — and the
	// exchange schedule is deterministic, so table output stays
	// byte-identical for any worker count.
	Replicas int
	// Workers bounds the goroutines running independent trials
	// (0 = GOMAXPROCS, 1 = serial). Every trial derives its seed from its
	// (circuit, trial) index and results are aggregated in index order, so
	// table output is byte-identical for any worker count.
	Workers int
	// Ctx, when non-nil, cancels the experiment: in-flight trials stop at
	// their next cancellation check and undispatched trials are skipped;
	// completed trials still aggregate.
	Ctx context.Context
	// Retries is the per-task retry budget for fault isolation: a trial
	// that panics or fails is rerun with the same index-derived seed this
	// many times before being reported as failed (0 selects
	// par.DefaultRetries; negative disables retries).
	Retries int
	// TaskHook, when non-nil, runs at the start of every task attempt with
	// a descriptive task id ("table3 i1 trial 0"). Tests inject faults
	// here: a hook panic is confined to its task like any other failure.
	TaskHook func(id string)
	// Tel, when non-nil, receives a task trace event and a progress line at
	// the start of every task attempt, and a counter of attempts in the
	// metrics registry. Observe-only: table output is unaffected.
	Tel *telemetry.Tracer
}

func (c *Config) fill() {
	if c.Trials <= 0 {
		c.Trials = 2
	}
	if c.Ac <= 0 {
		c.Ac = 50
	}
	if c.M <= 0 {
		c.M = 8
	}
	if len(c.Circuits) == 0 {
		c.Circuits = gen.PresetNames()
	}
}

// ctx returns the experiment context, defaulting to Background.
func (c *Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// retries resolves the retry budget (see Config.Retries).
func (c *Config) retries() int {
	switch {
	case c.Retries < 0:
		return 0
	case c.Retries == 0:
		return par.DefaultRetries
	default:
		return c.Retries
	}
}

// hook invokes the TaskHook, if any, with the task id, and reports the task
// attempt to the telemetry layer.
func (c *Config) hook(id string) {
	if c.TaskHook != nil {
		c.TaskHook(id)
	}
	if c.Tel != nil {
		c.Tel.Registry().Counter("exper.tasks").Inc()
		c.Tel.Emit(telemetry.Event{Type: telemetry.TypeTask, Run: "exper", Label: id})
		c.Tel.Progressf("task: %s", id)
	}
}

// Quick returns the fast configuration used by tests and benches.
func Quick() Config { return Config{Trials: 1, Ac: 25, M: 6} }

// Full returns the paper-faithful configuration (hours of CPU).
func Full() Config { return Config{Trials: 2, Ac: 400, M: 20} }

// --------------------------------------------------------------- Table 3

// Table3Row is one circuit's estimator-accuracy result: the percentage
// change in TEIL and core area from the end of Stage 1 to the end of
// Stage 2. Small values mean the dynamic estimator allocated the right
// interconnect space (paper averages: −4.4% TEIL, −4.1% area... reported as
// reductions of 4.4 and 4.1).
type Table3Row struct {
	Circuit           string
	Cells, Nets, Pins int
	Trials            int
	TEILRedPct        float64 // positive = Stage 2 reduced TEIL
	AreaRedPct        float64 // positive = Stage 2 reduced area
}

// Table3 runs the estimator-accuracy experiment. The (circuit, trial) grid
// fans out over the worker pool; every trial generates its own circuit (the
// synthesis is seed-deterministic) so tasks share no mutable state.
//
// Fault isolation: a panicking or failing trial is retried, then excluded
// from its circuit's average (the row reports how many trials contributed);
// a circuit with no surviving trial is dropped. The returned rows are valid
// whenever at least one trial succeeded; the error (built with par.Join)
// reports every per-task failure.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg.fill()
	type trialOut struct {
		cells, nets, pins int
		teilRed, areaRed  float64
	}
	n := len(cfg.Circuits) * cfg.Trials
	outs, tes := par.MapRetry(cfg.ctx(), cfg.Workers, n, cfg.retries(), func(k int) (trialOut, error) {
		name, t := cfg.Circuits[k/cfg.Trials], k%cfg.Trials
		cfg.hook(fmt.Sprintf("table3 %s trial %d", name, t))
		c, err := gen.Preset(name, cfg.Seed+17)
		if err != nil {
			return trialOut{}, err
		}
		res, err := core.PlaceCtx(cfg.ctx(), c, core.Options{
			Seed:     cfg.Seed + uint64(t)*1009,
			Ac:       cfg.Ac,
			M:        cfg.M,
			Replicas: cfg.Replicas,
			Workers:  1,
		})
		if err != nil {
			return trialOut{}, fmt.Errorf("table3 %s trial %d: %w", name, t, err)
		}
		return trialOut{
			cells: len(c.Cells), nets: len(c.Nets), pins: c.NumPins(),
			teilRed: -res.TEILChangePct(), areaRed: -res.AreaChangePct(),
		}, nil
	})
	failed := par.Failed(tes)
	rows := make([]Table3Row, 0, len(cfg.Circuits))
	for ci, name := range cfg.Circuits {
		row := Table3Row{Circuit: name}
		for t := 0; t < cfg.Trials; t++ {
			k := ci*cfg.Trials + t
			if failed[k] != nil {
				continue
			}
			o := outs[k]
			row.Cells, row.Nets, row.Pins = o.cells, o.nets, o.pins
			row.TEILRedPct += o.teilRed
			row.AreaRedPct += o.areaRed
			row.Trials++
		}
		if row.Trials == 0 {
			continue
		}
		row.TEILRedPct /= float64(row.Trials)
		row.AreaRedPct /= float64(row.Trials)
		rows = append(rows, row)
	}
	return rows, par.Join(tes)
}

// WriteTable3 renders rows in the paper's Table 3 format.
func WriteTable3(w io.Writer, rows []Table3Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Circuit\tCells\tNets\tPins\tTrials\tTEIL Red(%)\tArea Red(%)")
	var st, sa float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f\t%.1f\n",
			r.Circuit, r.Cells, r.Nets, r.Pins, r.Trials, r.TEILRedPct, r.AreaRedPct)
		st += r.TEILRedPct
		sa += r.AreaRedPct
	}
	if len(rows) > 0 {
		fmt.Fprintf(tw, "Avg.\t\t\t\t\t%.1f\t%.1f\n",
			st/float64(len(rows)), sa/float64(len(rows)))
	}
	tw.Flush()
}

// --------------------------------------------------------------- Table 4

// BaselineFor maps each preset circuit to the comparison-method family the
// paper used: i1 was compared against resistive-network optimization
// (Cheng–Kuh); i2/i3 against the CIPAR constructive package; p1, l1 and
// d1–d3 against manual layouts; x1 (unstated in the paper) against the
// university quadratic method.
func BaselineFor(circuit string) string {
	switch circuit {
	case "i1", "x1":
		return "quadratic"
	case "i2", "i3":
		return "greedy"
	default:
		return "slicing"
	}
}

// Table4Row is one circuit's comparison result.
type Table4Row struct {
	Circuit           string
	Cells, Nets, Pins int
	Baseline          string
	TEIL              float64 // TimberWolfMC final TEIL
	Chip              geom.Rect
	BaseTEIL          float64
	BaseChip          geom.Rect
	TEILRedPct        float64
	AreaRedPct        float64
}

// Table4 runs the TimberWolfMC-vs-baseline comparison. Baseline placements
// go through the same Stage 2 driver (core.Run: channel definition, routing
// and refinement spacing), with 2 refinement executions to TimberWolfMC's 3
// and, like TimberWolfMC's results here, no DRC.
//
// Fault isolation: a failing circuit is retried, then omitted from the
// returned rows while its siblings complete; the error aggregates the
// per-circuit failures (see Table3).
func Table4(cfg Config) ([]Table4Row, error) {
	cfg.fill()
	// One task per circuit (each runs TimberWolfMC plus its baseline);
	// rows land in preset order regardless of completion order.
	rows, tes := par.MapRetry(cfg.ctx(), cfg.Workers, len(cfg.Circuits), cfg.retries(), func(ci int) (Table4Row, error) {
		name := cfg.Circuits[ci]
		cfg.hook("table4 " + name)
		c, err := gen.Preset(name, cfg.Seed+17)
		if err != nil {
			return Table4Row{}, err
		}
		row := Table4Row{
			Circuit: name,
			Cells:   len(c.Cells), Nets: len(c.Nets), Pins: c.NumPins(),
			Baseline: BaselineFor(name),
		}
		// TimberWolfMC.
		res, err := core.PlaceCtx(cfg.ctx(), c, core.Options{
			Seed: cfg.Seed + 31, Ac: cfg.Ac, M: cfg.M,
			Replicas: cfg.Replicas, Workers: 1,
		})
		if err != nil {
			return Table4Row{}, fmt.Errorf("table4 %s: %w", name, err)
		}
		row.TEIL = res.TEIL
		row.Chip = res.Chip
		// Baseline with identical post-processing.
		pl, ok := baseline.ByName(row.Baseline)
		if !ok {
			return Table4Row{}, fmt.Errorf("table4 %s: no baseline placer %q", name, row.Baseline)
		}
		bt, bc, err := EvaluateBaseline(pl, c, cfg)
		if err != nil {
			return Table4Row{}, fmt.Errorf("table4 %s baseline: %w", name, err)
		}
		row.BaseTEIL = bt
		row.BaseChip = bc
		if row.BaseTEIL > 0 {
			row.TEILRedPct = (row.BaseTEIL - row.TEIL) / row.BaseTEIL * 100
		}
		if a := row.BaseChip.Area(); a > 0 {
			row.AreaRedPct = float64(a-row.Chip.Area()) / float64(a) * 100
		}
		return row, nil
	})
	failed := par.Failed(tes)
	out := rows[:0]
	for ci := range rows {
		if failed[ci] == nil {
			out = append(out, rows[ci])
		}
	}
	return out, par.Join(tes)
}

// EvaluateBaseline places c with the baseline method, runs Stage 2 on it
// through core.Run (2 refinement executions, no DRC) and returns the final
// TEIL and chip.
func EvaluateBaseline(pl baseline.Placer, cc *netlist.Circuit, cfg Config) (teil float64, chip geom.Rect, err error) {
	cfg.fill()
	coreRect := estimate.CoreSize(cc, estimate.DefaultParams(), 1)
	p := pl.Place(cc, coreRect, cfg.Seed+77)
	res, err := core.Run(cfg.ctx(), cc, core.Start{Placement: p}, core.Options{
		Seed:       cfg.Seed + 99 - 0x5eed, // core adds 0x5eed, so Stage 2 keeps its seed Seed+99
		Iterations: 2,
		Ac:         cfg.Ac,
		M:          cfg.M,
		Workers:    1, // the trial grid already saturates cfg.Workers
	})
	if err != nil {
		return 0, geom.Rect{}, err
	}
	return res.TEIL, res.Chip, nil
}

// WriteTable4 renders rows in the paper's Table 4 format.
func WriteTable4(w io.Writer, rows []Table4Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Circuit\tCells\tNets\tPins\tVs\tTEIL\tArea (x × y)\tTEIL Red(%)\tArea Red(%)")
	var st, sa float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%.0f\t%d × %d\t%.0f\t%.0f\n",
			r.Circuit, r.Cells, r.Nets, r.Pins, r.Baseline,
			r.TEIL, r.Chip.W(), r.Chip.H(), r.TEILRedPct, r.AreaRedPct)
		st += r.TEILRedPct
		sa += r.AreaRedPct
	}
	if len(rows) > 0 {
		fmt.Fprintf(tw, "Avg.\t\t\t\t\t\t\t%.1f\t%.1f\n",
			st/float64(len(rows)), sa/float64(len(rows)))
	}
	tw.Flush()
}
