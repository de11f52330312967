// Package exper regenerates every table and figure of the paper's
// evaluation (§5 and the in-text studies). Experiments lists them, in the
// order cmd/twexp -exp all runs them; each entry owns its rendering, so the
// command only adds a banner. The same entry points back the root bench
// harness (calibrated size). Every experiment runs its tasks on one of two
// fault-isolated runners: runGrid (parameter × trial grids) or perCircuit
// (one task per preset).
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

// Experiment is one experiment as cmd/twexp runs it. Run writes the
// rendered result (everything after the "== Title ==" banner) to w; on a
// partial run it writes the surviving rows and returns the per-task
// failures (par.Join).
type Experiment struct {
	ID    string
	Title string
	Run   func(Config, io.Writer) error
}

// Experiments is every experiment, in cmd/twexp -exp all order.
var Experiments = []Experiment{
	{"table3", "Table 3: dynamic interconnect-area estimator accuracy", func(cfg Config, w io.Writer) error {
		rows, err := Table3(cfg)
		WriteTable3(w, rows)
		return err
	}},
	{"table4", "Table 4: TimberWolfMC vs. baseline placement methods", func(cfg Config, w io.Writer) error {
		rows, err := Table4(cfg)
		WriteTable4(w, rows)
		return err
	}},
	{"fig3", "Figure 3: normalized final TEIL vs. ratio r", sweepTable("r", "avg TEIL",
		func(cfg Config) ([]SweepPoint, error) { return Figure3(cfg, nil) })},
	{"fig4", "Figure 4: range-limiter window vs. T (rho=4)", func(_ Config, w io.Writer) error {
		for _, r := range Figure4(4) {
			fmt.Fprintf(w, "T=%8.0f  window span = %.4f of full\n", r.T, r.WxFrac)
		}
		return nil
	}},
	{"fig5", "Figure 5: normalized final TEIL vs. Ac", sweepTable("Ac", "avg TEIL",
		func(cfg Config) ([]SweepPoint, error) { return Figure5(cfg, nil) })},
	{"fig6", "Figure 6: relative final chip area vs. Ac", sweepTable("Ac", "avg area",
		func(cfg Config) ([]SweepPoint, error) { return Figure6(cfg, nil) })},
	{"eta", "Ablation: eta sweep (Eqn 9; flat in [0.25,1.0])", overlapLines("eta", 5,
		func(cfg Config) ([]SweepPoint, error) { return AblationEta(cfg, nil) })},
	{"rho", "Ablation: rho sweep (TEIL flat in [1,4]; overlap falls)", overlapLines("rho", 3,
		func(cfg Config) ([]SweepPoint, error) { return AblationRho(cfg, nil) })},
	{"ds", "Ablation: D_s vs D_r (paper: ~22% lower residual overlap with D_s)", func(cfg Config, w io.Writer) error {
		r, err := AblationDsDr(cfg)
		if err != nil {
			return err // a partial comparison would rest on unequal trial sets
		}
		fmt.Fprintf(w, "D_s: TEIL=%8.0f overlap=%8.0f\n", r.TEILDs, r.OverlapDs)
		fmt.Fprintf(w, "D_r: TEIL=%8.0f overlap=%8.0f\n", r.TEILDr, r.OverlapDr)
		if r.OverlapDr > 0 {
			fmt.Fprintf(w, "overlap reduction with D_s: %.0f%%\n", (r.OverlapDr-r.OverlapDs)/r.OverlapDr*100)
		}
		return nil
	}},
	{"refine", "Stage 2 convergence (3 refinement executions, §4.3)", func(cfg Config, w io.Writer) error {
		type trace struct {
			circuit string
			rows    []RefineRow
		}
		traces, err := perCircuit(cfg, "refine", firstThree(cfg), func(name string) (trace, error) {
			rows, err := RefineConvergence(cfg, name)
			return trace{name, rows}, err
		})
		for _, tr := range traces {
			fmt.Fprintf(w, "circuit %s:\n", tr.circuit)
			for _, r := range tr.rows {
				fmt.Fprintf(w, "  iter %d: TEIL=%8.0f area=%10d excess=%d\n", r.Iteration, r.TEIL, r.ChipArea, r.Excess)
			}
		}
		return err
	}},
	{"eqn22", "Eqn 22 validation: detailed routing of every channel (t <= d+1)", func(cfg Config, w io.Writer) error {
		results, err := perCircuit(cfg, "eqn22", firstThree(cfg), func(name string) (Eqn22Result, error) {
			return Eqn22(cfg, name)
		})
		for _, r := range results {
			fmt.Fprintf(w, "%s: %d/%d channels routed within d+1 (avg t=%.2f, avg d=%.2f)\n",
				r.Circuit, r.WithinD1, r.Routed, r.AvgT, r.AvgD)
		}
		return err
	}},
}

// sweepTable renders a sweep as a WriteSweep table.
func sweepTable(param, metric string, run func(Config) ([]SweepPoint, error)) func(Config, io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		pts, err := run(cfg)
		WriteSweep(w, param, metric, pts)
		return err
	}
}

// overlapLines renders an ablation sweep one line per point, with the
// residual overlap (SweepPoint.Extra); width pads the parameter value.
func overlapLines(param string, width int, run func(Config) ([]SweepPoint, error)) func(Config, io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		pts, err := run(cfg)
		for _, p := range pts {
			fmt.Fprintf(w, "%s=%-*g TEIL=%8.0f (norm %.3f)  residual overlap=%8.0f\n",
				param, width, p.Param, p.Value, p.Normalized, p.Extra)
		}
		return err
	}
}

// firstThree is the circuit subset of the per-circuit studies (refine,
// eqn22): the first three of cfg.Circuits.
func firstThree(cfg Config) []string {
	cfg.fill()
	return cfg.Circuits[:min(3, len(cfg.Circuits))]
}

// runGrid evaluates fn over the nparams × cfg.Trials grid on the worker
// pool, task (pi, t) named id(pi, t) to the TaskHook and in its error, and
// returns the per-param trial averages of both metrics and the number of
// trials that survived for each param. Trials fan out in parallel (inputs
// such as a sweep's circuit are shared read-only); the averages accumulate
// serially in grid order, so results are bytewise identical for every
// worker count.
//
// A failing trial is retried, then excluded from its parameter's average
// (the divisor is the surviving-trial count); a parameter with no surviving
// trial keeps a zero value. The values are usable whenever some trials
// succeeded; the error (par.Join) reports every failed task.
func runGrid(cfg Config, nparams int, id func(pi, t int) string, fn func(pi, t int) (value, extra float64, err error)) (vals, extras []float64, ok []int, err error) {
	type out struct{ value, extra float64 }
	outs, tes := par.MapRetry(cfg.ctx(), cfg.Workers, nparams*cfg.Trials, cfg.retries(), func(k int) (out, error) {
		pi, t := k/cfg.Trials, k%cfg.Trials
		tid := id(pi, t)
		cfg.hook(tid)
		v, e, err := fn(pi, t)
		if err != nil {
			err = fmt.Errorf("%s: %w", tid, err)
		}
		return out{v, e}, err
	})
	failed := par.Failed(tes)
	vals = make([]float64, nparams)
	extras = make([]float64, nparams)
	ok = make([]int, nparams)
	for k, o := range outs {
		if pi := k / cfg.Trials; failed[k] == nil {
			vals[pi] += o.value
			extras[pi] += o.extra
			ok[pi]++
		}
	}
	for pi, n := range ok {
		if n > 0 {
			vals[pi] /= float64(n)
			extras[pi] /= float64(n)
		}
	}
	return vals, extras, ok, par.Join(tes)
}

// perCircuit runs run once per circuit name as one fault-isolated task
// (id "<exp> <name>", passed to the TaskHook and prefixed to the task's
// error) on the worker pool and returns the results of the tasks that
// succeeded, in name order. A failing task is retried, then left out while
// its siblings complete; the error (par.Join) reports every failed task.
func perCircuit[T any](cfg Config, exp string, names []string, run func(name string) (T, error)) ([]T, error) {
	outs, tes := par.MapRetry(cfg.ctx(), cfg.Workers, len(names), cfg.retries(), func(i int) (T, error) {
		id := exp + " " + names[i]
		cfg.hook(id)
		out, err := run(names[i])
		if err != nil {
			err = fmt.Errorf("%s: %w", id, err)
		}
		return out, err
	})
	failed := par.Failed(tes)
	kept := outs[:0]
	for i, o := range outs {
		if failed[i] == nil {
			kept = append(kept, o)
		}
	}
	return kept, par.Join(tes)
}

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
// fans out over the worker pool (runGrid); every trial generates its own
// circuit (the synthesis is seed-deterministic) so tasks share no mutable
// state.
//
// Fault isolation: a panicking or failing trial is retried, then excluded
// from its circuit's average (the row reports how many trials contributed);
// a circuit with no surviving trial is dropped. The returned rows are valid
// whenever at least one trial succeeded; the error (built with par.Join)
// reports every per-task failure.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg.fill()
	teilRed, areaRed, ok, err := runGrid(cfg, len(cfg.Circuits), func(ci, t int) string {
		return fmt.Sprintf("table3 %s trial %d", cfg.Circuits[ci], t)
	}, func(ci, t int) (float64, float64, error) {
		name := cfg.Circuits[ci]
		c, err := gen.Preset(name, cfg.Seed+17)
		if err != nil {
			return 0, 0, err
		}
		res, err := core.PlaceCtx(cfg.ctx(), c, core.Options{
			Seed:     cfg.Seed + uint64(t)*1009,
			Ac:       cfg.Ac,
			M:        cfg.M,
			Replicas: cfg.Replicas,
			Workers:  1,
		})
		if err != nil {
			return 0, 0, err
		}
		return -res.TEILChangePct(), -res.AreaChangePct(), nil
	})
	rows := make([]Table3Row, 0, len(cfg.Circuits))
	for ci, name := range cfg.Circuits {
		if ok[ci] == 0 {
			continue
		}
		c, _ := gen.Preset(name, cfg.Seed+17) // a trial already built it without error
		rows = append(rows, Table3Row{
			Circuit: name,
			Cells:   len(c.Cells), Nets: len(c.Nets), Pins: c.NumPins(),
			Trials:     ok[ci],
			TEILRedPct: teilRed[ci],
			AreaRedPct: areaRed[ci],
		})
	}
	return rows, err
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
// Fault isolation (perCircuit): a failing circuit is retried, then omitted
// from the returned rows while its siblings complete; the error aggregates
// the per-circuit failures.
func Table4(cfg Config) ([]Table4Row, error) {
	cfg.fill()
	// One task per circuit (each runs TimberWolfMC plus its baseline);
	// rows land in preset order regardless of completion order.
	return perCircuit(cfg, "table4", cfg.Circuits, func(name string) (Table4Row, error) {
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
			return Table4Row{}, err
		}
		row.TEIL = res.TEIL
		row.Chip = res.Chip
		// Baseline with identical post-processing.
		pl, ok := baseline.ByName(row.Baseline)
		if !ok {
			return Table4Row{}, fmt.Errorf("no baseline placer %q", row.Baseline)
		}
		bt, bc, err := EvaluateBaseline(pl, c, cfg)
		if err != nil {
			return Table4Row{}, fmt.Errorf("baseline: %w", err)
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
}

// EvaluateBaseline places c with the baseline method, runs Stage 2 on it
// through core.Run (2 refinement executions, no DRC) and returns the final
// TEIL and chip.
func EvaluateBaseline(pl baseline.Placer, cc *netlist.Circuit, cfg Config) (teil float64, chip geom.Rect, err error) {
	cfg.fill()
	coreRect := estimate.CoreSize(cc, estimate.DefaultParams(), 1)
	p := pl.Place(cc, coreRect, cfg.Seed+77)
	res, err := core.Run(cfg.ctx(), cc, core.Start{Placement: p}, core.Options{
		Seed:       cfg.Seed + 99 - core.Stage2SeedOffset, // Stage 2 keeps its seed Seed+99
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
