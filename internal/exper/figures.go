package exper

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/refine"
)

// SweepPoint is one point of a parameter sweep: the swept value, the
// averaged raw metric, and the metric normalized to the sweep minimum
// (the paper's figures plot normalized averages).
type SweepPoint struct {
	Param      float64
	Value      float64
	Normalized float64
	// Extra carries a second metric where a figure needs one (residual
	// overlap for the ρ and D_s studies).
	Extra float64
}

// runGrid evaluates fn over the nparams × cfg.Trials grid on the worker
// pool and returns the per-param trial averages of both metrics. Trials
// fan out in parallel (the circuits under test are shared read-only); the
// averages accumulate serially in grid order, so results are bytewise
// identical for every worker count.
//
// A failing trial is retried, then excluded from its parameter's average
// (the divisor is the surviving-trial count); a parameter with no surviving
// trial keeps a zero value. The values are usable whenever some trials
// succeeded; the error aggregates the per-task failures.
func runGrid(cfg Config, name string, nparams int, fn func(pi, trial int) (value, extra float64, err error)) (vals, extras []float64, err error) {
	type out struct{ value, extra float64 }
	outs, tes := par.MapRetry(cfg.ctx(), cfg.Workers, nparams*cfg.Trials, cfg.retries(), func(k int) (out, error) {
		pi, t := k/cfg.Trials, k%cfg.Trials
		cfg.hook(fmt.Sprintf("%s param %d trial %d", name, pi, t))
		v, e, err := fn(pi, t)
		return out{v, e}, err
	})
	failed := par.Failed(tes)
	vals = make([]float64, nparams)
	extras = make([]float64, nparams)
	for pi := 0; pi < nparams; pi++ {
		ok := 0
		for t := 0; t < cfg.Trials; t++ {
			k := pi*cfg.Trials + t
			if failed[k] != nil {
				continue
			}
			vals[pi] += outs[k].value
			extras[pi] += outs[k].extra
			ok++
		}
		if ok > 0 {
			vals[pi] /= float64(ok)
			extras[pi] /= float64(ok)
		}
	}
	return vals, extras, par.Join(tes)
}

func normalize(points []SweepPoint) {
	best := 0.0
	for i, p := range points {
		if i == 0 || p.Value < best {
			best = p.Value
		}
	}
	if best <= 0 {
		best = 1
	}
	for i := range points {
		points[i].Normalized = points[i].Value / best
	}
}

// WriteSweep renders a sweep with the given column names.
func WriteSweep(w io.Writer, param, metric string, points []SweepPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t%s\tnormalized\n", param, metric)
	for _, p := range points {
		fmt.Fprintf(tw, "%g\t%.1f\t%.3f\n", p.Param, p.Value, p.Normalized)
	}
	tw.Flush()
}

// fig3Circuit builds the ~25-macro-cell circuit class of Figure 3.
func fig3Circuit(seed uint64) (*netlist.Circuit, error) {
	return gen.Generate(gen.Spec{
		Name: "fig3", Cells: 25, Nets: 80, Pins: 300,
		DimX: 400, DimY: 400, CustomFrac: 0, RectFrac: 0.2,
	}, seed)
}

// Figure3 sweeps the ratio r of single-cell displacements to pairwise
// interchanges and reports the normalized average final TEIL. The paper
// finds a flat optimum for r in [7, 15] (circuits of ~25 macro cells,
// A_c = 200).
func Figure3(cfg Config, ratios []float64) ([]SweepPoint, error) {
	cfg.fill()
	if len(ratios) == 0 {
		ratios = []float64{1, 2, 4, 7, 10, 15, 20, 30}
	}
	c, err := fig3Circuit(cfg.Seed + 3)
	if err != nil {
		return nil, err
	}
	vals, _, gerr := runGrid(cfg, "figure3", len(ratios), func(pi, t int) (float64, float64, error) {
		_, res, err := place.RunStage1Ctx(cfg.ctx(), c, place.Options{
			Seed: cfg.Seed + uint64(t)*733,
			Ac:   cfg.Ac,
			R:    ratios[pi],
		})
		return res.TEIL, 0, err
	})
	points := make([]SweepPoint, len(ratios))
	for pi, r := range ratios {
		points[pi] = SweepPoint{Param: r, Value: vals[pi]}
	}
	normalize(points)
	return points, gerr
}

// fig5Circuit builds the 30–60-cell circuit class of Figures 5–6.
func fig5Circuit(seed uint64) (*netlist.Circuit, error) {
	return gen.Generate(gen.Spec{
		Name: "fig5", Cells: 40, Nets: 150, Pins: 600,
		DimX: 600, DimY: 600, CustomFrac: 0.1, RectFrac: 0.2,
	}, seed)
}

// Figure5 sweeps the inner-loop criterion A_c and reports the normalized
// average final TEIL; the paper finds A_c ≈ 400 sufficient and A_c = 25
// about 13% worse.
func Figure5(cfg Config, acs []int) ([]SweepPoint, error) {
	cfg.fill()
	if len(acs) == 0 {
		acs = []int{10, 25, 50, 100, 200, 400}
	}
	c, err := fig5Circuit(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	vals, _, gerr := runGrid(cfg, "figure5", len(acs), func(pi, t int) (float64, float64, error) {
		_, res, err := place.RunStage1Ctx(cfg.ctx(), c, place.Options{
			Seed: cfg.Seed + uint64(t)*733,
			Ac:   acs[pi],
		})
		return res.TEIL, 0, err
	})
	points := make([]SweepPoint, len(acs))
	for pi, ac := range acs {
		points[pi] = SweepPoint{Param: float64(ac), Value: vals[pi]}
	}
	normalize(points)
	return points, gerr
}

// Figure6 sweeps A_c and reports the relative final chip area after global
// routing and placement refinement (the full flow).
func Figure6(cfg Config, acs []int) ([]SweepPoint, error) {
	cfg.fill()
	if len(acs) == 0 {
		acs = []int{10, 25, 50, 100, 200, 400}
	}
	c, err := fig5Circuit(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	vals, _, gerr := runGrid(cfg, "figure6", len(acs), func(pi, t int) (float64, float64, error) {
		res, err := core.PlaceCtx(cfg.ctx(), c, core.Options{
			Seed: cfg.Seed + uint64(t)*733,
			Ac:   acs[pi],
			M:    cfg.M,
		})
		if err != nil {
			return 0, 0, err
		}
		return float64(res.ChipArea()), 0, nil
	})
	points := make([]SweepPoint, len(acs))
	for pi, ac := range acs {
		points[pi] = SweepPoint{Param: float64(ac), Value: vals[pi]}
	}
	normalize(points)
	return points, gerr
}

// AblationEta sweeps the overlap-normalization target η (Eqn 9). The paper
// reports performance flat for η in [0.25, 1.0], degrading outside.
func AblationEta(cfg Config, etas []float64) ([]SweepPoint, error) {
	cfg.fill()
	if len(etas) == 0 {
		etas = []float64{0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0}
	}
	c, err := fig3Circuit(cfg.Seed + 3)
	if err != nil {
		return nil, err
	}
	vals, extras, gerr := runGrid(cfg, "eta", len(etas), func(pi, t int) (float64, float64, error) {
		_, res, err := place.RunStage1Ctx(cfg.ctx(), c, place.Options{
			Seed: cfg.Seed + uint64(t)*733,
			Ac:   cfg.Ac,
			Eta:  etas[pi],
		})
		return res.TEIL, float64(res.Overlap), err
	})
	points := make([]SweepPoint, len(etas))
	for pi, eta := range etas {
		points[pi] = SweepPoint{Param: eta, Value: vals[pi], Extra: extras[pi]}
	}
	normalize(points)
	return points, gerr
}

// AblationRho sweeps the range-limiter shrink rate ρ (§3.2.2): final TEIL is
// flat for ρ in [1, 4] while the residual overlap falls as ρ grows; the
// paper selects ρ = 4.
func AblationRho(cfg Config, rhos []float64) ([]SweepPoint, error) {
	cfg.fill()
	if len(rhos) == 0 {
		rhos = []float64{1, 2, 4, 8}
	}
	c, err := fig3Circuit(cfg.Seed + 3)
	if err != nil {
		return nil, err
	}
	vals, extras, gerr := runGrid(cfg, "rho", len(rhos), func(pi, t int) (float64, float64, error) {
		_, res, err := place.RunStage1Ctx(cfg.ctx(), c, place.Options{
			Seed: cfg.Seed + uint64(t)*733,
			Ac:   cfg.Ac,
			Rho:  rhos[pi],
		})
		return res.TEIL, float64(res.Overlap), err
	})
	points := make([]SweepPoint, len(rhos))
	for pi, rho := range rhos {
		points[pi] = SweepPoint{Param: rho, Value: vals[pi], Extra: extras[pi]}
	}
	normalize(points)
	return points, gerr
}

// DsDrResult compares the displacement-point selectors (§3.2.3): the paper
// measured a 22% lower residual overlap with D_s at near-equal TEIL.
type DsDrResult struct {
	TEILDs, TEILDr       float64
	OverlapDs, OverlapDr float64
}

// AblationDsDr runs the D_s vs. D_r comparison.
func AblationDsDr(cfg Config) (DsDrResult, error) {
	cfg.fill()
	c, err := fig3Circuit(cfg.Seed + 3)
	if err != nil {
		return DsDrResult{}, err
	}
	// Param 0 is D_s, param 1 is D_r; trials of both fan out together.
	vals, extras, gerr := runGrid(cfg, "dsdr", 2, func(pi, t int) (float64, float64, error) {
		_, res, err := place.RunStage1Ctx(cfg.ctx(), c, place.Options{
			Seed: cfg.Seed + uint64(t)*733, Ac: cfg.Ac, UseDr: pi == 1,
		})
		return res.TEIL, float64(res.Overlap), err
	})
	return DsDrResult{
		TEILDs: vals[0], OverlapDs: extras[0],
		TEILDr: vals[1], OverlapDr: extras[1],
	}, gerr
}

// RefineRow traces Stage 2 convergence for one circuit (§4.3: three
// executions suffice).
type RefineRow struct {
	Iteration int
	TEIL      float64
	ChipArea  int64
	Excess    int
}

// RefineConvergence runs the full flow on one preset and reports
// per-iteration TEIL and area.
func RefineConvergence(cfg Config, circuit string) ([]RefineRow, error) {
	cfg.fill()
	c, err := gen.Preset(circuit, cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	res, err := core.PlaceCtx(cfg.ctx(), c, core.Options{Seed: cfg.Seed, Ac: cfg.Ac, M: cfg.M})
	if err != nil {
		return nil, err
	}
	var rows []RefineRow
	for i, it := range res.Stage2.Iterations {
		rows = append(rows, RefineRow{
			Iteration: i + 1,
			TEIL:      it.TEIL,
			ChipArea:  it.ChipArea,
			Excess:    it.Excess,
		})
	}
	return rows, nil
}

// Eqn22Result validates the channel-width model beyond the paper's own
// evaluation: a detailed channel router (internal/detail) routes every
// channel the placement defines, checking the t ≤ d+1 premise of Eqn 22.
type Eqn22Result struct {
	Circuit  string
	Channels int
	Routed   int
	WithinD1 int
	AvgT     float64
	AvgD     float64
}

// Eqn22 runs the full flow on a preset and detail-routes all its channels.
func Eqn22(cfg Config, circuit string) (Eqn22Result, error) {
	cfg.fill()
	c, err := gen.Preset(circuit, cfg.Seed+17)
	if err != nil {
		return Eqn22Result{}, err
	}
	res, err := core.PlaceCtx(cfg.ctx(), c, core.Options{Seed: cfg.Seed, Ac: cfg.Ac, M: cfg.M})
	if err != nil {
		return Eqn22Result{}, err
	}
	st := refine.ValidateEqn22(res.Placement, res.Stage2.Graph, res.Stage2.Routing)
	out := Eqn22Result{
		Circuit:  circuit,
		Channels: st.Channels,
		Routed:   st.Routed,
		WithinD1: st.WithinD1,
	}
	if st.Routed > 0 {
		out.AvgT = float64(st.SumTracks) / float64(st.Routed)
		out.AvgD = float64(st.SumDensity) / float64(st.Routed)
	}
	return out, nil
}

// Figure4Row is one range-limiter window snapshot (Figure 4 illustrates the
// window shrinking with T).
type Figure4Row struct {
	T      float64
	WxFrac float64 // window span as a fraction of the T_∞ span
}

// Figure4 tabulates the range-limiter law at a few decades of T.
func Figure4(rho float64) []Figure4Row {
	if rho <= 0 {
		rho = 4
	}
	const tInf = 1e5
	out := []Figure4Row{}
	for _, t := range []float64{1e5, 1e4, 1e3, 1e2, 1e1, 1} {
		// Same law as anneal.RangeLimiter: ρ^log10(T)/ρ^log10(T_∞).
		frac := math.Pow(rho, math.Log10(t)) / math.Pow(rho, math.Log10(tInf))
		out = append(out, Figure4Row{T: t, WxFrac: frac})
	}
	return out
}
