package exper

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netlist"
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
	// Extra carries a second metric: the residual overlap of the Stage 1
	// sweeps on the Figure 3 circuit class (r, η, ρ, D_s/D_r); zero for
	// the A_c sweeps.
	Extra float64
}

// sweep averages each parameter value's metrics over cfg.Trials trials on
// runGrid (task id "<name> param <i> trial <t>", trial t seeded
// cfg.Seed+733·t) and normalizes the averages to their minimum.
func sweep(cfg Config, name string, params []float64, fn func(param float64, seed uint64) (value, extra float64, err error)) ([]SweepPoint, error) {
	vals, extras, _, err := runGrid(cfg, len(params), func(pi, t int) string {
		return fmt.Sprintf("%s param %d trial %d", name, pi, t)
	}, func(pi, t int) (float64, float64, error) {
		return fn(params[pi], cfg.Seed+uint64(t)*733)
	})
	points := make([]SweepPoint, len(params))
	for pi, p := range params {
		points[pi] = SweepPoint{Param: p, Value: vals[pi], Extra: extras[pi]}
	}
	normalize(points)
	return points, err
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

// fig3Sweep runs Stage 1 at cfg.Ac on the Figure 3 circuit class, set
// applying each parameter value to the options, and records final TEIL and
// residual overlap (Extra).
func fig3Sweep(cfg Config, name string, params []float64, set func(*place.Options, float64)) ([]SweepPoint, error) {
	cfg.fill()
	c, err := fig3Circuit(cfg.Seed + 3)
	if err != nil {
		return nil, err
	}
	return sweep(cfg, name, params, func(p float64, seed uint64) (float64, float64, error) {
		opt := place.Options{Seed: seed, Ac: cfg.Ac}
		set(&opt, p)
		_, res, err := place.RunStage1Ctx(cfg.ctx(), c, opt)
		return res.TEIL, float64(res.Overlap), err
	})
}

// Figure3 sweeps the ratio r of single-cell displacements to pairwise
// interchanges and reports the normalized average final TEIL (Extra holds
// the residual overlap, which the figure does not plot). The paper finds a
// flat optimum for r in [7, 15] (circuits of ~25 macro cells, A_c = 200).
func Figure3(cfg Config, ratios []float64) ([]SweepPoint, error) {
	if len(ratios) == 0 {
		ratios = []float64{1, 2, 4, 7, 10, 15, 20, 30}
	}
	return fig3Sweep(cfg, "figure3", ratios, func(o *place.Options, r float64) { o.R = r })
}

// fig5Circuit builds the 30–60-cell circuit class of Figures 5–6.
func fig5Circuit(seed uint64) (*netlist.Circuit, error) {
	return gen.Generate(gen.Spec{
		Name: "fig5", Cells: 40, Nets: 150, Pins: 600,
		DimX: 600, DimY: 600, CustomFrac: 0.1, RectFrac: 0.2,
	}, seed)
}

// acSweep sweeps the inner-loop criterion A_c (default 10…400) on the
// Figures 5–6 circuit class, measuring each run with metric.
func acSweep(cfg Config, name string, acs []int, metric func(c *netlist.Circuit, ac int, seed uint64) (float64, error)) ([]SweepPoint, error) {
	cfg.fill()
	if len(acs) == 0 {
		acs = []int{10, 25, 50, 100, 200, 400}
	}
	c, err := fig5Circuit(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	params := make([]float64, len(acs))
	for i, ac := range acs {
		params[i] = float64(ac)
	}
	return sweep(cfg, name, params, func(ac float64, seed uint64) (float64, float64, error) {
		v, err := metric(c, int(ac), seed)
		return v, 0, err
	})
}

// Figure5 sweeps the inner-loop criterion A_c and reports the normalized
// average final TEIL; the paper finds A_c ≈ 400 sufficient and A_c = 25
// about 13% worse.
func Figure5(cfg Config, acs []int) ([]SweepPoint, error) {
	return acSweep(cfg, "figure5", acs, func(c *netlist.Circuit, ac int, seed uint64) (float64, error) {
		_, res, err := place.RunStage1Ctx(cfg.ctx(), c, place.Options{Seed: seed, Ac: ac})
		return res.TEIL, err
	})
}

// Figure6 sweeps A_c and reports the relative final chip area after global
// routing and placement refinement (the full flow).
func Figure6(cfg Config, acs []int) ([]SweepPoint, error) {
	return acSweep(cfg, "figure6", acs, func(c *netlist.Circuit, ac int, seed uint64) (float64, error) {
		res, err := core.PlaceCtx(cfg.ctx(), c, core.Options{Seed: seed, Ac: ac, M: cfg.M})
		if err != nil {
			return 0, err
		}
		return float64(res.ChipArea()), nil
	})
}

// AblationEta sweeps the overlap-normalization target η (Eqn 9). The paper
// reports performance flat for η in [0.25, 1.0], degrading outside.
func AblationEta(cfg Config, etas []float64) ([]SweepPoint, error) {
	if len(etas) == 0 {
		etas = []float64{0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0}
	}
	return fig3Sweep(cfg, "eta", etas, func(o *place.Options, eta float64) { o.Eta = eta })
}

// AblationRho sweeps the range-limiter shrink rate ρ (§3.2.2): final TEIL is
// flat for ρ in [1, 4] while the residual overlap falls as ρ grows; the
// paper selects ρ = 4.
func AblationRho(cfg Config, rhos []float64) ([]SweepPoint, error) {
	if len(rhos) == 0 {
		rhos = []float64{1, 2, 4, 8}
	}
	return fig3Sweep(cfg, "rho", rhos, func(o *place.Options, rho float64) { o.Rho = rho })
}

// DsDrResult compares the displacement-point selectors (§3.2.3): the paper
// measured a 22% lower residual overlap with D_s at near-equal TEIL.
type DsDrResult struct {
	TEILDs, TEILDr       float64
	OverlapDs, OverlapDr float64
}

// AblationDsDr runs the D_s vs. D_r comparison.
func AblationDsDr(cfg Config) (DsDrResult, error) {
	// Param 0 is D_s, param 1 is D_r; trials of both fan out together.
	pts, err := fig3Sweep(cfg, "dsdr", []float64{0, 1}, func(o *place.Options, dr float64) { o.UseDr = dr == 1 })
	if pts == nil {
		return DsDrResult{}, err
	}
	return DsDrResult{
		TEILDs: pts[0].Value, OverlapDs: pts[0].Extra,
		TEILDr: pts[1].Value, OverlapDr: pts[1].Extra,
	}, err
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
	res, err := core.PlaceCtx(cfg.ctx(), c, core.Options{Seed: cfg.Seed, Ac: cfg.Ac, M: cfg.M, Workers: 1})
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
	res, err := core.PlaceCtx(cfg.ctx(), c, core.Options{Seed: cfg.Seed, Ac: cfg.Ac, M: cfg.M, Workers: 1})
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

// Figure4 tabulates the range-limiter window (anneal.RangeLimiter, Eqns
// 12–14, T_∞ = 10⁵) at a few decades of T, as a fraction of its T_∞ span.
// The span is a power of two, so the fraction is exact and, for ρ ≤ 10,
// clear of the MinSpan floor.
func Figure4(rho float64) []Figure4Row {
	if rho <= 0 {
		rho = 4
	}
	const span = 1 << 30
	rl := anneal.NewRangeLimiter(span, span, rho, 1e5)
	var out []Figure4Row
	for _, t := range []float64{1e5, 1e4, 1e3, 1e2, 1e1, 1} {
		wx, _ := rl.Window(t)
		out = append(out, Figure4Row{T: t, WxFrac: wx / span})
	}
	return out
}
