// Package anneal implements the simulated-annealing control machinery shared
// by Stage 1 placement and Stage 2 refinement: the experimentally determined
// cooling schedules (Tables 1 and 2), the temperature scale factor S_T
// (Eqns 19–21), the log-law range limiter (§3.2.2, Eqns 12–14), the
// displacement-point selection functions D_s and D_r (§3.2.3, Eqns 15–16),
// the Metropolis acceptance function, and the inner-loop/stopping criteria
// (§3.3, §4.3).
package anneal

import (
	"math"

	"repro/internal/rng"
)

// Reference constants from the paper's normalization experiments (§3.3):
// a 25-cell circuit with average cell area c̄_a* = 1e4 needed T_∞* = 1e5 for
// a ~100% initial acceptance rate.
const (
	TInfStar  = 1e5
	CaStar    = 1e4
	MinSpan   = 6.0 // minimum range-limiter window span, grid units (§3.2.3)
	DefaultAc = 400 // attempts per cell per temperature (Figs 5–6)
	DefaultR  = 10  // displacements : interchanges ratio, within [7,15] (Fig 3)
	DefaultMu = 0.03
)

// Break is one row of a cooling-schedule table: for scaled temperatures at
// or above MinT·S_T, the multiplier Alpha applies.
type Break struct {
	MinT  float64
	Alpha float64
}

// Schedule is a piecewise cooling schedule α(T_old) (Eqn 18).
type Schedule struct {
	Breaks []Break // descending MinT; the last row should have MinT 0
}

// Stage1Schedule returns Table 1.
func Stage1Schedule() Schedule {
	return Schedule{Breaks: []Break{
		{7000, 0.85},
		{200, 0.92},
		{10, 0.85},
		{0, 0.80},
	}}
}

// Stage2Schedule returns Table 2.
func Stage2Schedule() Schedule {
	return Schedule{Breaks: []Break{
		{10, 0.82},
		{0, 0.70},
	}}
}

// Alpha returns α(T) for scale factor st (= S_T, Eqn 20).
func (s Schedule) Alpha(t, st float64) float64 {
	for _, b := range s.Breaks {
		if t >= b.MinT*st {
			return b.Alpha
		}
	}
	if n := len(s.Breaks); n > 0 {
		return s.Breaks[n-1].Alpha
	}
	return 0.9
}

// ScaleFactor returns S_T = c̄_a / c̄_a* (Eqn 20), where avgCellArea is the
// average cell area including the estimated interconnect area.
func ScaleFactor(avgCellArea float64) float64 {
	st := avgCellArea / CaStar
	if st <= 0 {
		return 1
	}
	return st
}

// StartTemp returns T_∞ = S_T·T_∞* (Eqn 21).
func StartTemp(st float64) float64 { return st * TInfStar }

// Stage2StartTemp solves Eqn 28: the Stage 2 starting temperature T′ for
// which the range-limiter window is the fraction mu of its T_∞ span:
// T′ = μ^(log_ρ 10) · T_∞.
func Stage2StartTemp(mu, tInf, rho float64) float64 {
	if mu <= 0 || mu >= 1 {
		return tInf
	}
	return math.Pow(mu, math.Log(10)/math.Log(rho)) * tInf
}

// RangeLimiter computes the window spans W_x(T), W_y(T) of Eqns 12–13:
// the span shrinks by a factor ρ per decade of T, normalized to the full
// span at T_∞.
type RangeLimiter struct {
	WxInf, WyInf float64 // window spans at T = T_∞
	Rho          float64 // 1 ≤ ρ ≤ 10; the paper selects ρ = 4
	TInf         float64
	lambda       float64
}

// NewRangeLimiter builds a limiter with λ = ρ^log10(T_∞) (Eqn 14).
func NewRangeLimiter(wxInf, wyInf, rho, tInf float64) *RangeLimiter {
	if rho < 1 {
		rho = 1
	}
	return &RangeLimiter{
		WxInf:  wxInf,
		WyInf:  wyInf,
		Rho:    rho,
		TInf:   tInf,
		lambda: math.Pow(rho, math.Log10(tInf)),
	}
}

// Window returns the spans at temperature t, floored at MinSpan.
func (r *RangeLimiter) Window(t float64) (wx, wy float64) {
	f := 1.0
	if r.Rho > 1 && t > 0 {
		f = math.Pow(r.Rho, math.Log10(t)) / r.lambda
		if f > 1 {
			f = 1
		}
	}
	wx = math.Max(MinSpan, r.WxInf*f)
	wy = math.Max(MinSpan, r.WyInf*f)
	return wx, wy
}

// AtMinimum reports whether both spans have reached the minimum: the Stage 1
// stopping criterion (§3.3).
func (r *RangeLimiter) AtMinimum(t float64) bool {
	wx, wy := r.Window(t)
	return wx <= MinSpan && wy <= MinSpan
}

// PickDisplacementDs draws a displacement using the function D_s (§3.2.3):
// step sizes are quantized to multiples of W/6 with multipliers in
// {-3,…,3}, excluding the (0,0) null move, yielding the 48 candidate points.
// Large steps dominate at high T, refinement steps at low T, and the
// minimum window span of 6 makes the smallest steps exactly one grid unit.
func PickDisplacementDs(r *rng.Source, wx, wy float64) (dx, dy int) {
	sx := math.Max(1, wx/6)
	sy := math.Max(1, wy/6)
	for {
		ix := r.IntRange(-3, 3)
		iy := r.IntRange(-3, 3)
		if ix == 0 && iy == 0 {
			continue
		}
		return int(math.Round(float64(ix) * sx)), int(math.Round(float64(iy) * sy))
	}
}

// PickDisplacementDr draws a displacement uniformly from the window: the
// comparison function D_r the paper measured 22% more residual overlap with.
func PickDisplacementDr(r *rng.Source, wx, wy float64) (dx, dy int) {
	hx := int(math.Max(1, wx/2))
	hy := int(math.Max(1, wy/2))
	for {
		dx = r.IntRange(-hx, hx)
		dy = r.IntRange(-hy, hy)
		if dx != 0 || dy != 0 {
			return dx, dy
		}
	}
}

// tFloor ends a run whose temperature decays below it even when no other
// criterion fires (a safety net; the paper's runs end on the window
// criterion first).
const tFloor = 1e-3

// minAcceptRate is the quench threshold of Config.StopOnMinWindow.
const minAcceptRate = 0.08

// Config parameterizes a Controller.
type Config struct {
	// TInf is the starting temperature; zero selects StartTemp(ST).
	TInf float64
	// ST is the temperature scale factor S_T.
	ST float64
	// Schedule is the α(T) table.
	Schedule Schedule
	// Ac is the number of attempts per cell per temperature (Eqn 17).
	Ac int
	// NumCells is N_c.
	NumCells int
	// WxInf, WyInf, Rho configure the range limiter.
	WxInf, WyInf float64
	Rho          float64
	// StopOnMinWindow ends the run after an inner loop at minimum window
	// span (Stage 1 and the first two Stage 2 refinement passes). To stay
	// robust across circuit scales the criterion additionally requires the
	// final regime to have quenched: the per-step acceptance rate must
	// have fallen to minAcceptRate. On paper-scale cores (thousands of
	// grid units) the window criterion alone already lands there.
	StopOnMinWindow bool
	// StableSteps, if positive, ends the run once the reported cost is
	// unchanged for this many consecutive temperatures (the third
	// refinement pass uses 3, §4.3).
	StableSteps int
	// MaxSteps bounds the temperature count (0 = no bound).
	MaxSteps int
}

// Controller drives one simulated-annealing run. Usage:
//
//	ctl := anneal.NewController(cfg, src)
//	for ctl.Next() {
//		for i := 0; i < ctl.InnerIterations(); i++ {
//			delta := propose()
//			if ctl.Accept(delta) { apply() }
//		}
//		ctl.EndStep(currentCost)
//	}
type Controller struct {
	cfg      Config
	rl       *RangeLimiter
	rng      *rng.Source
	t        float64
	step     int
	started  bool
	done     bool
	lastCost float64
	stable   int
	accepted int64
	tried    int64
	// per-step acceptance accounting for the quench criterion
	stepAccepted int64
	stepTried    int64
	lastStepRate float64
}

// NewController builds a controller; src provides the acceptance draws.
func NewController(cfg Config, src *rng.Source) *Controller {
	if cfg.ST <= 0 {
		cfg.ST = 1
	}
	if cfg.TInf <= 0 {
		cfg.TInf = StartTemp(cfg.ST)
	}
	if cfg.Rho <= 0 {
		cfg.Rho = 4
	}
	if cfg.Ac <= 0 {
		cfg.Ac = DefaultAc
	}
	if cfg.NumCells <= 0 {
		cfg.NumCells = 1
	}
	rl := NewRangeLimiter(cfg.WxInf, cfg.WyInf, cfg.Rho, StartTemp(cfg.ST))
	return &Controller{cfg: cfg, rl: rl, rng: src, t: cfg.TInf}
}

// ControllerState is the complete resumable snapshot of a Controller: every
// mutable field plus the state of its acceptance-draw generator. Restoring
// it into a Controller built from the identical Config replays the exact
// sequence of Next/Accept/EndStep decisions, which is what makes a
// checkpointed annealing run bit-identical to an uninterrupted one (see
// DESIGN.md §8). All fields are exported so the snapshot serializes.
type ControllerState struct {
	T            float64
	Step         int
	Started      bool
	Done         bool
	LastCost     float64
	Stable       int
	Accepted     int64
	Tried        int64
	StepAccepted int64
	StepTried    int64
	LastStepRate float64
	RNG          rng.State
}

// State captures the controller's mutable state for a checkpoint.
func (c *Controller) State() ControllerState {
	return ControllerState{
		T:            c.t,
		Step:         c.step,
		Started:      c.started,
		Done:         c.done,
		LastCost:     c.lastCost,
		Stable:       c.stable,
		Accepted:     c.accepted,
		Tried:        c.tried,
		StepAccepted: c.stepAccepted,
		StepTried:    c.stepTried,
		LastStepRate: c.lastStepRate,
		RNG:          c.rng.State(),
	}
}

// Restore overwrites the controller's mutable state from a snapshot. The
// controller must have been constructed with the same Config as the one the
// snapshot was taken from; the Config itself (schedule, scale factor, range
// limiter) is deterministic from its inputs and is not part of the snapshot.
func (c *Controller) Restore(st ControllerState) {
	c.t = st.T
	c.step = st.Step
	c.started = st.Started
	c.done = st.Done
	c.lastCost = st.LastCost
	c.stable = st.Stable
	c.accepted = st.Accepted
	c.tried = st.Tried
	c.stepAccepted = st.StepAccepted
	c.stepTried = st.StepTried
	c.lastStepRate = st.LastStepRate
	c.rng.Restore(st.RNG)
}

// Next advances to the next temperature step; it returns false once a
// stopping criterion has been met. The first call starts at T_∞ without
// cooling.
func (c *Controller) Next() bool {
	if c.done {
		return false
	}
	if !c.started {
		c.started = true
		c.step = 1
		return true
	}
	// The stopping criteria are evaluated on the step just finished.
	if c.cfg.StopOnMinWindow && c.rl.AtMinimum(c.t) &&
		c.lastStepRate <= minAcceptRate {
		c.done = true
		return false
	}
	if c.cfg.StableSteps > 0 && c.stable >= c.cfg.StableSteps {
		c.done = true
		return false
	}
	if c.cfg.MaxSteps > 0 && c.step >= c.cfg.MaxSteps {
		c.done = true
		return false
	}
	c.t *= c.cfg.Schedule.Alpha(c.t, c.cfg.ST)
	if c.t < tFloor {
		c.done = true
		return false
	}
	c.step++
	return true
}

// T returns the current temperature.
func (c *Controller) T() float64 { return c.t }

// Step returns the 1-based index of the current temperature step.
func (c *Controller) Step() int { return c.step }

// InnerIterations returns A = A_c·N_c (Eqn 17).
func (c *Controller) InnerIterations() int { return c.cfg.Ac * c.cfg.NumCells }

// Window returns the current range-limiter spans.
func (c *Controller) Window() (wx, wy float64) { return c.rl.Window(c.t) }

// AtMinWindow reports whether the window has reached its minimum span.
func (c *Controller) AtMinWindow() bool { return c.rl.AtMinimum(c.t) }

// Accept applies the Metropolis criterion to a proposed cost change.
func (c *Controller) Accept(delta float64) bool {
	c.tried++
	c.stepTried++
	if delta <= 0 {
		c.accepted++
		c.stepAccepted++
		return true
	}
	if c.t <= 0 {
		return false
	}
	if c.rng.Float64() < math.Exp(-delta/c.t) {
		c.accepted++
		c.stepAccepted++
		return true
	}
	return false
}

// EndStep reports the cost at the end of an inner loop, feeding the
// stability stopping criterion.
func (c *Controller) EndStep(cost float64) {
	if c.started && cost == c.lastCost {
		c.stable++
	} else {
		c.stable = 0
	}
	c.lastCost = cost
	if c.stepTried > 0 {
		c.lastStepRate = float64(c.stepAccepted) / float64(c.stepTried)
	} else {
		c.lastStepRate = 0
	}
	c.stepAccepted, c.stepTried = 0, 0
}

// StepAcceptRate returns the acceptance rate of the most recently completed
// inner loop.
func (c *Controller) StepAcceptRate() float64 { return c.lastStepRate }

// AcceptRate returns the fraction of Accept calls that returned true.
func (c *Controller) AcceptRate() float64 {
	if c.tried == 0 {
		return 0
	}
	return float64(c.accepted) / float64(c.tried)
}
