// Package estimate implements the paper's new dynamic interconnect-area
// estimator (§2.2, Eqns 1–5). The estimate for the interconnect area to be
// appended outside a cell edge is the product of three factors:
//
//  1. the expected average channel width C_w = (N_L / C_L)·t_s, from an
//     estimate of the final total interconnect length N_L and the total
//     channel length C_L (Eqn 1);
//  2. position modulation f_x(x)·f_y(y): channels near the core center are
//     about twice as wide as mid-side channels and four times corner
//     channels, so M ≈ 2, B ≈ 1 (Figure 1);
//  3. the relative pin density of the edge, f_rp(i) = max(1, d_rp^i).
//
// The per-edge expansion is e_w^i = 0.5·α·C_w·f_x·f_y·f_rp (Eqn 2), with α
// normalizing the expectation of f_x·f_y to 1 over the core (Eqns 3–4).
package estimate

import (
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// Params configures the estimator.
type Params struct {
	// Mx, My are the maximum (core-center) modulation values; the paper's
	// typical selection is 2 (two-layer interconnect).
	Mx, My float64
	// Bx, By are the minimum (core-boundary) modulation values; typically 1.
	Bx, By float64
	// NetLengthCoeff scales the per-net optimized-length model used for
	// N_L (stands in for the derivation of refs [14][15]); the expected
	// bounding half-perimeter of a k-connection net after optimized
	// placement is modeled as NetLengthCoeff·sqrt(avg cell area)·k^0.75.
	NetLengthCoeff float64
}

// DefaultParams returns the paper's typical selections.
func DefaultParams() Params {
	return Params{Mx: 2, My: 2, Bx: 1, By: 1, NetLengthCoeff: 1.0}
}

// Alpha returns the normalization constant α of Eqns 3–4. Because the
// integrand separates, α is the product of the 1-D averages; for the
// symmetric case it reduces to ((M+B)/2)² (Eqn 4).
func (p Params) Alpha() float64 {
	return (p.Mx + p.Bx) / 2 * (p.My + p.By) / 2
}

// Estimator evaluates per-edge interconnect expansions for a fixed core
// rectangle and circuit statistics. Positions are given in world
// coordinates; the estimator internally recenters on the core.
type Estimator struct {
	p     Params
	core  geom.Rect
	alpha float64
	// halfACw = 0.5·C_w/α, the position-independent prefix of Eqn 2.
	halfACw float64
}

// New builds an estimator for the given circuit and core region. The
// estimate of the final interconnect length N_L uses the circuit's net
// degrees; the total channel length C_L is approximated by half the sum of
// all cell perimeters, since every channel is bordered by two cell edges
// (§4.1).
func New(c *netlist.Circuit, core geom.Rect, p Params) *Estimator {
	nl := EstimateWireLength(c, p)
	cl := float64(c.TotalPerimeter()) / 2
	if cl < 1 {
		cl = 1
	}
	cw := nl / cl * float64(c.TrackSep)
	return NewWithChannelWidth(core, cw, p)
}

// NewWithChannelWidth builds an estimator from an explicit expected average
// channel width C_w; used by tests and by Stage 2 cross-checks.
func NewWithChannelWidth(core geom.Rect, cw float64, p Params) *Estimator {
	a := p.Alpha()
	return &Estimator{
		p:       p,
		core:    core,
		alpha:   a,
		halfACw: 0.5 / a * cw,
	}
}

// Core returns the core rectangle the estimator is normalized over.
func (e *Estimator) Core() geom.Rect { return e.core }

// SetCore rebinds the estimator to a new core rectangle (the core tracks the
// placement bounding box as Stage 1 progresses).
func (e *Estimator) SetCore(core geom.Rect) { e.core = core }

// FX evaluates the horizontal modulation function at world coordinate x.
// Outside the core span it saturates at Bx.
func (e *Estimator) FX(x geom.Coord) float64 {
	w := float64(e.core.W())
	if w <= 0 {
		return e.p.Bx
	}
	cx := float64(e.core.XLo+e.core.XHi) / 2
	t := math.Abs(float64(x)-cx) / (0.5 * w)
	if t > 1 {
		t = 1
	}
	return e.p.Mx - t*(e.p.Mx-e.p.Bx)
}

// FY evaluates the vertical modulation function at world coordinate y.
func (e *Estimator) FY(y geom.Coord) float64 {
	h := float64(e.core.H())
	if h <= 0 {
		return e.p.By
	}
	cy := float64(e.core.YLo+e.core.YHi) / 2
	t := math.Abs(float64(y)-cy) / (0.5 * h)
	if t > 1 {
		t = 1
	}
	return e.p.My - t*(e.p.My-e.p.By)
}

// Expansion returns e_w^i (Eqn 2): the outward expansion, in grid units, for
// a cell edge whose midpoint is at mid and whose relative pin density is
// drp. The f_rp factor is clamped below at 1 so even pin-free edges receive
// some interconnect area (§2.2).
//
// Note 1/α: the paper multiplies by α in Eqn 2 but derives α in Eqn 3 as the
// mean of f_x·f_y over the core, which exceeds 1; dividing by that mean is
// what makes E[e_w] = 0.5·C_w as required. We implement the normalization
// with its intended effect.
func (e *Estimator) Expansion(mid geom.Point, drp float64) int {
	frp := math.Max(1, drp)
	v := e.halfACw * e.FX(mid.X) * e.FY(mid.Y) * frp
	return int(math.Round(v))
}

// MaxExpansion returns the Eqn 5 approximation used before cell positions
// are known: modulation at its maximum and f_rp = 1.
func (e *Estimator) MaxExpansion() int {
	return int(math.Round(e.halfACw * e.p.Mx * e.p.My))
}

// EstimateWireLength returns N_L, the estimate of the final total
// interconnect length after optimized placement. Each net of degree k
// contributes NetLengthCoeff·sqrt(c̄_a)·k^0.75, where c̄_a is the average
// cell area: connected cells end up adjacent, so a 2-pin net spans about one
// average cell diameter, and the bounding half-perimeter of a k-pin cluster
// grows sublinearly in k.
func EstimateWireLength(c *netlist.Circuit, p Params) float64 {
	if len(c.Cells) == 0 {
		return 0
	}
	avgArea := float64(c.TotalCellArea()) / float64(len(c.Cells))
	d := math.Sqrt(avgArea)
	coeff := p.NetLengthCoeff
	if coeff <= 0 {
		coeff = 1
	}
	var nl float64
	for i := range c.Nets {
		k := float64(c.Nets[i].Degree())
		nl += coeff * d * math.Pow(k, 0.75)
	}
	return nl
}

// CoreSize determines the target core rectangle (§2.2 "Determining the Core
// Area"): every cell is padded on all sides by the Eqn 5 maximum expansion,
// and the core area is the sum of padded cell areas shaped to the requested
// aspect ratio (height/width). No fixed-point iteration is needed because
// C_w (Eqn 1) depends only on circuit statistics, not on the core size.
func CoreSize(c *netlist.Circuit, p Params, aspect float64) geom.Rect {
	if aspect <= 0 {
		aspect = 1
	}
	est := New(c, geom.Rect{}, p)
	pad := est.MaxExpansion()
	var area int64
	for i := range c.Cells {
		cl := &c.Cells[i]
		if len(cl.Instances) == 0 {
			continue
		}
		w, h := cl.Instances[0].Dims(1)
		area += int64(w+2*pad) * int64(h+2*pad)
	}
	w := int(math.Ceil(math.Sqrt(float64(area) / aspect)))
	if w < 1 {
		w = 1
	}
	h := int(math.Ceil(float64(area) / float64(w)))
	if h < 1 {
		h = 1
	}
	return geom.R(0, 0, w, h)
}

// PinDensity computes the relative pin density d_rp for each canonical side
// (left, right, bottom, top) of each cell, against the circuit-wide average
// density D_p = total pins / total perimeter (§2.2 factor 3).
//
// Fixed pins are attributed to the nearest side of the instance bounding
// box; uncommitted pins are spread uniformly over their allowed sides.
func PinDensity(c *netlist.Circuit) [][4]float64 {
	totalPins := float64(len(c.Pins))
	totalPerim := float64(c.TotalPerimeter())
	dp := totalPins / math.Max(1, totalPerim)
	if dp <= 0 {
		dp = 1
	}
	out := make([][4]float64, len(c.Cells))
	for ci := range c.Cells {
		cl := &c.Cells[ci]
		if len(cl.Instances) == 0 {
			continue
		}
		w, h := cl.Instances[0].Dims(1)
		var count [4]float64 // L, R, B, T
		for _, pi := range cl.Pins {
			p := &c.Pins[pi]
			switch p.Placement {
			case netlist.PinFixed:
				count[nearestSide(p.Offset, w, h)]++
			default:
				edges := p.Edges
				if edges == 0 {
					edges = netlist.EdgeAny
				}
				n := float64(edges.Count())
				if edges.Has(netlist.EdgeLeft) {
					count[0] += 1 / n
				}
				if edges.Has(netlist.EdgeRight) {
					count[1] += 1 / n
				}
				if edges.Has(netlist.EdgeBottom) {
					count[2] += 1 / n
				}
				if edges.Has(netlist.EdgeTop) {
					count[3] += 1 / n
				}
			}
		}
		lens := [4]float64{float64(h), float64(h), float64(w), float64(w)}
		for s := 0; s < 4; s++ {
			d := count[s] / math.Max(1, lens[s])
			out[ci][s] = d / dp
		}
	}
	return out
}

// nearestSide classifies a bbox-center-relative offset to the closest side
// of a w×h instance: 0=left 1=right 2=bottom 3=top.
func nearestSide(off geom.Point, w, h int) int {
	// Distances to each side from the offset point.
	dl := math.Abs(float64(off.X) + float64(w)/2)
	dr := math.Abs(float64(w)/2 - float64(off.X))
	db := math.Abs(float64(off.Y) + float64(h)/2)
	dt := math.Abs(float64(h)/2 - float64(off.Y))
	best, bd := 0, dl
	if dr < bd {
		best, bd = 1, dr
	}
	if db < bd {
		best, bd = 2, db
	}
	if dt < bd {
		best = 3
	}
	return best
}
