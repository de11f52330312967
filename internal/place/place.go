// Package place implements Stage 1 of TimberWolfMC (§3): simulated-annealing
// placement of macro/custom cells with the dynamic interconnect-area
// estimator, the three-term cost function C1 + p2·C2 + C3, the paper's
// generate function (single-cell displacement with aspect-ratio-inversion
// retry and orientation fallback, pin moves, aspect/instance changes, and
// pairwise interchange), the ρ-controlled range limiter and the D_s
// displacement-point selector.
//
// The same Placement state also serves Stage 2 (package refine) in static
// expansion mode, where channel widths from global routing replace the
// dynamic estimator.
//
// Placement state is stored structure-of-arrays (DESIGN.md §12): positions,
// orientations, instances, aspects, and pin-unit assignments live in flat
// slices, per-cell geometry is mutated in place, and per-net bounding boxes
// carry a dirty bit so unchanged nets skip their pin scans. The CellState
// struct remains the public exchange format (State/SetState, checkpoints,
// placement files); the annealing hot path runs entirely on the flat state
// and allocates nothing per move.
package place

import (
	"fmt"
	"math"

	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// DefaultSitesPerEdge is the pin-site count per custom-cell edge when the
// netlist does not specify one (§2.4: a limited number of sites keeps the
// per-orientation storage modest).
const DefaultSitesPerEdge = 8

// Kappa is the constant κ of Eqn 10, driving over-capacity pin sites to zero
// before the end of Stage 1; the paper's implementation uses κ = 5.
const Kappa = 5

// CellState is the complete placement state of one cell.
type CellState struct {
	// Pos is the world position of the cell's bounding-box center.
	Pos geom.Point
	// Orient is one of the eight orientations.
	Orient geom.Orient
	// Instance selects among the cell's candidate implementations.
	Instance int
	// Aspect is the realized height/width ratio for custom shapes.
	Aspect float64
	// Units holds the pin-site assignment of each uncommitted pin unit.
	Units []UnitAssign
}

// UnitAssign places an uncommitted pin unit (a lone edge pin, or a whole
// group/sequence) at consecutive sites starting at Site on the canonical
// edge Edge (0=L 1=R 2=B 3=T).
type UnitAssign struct {
	Edge int
	Site int
}

// unit is a movable pin unit of a custom cell.
type unit struct {
	pins  []int // pin indices (sequence order for sequenced groups)
	edges netlist.EdgeMask
}

// sideOfMask converts a canonical side index to its EdgeMask bit.
func sideOfMask(side int) netlist.EdgeMask { return netlist.EdgeMask(1) << side }

// Placement holds the complete, incrementally-maintained placement state
// and cost terms for a circuit.
type Placement struct {
	Circuit *netlist.Circuit
	Core    geom.Rect

	// Est is the dynamic interconnect-area estimator; nil in static mode.
	Est *estimate.Estimator
	// static per-cell, per-world-side expansions (grid units), used by
	// Stage 2; indexed [cell][world side L,R,B,T].
	static [][4]int

	// P2 is the overlap normalization constant p2 (Eqn 9).
	P2 float64

	pinDensity [][4]float64 // canonical per-side relative pin density
	cellNets   [][]int      // nets touching each cell (unique)
	netPrimary [][]int      // primary pin per connection, flattened per net
	units      [][]unit     // uncommitted pin units per cell
	sitesPer   []int        // pin sites per edge, per cell

	// Structure-of-arrays cell state: one flat slice per component. Cell
	// i's pin-unit assignments occupy [unitOff[i], unitOff[i+1]) of
	// unitEdge/unitSite.
	pos      []geom.Point
	orient   []geom.Orient
	instance []int
	aspect   []float64
	unitOff  []int
	unitEdge []int32
	unitSite []int32

	tiles    []geom.TileSet // expanded world tiles per cell, mutated in place
	rawTiles []geom.TileSet // unexpanded world tiles per cell, mutated in place
	// tileBB/rawBB cache Bounds() of tiles/rawTiles, and dimW/dimH the
	// current instance dimensions, all refreshed by realizeCell: pure
	// functions of the cell state, cached so the overlap and pin-site hot
	// paths skip recomputing them (values are identical either way).
	tileBB []geom.Rect
	rawBB  []geom.Rect
	dimW   []int
	dimH   []int
	// centered holds, per cell and instance, the instance's canonical tiles
	// translated so their bounding-box center is the origin: the position-
	// and orientation-independent prefix of the realize transform chain,
	// precomputed so realizing a macro cell is one in-place transform.
	// Custom-shape instances (dims depend on the live aspect) have a nil
	// entry and are realized from a single rectangle directly.
	centered [][]*geom.TileSet
	pinPos   []geom.Point // world position per pin
	netBox   []geom.Rect  // bounding box of primary pins per net
	// netDirty marks nets whose cached bounding box is stale because a
	// primary pin actually changed position. Clean nets skip the pin scan in
	// refreshCell — the cached box is bit-identical to a recomputation, and
	// the cost accumulators still see the exact subtract/add sequence.
	netDirty []bool
	pinNets  [][]int32 // nets using each pin as a primary connection
	siteCnt  [][]int16 // occupancy per cell: [4*S] flattened

	// index restricts each overlap evaluation to spatial neighbors; the
	// values equal the full O(N) scan exactly (see cellIndex), which the
	// package tests keep as their oracle.
	index    *cellIndex
	queryBuf []int32

	// scratchState is the reusable CellState buffer behind Randomize;
	// calibStates/calibUnits are the full-placement snapshot CalibrateP2
	// saves and restores, allocated once and reused across calls.
	scratchState CellState
	calibStates  []CellState
	calibUnits   []UnitAssign

	c1   float64 // TEIC (Eqn 6)
	teil float64 // unweighted total span (TEIL)
	c2   int64   // total overlap area, unscaled (Eqn 7 without p2)
	c3   float64 // pin-site penalty (Eqn 11)
}

// New builds a placement with every cell at the core center in R0; call
// Randomize or set states explicitly before annealing. est may be nil for
// static mode (then SetStaticExpansion must be called).
func New(c *netlist.Circuit, core geom.Rect, est *estimate.Estimator) *Placement {
	n := len(c.Cells)
	p := &Placement{
		Circuit:    c,
		Core:       core,
		Est:        est,
		P2:         1,
		pinDensity: estimate.PinDensity(c),
		cellNets:   buildCellNets(c),
		netPrimary: buildNetPrimary(c),
		pos:        make([]geom.Point, n),
		orient:     make([]geom.Orient, n),
		instance:   make([]int, n),
		aspect:     make([]float64, n),
		unitOff:    make([]int, n+1),
		tiles:      make([]geom.TileSet, n),
		rawTiles:   make([]geom.TileSet, n),
		tileBB:     make([]geom.Rect, n),
		rawBB:      make([]geom.Rect, n),
		dimW:       make([]int, n),
		dimH:       make([]int, n),
		centered:   make([][]*geom.TileSet, n),
		pinPos:     make([]geom.Point, len(c.Pins)),
		netBox:     make([]geom.Rect, len(c.Nets)),
		netDirty:   make([]bool, len(c.Nets)),
		pinNets:    buildPinNets(c),
		static:     make([][4]int, n),
		units:      make([][]unit, n),
		sitesPer:   make([]int, n),
		siteCnt:    make([][]int16, n),
	}
	center := core.Center()
	for i := range c.Cells {
		cl := &c.Cells[i]
		p.sitesPer[i] = sitesPerEdge(cl)
		p.units[i] = buildUnits(c, cl)
		p.unitOff[i+1] = p.unitOff[i] + len(p.units[i])
		p.siteCnt[i] = make([]int16, 4*p.sitesPer[i])
		p.centered[i] = make([]*geom.TileSet, len(cl.Instances))
		for ii := range cl.Instances {
			if in := &cl.Instances[ii]; !in.IsCustomShape() {
				b := in.Tiles.Bounds()
				ctr := b.Center()
				p.centered[i][ii] = in.Tiles.Transform(geom.R0, geom.Point{X: -ctr.X, Y: -ctr.Y})
			}
		}
	}
	p.unitEdge = make([]int32, p.unitOff[n])
	p.unitSite = make([]int32, p.unitOff[n])
	for i := range c.Cells {
		cl := &c.Cells[i]
		p.pos[i] = center
		p.orient[i] = geom.R0
		p.instance[i] = 0
		p.aspect[i] = 1
		if cl.Fixed {
			p.pos[i] = cl.FixedPos
			p.orient[i] = cl.FixedOrient
		}
		if in := &cl.Instances[0]; in.IsCustomShape() {
			p.aspect[i] = in.ClampAspect(1)
		}
		// Default unit assignment: first allowed edge, consecutive sites.
		off := p.unitOff[i]
		for u := range p.units[i] {
			p.unitEdge[off+u] = int32(firstAllowedEdge(p.units[i][u].edges))
			p.unitSite[off+u] = 0
		}
	}
	for i := range c.Cells {
		p.realizeCell(i)
	}
	p.rebuildIndex()
	p.RecomputeAll()
	return p
}

// indexBox returns the box cell i is indexed under: the union of its raw
// and expanded tile bounds, so that both expanded-tile (C2) and raw-tile
// (RawOverlap) queries see a conservative candidate set.
func (p *Placement) indexBox(i int) geom.Rect {
	return p.rawBB[i].Union(p.tileBB[i])
}

// rebuildIndex builds the spatial overlap index from the current geometry,
// with its grid sized for the current core.
func (p *Placement) rebuildIndex() {
	p.index = newCellIndex(p.Core, len(p.Circuit.Cells))
	for i := range p.Circuit.Cells {
		p.index.update(i, p.indexBox(i))
	}
}

// setCore moves the placement onto a new core rectangle. The core bounds
// the border term of C2 and, in dynamic mode, the estimator's expansions,
// so every cell is re-realized under an attached estimator, the index is
// re-binned for the new region, and C2 is recomputed from scratch. C1,
// TEIL and C3 depend only on pin positions and site counts, which the core
// does not move, so they keep their exact incremental values.
func (p *Placement) setCore(core geom.Rect) {
	p.Core = core
	if p.Est != nil {
		p.Est.SetCore(core)
		for i := range p.Circuit.Cells {
			p.realizeCell(i)
		}
	}
	p.rebuildIndex()
	p.c2 = p.overlapAll()
}

func buildNetPrimary(c *netlist.Circuit) [][]int {
	out := make([][]int, len(c.Nets))
	for ni := range c.Nets {
		conns := c.Nets[ni].Conns
		pins := make([]int, len(conns))
		for k, conn := range conns {
			pins[k] = conn.Primary()
		}
		out[ni] = pins
	}
	return out
}

func buildCellNets(c *netlist.Circuit) [][]int {
	out := make([][]int, len(c.Cells))
	seen := make([]int, len(c.Cells))
	for i := range seen {
		seen[i] = -1
	}
	for ni := range c.Nets {
		for _, conn := range c.Nets[ni].Conns {
			ci := c.Pins[conn.Primary()].Cell
			if seen[ci] != ni {
				seen[ci] = ni
				out[ci] = append(out[ci], ni)
			}
		}
	}
	return out
}

// buildPinNets inverts the net→primary-pin relation: for each pin, the nets
// it drives a bounding-box corner of. Every net listed for a pin of cell i
// also appears in cellNets[i], so a dirty mark set while realizing cell i is
// always cleared by refreshCell's add pass over cellNets[i].
func buildPinNets(c *netlist.Circuit) [][]int32 {
	out := make([][]int32, len(c.Pins))
	for ni := range c.Nets {
		for _, conn := range c.Nets[ni].Conns {
			pi := conn.Primary()
			if k := len(out[pi]); k > 0 && out[pi][k-1] == int32(ni) {
				continue // duplicate primary within one net
			}
			out[pi] = append(out[pi], int32(ni))
		}
	}
	return out
}

// sitesPerEdge is cl's pin-site count per edge.
func sitesPerEdge(cl *netlist.Cell) int {
	if cl.SitesPerEdge > 0 {
		return cl.SitesPerEdge
	}
	return DefaultSitesPerEdge
}

func buildUnits(c *netlist.Circuit, cl *netlist.Cell) []unit {
	var out []unit
	for gi := range cl.Groups {
		g := &cl.Groups[gi]
		out = append(out, unit{pins: g.Pins, edges: g.Edges})
	}
	for _, pi := range cl.Pins {
		p := &c.Pins[pi]
		if p.Placement == netlist.PinEdge {
			out = append(out, unit{pins: []int{pi}, edges: p.Edges})
		}
	}
	return out
}

func firstAllowedEdge(m netlist.EdgeMask) int {
	for s := 0; s < 4; s++ {
		if m.Has(sideOfMask(s)) {
			return s
		}
	}
	return 0
}

// State returns a copy of cell i's placement state.
func (p *Placement) State(i int) CellState {
	st := CellState{
		Pos:      p.pos[i],
		Orient:   p.orient[i],
		Instance: p.instance[i],
		Aspect:   p.aspect[i],
		Units:    make([]UnitAssign, p.unitOff[i+1]-p.unitOff[i]),
	}
	p.copyUnitsOut(i, st.Units)
	return st
}

// StateInto copies cell i's state into dst, reusing dst.Units's backing
// array when its capacity suffices: the allocation-free counterpart of State
// for the annealing hot path.
func (p *Placement) StateInto(i int, dst *CellState) {
	dst.Pos = p.pos[i]
	dst.Orient = p.orient[i]
	dst.Instance = p.instance[i]
	dst.Aspect = p.aspect[i]
	n := p.unitOff[i+1] - p.unitOff[i]
	if cap(dst.Units) < n {
		dst.Units = make([]UnitAssign, n)
	} else {
		dst.Units = dst.Units[:n]
	}
	p.copyUnitsOut(i, dst.Units)
}

// copyUnitsOut fills dst with cell i's unit assignments; len(dst) must be
// the cell's unit count.
func (p *Placement) copyUnitsOut(i int, dst []UnitAssign) {
	off := p.unitOff[i]
	for u := range dst {
		dst[u] = UnitAssign{Edge: int(p.unitEdge[off+u]), Site: int(p.unitSite[off+u])}
	}
}

// writeState stores st into the flat state slices. The Units values are
// copied, never aliased, so callers may reuse st.Units backing buffers.
func (p *Placement) writeState(i int, st CellState) {
	p.pos[i] = st.Pos
	p.orient[i] = st.Orient
	p.instance[i] = st.Instance
	p.aspect[i] = st.Aspect
	off := p.unitOff[i]
	n := p.unitOff[i+1] - off
	if len(st.Units) != n {
		panic(fmt.Sprintf("place: cell %d state carries %d unit assignments, want %d",
			i, len(st.Units), n))
	}
	for u := 0; u < n; u++ {
		p.unitEdge[off+u] = int32(st.Units[u].Edge)
		p.unitSite[off+u] = int32(st.Units[u].Site)
	}
}

// Tiles returns the expanded world tiles of cell i. The returned set is
// live: it is mutated in place when the cell moves.
func (p *Placement) Tiles(i int) *geom.TileSet { return &p.tiles[i] }

// RawTiles returns the unexpanded world tiles of cell i. The returned set is
// live: it is mutated in place when the cell moves.
func (p *Placement) RawTiles(i int) *geom.TileSet { return &p.rawTiles[i] }

// PinPos returns the world position of pin pi.
func (p *Placement) PinPos(pi int) geom.Point { return p.pinPos[pi] }

// Units returns the number of uncommitted pin units on cell i.
func (p *Placement) Units(i int) int { return len(p.units[i]) }

// Movable reports whether the annealers may move cell i (pre-placed cells
// are fixed; their uncommitted pins, if any, may still be re-sited).
func (p *Placement) Movable(i int) bool { return !p.Circuit.Cells[i].Fixed }

// MovableCells returns the indices of all movable cells.
func (p *Placement) MovableCells() []int {
	var out []int
	for i := range p.Circuit.Cells {
		if p.Movable(i) {
			out = append(out, i)
		}
	}
	return out
}

// SitesPerEdge returns the pin-site count per edge for cell i.
func (p *Placement) SitesPerEdge(i int) int { return p.sitesPer[i] }

// SetStaticExpansion switches cell i to static mode with the given
// per-world-side expansions (Stage 2: half the required channel width on
// each bordering edge, §4.3). Passing a placement-wide estimator of nil and
// calling this for every cell puts the whole placement in static mode.
func (p *Placement) SetStaticExpansion(i int, sides [4]int) {
	p.static[i] = sides
	p.refreshCell(i)
}

// instanceDims returns the canonical width/height of the chosen instance,
// cached by realizeCell: callers on the subtract side of refreshCell see the
// pre-move dimensions although SetState has already written the new scalars.
func (p *Placement) instanceDims(i int) (w, h int) {
	return p.dimW[i], p.dimH[i]
}

// worldSideToCanonical maps, for orientation o, each world side (L,R,B,T)
// to the canonical side currently facing it.
var worldSideToCanonical [geom.NumOrients][4]int

func init() {
	// Canonical outward normals per side L,R,B,T.
	normals := [4]geom.Point{{X: -1}, {X: 1}, {Y: -1}, {Y: 1}}
	for o := geom.Orient(0); o < geom.NumOrients; o++ {
		for s := 0; s < 4; s++ {
			n := o.Apply(normals[s])
			var world int
			switch {
			case n.X == -1:
				world = 0
			case n.X == 1:
				world = 1
			case n.Y == -1:
				world = 2
			default:
				world = 3
			}
			worldSideToCanonical[o][world] = s
		}
	}
}

// realizeCell recomputes the world geometry and pin positions of cell i
// from its state, entirely in place — no allocation in steady state. It
// does not touch cost accounting.
func (p *Placement) realizeCell(i int) {
	cl := &p.Circuit.Cells[i]
	in := &cl.Instances[p.instance[i]]
	pos := p.pos[i]
	o := p.orient[i]
	w, h := in.Dims(p.aspect[i])
	p.dimW[i], p.dimH[i] = w, h

	// Raw world tiles.
	raw := &p.rawTiles[i]
	if in.IsCustomShape() {
		raw.SetRect(o.ApplyRect(geom.R(-w/2, -h/2, -w/2+w, -h/2+h)).Translate(pos))
	} else {
		raw.SetTransformed(p.centered[i][p.instance[i]], o, pos)
	}
	bb := raw.Bounds()
	p.rawBB[i] = bb

	// Expanded tiles: each tile side expanded outward by the estimator
	// (dynamic mode) or the static per-side amounts (Stage 2). The pin
	// density of the cell side facing each world direction modulates the
	// dynamic estimate (§2.2 factor 3).
	var side [4]int
	if p.Est != nil {
		canon := worldSideToCanonical[o]
		mid := [4]geom.Point{
			{X: bb.XLo, Y: (bb.YLo + bb.YHi) / 2},
			{X: bb.XHi, Y: (bb.YLo + bb.YHi) / 2},
			{X: (bb.XLo + bb.XHi) / 2, Y: bb.YLo},
			{X: (bb.XLo + bb.XHi) / 2, Y: bb.YHi},
		}
		for s := 0; s < 4; s++ {
			drp := p.pinDensity[i][canon[s]]
			side[s] = p.Est.Expansion(mid[s], drp)
		}
	} else {
		side = p.static[i]
	}
	p.tiles[i].SetInflated(raw, side[0], side[2], side[1], side[3])
	p.tileBB[i] = p.tiles[i].Bounds()

	// Pin positions.
	for _, pi := range cl.Pins {
		pin := &p.Circuit.Pins[pi]
		if pin.Placement == netlist.PinFixed {
			off := clampOffset(pin.Offset, w, h)
			p.setPin(pi, pos.Add(o.Apply(off)))
		}
	}
	// Uncommitted pins from unit assignments.
	p.placeUnits(i)
	// Site occupancy.
	p.recountSites(i)
}

// setPin moves pin pi to v, marking the nets it bounds dirty when the
// position actually changed. Nets whose pins all kept their positions stay
// clean, and their cached bounding boxes — bit-identical to a recomputation,
// being a pure function of unchanged pin positions — are reused.
func (p *Placement) setPin(pi int, v geom.Point) {
	if p.pinPos[pi] == v {
		return
	}
	p.pinPos[pi] = v
	for _, n := range p.pinNets[pi] {
		p.netDirty[n] = true
	}
}

// clampOffset restricts a canonical pin offset into the instance bounds;
// pin offsets are defined for the first instance and are clamped when a
// differently-sized instance is selected.
func clampOffset(off geom.Point, w, h int) geom.Point {
	hw, hh := w/2, h/2
	if off.X < -hw {
		off.X = -hw
	}
	if off.X > w-hw {
		off.X = w - hw
	}
	if off.Y < -hh {
		off.Y = -hh
	}
	if off.Y > h-hh {
		off.Y = h - hh
	}
	return off
}

// sitePos returns the canonical-frame position of site k on canonical side s
// of a w×h shape.
func sitePos(s, k, nSites, w, h int) geom.Point {
	hw, hh := w/2, h/2
	frac := func(length int) int { return (2*k + 1) * length / (2 * nSites) }
	switch s {
	case 0:
		return geom.Point{X: -hw, Y: -hh + frac(h)}
	case 1:
		return geom.Point{X: w - hw, Y: -hh + frac(h)}
	case 2:
		return geom.Point{X: -hw + frac(w), Y: -hh}
	default:
		return geom.Point{X: -hw + frac(w), Y: h - hh}
	}
}

// SiteCapacity returns C_p for each site of cell i: the number of pin
// locations encompassed by one site, at a pin pitch of one routing track.
func (p *Placement) SiteCapacity(i, edge int) int {
	w, h := p.instanceDims(i)
	length := h
	if edge >= 2 {
		length = w
	}
	cap := length / (p.sitesPer[i] * p.Circuit.TrackSep)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// placeUnits assigns world positions to all uncommitted pins of cell i from
// the unit assignments.
func (p *Placement) placeUnits(i int) {
	w, h := p.instanceDims(i)
	n := p.sitesPer[i]
	pos := p.pos[i]
	o := p.orient[i]
	off := p.unitOff[i]
	for u, un := range p.units[i] {
		edge := int(p.unitEdge[off+u])
		s0 := int(p.unitSite[off+u])
		for k, pi := range un.pins {
			site := (s0 + k) % n
			p.setPin(pi, pos.Add(o.Apply(sitePos(edge, site, n, w, h))))
		}
	}
}

// recountSites recomputes site occupancy for cell i.
func (p *Placement) recountSites(i int) {
	cnt := p.siteCnt[i]
	for k := range cnt {
		cnt[k] = 0
	}
	n := p.sitesPer[i]
	off := p.unitOff[i]
	for u, un := range p.units[i] {
		edge := int(p.unitEdge[off+u])
		s0 := int(p.unitSite[off+u])
		for k := range un.pins {
			cnt[edge*n+(s0+k)%n]++
		}
	}
}

// siteContrib computes cell i's contribution to C3 (Eqn 10–11). Cells
// without uncommitted pin units contribute exactly 0.0 (every site count is
// zero, so the loop performs no additions); the early return yields the same
// value without scanning the sites.
func (p *Placement) siteContrib(i int) float64 {
	if len(p.units[i]) == 0 {
		return 0
	}
	var sum float64
	n := p.sitesPer[i]
	for e := 0; e < 4; e++ {
		capE := float64(p.SiteCapacity(i, e))
		for s := 0; s < n; s++ {
			ct := float64(p.siteCnt[i][e*n+s])
			if ct > capE {
				pen := ct - capE + Kappa
				sum += pen * pen
			}
		}
	}
	return sum
}

// overlapContrib computes Σ_j O(i,j) over j ≠ i plus the core-border
// overlap (the dummy cells of footnote 16). Only cells whose bins intersect
// cell i's box are tested; the sum equals the full scan exactly because
// skipped pairs have disjoint bounding boxes and hence zero overlap area.
func (p *Placement) overlapContrib(i int) int64 {
	var sum int64
	ti := &p.tiles[i]
	p.queryBuf = p.index.query(p.tileBB[i], i, p.queryBuf[:0])
	for _, j := range p.queryBuf {
		sum += ti.Overlap(&p.tiles[j])
	}
	sum += p.borderOverlap(i)
	return sum
}

// borderOverlap returns the area of cell i's raw tiles lying outside the
// core: the overlap with the four dummy border cells of footnote 16, which
// fire when "a macro/custom cell edge extends beyond a core boundary". Raw
// tiles are used because the target core area budget (Eqn 5) equals the sum
// of padded cell areas exactly; expanded tiles may legitimately protrude.
func (p *Placement) borderOverlap(i int) int64 {
	if p.Core.ContainsRect(p.rawBB[i]) {
		return 0
	}
	var sum int64
	for _, t := range p.rawTiles[i].Tiles() {
		sum += t.Area() - t.Intersect(p.Core).Area()
	}
	return sum
}

// RawOverlap returns the total pairwise overlap of unexpanded cell tiles:
// actual cell-on-cell overlap, excluding interconnect-space conflicts.
func (p *Placement) RawOverlap() int64 {
	var sum int64
	for i := range p.rawTiles {
		p.queryBuf = p.index.query(p.rawBB[i], i, p.queryBuf[:0])
		for _, j := range p.queryBuf {
			if int(j) > i { // count each pair once
				sum += p.rawTiles[i].Overlap(&p.rawTiles[j])
			}
		}
	}
	return sum
}

// netCostFromBox returns the weighted cost and raw span of net n given its
// primary-pin bounding box (Eqn 6 terms).
func (p *Placement) netCostFromBox(n int, b geom.Rect) (weighted, span float64) {
	net := &p.Circuit.Nets[n]
	x, y := float64(b.XHi-b.XLo), float64(b.YHi-b.YLo)
	return x*net.HWeight + y*net.VWeight, x + y
}

// netBoxFor recomputes the primary-pin bounding box of net n. The box is
// degenerate (zero span) for single-point nets; the Rect here uses closed
// corner semantics (XHi = max pin x), unlike area rects.
func (p *Placement) netBoxFor(n int) geom.Rect {
	pins := p.netPrimary[n]
	first := p.pinPos[pins[0]]
	b := geom.Rect{XLo: first.X, YLo: first.Y, XHi: first.X, YHi: first.Y}
	for _, pi := range pins[1:] {
		pt := p.pinPos[pi]
		if pt.X < b.XLo {
			b.XLo = pt.X
		}
		if pt.X > b.XHi {
			b.XHi = pt.X
		}
		if pt.Y < b.YLo {
			b.YLo = pt.Y
		}
		if pt.Y > b.YHi {
			b.YHi = pt.Y
		}
	}
	return b
}

// RecomputeAll rebuilds every cost term from scratch by brute force, every
// cell pair included: the ground truth that New starts from and Validate
// compares against.
func (p *Placement) RecomputeAll() {
	p.c1, p.teil, p.c3 = 0, 0, 0
	for n := range p.Circuit.Nets {
		p.netBox[n] = p.netBoxFor(n)
		p.netDirty[n] = false
		w, s := p.netCostFromBox(n, p.netBox[n])
		p.c1 += w
		p.teil += s
	}
	p.c2 = p.overlapAll()
	for i := range p.tiles {
		p.c3 += p.siteContrib(i)
	}
}

// overlapAll is C2 by brute force: the overlap of every cell pair plus
// every cell's border overlap.
func (p *Placement) overlapAll() int64 {
	var sum int64
	for i := range p.tiles {
		for j := i + 1; j < len(p.tiles); j++ {
			sum += p.tiles[i].Overlap(&p.tiles[j])
		}
		sum += p.borderOverlap(i)
	}
	return sum
}

// costs returns the incremental cost accumulators.
func (p *Placement) costs() CostAccum {
	return CostAccum{C1: p.c1, TEIL: p.teil, C2: p.c2, C3: p.c3}
}

// setCosts overwrites the incremental cost accumulators.
func (p *Placement) setCosts(c CostAccum) {
	p.c1, p.teil, p.c2, p.c3 = c.C1, c.TEIL, c.C2, c.C3
}

// refreshCell re-realizes cell i from the flat state already in place,
// incrementally maintaining all cost terms: the common tail of SetState and
// SetStaticExpansion. The subtract side reads only the cached geometry
// (tiles, instanceDims, siteCnt) and net boxes, so the state write may
// precede it; the add side recomputes a
// net's bounding box only when one of its pins actually moved (netDirty),
// reusing the cached — bit-identical — box otherwise. The subtract/add of
// unchanged values is preserved: the float accumulators see the exact
// operation sequence of a full recomputation path, keeping costs
// bit-identical across implementations.
func (p *Placement) refreshCell(i int) {
	// Remove old contributions; the cached per-net boxes are current, so
	// no recomputation is needed on the subtract side.
	p.c2 -= p.overlapContrib(i)
	p.c3 -= p.siteContrib(i)
	for _, n := range p.cellNets[i] {
		w, s := p.netCostFromBox(n, p.netBox[n])
		p.c1 -= w
		p.teil -= s
	}
	// Re-realize.
	p.realizeCell(i)
	p.index.update(i, p.indexBox(i))
	// Add new contributions.
	p.c2 += p.overlapContrib(i)
	p.c3 += p.siteContrib(i)
	for _, n := range p.cellNets[i] {
		b := p.netBox[n]
		if p.netDirty[n] {
			b = p.netBoxFor(n)
			p.netBox[n] = b
			p.netDirty[n] = false
		}
		w, s := p.netCostFromBox(n, b)
		p.c1 += w
		p.teil += s
	}
}

// SetState places cell i in the given state (incremental cost update). The
// Units values are copied out of st, never aliased.
func (p *Placement) SetState(i int, st CellState) {
	p.writeState(i, st)
	p.refreshCell(i)
}

// snapshotScratch fills and returns the placement's reusable full-state
// snapshot: one CellState per cell, with every Units slice cut from a single
// flat backing array. Allocated on first use and reused afterwards, so
// CalibrateP2's save/restore cycle is allocation-free in steady state.
func (p *Placement) snapshotScratch() []CellState {
	if p.calibStates == nil {
		n := len(p.Circuit.Cells)
		p.calibUnits = make([]UnitAssign, p.unitOff[n])
		p.calibStates = make([]CellState, n)
		for i := range p.calibStates {
			p.calibStates[i].Units = p.calibUnits[p.unitOff[i]:p.unitOff[i+1]:p.unitOff[i+1]]
		}
	}
	for i := range p.calibStates {
		p.StateInto(i, &p.calibStates[i])
	}
	return p.calibStates
}

// C1 returns the TEIC (Eqn 6).
func (p *Placement) C1() float64 { return p.c1 }

// TEIL returns the total estimated interconnect length: the TEIC with all
// net weights forced to 1 (§3).
func (p *Placement) TEIL() float64 { return p.teil }

// C2Raw returns the total overlap area before p2 scaling.
func (p *Placement) C2Raw() int64 { return p.c2 }

// C3 returns the pin-site penalty (Eqn 11).
func (p *Placement) C3() float64 { return p.c3 }

// Cost returns the full Stage 1 objective C1 + p2·C2 + C3.
func (p *Placement) Cost() float64 {
	return p.c1 + p.P2*float64(p.c2) + p.c3
}

// CellBounds returns the bounding box of all raw (unexpanded) cell tiles.
func (p *Placement) CellBounds() geom.Rect {
	var b geom.Rect
	for i := range p.rawTiles {
		b = b.Union(p.rawTiles[i].Bounds())
	}
	return b
}

// ExpandedBounds returns the bounding box including interconnect expansion:
// the effective chip extent.
func (p *Placement) ExpandedBounds() geom.Rect {
	var b geom.Rect
	for i := range p.tiles {
		b = b.Union(p.tiles[i].Bounds())
	}
	return b
}

// Validate cross-checks the incremental cost terms against RecomputeAll and
// returns an error describing the first mismatch. It only observes: the
// incremental accumulators are restored exactly afterwards, because the
// recomputed float sums can differ from them in the last ulp — enough to
// steer a later accept/reject draw in a live run, or to change the costs a
// sign-off reports. (Per-net bounding boxes are position-derived, so
// RecomputeAll rebuilds them to identical values and they need no restore.)
func (p *Placement) Validate() error {
	inc := p.costs()
	p.RecomputeAll()
	full := p.costs()
	p.setCosts(inc)
	const eps = 1e-6
	switch {
	case math.Abs(inc.C1-full.C1) > eps:
		return fmt.Errorf("place: C1 drift: incremental %v full %v", inc.C1, full.C1)
	case math.Abs(inc.TEIL-full.TEIL) > eps:
		return fmt.Errorf("place: TEIL drift: incremental %v full %v", inc.TEIL, full.TEIL)
	case inc.C2 != full.C2:
		return fmt.Errorf("place: C2 drift: incremental %d full %d", inc.C2, full.C2)
	case math.Abs(inc.C3-full.C3) > eps:
		return fmt.Errorf("place: C3 drift: incremental %v full %v", inc.C3, full.C3)
	}
	return nil
}
