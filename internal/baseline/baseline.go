// Package baseline implements the placement-method families TimberWolfMC is
// compared against in the paper's evaluation (§5, Table 4):
//
//   - Quadratic: placement by resistive-network optimization in the style of
//     Cheng–Kuh (the circuit i1 comparison), followed by overlap-removal
//     legalization;
//   - Greedy: constructive placement seeded by the most-connected cell, in
//     the style of contemporary automatic packages such as CIPAR (circuits
//     i2, i3);
//   - Slicing: connectivity-ordered shelf packing with uniform channel
//     allowances, standing in for the careful area-driven manual layouts
//     (circuits p1, l1, d1–d3);
//   - Random: legalized random scatter, the control.
//
// Every placer produces a place.Placement on the same core the TimberWolfMC
// flow uses, so TEIL and chip-area comparisons are apples-to-apples.
package baseline

import (
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/rng"
)

// Placer is one baseline placement method.
type Placer interface {
	// Name identifies the method in reports.
	Name() string
	// Place produces a placement of c on the given core.
	Place(c *netlist.Circuit, core geom.Rect, seed uint64) *place.Placement
}

// All returns every baseline placer.
func All() []Placer {
	return []Placer{Random(), Quadratic(), Greedy(), Slicing()}
}

// ByName returns the named placer (random, quadratic, greedy, slicing).
func ByName(name string) (Placer, bool) {
	for _, p := range All() {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// newStatic builds a placement in static mode with zero expansions: baseline
// methods model interconnect space with explicit gaps instead.
func newStatic(c *netlist.Circuit, core geom.Rect) *place.Placement {
	return place.New(c, core, nil)
}

// cellDims returns each cell's canonical width and height.
func cellDims(c *netlist.Circuit) ([]int, []int) {
	w := make([]int, len(c.Cells))
	h := make([]int, len(c.Cells))
	for i := range c.Cells {
		w[i], h[i] = c.Cells[i].Instances[0].Dims(1)
	}
	return w, h
}

// netCells returns, per net, the distinct cells it touches (via primary
// pins), and per cell its connectivity degree.
func netCells(c *netlist.Circuit) ([][]int, []int) {
	nets := make([][]int, len(c.Nets))
	deg := make([]int, len(c.Cells))
	for ni := range c.Nets {
		seen := map[int]bool{}
		for _, conn := range c.Nets[ni].Conns {
			ci := c.Pins[conn.Primary()].Cell
			if !seen[ci] {
				seen[ci] = true
				nets[ni] = append(nets[ni], ci)
			}
		}
		for _, ci := range nets[ni] {
			deg[ci]++
		}
	}
	return nets, deg
}

// legalize runs push-apart relaxation: overlapping cells (padded by gap)
// repel each other along the axis of least penetration until overlap stops
// improving. This is the "spacer" role the paper notes such systems need
// (§2.2, ref [10]).
func legalize(pos []geom.Point, w, h []int, core geom.Rect, gap int, passes int) {
	n := len(pos)
	for pass := 0; pass < passes; pass++ {
		moved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				// Penetration of padded boxes.
				dx := (w[i]+w[j])/2 + gap - abs(pos[i].X-pos[j].X)
				dy := (h[i]+h[j])/2 + gap - abs(pos[i].Y-pos[j].Y)
				if dx <= 0 || dy <= 0 {
					continue
				}
				moved = true
				if dx <= dy {
					s := (dx + 1) / 2
					if pos[i].X <= pos[j].X {
						pos[i].X -= s
						pos[j].X += s
					} else {
						pos[i].X += s
						pos[j].X -= s
					}
				} else {
					s := (dy + 1) / 2
					if pos[i].Y <= pos[j].Y {
						pos[i].Y -= s
						pos[j].Y += s
					} else {
						pos[i].Y += s
						pos[j].Y -= s
					}
				}
				clampInto(&pos[i], w[i], h[i], core)
				clampInto(&pos[j], w[j], h[j], core)
			}
		}
		if !moved {
			return
		}
	}
}

func clampInto(p *geom.Point, w, h int, core geom.Rect) {
	if p.X-w/2 < core.XLo {
		p.X = core.XLo + w/2
	}
	if p.X+w/2 > core.XHi {
		p.X = core.XHi - w/2
	}
	if p.Y-h/2 < core.YLo {
		p.Y = core.YLo + h/2
	}
	if p.Y+h/2 > core.YHi {
		p.Y = core.YHi - h/2
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// apply writes positions into a fresh placement.
func apply(c *netlist.Circuit, core geom.Rect, pos []geom.Point) *place.Placement {
	p := newStatic(c, core)
	for i := range c.Cells {
		st := p.State(i)
		st.Pos = pos[i]
		st.Orient = geom.R0
		p.SetState(i, st)
	}
	return p
}

// ---------------------------------------------------------------- random

type randomPlacer struct{}

// Random returns the legalized-random control placer.
func Random() Placer { return randomPlacer{} }

func (randomPlacer) Name() string { return "random" }

func (randomPlacer) Place(c *netlist.Circuit, core geom.Rect, seed uint64) *place.Placement {
	src := rng.New(seed)
	w, h := cellDims(c)
	pos := make([]geom.Point, len(c.Cells))
	for i := range pos {
		pos[i] = geom.Point{
			X: src.IntRange(core.XLo+w[i]/2, max(core.XLo+w[i]/2, core.XHi-w[i]/2)),
			Y: src.IntRange(core.YLo+h[i]/2, max(core.YLo+h[i]/2, core.YHi-h[i]/2)),
		}
	}
	legalize(pos, w, h, core, c.TrackSep*2, 200)
	return apply(c, core, pos)
}

// ------------------------------------------------------------- quadratic

type quadraticPlacer struct{}

// Quadratic returns the resistive-network placer (Cheng–Kuh style): cell
// positions solve the linear system that minimizes Σ w_ij·((xi−xj)² +
// (yi−yj)²) under weak anchors, then legalization spreads the cells.
func Quadratic() Placer { return quadraticPlacer{} }

func (quadraticPlacer) Name() string { return "quadratic" }

func (quadraticPlacer) Place(c *netlist.Circuit, core geom.Rect, seed uint64) *place.Placement {
	src := rng.New(seed)
	w, h := cellDims(c)
	nets, _ := netCells(c)
	n := len(c.Cells)

	// Clique-model weights: each k-cell net contributes 2/k between every
	// pair of its cells.
	type nb struct {
		j int
		w float64
	}
	adj := make([][]nb, n)
	for _, cs := range nets {
		if len(cs) < 2 {
			continue
		}
		wt := 2.0 / float64(len(cs))
		for a := 0; a < len(cs); a++ {
			for b := a + 1; b < len(cs); b++ {
				adj[cs[a]] = append(adj[cs[a]], nb{cs[b], wt})
				adj[cs[b]] = append(adj[cs[b]], nb{cs[a], wt})
			}
		}
	}

	// Weak anchors at scattered sites keep the system non-degenerate (the
	// resistive-network formulation's pad positions).
	ax := make([]float64, n)
	ay := make([]float64, n)
	for i := range ax {
		ax[i] = float64(src.IntRange(core.XLo, core.XHi))
		ay[i] = float64(src.IntRange(core.YLo, core.YHi))
	}
	const lambda = 0.05
	x := append([]float64(nil), ax...)
	y := append([]float64(nil), ay...)
	for iter := 0; iter < 300; iter++ {
		var change float64
		for i := 0; i < n; i++ {
			sw := lambda
			sx := lambda * ax[i]
			sy := lambda * ay[i]
			for _, e := range adj[i] {
				sw += e.w
				sx += e.w * x[e.j]
				sy += e.w * y[e.j]
			}
			nx, ny := sx/sw, sy/sw
			change += math.Abs(nx-x[i]) + math.Abs(ny-y[i])
			x[i], y[i] = nx, ny
		}
		if change < 0.5 {
			break
		}
	}
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: int(math.Round(x[i])), Y: int(math.Round(y[i]))}
		clampInto(&pos[i], w[i], h[i], core)
	}
	legalize(pos, w, h, core, c.TrackSep*2, 400)
	return apply(c, core, pos)
}

// ---------------------------------------------------------------- greedy

type greedyPlacer struct{}

// Greedy returns the constructive placer: the most-connected cell seeds the
// core center; each subsequent cell (most connected to the placed set
// first) lands on the abutment site minimizing its star wirelength to
// already-placed neighbors.
func Greedy() Placer { return greedyPlacer{} }

func (greedyPlacer) Name() string { return "greedy" }

func (greedyPlacer) Place(c *netlist.Circuit, core geom.Rect, seed uint64) *place.Placement {
	src := rng.New(seed)
	w, h := cellDims(c)
	nets, deg := netCells(c)
	n := len(c.Cells)

	// Pairwise connection counts.
	conn := make([]map[int]int, n)
	for i := range conn {
		conn[i] = map[int]int{}
	}
	for _, cs := range nets {
		for a := 0; a < len(cs); a++ {
			for b := a + 1; b < len(cs); b++ {
				conn[cs[a]][cs[b]]++
				conn[cs[b]][cs[a]]++
			}
		}
	}

	placed := make([]bool, n)
	pos := make([]geom.Point, n)
	gap := c.TrackSep * 3

	seedCell := 0
	for i := 1; i < n; i++ {
		if deg[i] > deg[seedCell] {
			seedCell = i
		}
	}
	pos[seedCell] = core.Center()
	placed[seedCell] = true

	overlaps := func(i int, p geom.Point) bool {
		for j := 0; j < n; j++ {
			if !placed[j] {
				continue
			}
			if abs(p.X-pos[j].X) < (w[i]+w[j])/2+gap &&
				abs(p.Y-pos[j].Y) < (h[i]+h[j])/2+gap {
				return true
			}
		}
		return false
	}
	starCost := func(i int, p geom.Point) int {
		cost := 0
		for j, cnt := range conn[i] {
			if placed[j] {
				cost += cnt * p.Manhattan(pos[j])
			}
		}
		return cost
	}

	for rem := n - 1; rem > 0; rem-- {
		// Most strongly connected unplaced cell; break ties randomly.
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			score := 0
			for j, cnt := range conn[i] {
				if placed[j] {
					score += cnt
				}
			}
			if score > bestScore || (score == bestScore && src.Bool(0.5)) {
				best, bestScore = i, score
			}
		}
		i := best
		// Candidate sites: abutments on each side of each placed cell.
		bestPos := geom.Point{}
		bestCost := math.MaxInt
		for j := 0; j < n; j++ {
			if !placed[j] {
				continue
			}
			cands := []geom.Point{
				{X: pos[j].X - (w[j]+w[i])/2 - gap, Y: pos[j].Y},
				{X: pos[j].X + (w[j]+w[i])/2 + gap, Y: pos[j].Y},
				{X: pos[j].X, Y: pos[j].Y - (h[j]+h[i])/2 - gap},
				{X: pos[j].X, Y: pos[j].Y + (h[j]+h[i])/2 + gap},
			}
			for _, p := range cands {
				clampInto(&p, w[i], h[i], core)
				if overlaps(i, p) {
					continue
				}
				if cost := starCost(i, p); cost < bestCost {
					bestCost, bestPos = cost, p
				}
			}
		}
		if bestCost == math.MaxInt {
			// No free abutment: drop the cell at a random free-ish spot
			// and let legalization resolve it.
			bestPos = geom.Point{
				X: src.IntRange(core.XLo, core.XHi),
				Y: src.IntRange(core.YLo, core.YHi),
			}
			clampInto(&bestPos, w[i], h[i], core)
		}
		pos[i] = bestPos
		placed[i] = true
	}
	legalize(pos, w, h, core, c.TrackSep*2, 200)
	return apply(c, core, pos)
}

// --------------------------------------------------------------- slicing

type slicingPlacer struct{}

// Slicing returns the manual-layout stand-in: cells are ordered by a
// connectivity-driven traversal (a human floorplanner groups related
// blocks), then shelf-packed into rows with uniform channel allowances.
// Area comes out compact; wirelength depends only on the ordering.
func Slicing() Placer { return slicingPlacer{} }

func (slicingPlacer) Name() string { return "slicing" }

func (slicingPlacer) Place(c *netlist.Circuit, core geom.Rect, seed uint64) *place.Placement {
	w, h := cellDims(c)
	nets, deg := netCells(c)
	n := len(c.Cells)

	conn := make([]map[int]int, n)
	for i := range conn {
		conn[i] = map[int]int{}
	}
	for _, cs := range nets {
		for a := 0; a < len(cs); a++ {
			for b := a + 1; b < len(cs); b++ {
				conn[cs[a]][cs[b]]++
				conn[cs[b]][cs[a]]++
			}
		}
	}

	// Connectivity-greedy ordering: start at the highest-degree cell,
	// repeatedly append the unvisited cell most connected to the visited
	// prefix (ties by index for determinism).
	order := make([]int, 0, n)
	visited := make([]bool, n)
	cur := 0
	for i := 1; i < n; i++ {
		if deg[i] > deg[cur] {
			cur = i
		}
	}
	order = append(order, cur)
	visited[cur] = true
	attach := make([]int, n)
	for len(order) < n {
		for j, cnt := range conn[cur] {
			if !visited[j] {
				attach[j] += cnt
			}
		}
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if visited[i] {
				continue
			}
			if attach[i] > bestScore {
				best, bestScore = i, attach[i]
			}
		}
		cur = best
		order = append(order, cur)
		visited[cur] = true
	}

	// Shelf packing in boustrophedon (serpentine) order so consecutive —
	// hence connected — cells stay adjacent across row boundaries.
	gap := c.TrackSep * 3
	rowWidth := core.W()
	type item struct{ cell, x int }
	var rows [][]item
	var row []item
	x := 0
	for _, i := range order {
		if x > 0 && x+w[i] > rowWidth {
			rows = append(rows, row)
			row = nil
			x = 0
		}
		row = append(row, item{i, x})
		x += w[i] + gap
	}
	if len(row) > 0 {
		rows = append(rows, row)
	}
	pos := make([]geom.Point, n)
	y := core.YLo + gap
	for ri, r := range rows {
		maxH := 0
		for _, it := range r {
			if h[it.cell] > maxH {
				maxH = h[it.cell]
			}
		}
		if ri%2 == 1 {
			// Reverse every other row.
			for k := range r {
				r[k].x = rowWidth - r[k].x - w[r[k].cell]
			}
		}
		for _, it := range r {
			pos[it.cell] = geom.Point{
				X: core.XLo + it.x + w[it.cell]/2,
				Y: y + maxH/2,
			}
			clampInto(&pos[it.cell], w[it.cell], h[it.cell], core)
		}
		y += maxH + gap
	}
	// Packing may exceed the core vertically for area-tight cores; the
	// core clamp plus legalization resolves the spill.
	legalize(pos, w, h, core, c.TrackSep, 200)
	return apply(c, core, pos)
}
