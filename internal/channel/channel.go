// Package channel implements the paper's new channel-definition algorithm
// (§4.1): a channel, or critical region, is created between every pair of
// parallel cell edges belonging to different cells (or a cell and the core
// boundary) such that (1) the spans of the two edges overlap in one
// dimension, bounding a rectangular region of empty space, and (2) no other
// cell intersects that region. Unlike Chen's bottlenecks, overlapping
// critical regions are all identified and used.
//
// The critical regions are the nodes of the channel graph; adjacent regions
// are connected by graph edges whose capacity derives from the channel
// widths (Eqn 22 territory), and every pin is projected perpendicular to its
// cell edge onto the bordering region (Figure 9).
package channel

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/place"
)

// CoreOwner marks a region side bordered by the core boundary instead of a
// cell edge.
const CoreOwner = -1

// Region is one critical region: a maximal empty rectangle bounded on two
// opposite sides by exactly two cell (or core) edges.
type Region struct {
	ID int
	// Rect is the empty region. For a Vertical region the bounding cell
	// edges are its left and right sides; for a horizontal one, bottom and
	// top.
	Rect geom.Rect
	// Vertical reports that the region lies between two vertical edges.
	Vertical bool
	// OwnerA and OwnerB are the cells owning the low- and high-side
	// bordering edges (CoreOwner for the core boundary).
	OwnerA, OwnerB int
	// Width is the separation of the two bordering edges: the channel
	// thickness available for wiring.
	Width int
}

// Capacity returns the number of routing tracks the region admits at
// track separation ts.
func (r *Region) Capacity(ts int) int {
	if ts <= 0 {
		ts = 1
	}
	return r.Width / ts
}

// Center returns the region's center point.
func (r *Region) Center() geom.Point { return r.Rect.Center() }

// Edge is a channel-graph edge connecting two adjacent regions.
type Edge struct {
	ID   int
	U, V int
	// Length is the center-to-center Manhattan distance, the routing-
	// length contribution of a net segment using this edge.
	Length int
	// Capacity is the track count of the tighter of the two regions: the
	// C_j of Eqn 24.
	Capacity int
}

// PinAttach maps a circuit pin onto the channel graph.
type PinAttach struct {
	// Region is the region the pin projects into, or -1 if the pin could
	// not be attached (fully enclosed by overlap).
	Region int
	// Pos is the projected position on the channel edge.
	Pos geom.Point
}

// Graph is the channel graph of a placement.
type Graph struct {
	Regions []Region
	Edges   []Edge
	// Adj lists, per region, the incident edge indices.
	Adj [][]int
	// Pins holds one attachment per circuit pin.
	Pins []PinAttach
}

// Other returns the endpoint of edge e opposite to region u.
func (g *Graph) Other(e, u int) int {
	if g.Edges[e].U == u {
		return g.Edges[e].V
	}
	return g.Edges[e].U
}

// ownedEdge is a cell or core boundary edge in world coordinates.
type ownedEdge struct {
	owner int
	e     geom.Edge
}

// Build constructs the channel graph for the current placement, using the
// unexpanded (raw) cell tiles.
func Build(p *place.Placement) (*Graph, error) {
	n := len(p.Circuit.Cells)
	var edges []ownedEdge
	tiles := make([]*geom.TileSet, n)
	for i := 0; i < n; i++ {
		tiles[i] = p.RawTiles(i)
		for _, e := range tiles[i].BoundaryEdges() {
			edges = append(edges, ownedEdge{owner: i, e: e})
		}
	}
	core := p.Core
	// Core boundary edges face inward.
	edges = append(edges,
		ownedEdge{CoreOwner, geom.Edge{A: geom.Point{X: core.XLo, Y: core.YLo}, B: geom.Point{X: core.XLo, Y: core.YHi}, Dir: geom.DirRight}},
		ownedEdge{CoreOwner, geom.Edge{A: geom.Point{X: core.XHi, Y: core.YLo}, B: geom.Point{X: core.XHi, Y: core.YHi}, Dir: geom.DirLeft}},
		ownedEdge{CoreOwner, geom.Edge{A: geom.Point{X: core.XLo, Y: core.YLo}, B: geom.Point{X: core.XHi, Y: core.YLo}, Dir: geom.DirUp}},
		ownedEdge{CoreOwner, geom.Edge{A: geom.Point{X: core.XLo, Y: core.YHi}, B: geom.Point{X: core.XHi, Y: core.YHi}, Dir: geom.DirDown}},
	)

	g := &Graph{}
	type regionKey struct {
		rect     geom.Rect
		vertical bool
	}
	seen := map[regionKey]bool{}
	addRegion := func(r Region) {
		key := regionKey{r.Rect, r.Vertical}
		if seen[key] {
			return
		}
		seen[key] = true
		r.ID = len(g.Regions)
		g.Regions = append(g.Regions, r)
	}
	// pairScan adds the critical regions between facing edge pairs on one
	// axis: a right-facing edge at x=a and a left-facing edge at x=b>a for
	// vertical pairs, an up-facing edge at y=a and a down-facing edge at
	// y=b>a for horizontal ones. Where their spans overlap, cell coverage
	// of the strip between them is subtracted from the common span, and
	// each maximal empty slab left is a critical region: where a third cell
	// clips the strip, the remaining slabs are still critical regions
	// (Figure 8's regions jointly tile all empty space).
	var blocked [][2]int
	pairScan := func(vertical bool) {
		low, high := geom.DirUp, geom.DirDown
		if vertical {
			low, high = geom.DirRight, geom.DirLeft
		}
		// along is the extent of the box (x0,y0)-(x1,y1) along the edges;
		// rect is the strip between the edges at a and b over [lo,hi)
		// along them.
		along := func(x0, y0, x1, y1 int) (int, int) {
			if vertical {
				return y0, y1
			}
			return x0, x1
		}
		rect := func(a, b, lo, hi int) geom.Rect {
			if vertical {
				return geom.R(a, lo, b, hi)
			}
			return geom.R(lo, a, hi, b)
		}
		for _, e1 := range edges {
			if e1.e.Dir != low {
				continue
			}
			lo1, hi1 := along(e1.e.A.X, e1.e.A.Y, e1.e.B.X, e1.e.B.Y)
			for _, e2 := range edges {
				if e2.e.Dir != high || e1.owner == e2.owner {
					continue
				}
				a, b := e1.e.Coordinate(), e2.e.Coordinate()
				if b <= a {
					continue
				}
				lo2, hi2 := along(e2.e.A.X, e2.e.A.Y, e2.e.B.X, e2.e.B.Y)
				lo, hi := max(lo1, lo2), min(hi1, hi2)
				if hi <= lo {
					continue
				}
				strip := rect(a, b, lo, hi)
				blocked = blocked[:0]
				for _, ts := range tiles {
					for _, t := range ts.Tiles() {
						if t.Intersects(strip) {
							tlo, thi := along(t.XLo, t.YLo, t.XHi, t.YHi)
							blocked = append(blocked, [2]int{max(tlo, lo), min(thi, hi)})
						}
					}
				}
				sort.Slice(blocked, func(i, j int) bool { return blocked[i][0] < blocked[j][0] })
				slab := func(s0, s1 int) {
					addRegion(Region{
						Rect: rect(a, b, s0, s1), Vertical: vertical,
						OwnerA: e1.owner, OwnerB: e2.owner,
						Width: b - a,
					})
				}
				cur := lo
				for _, bl := range blocked {
					if bl[0] > cur {
						slab(cur, bl[0])
					}
					cur = max(cur, bl[1])
				}
				if cur < hi {
					slab(cur, hi)
				}
			}
		}
	}
	// Vertical pairs first, then horizontal: region ids follow this order.
	pairScan(true)
	pairScan(false)
	if len(g.Regions) == 0 {
		return nil, fmt.Errorf("channel: no critical regions (no empty space in core?)")
	}

	g.buildEdges(p.Circuit.TrackSep)
	g.connectComponents(p.Circuit.TrackSep)
	g.attachPins(p)
	return g, nil
}

// connectComponents links disconnected parts of the channel graph with
// penalized escape edges. An isolated component corresponds to an empty
// pocket fully enclosed by cells; a real route into it would require the
// placement modification that TimberWolfMC works to avoid, so the escape
// edge costs three times the center distance, making it a last resort for
// the router while keeping every net routable.
func (g *Graph) connectComponents(ts int) {
	comp := make([]int, len(g.Regions))
	for i := range comp {
		comp[i] = -1
	}
	var mark func(s, c int)
	mark = func(s, c int) {
		stack := []int{s}
		comp[s] = c
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range g.Adj[u] {
				v := g.Other(ei, u)
				if comp[v] < 0 {
					comp[v] = c
					stack = append(stack, v)
				}
			}
		}
	}
	nc := 0
	for s := range g.Regions {
		if comp[s] < 0 {
			mark(s, nc)
			nc++
		}
	}
	for nc > 1 {
		// Nearest cross-component region pair.
		bu, bv, bd := -1, -1, int(^uint(0)>>2)
		for u := range g.Regions {
			for v := u + 1; v < len(g.Regions); v++ {
				if comp[u] == comp[v] {
					continue
				}
				d := g.Regions[u].Center().Manhattan(g.Regions[v].Center())
				if d < bd {
					bu, bv, bd = u, v, d
				}
			}
		}
		e := Edge{
			ID:       len(g.Edges),
			U:        bu,
			V:        bv,
			Length:   3*bd + 1,
			Capacity: max(1, min(g.Regions[bu].Capacity(ts), g.Regions[bv].Capacity(ts))),
		}
		g.Edges = append(g.Edges, e)
		g.Adj[bu] = append(g.Adj[bu], e.ID)
		g.Adj[bv] = append(g.Adj[bv], e.ID)
		// Merge components.
		from, to := comp[bv], comp[bu]
		for i := range comp {
			if comp[i] == from {
				comp[i] = to
			}
		}
		nc--
	}
}

// touching reports whether two closed rectangles share at least a boundary
// point.
func touching(a, b geom.Rect) bool {
	return min(a.XHi, b.XHi) >= max(a.XLo, b.XLo) &&
		min(a.YHi, b.YHi) >= max(a.YLo, b.YLo)
}

func (g *Graph) buildEdges(ts int) {
	g.Adj = make([][]int, len(g.Regions))
	for u := range g.Regions {
		for v := u + 1; v < len(g.Regions); v++ {
			ru, rv := &g.Regions[u], &g.Regions[v]
			if !touching(ru.Rect, rv.Rect) {
				continue
			}
			e := Edge{
				ID:       len(g.Edges),
				U:        u,
				V:        v,
				Length:   ru.Center().Manhattan(rv.Center()),
				Capacity: min(ru.Capacity(ts), rv.Capacity(ts)),
			}
			if e.Length == 0 {
				e.Length = 1
			}
			g.Edges = append(g.Edges, e)
			g.Adj[u] = append(g.Adj[u], e.ID)
			g.Adj[v] = append(g.Adj[v], e.ID)
		}
	}
}

// attachPins projects every circuit pin perpendicular to its cell edge into
// the bordering region (Figure 9: pin P1 on cell C2 projects onto the
// channel edge between nodes n4 and n5).
func (g *Graph) attachPins(p *place.Placement) {
	g.Pins = make([]PinAttach, len(p.Circuit.Pins))
	for pi := range p.Circuit.Pins {
		g.Pins[pi] = g.attachPin(p, pi)
	}
}

func (g *Graph) attachPin(p *place.Placement, pi int) PinAttach {
	cell := p.Circuit.Pins[pi].Cell
	pos := p.PinPos(pi)
	bestID, bestDist := -1, int(^uint(0)>>1)
	var bestPos geom.Point
	for ri := range g.Regions {
		r := &g.Regions[ri]
		if r.OwnerA != cell && r.OwnerB != cell {
			continue
		}
		// Perpendicular projection onto the region, when the pin's
		// along-edge coordinate lies within the region span.
		var proj geom.Point
		var dist int
		if r.Vertical {
			if pos.Y < r.Rect.YLo || pos.Y > r.Rect.YHi {
				continue
			}
			// Project onto the bordering side owned by this cell.
			x := r.Rect.XLo
			if r.OwnerB == cell {
				x = r.Rect.XHi
			}
			proj = geom.Point{X: x, Y: pos.Y}
			dist = abs(pos.X - x)
		} else {
			if pos.X < r.Rect.XLo || pos.X > r.Rect.XHi {
				continue
			}
			y := r.Rect.YLo
			if r.OwnerB == cell {
				y = r.Rect.YHi
			}
			proj = geom.Point{X: pos.X, Y: y}
			dist = abs(pos.Y - y)
		}
		if dist < bestDist {
			bestID, bestDist, bestPos = ri, dist, proj
		}
	}
	if bestID >= 0 {
		return PinAttach{Region: bestID, Pos: bestPos}
	}
	// Fallback: nearest region by center distance (pin buried in overlap
	// or outside every critical-region span).
	for ri := range g.Regions {
		d := g.Regions[ri].Center().Manhattan(pos)
		if d < bestDist {
			bestID, bestDist = ri, d
		}
	}
	return PinAttach{Region: bestID, Pos: pos}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Connected reports whether every region with an attached pin can reach
// every other such region; global routing requires it.
func (g *Graph) Connected() bool {
	if len(g.Regions) == 0 {
		return false
	}
	// BFS from the first pin region over the whole graph.
	start := -1
	for _, a := range g.Pins {
		if a.Region >= 0 {
			start = a.Region
			break
		}
	}
	if start < 0 {
		return true // no pins to route
	}
	visited := make([]bool, len(g.Regions))
	queue := []int{start}
	visited[start] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ei := range g.Adj[u] {
			v := g.Other(ei, u)
			if !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	for _, a := range g.Pins {
		if a.Region >= 0 && !visited[a.Region] {
			return false
		}
	}
	return true
}

// DensityWidths converts per-region net densities into required channel
// widths w = (d+2+extraTracks)·t_s (Eqn 22) and attributes half to each
// bordering cell side, returning per-cell, per-world-side expansions for the
// refinement step (§4.3). density[ri] is the number of nets routed through
// region ri. extraTracks reserves additional tracks in every channel — the
// paper's evaluation assumed power and ground lines of about twice a normal
// wire width present in every channel (§5), i.e. extraTracks ≈ 4.
func (g *Graph) DensityWidths(p *place.Placement, density []int, extraTracks int) [][4]int {
	ts := p.Circuit.TrackSep
	if extraTracks < 0 {
		extraTracks = 0
	}
	out := make([][4]int, len(p.Circuit.Cells))
	for ri := range g.Regions {
		r := &g.Regions[ri]
		d := 0
		if ri < len(density) {
			d = density[ri]
		}
		w := (d + 2 + extraTracks) * ts
		half := (w + 1) / 2
		// The region's low side is OwnerA's high-facing edge and vice
		// versa: a vertical region's left border is OwnerA's right side.
		if r.Vertical {
			bump(out, r.OwnerA, 1, half) // OwnerA's right side
			bump(out, r.OwnerB, 0, half) // OwnerB's left side
		} else {
			bump(out, r.OwnerA, 3, half) // OwnerA's top side
			bump(out, r.OwnerB, 2, half) // OwnerB's bottom side
		}
	}
	return out
}

func bump(out [][4]int, owner, side, v int) {
	if owner < 0 || owner >= len(out) {
		return
	}
	if out[owner][side] < v {
		out[owner][side] = v
	}
}

// Sorted returns region indices ordered by position for deterministic
// iteration in reports.
func (g *Graph) Sorted() []int {
	idx := make([]int, len(g.Regions))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := g.Regions[idx[a]].Rect, g.Regions[idx[b]].Rect
		if ra.YLo != rb.YLo {
			return ra.YLo < rb.YLo
		}
		if ra.XLo != rb.XLo {
			return ra.XLo < rb.XLo
		}
		return idx[a] < idx[b]
	})
	return idx
}
