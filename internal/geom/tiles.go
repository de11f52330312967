package geom

import (
	"fmt"
	"sort"
)

// TileSet is a rectilinear area stored as a union of non-overlapping
// rectangular tiles, exactly as the paper stores cell shapes (§3.1.2:
// "A rectilinear cell is stored as a union of non-overlapping rectangular
// tiles"). Tiles are kept in canonical order (YLo, then XLo) so that two
// equal regions with the same tiling compare equal.
type TileSet struct {
	tiles []Rect
}

// NewTileSet builds a TileSet from the given tiles. It returns an error if
// any tile is empty or if any pair of tiles overlaps.
func NewTileSet(tiles ...Rect) (*TileSet, error) {
	ts := &TileSet{tiles: append([]Rect(nil), tiles...)}
	for i, t := range ts.tiles {
		if t.Empty() {
			return nil, fmt.Errorf("geom: tile %d %v is empty", i, t)
		}
		for j := i + 1; j < len(ts.tiles); j++ {
			if t.Intersects(ts.tiles[j]) {
				return nil, fmt.Errorf("geom: tiles %d %v and %d %v overlap",
					i, t, j, ts.tiles[j])
			}
		}
	}
	ts.normalize()
	return ts, nil
}

// MustTileSet is NewTileSet that panics on invalid input; for literals in
// tests and generators.
func MustTileSet(tiles ...Rect) *TileSet {
	ts, err := NewTileSet(tiles...)
	if err != nil {
		panic(err)
	}
	return ts
}

// normalize sorts the tiles into canonical (YLo, XLo) order. Insertion sort
// keeps the hot realize path allocation-free (sort.Slice allocates for its
// closure and swapper) and is faster at the tiny tile counts cells carry.
// Tile order never influences cost values: every cost term is an
// order-independent sum over tiles.
func (ts *TileSet) normalize() {
	tiles := ts.tiles
	for i := 1; i < len(tiles); i++ {
		t := tiles[i]
		j := i - 1
		for j >= 0 && (tiles[j].YLo > t.YLo ||
			(tiles[j].YLo == t.YLo && tiles[j].XLo > t.XLo)) {
			tiles[j+1] = tiles[j]
			j--
		}
		tiles[j+1] = t
	}
}

// SetTransformed replaces ts's tiles with src's tiles mapped through
// orientation o and then translated by d, reusing ts's backing storage: the
// in-place, allocation-free counterpart of Transform for the placement hot
// path. ts and src must not alias.
func (ts *TileSet) SetTransformed(src *TileSet, o Orient, d Point) {
	ts.tiles = ts.tiles[:0]
	for _, t := range src.tiles {
		ts.tiles = append(ts.tiles, o.ApplyRect(t).Translate(d))
	}
	ts.normalize()
}

// SetRect replaces ts's tiles with the single rectangle r, reusing backing
// storage. It performs no validation; callers pass non-empty rects.
func (ts *TileSet) SetRect(r Rect) {
	ts.tiles = append(ts.tiles[:0], r)
}

// SetInflated replaces ts's tiles with src's tiles each inflated outward by
// the given per-side amounts, dropping empty results and reusing ts's
// backing storage. It does not enforce the non-overlap invariant: expanded
// cell geometry uses it, and the outward-inflated tiles of a rectilinear
// cell may legitimately overlap each other near inside corners. Area and
// Overlap then count doubly-covered regions once per covering tile, a
// deliberate (conservative) approximation. ts and src must not alias.
func (ts *TileSet) SetInflated(src *TileSet, left, bottom, right, top int) {
	ts.tiles = ts.tiles[:0]
	for _, t := range src.tiles {
		in := t.Inflate(left, bottom, right, top)
		if !in.Empty() {
			ts.tiles = append(ts.tiles, in)
		}
	}
	ts.normalize()
}

// Tiles returns the tiles in canonical order. The caller must not modify
// the returned slice.
func (ts *TileSet) Tiles() []Rect { return ts.tiles }

// Len returns the number of tiles.
func (ts *TileSet) Len() int { return len(ts.tiles) }

// Area returns the total area of the set.
func (ts *TileSet) Area() int64 {
	var a int64
	for _, t := range ts.tiles {
		a += t.Area()
	}
	return a
}

// Bounds returns the bounding rectangle of the set (empty Rect if no tiles).
func (ts *TileSet) Bounds() Rect {
	if len(ts.tiles) == 0 {
		return Rect{}
	}
	b := ts.tiles[0]
	for _, t := range ts.tiles[1:] {
		b = b.Union(t)
	}
	return b
}

// Contains reports whether p lies inside the set.
func (ts *TileSet) Contains(p Point) bool {
	for _, t := range ts.tiles {
		if t.Contains(p) {
			return true
		}
	}
	return false
}

// Transform returns the set with every tile mapped through orientation o and
// then translated by d. Because o maps rectangles to rectangles, the result
// is an equally sized union of non-overlapping tiles.
func (ts *TileSet) Transform(o Orient, d Point) *TileSet {
	out := &TileSet{tiles: make([]Rect, len(ts.tiles))}
	for i, t := range ts.tiles {
		out.tiles[i] = o.ApplyRect(t).Translate(d)
	}
	out.normalize()
	return out
}

// Overlap returns the common area between the two tile sets: the paper's
// O(i,j) of Eqn 8, summed over all tile pairs Ot(ti,tj).
func (ts *TileSet) Overlap(other *TileSet) int64 {
	var sum int64
	for _, a := range ts.tiles {
		for _, b := range other.tiles {
			sum += a.Overlap(b)
		}
	}
	return sum
}

// OverlapRect returns the common area between the set and a rectangle.
func (ts *TileSet) OverlapRect(r Rect) int64 {
	var sum int64
	for _, t := range ts.tiles {
		sum += t.Overlap(r)
	}
	return sum
}

// Clone returns an independent copy.
func (ts *TileSet) Clone() *TileSet {
	return &TileSet{tiles: append([]Rect(nil), ts.tiles...)}
}

// Equal reports whether the two sets have identical canonical tilings.
func (ts *TileSet) Equal(other *TileSet) bool {
	if len(ts.tiles) != len(other.tiles) {
		return false
	}
	for i := range ts.tiles {
		if ts.tiles[i] != other.tiles[i] {
			return false
		}
	}
	return true
}

// Edge is a maximal axis-parallel boundary segment of a shape, with an
// outward normal direction. The interconnect-area estimator assigns an
// expansion to each cell edge (Eqn 2), and the channel-definition algorithm
// pairs facing edges into critical regions (§4.1).
type Edge struct {
	// A and B are the segment endpoints with A < B along the edge axis.
	A, B Point
	// Dir is the outward normal: one of DirLeft, DirRight, DirDown, DirUp.
	Dir Direction
}

// Direction is an outward normal of an edge.
type Direction uint8

// The four outward normals.
const (
	DirLeft Direction = iota
	DirRight
	DirDown
	DirUp
)

var dirNames = [4]string{"left", "right", "down", "up"}

func (d Direction) String() string { return dirNames[d] }

// Horizontal reports whether the edge with this normal is horizontal
// (i.e. the normal points up or down).
func (d Direction) Horizontal() bool { return d == DirUp || d == DirDown }

// Vertical reports whether the edge with this normal is vertical.
func (d Direction) Vertical() bool { return d == DirLeft || d == DirRight }

// Opposite returns the reversed direction.
func (d Direction) Opposite() Direction {
	switch d {
	case DirLeft:
		return DirRight
	case DirRight:
		return DirLeft
	case DirDown:
		return DirUp
	default:
		return DirDown
	}
}

// Length returns the length of the edge.
func (e Edge) Length() int {
	if e.Dir.Vertical() {
		return e.B.Y - e.A.Y
	}
	return e.B.X - e.A.X
}

// Coordinate returns the fixed coordinate of the edge: X for vertical edges,
// Y for horizontal ones.
func (e Edge) Coordinate() Coord {
	if e.Dir.Vertical() {
		return e.A.X
	}
	return e.A.Y
}

// Midpoint returns the center of the edge.
func (e Edge) Midpoint() Point {
	return Point{(e.A.X + e.B.X) / 2, (e.A.Y + e.B.Y) / 2}
}

// BoundaryEdges computes the maximal boundary edges of the tile set with
// their outward normals. Edges interior to the union (where two tiles abut)
// are cancelled; collinear fragments with the same normal are merged.
func (ts *TileSet) BoundaryEdges() []Edge {
	// Collect candidate segments per (axis, fixed coordinate, direction),
	// then cancel overlapping segments of opposite direction at the same
	// coordinate (tile abutments) by interval arithmetic.
	type key struct {
		vertical bool
		coord    Coord
	}
	// signed coverage: +1 for outward-positive (Right/Up), -1 for
	// outward-negative (Left/Down). Interior abutments cancel to 0.
	events := map[key]map[[2]int]int{}
	addSeg := func(k key, lo, hi, sign int) {
		m := events[k]
		if m == nil {
			m = map[[2]int]int{}
			events[k] = m
		}
		m[[2]int{lo, hi}] += sign
	}
	for _, t := range ts.tiles {
		addSeg(key{true, t.XLo}, t.YLo, t.YHi, -1)  // left edge
		addSeg(key{true, t.XHi}, t.YLo, t.YHi, +1)  // right edge
		addSeg(key{false, t.YLo}, t.XLo, t.XHi, -1) // bottom edge
		addSeg(key{false, t.YHi}, t.XLo, t.XHi, +1) // top edge
	}
	var out []Edge
	for k, segs := range events {
		out = append(out, sweepEdges(k.vertical, k.coord, segs)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.A.X != b.A.X {
			return a.A.X < b.A.X
		}
		return a.A.Y < b.A.Y
	})
	return out
}

// sweepEdges resolves the signed interval coverage at one grid line into
// maximal boundary edges.
func sweepEdges(vertical bool, coord Coord, segs map[[2]int]int) []Edge {
	type ev struct {
		pos   int
		delta int
	}
	var evs []ev
	for seg, sign := range segs {
		if sign == 0 {
			continue
		}
		evs = append(evs, ev{seg[0], sign}, ev{seg[1], -sign})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	var out []Edge
	depth := 0
	start := 0
	emit := func(lo, hi, d int) {
		if lo >= hi || d == 0 {
			return
		}
		var e Edge
		if vertical {
			e.A = Point{coord, lo}
			e.B = Point{coord, hi}
			if d > 0 {
				e.Dir = DirRight
			} else {
				e.Dir = DirLeft
			}
		} else {
			e.A = Point{lo, coord}
			e.B = Point{hi, coord}
			if d > 0 {
				e.Dir = DirUp
			} else {
				e.Dir = DirDown
			}
		}
		// Merge with previous edge if collinear, adjacent, same direction.
		if n := len(out); n > 0 {
			p := &out[n-1]
			if p.Dir == e.Dir && p.B == e.A {
				p.B = e.B
				return
			}
		}
		out = append(out, e)
	}
	i := 0
	for i < len(evs) {
		pos := evs[i].pos
		old := depth
		for i < len(evs) && evs[i].pos == pos {
			depth += evs[i].delta
			i++
		}
		if old != 0 {
			emit(start, pos, old)
		}
		start = pos
	}
	return out
}
