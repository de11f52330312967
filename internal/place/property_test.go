package place

import (
	"testing"
	"testing/quick"

	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/rng"
)

// scanOverlapContrib is the full O(N) scan the spatial index replaced:
// cell i's overlap with every other cell plus its border overlap. It is the
// oracle overlapContrib must equal exactly, and the scan row of
// BenchmarkOverlapKernel.
func scanOverlapContrib(p *Placement, i int) int64 {
	var sum int64
	ti := &p.tiles[i]
	for j := range p.tiles {
		if j != i {
			sum += ti.Overlap(&p.tiles[j])
		}
	}
	return sum + p.borderOverlap(i)
}

// scanC2 is C2 by brute force: every cell pair's expanded-tile overlap plus
// every cell's border overlap.
func scanC2(p *Placement) int64 {
	var sum int64
	for i := range p.tiles {
		for j := i + 1; j < len(p.tiles); j++ {
			sum += p.tiles[i].Overlap(&p.tiles[j])
		}
		sum += p.borderOverlap(i)
	}
	return sum
}

// scanRawOverlap is RawOverlap by brute force over every cell pair.
func scanRawOverlap(p *Placement) int64 {
	var sum int64
	for i := range p.rawTiles {
		for j := i + 1; j < len(p.rawTiles); j++ {
			sum += p.rawTiles[i].Overlap(&p.rawTiles[j])
		}
	}
	return sum
}

// randomState draws a random full cell state (position, orientation, pin
// sites, aspect) for cell i, some of it outside the core, so the
// equivalence tests exercise border overlap and clamped index bins.
func randomState(p *Placement, i int, src *rng.Source) CellState {
	st := p.State(i)
	st.Pos = geom.Point{
		X: src.IntRange(p.Core.XLo-60, p.Core.XHi+60),
		Y: src.IntRange(p.Core.YLo-60, p.Core.YHi+60),
	}
	st.Orient = geom.Orient(src.Intn(geom.NumOrients))
	if len(st.Units) > 0 {
		u := src.Intn(len(st.Units))
		st.Units[u] = randomUnitAssign(p, i, u, src)
	}
	in := &p.Circuit.Cells[i].Instances[st.Instance]
	if in.IsCustomShape() {
		st.Aspect = in.ClampAspect(st.Aspect * (0.7 + src.Float64()))
	}
	return st
}

// TestIndexedCostsMatchFullScanQuick: after any random move sequence, the
// spatially-indexed C2Raw (pairs plus border), every cell's overlapContrib
// and RawOverlap equal the full-scan oracles exactly, and the incrementally
// maintained C1/TEIL/C2Raw/C3 agree with RecomputeAll on a fresh Placement
// fed the same states (C2 exactly; the float terms to summation-order
// tolerance via Validate).
func TestIndexedCostsMatchFullScanQuick(t *testing.T) {
	pi := newTestPlacement(t, 14, true)
	c := pi.Circuit
	params := estimate.DefaultParams()
	f := func(seed uint64, moves uint8) bool {
		src := rng.New(seed)
		Randomize(pi, src)
		for k := 0; k < int(moves%48)+1; k++ {
			i := src.Intn(len(c.Cells))
			pi.SetState(i, randomState(pi, i, src))
		}
		if got, want := pi.C2Raw(), scanC2(pi); got != want {
			t.Logf("indexed C2 %d != full scan %d", got, want)
			return false
		}
		for i := range c.Cells {
			if got, want := pi.overlapContrib(i), scanOverlapContrib(pi, i); got != want {
				t.Logf("cell %d: indexed overlap %d != full scan %d", i, got, want)
				return false
			}
		}
		if got, want := pi.RawOverlap(), scanRawOverlap(pi); got != want {
			t.Logf("indexed RawOverlap %d != full scan %d", got, want)
			return false
		}
		// Fresh placement, same states, full recomputation.
		fresh := New(c, pi.Core, estimate.New(c, pi.Core, params))
		for i := range c.Cells {
			fresh.SetState(i, pi.State(i))
		}
		fresh.RecomputeAll()
		if fresh.C2Raw() != pi.C2Raw() {
			t.Logf("fresh recompute C2 %d != incremental %d", fresh.C2Raw(), pi.C2Raw())
			return false
		}
		// Incremental float terms match a recomputation of the same
		// placement (order-of-summation tolerance).
		return pi.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestIndexSurvivesCoreRebuildQuick: rebuildIndex at any point of a move
// sequence leaves all cost terms unchanged (the index is a pure filter).
func TestIndexSurvivesCoreRebuildQuick(t *testing.T) {
	p := newTestPlacement(t, 10, true)
	f := func(seed uint64, moves uint8) bool {
		src := rng.New(seed)
		Randomize(p, src)
		for k := 0; k < int(moves%16); k++ {
			i := src.Intn(len(p.Circuit.Cells))
			p.SetState(i, randomState(p, i, src))
		}
		c1, teil, c2, c3 := p.C1(), p.TEIL(), p.C2Raw(), p.C3()
		p.rebuildIndex()
		if p.C1() != c1 || p.TEIL() != teil || p.C2Raw() != c2 || p.C3() != c3 {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPinOnBoundaryQuick: for random placement states, every fixed pin of a
// rectangular macro lies on (or within) the cell's world bounding box, and
// every uncommitted pin of a custom cell lies exactly on its world boundary.
func TestPinOnBoundaryQuick(t *testing.T) {
	p := newTestPlacement(t, 6, true)
	ci := p.Circuit.CellByName("cst")
	f := func(seed uint64) bool {
		src := rng.New(seed)
		Randomize(p, src)
		// Fixed macro pins inside bounds.
		for i := range p.Circuit.Cells {
			bb := p.RawTiles(i).Bounds()
			closed := bb.Inflate(0, 0, 1, 1) // pins may sit on the high edge
			for _, pi := range p.Circuit.Cells[i].Pins {
				if !closed.Contains(p.PinPos(pi)) {
					return false
				}
			}
		}
		// Custom-cell uncommitted pins on the boundary.
		bb := p.RawTiles(ci).Bounds()
		for _, pi := range p.Circuit.Cells[ci].Pins {
			pt := p.PinPos(pi)
			onX := pt.X == bb.XLo || pt.X == bb.XHi
			onY := pt.Y == bb.YLo || pt.Y == bb.YHi
			if !onX && !onY {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCostNonNegativeQuick: all cost components stay non-negative under
// arbitrary state churn (C2 is an area sum; C3 a sum of squares).
func TestCostNonNegativeQuick(t *testing.T) {
	p := newTestPlacement(t, 5, true)
	f := func(seed uint64, moves uint8) bool {
		src := rng.New(seed)
		Randomize(p, src)
		for k := 0; k < int(moves%32); k++ {
			i := src.Intn(len(p.Circuit.Cells))
			st := p.State(i)
			st.Pos = geom.Point{
				X: src.IntRange(p.Core.XLo-50, p.Core.XHi+50),
				Y: src.IntRange(p.Core.YLo-50, p.Core.YHi+50),
			}
			st.Orient = geom.Orient(src.Intn(geom.NumOrients))
			p.SetState(i, st)
		}
		return p.C1() >= 0 && p.C2Raw() >= 0 && p.C3() >= 0 && p.TEIL() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSetStateIdempotentQuick: re-applying a cell's current state leaves
// every cost term bit-identical (the revert path of rejected moves relies
// on this).
func TestSetStateIdempotentQuick(t *testing.T) {
	p := newTestPlacement(t, 6, true)
	f := func(seed uint64) bool {
		src := rng.New(seed)
		Randomize(p, src)
		c1, teil, c2, c3 := p.C1(), p.TEIL(), p.C2Raw(), p.C3()
		for i := range p.Circuit.Cells {
			p.SetState(i, p.State(i))
		}
		return p.C1() == c1 && p.TEIL() == teil && p.C2Raw() == c2 && p.C3() == c3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMoveRevertRestoresCostQuick: applying any random state and then the
// saved old state restores all cost terms exactly — the integrity of the
// Metropolis reject path.
func TestMoveRevertRestoresCostQuick(t *testing.T) {
	p := newTestPlacement(t, 7, true)
	src := rng.New(99)
	Randomize(p, src)
	f := func(seed uint64) bool {
		s := rng.New(seed)
		i := s.Intn(len(p.Circuit.Cells))
		c1, teil, c2, c3 := p.C1(), p.TEIL(), p.C2Raw(), p.C3()
		old := p.State(i)
		st := p.State(i)
		st.Pos = geom.Point{
			X: s.IntRange(p.Core.XLo, p.Core.XHi),
			Y: s.IntRange(p.Core.YLo, p.Core.YHi),
		}
		st.Orient = geom.Orient(s.Intn(geom.NumOrients))
		if len(st.Units) > 0 {
			st.Units[0] = randomUnitAssign(p, i, 0, s)
		}
		p.SetState(i, st)
		p.SetState(i, old)
		return p.C1() == c1 && p.TEIL() == teil && p.C2Raw() == c2 && p.C3() == c3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
