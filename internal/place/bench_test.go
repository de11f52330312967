package place

import (
	"fmt"
	"testing"

	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/rng"
)

// BenchmarkSetState measures the incremental cost update for a single-cell
// move: the unit of work the Stage 1 inner loop performs millions of times.
func BenchmarkSetState(b *testing.B) {
	p := newTestPlacement(b, 25, true)
	src := rng.New(1)
	Randomize(p, src)
	states := make([]CellState, 64)
	cells := make([]int, len(states))
	for k := range states {
		i := src.Intn(len(p.Circuit.Cells))
		st := p.State(i)
		st.Pos = geom.Point{
			X: src.IntRange(p.Core.XLo, p.Core.XHi),
			Y: src.IntRange(p.Core.YLo, p.Core.YHi),
		}
		st.Orient = geom.Orient(src.Intn(geom.NumOrients))
		cells[k], states[k] = i, st
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(states)
		p.SetState(cells[k], states[k])
	}
}

// benchPlacementFor builds a randomized placement for an overlap-kernel
// benchmark circuit: either a named preset or a synthetic grid of n cells.
func benchPlacementFor(b *testing.B, c *netlist.Circuit) *Placement {
	b.Helper()
	params := estimate.DefaultParams()
	core := estimate.CoreSize(c, params, 1)
	p := New(c, core, estimate.New(c, core, params))
	Randomize(p, rng.New(7))
	return p
}

// benchOverlapKernel measures one cell's overlap evaluation (the C2 kernel
// of Eqn 7) over a fixed pool of random cells of a random placement,
// reporting the average number of cells tested per evaluation: N-1 for the
// full-scan oracle, the candidate count of the index query otherwise.
func benchOverlapKernel(b *testing.B, c *netlist.Circuit, indexed bool) {
	p := benchPlacementFor(b, c)
	src := rng.New(11)
	cells := make([]int, 64)
	tested := make([]int, len(cells))
	for k := range cells {
		cells[k] = src.Intn(len(p.Circuit.Cells))
		tested[k] = len(p.Circuit.Cells) - 1
		if indexed {
			p.overlapContrib(cells[k])
			tested[k] = len(p.queryBuf)
		}
	}
	kernel := p.overlapContrib
	if !indexed {
		kernel = func(i int) int64 { return scanOverlapContrib(p, i) }
	}
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += kernel(cells[i%len(cells)])
	}
	b.StopTimer()
	var sum int
	for i := 0; i < b.N; i++ {
		sum += tested[i%len(cells)]
	}
	b.ReportMetric(float64(sum)/float64(b.N), "cells/eval")
	_ = sink
}

// BenchmarkOverlapKernel compares the full-scan oracle (the overlap
// evaluation the spatial index replaced) with the indexed path across
// circuit sizes, including the paper's largest preset (l1, 62 cells) and
// synthetic circuits beyond it.
func BenchmarkOverlapKernel(b *testing.B) {
	presets := []string{"i3", "l1"}
	for _, name := range presets {
		c, err := gen.Preset(name, 17)
		if err != nil {
			b.Fatal(err)
		}
		for _, indexed := range []bool{false, true} {
			mode := "scan"
			if indexed {
				mode = "indexed"
			}
			b.Run(fmt.Sprintf("preset=%s/%s", name, mode), func(b *testing.B) {
				benchOverlapKernel(b, c, indexed)
			})
		}
	}
	for _, n := range []int{100, 400} {
		c, err := gen.Scalability(n, 17)
		if err != nil {
			b.Fatal(err)
		}
		for _, indexed := range []bool{false, true} {
			mode := "scan"
			if indexed {
				mode = "indexed"
			}
			b.Run(fmt.Sprintf("cells=%d/%s", n, mode), func(b *testing.B) {
				benchOverlapKernel(b, c, indexed)
			})
		}
	}
}

// BenchmarkSetStateIndexed measures the full incremental move update (the
// Stage 1 inner-loop unit of work) on a 200-cell synthetic circuit.
func BenchmarkSetStateIndexed(b *testing.B) {
	b.Run("indexed", func(b *testing.B) {
		c, err := gen.Scalability(200, 17)
		if err != nil {
			b.Fatal(err)
		}
		p := benchPlacementFor(b, c)
		src := rng.New(5)
		states := make([]CellState, 64)
		cells := make([]int, len(states))
		for k := range states {
			i := src.Intn(len(p.Circuit.Cells))
			st := p.State(i)
			st.Pos = geom.Point{
				X: src.IntRange(p.Core.XLo, p.Core.XHi),
				Y: src.IntRange(p.Core.YLo, p.Core.YHi),
			}
			cells[k], states[k] = i, st
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(states)
			p.SetState(cells[k], states[k])
		}
	})
}

// BenchmarkCostRecompute measures the full (non-incremental) recomputation
// used by validation.
func BenchmarkCostRecompute(b *testing.B) {
	p := newTestPlacement(b, 25, true)
	Randomize(p, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RecomputeAll()
	}
}

// BenchmarkCalibrateP2 measures the Eqn 9 normalization sampling.
func BenchmarkCalibrateP2(b *testing.B) {
	p := newTestPlacement(b, 25, true)
	src := rng.New(3)
	Randomize(p, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CalibrateP2(p, 0.5, src, 5)
	}
}
