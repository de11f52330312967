package place

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// fixedCircuit builds a circuit with one pre-placed cell among movable ones.
func fixedCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("fx", 2)
	b.BeginMacro("pad")
	b.MacroInstance("i", geom.R(0, 0, 30, 10))
	b.FixedPin("p", geom.Point{Y: 5})
	b.FixAt(geom.Point{X: 50, Y: 5}, geom.R0)
	for _, n := range []string{"u", "v", "w"} {
		b.BeginMacro(n)
		b.MacroInstance("i", geom.R(0, 0, 20, 20))
		b.FixedPin("p", geom.Point{X: -10})
		b.FixedPin("q", geom.Point{X: 10})
	}
	n1 := b.Net("n1", 1, 1)
	b.ConnByName(n1, [2]string{"pad", "p"})
	b.ConnByName(n1, [2]string{"u", "p"})
	n2 := b.Net("n2", 1, 1)
	b.ConnByName(n2, [2]string{"u", "q"})
	b.ConnByName(n2, [2]string{"v", "p"})
	n3 := b.Net("n3", 1, 1)
	b.ConnByName(n3, [2]string{"v", "q"})
	b.ConnByName(n3, [2]string{"w", "p"})
	return b.MustBuild()
}

func TestFixedCellNeverMoves(t *testing.T) {
	c := fixedCircuit(t)
	p, res := RunStage1(c, Options{Seed: 3, Ac: 30})
	if res.Attempts == 0 {
		t.Fatal("no annealing happened")
	}
	st := p.State(0)
	if st.Pos != (geom.Point{X: 50, Y: 5}) || st.Orient != geom.R0 {
		t.Fatalf("fixed cell moved to %v %v", st.Pos, st.Orient)
	}
	// Movable set excludes the pad.
	if p.Movable(0) {
		t.Fatal("pad reported movable")
	}
	mv := p.MovableCells()
	if len(mv) != 3 {
		t.Fatalf("movable = %v", mv)
	}
	// The core covers the fixed position even though the pad sits at the
	// (0-based) boundary.
	if !p.Core.ContainsRect(p.RawTiles(0).Bounds()) {
		t.Fatalf("core %v does not cover fixed cell %v", p.Core, p.RawTiles(0).Bounds())
	}
}

func TestFixedCellSurvivesRefine(t *testing.T) {
	c := fixedCircuit(t)
	p, _ := RunStage1(c, Options{Seed: 4, Ac: 20})
	widths := make([][4]int, len(c.Cells))
	for i := range widths {
		widths[i] = [4]int{3, 3, 3, 3}
	}
	if _, err := RunRefineCtx(context.Background(), p, widths, RefineOptions{Seed: 5, Ac: 20}); err != nil {
		t.Fatal(err)
	}
	st := p.State(0)
	if st.Pos != (geom.Point{X: 50, Y: 5}) {
		t.Fatalf("fixed cell moved during refinement: %v", st.Pos)
	}
}

func TestNetWeightingShortensCriticalNets(t *testing.T) {
	// Eqn 6: the TEIC weights each net's x and y spans by h(n), v(n).
	// Build a ring of cells with one heavily weighted "critical" net and
	// one identical unweighted net on symmetric cell pairs; over several
	// seeds the critical net must end up shorter on average.
	build := func(critWeight float64) *netlist.Circuit {
		b := netlist.NewBuilder("wt", 2)
		for i := 0; i < 8; i++ {
			b.BeginMacro(string(rune('a' + i)))
			b.MacroInstance("i", geom.R(0, 0, 20, 20))
			b.FixedPin("p", geom.Point{})
		}
		// Critical net between a and b; plain net between c and d; filler
		// nets keep the ring connected.
		nc := b.Net("crit", critWeight, critWeight)
		b.ConnByName(nc, [2]string{"a", "p"})
		b.ConnByName(nc, [2]string{"b", "p"})
		np := b.Net("plain", 1, 1)
		b.ConnByName(np, [2]string{"c", "p"})
		b.ConnByName(np, [2]string{"d", "p"})
		for i := 0; i < 7; i++ {
			n := b.Net("f"+string(rune('0'+i)), 1, 1)
			b.ConnByName(n, [2]string{string(rune('a' + i)), "p"})
			b.ConnByName(n, [2]string{string(rune('a' + i + 1)), "p"})
		}
		return b.MustBuild()
	}
	span := func(p *Placement, name string) int {
		c := p.Circuit
		ni := c.NetByName(name)
		b := p.netBoxFor(ni)
		return (b.XHi - b.XLo) + (b.YHi - b.YLo)
	}
	var critSum, plainSum int
	const k = 6
	c := build(8) // critical net weighted 8x
	for seed := uint64(0); seed < k; seed++ {
		p, _ := RunStage1(c, Options{Seed: seed, Ac: 40})
		critSum += span(p, "crit")
		plainSum += span(p, "plain")
	}
	if critSum >= plainSum {
		t.Fatalf("critical net avg span %d not shorter than plain %d",
			critSum/k, plainSum/k)
	}
}

func TestInstanceSelectionUnderPressure(t *testing.T) {
	// A custom cell with a big default instance and a much smaller
	// alternative, in a deliberately tight core: across seeds, the
	// annealer must discover the smaller instance at least some of the
	// time (§1: "TimberWolfMC is to select the one which is most
	// suitable").
	b := netlist.NewBuilder("inst", 2)
	b.BeginCustom("soft")
	b.CustomInstance("big", 3600, 0.9, 1.1)
	b.CustomInstance("small", 900, 0.9, 1.1)
	b.EdgePin("p", netlist.EdgeAny)
	for i := 0; i < 4; i++ {
		b.BeginMacro(string(rune('a' + i)))
		b.MacroInstance("i", geom.R(0, 0, 30, 30))
		b.FixedPin("p", geom.Point{X: 15})
	}
	n := b.Net("n", 1, 1)
	b.ConnByName(n, [2]string{"soft", "p"})
	b.ConnByName(n, [2]string{"a", "p"})
	for i := 0; i < 3; i++ {
		ni := b.Net("m"+string(rune('0'+i)), 1, 1)
		b.ConnByName(ni, [2]string{string(rune('a' + i)), "p"})
		b.ConnByName(ni, [2]string{string(rune('a' + i + 1)), "p"})
	}
	c := b.MustBuild()
	// A core that fits the macros plus the small instance comfortably but
	// makes the big instance painful.
	core := geom.R(0, 0, 90, 90)
	choseSmall := 0
	for seed := uint64(0); seed < 5; seed++ {
		p, _ := RunStage1(c, Options{Seed: seed, Ac: 40, Core: core})
		if p.State(0).Instance == 1 {
			choseSmall++
		}
	}
	if choseSmall == 0 {
		t.Fatal("annealer never selected the smaller instance under area pressure")
	}
}

func TestAllCellsFixedIsANoop(t *testing.T) {
	b := netlist.NewBuilder("allfx", 2)
	b.BeginMacro("a")
	b.MacroInstance("i", geom.R(0, 0, 20, 20))
	b.FixedPin("p", geom.Point{X: 10})
	b.FixAt(geom.Point{X: 20, Y: 20}, geom.R0)
	b.BeginMacro("b")
	b.MacroInstance("i", geom.R(0, 0, 20, 20))
	b.FixedPin("p", geom.Point{X: -10})
	b.FixAt(geom.Point{X: 80, Y: 20}, geom.R0)
	n := b.Net("n", 1, 1)
	b.ConnByName(n, [2]string{"a", "p"})
	b.ConnByName(n, [2]string{"b", "p"})
	c := b.MustBuild()
	p, res := RunStage1(c, Options{Seed: 6, Ac: 10})
	if res.Attempts != 0 {
		t.Fatalf("annealer ran on a fully fixed design (%d attempts)", res.Attempts)
	}
	// TEIL is exactly the fixed-pin distance: pins at (30,20) and (70,20).
	if res.TEIL != 40 {
		t.Fatalf("TEIL = %v want 40", res.TEIL)
	}
	_ = p
}
