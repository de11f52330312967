package baseline

import (
	"testing"

	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
)

func testSetup(t testing.TB) (*netlist.Circuit, geom.Rect) {
	t.Helper()
	c, err := gen.Generate(gen.Spec{
		Name: "t", Cells: 14, Nets: 30, Pins: 90,
		DimX: 300, DimY: 300, CustomFrac: 0.15, RectFrac: 0.2,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	core := estimate.CoreSize(c, estimate.DefaultParams(), 1)
	return c, core
}

func TestAllPlacersProduceLowOverlap(t *testing.T) {
	c, core := testSetup(t)
	for _, pl := range All() {
		p := pl.Place(c, core, 3)
		if p == nil {
			t.Fatalf("%s returned nil", pl.Name())
		}
		frac := float64(p.RawOverlap()) / float64(c.TotalCellArea())
		if frac > 0.10 {
			t.Errorf("%s: raw overlap fraction %.3f too high", pl.Name(), frac)
		}
		// Cells stay within (or very near) the core.
		outer := core.InflateUniform(core.W() / 10)
		for i := range c.Cells {
			if !outer.ContainsRect(p.RawTiles(i).Bounds()) {
				t.Errorf("%s: cell %d at %v escaped core %v",
					pl.Name(), i, p.RawTiles(i).Bounds(), core)
			}
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: inconsistent placement: %v", pl.Name(), err)
		}
	}
}

func TestPlacersDeterministic(t *testing.T) {
	c, core := testSetup(t)
	for _, pl := range All() {
		a := pl.Place(c, core, 11)
		b := pl.Place(c, core, 11)
		if a.TEIL() != b.TEIL() {
			t.Errorf("%s: nondeterministic TEIL %v vs %v", pl.Name(), a.TEIL(), b.TEIL())
		}
	}
}

func TestNetAwarePlacersBeatRandom(t *testing.T) {
	// Needs enough cells for net structure to matter; on very small
	// cores random placement is nearly as good as anything.
	c, err := gen.Generate(gen.Spec{
		Name: "big", Cells: 36, Nets: 120, Pins: 420,
		DimX: 600, DimY: 600, CustomFrac: 0.1, RectFrac: 0.2,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	core := estimate.CoreSize(c, estimate.DefaultParams(), 1)
	// Average the random baseline over a few seeds.
	var randTEIL float64
	const k = 5
	for s := uint64(0); s < k; s++ {
		randTEIL += Random().Place(c, core, 100+s).TEIL()
	}
	randTEIL /= k
	for _, pl := range []Placer{Quadratic(), Greedy(), Slicing()} {
		var teil float64
		for s := uint64(0); s < k; s++ {
			teil += pl.Place(c, core, 100+s).TEIL()
		}
		teil /= k
		if teil >= randTEIL {
			t.Errorf("%s TEIL %.0f not better than random %.0f", pl.Name(), teil, randTEIL)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"random", "quadratic", "greedy", "slicing"} {
		p, ok := ByName(n)
		if !ok || p.Name() != n {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("zzz"); ok {
		t.Error("ByName accepted unknown placer")
	}
}

func TestLegalizeResolvesStack(t *testing.T) {
	// All cells at the same point must spread out.
	w := []int{10, 10, 10, 10}
	h := []int{10, 10, 10, 10}
	pos := make([]geom.Point, 4)
	core := geom.R(0, 0, 200, 200)
	for i := range pos {
		pos[i] = geom.Point{X: 100, Y: 100}
	}
	legalize(pos, w, h, core, 2, 300)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if abs(pos[i].X-pos[j].X) < 10 && abs(pos[i].Y-pos[j].Y) < 10 {
				t.Fatalf("cells %d,%d still overlap: %v %v", i, j, pos[i], pos[j])
			}
		}
	}
}

func TestQuadraticPullsConnectedCellsTogether(t *testing.T) {
	// A dumbbell: two clusters of 4 cells each, densely connected inside,
	// one weak link between. Quadratic placement must keep intra-cluster
	// distances smaller than the inter-cluster distance.
	b := netlist.NewBuilder("db", 2)
	for i := 0; i < 8; i++ {
		b.BeginMacro(cellName(i))
		b.MacroInstance("i", geom.R(0, 0, 10, 10))
		for k := 0; k < 4; k++ {
			b.FixedPin(pinName(k), geom.Point{})
		}
	}
	addNet := func(name string, a, bidx int) {
		n := b.Net(name, 1, 1)
		b.ConnByName(n, [2]string{cellName(a), pinName(0)})
		b.ConnByName(n, [2]string{cellName(bidx), pinName(1)})
	}
	id := 0
	for _, base := range []int{0, 4} {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				addNet(netName(id), base+i, base+j)
				id++
			}
		}
	}
	addNet("link", 0, 4)
	c := b.MustBuild()
	core := geom.R(0, 0, 200, 200)
	p := Quadratic().Place(c, core, 9)
	intra := p.State(0).Pos.Manhattan(p.State(1).Pos) +
		p.State(4).Pos.Manhattan(p.State(5).Pos)
	inter := p.State(0).Pos.Manhattan(p.State(4).Pos) +
		p.State(1).Pos.Manhattan(p.State(5).Pos)
	if intra >= inter {
		t.Fatalf("clusters not separated: intra %d inter %d", intra, inter)
	}
}

func cellName(i int) string { return "c" + string(rune('a'+i)) }
func pinName(i int) string  { return "p" + string(rune('0'+i)) }
func netName(i int) string {
	return "n" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
