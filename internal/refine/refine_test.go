package refine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
)

// smallCircuit builds an 8-cell circuit with chain and fan nets.
func smallCircuit(t testing.TB) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("s2", 2)
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i, n := range names {
		b.BeginMacro(n)
		w, h := 20+4*(i%3), 16+4*(i%2)
		b.MacroInstance("i", geom.R(0, 0, w, h))
		b.FixedPin("l", geom.Point{X: -w / 2, Y: 0})
		b.FixedPin("r", geom.Point{X: w - w/2, Y: 0})
		b.FixedPin("t", geom.Point{X: 0, Y: h - h/2})
	}
	for i := 0; i+1 < len(names); i++ {
		ni := b.Net("n"+names[i], 1, 1)
		b.ConnByName(ni, [2]string{names[i], "r"})
		b.ConnByName(ni, [2]string{names[i+1], "l"})
	}
	fan := b.Net("fan", 1, 1)
	b.ConnByName(fan, [2]string{"a", "t"})
	b.ConnByName(fan, [2]string{"d", "t"})
	b.ConnByName(fan, [2]string{"h", "t"})
	return b.MustBuild()
}

// stage1Placement runs a quick Stage 1 to produce a reasonable input.
func stage1Placement(t testing.TB) *place.Placement {
	t.Helper()
	c := smallCircuit(t)
	p, _ := place.RunStage1(c, place.Options{Seed: 11, Ac: 25})
	return p
}

func TestRouterNetsEquivalence(t *testing.T) {
	// Build a circuit with equivalent pins and check candidate sets.
	b := netlist.NewBuilder("eq", 2)
	b.BeginMacro("a")
	b.MacroInstance("i", geom.R(0, 0, 20, 20))
	pa := b.FixedPin("p", geom.Point{X: -10, Y: 0})
	pb := b.FixedPin("q", geom.Point{X: 10, Y: 0})
	b.BeginMacro("z")
	b.MacroInstance("i", geom.R(0, 0, 20, 20))
	b.FixedPin("p", geom.Point{X: -10, Y: 0})
	n := b.Net("n", 1, 1)
	b.Conn(n, pa, pb) // equivalent pair on cell a
	b.ConnByName(n, [2]string{"z", "p"})
	c := b.MustBuild()

	core := geom.R(0, 0, 120, 60)
	p := place.New(c, core, nil)
	st := p.State(0)
	st.Pos = geom.Point{X: 30, Y: 30}
	p.SetState(0, st)
	st = p.State(1)
	st.Pos = geom.Point{X: 90, Y: 30}
	p.SetState(1, st)

	g, err := channel.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	nets := RouterNets(p, g)
	if len(nets) != 1 {
		t.Fatalf("%d nets", len(nets))
	}
	if len(nets[0].Conns) != 2 {
		t.Fatalf("conns = %d want 2", len(nets[0].Conns))
	}
	// The equivalent pair straddles cell a: the two pins attach to
	// different regions, so the candidate set must have 2 entries.
	if len(nets[0].Conns[0]) != 2 {
		t.Fatalf("equivalent candidates = %v want 2 regions", nets[0].Conns[0])
	}
}

func TestRunConvergesAndRoutes(t *testing.T) {
	p := stage1Placement(t)
	teilAfter1 := p.TEIL()
	res, err := RunCtx(context.Background(), p, Options{Seed: 3, Ac: 20, M: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("%d iterations want 3", len(res.Iterations))
	}
	for i, it := range res.Iterations {
		if it.Regions == 0 || it.GraphEdges == 0 {
			t.Fatalf("iteration %d: empty channel graph", i)
		}
		if it.RouteLength <= 0 {
			t.Fatalf("iteration %d: no routing length", i)
		}
	}
	// Table 3's point: small change between stages. Allow generous slack
	// for the tiny test circuit but catch blowups.
	if p.TEIL() > teilAfter1*2 {
		t.Fatalf("TEIL blew up in Stage 2: %v -> %v", teilAfter1, p.TEIL())
	}
	if p.ExpandedBounds().Area() <= 0 {
		t.Fatal("no chip area")
	}
	// Final routing exists for every net.
	if res.Routing == nil || len(res.Routing.Choice) != len(p.Circuit.Nets) {
		t.Fatal("routing missing")
	}
	// Raw cell overlap after refinement must be tiny.
	frac := float64(p.RawOverlap()) / float64(p.Circuit.TotalCellArea())
	if frac > 0.05 {
		t.Fatalf("raw overlap fraction %v after refinement", frac)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("final placement inconsistent: %v", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	p1 := stage1Placement(t)
	p2 := stage1Placement(t)
	r1, err1 := RunCtx(context.Background(), p1, Options{Seed: 4, Ac: 10, M: 5})
	r2, err2 := RunCtx(context.Background(), p2, Options{Seed: 4, Ac: 10, M: 5})
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	// The final TEIL and chip are the placement's own.
	if p1.TEIL() != p2.TEIL() || p1.ExpandedBounds() != p2.ExpandedBounds() {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v",
			p1.TEIL(), p1.ExpandedBounds(), p2.TEIL(), p2.ExpandedBounds())
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("nondeterministic Stage 2 results (iterations, channel graph, routing)")
	}
}

func TestChipAreaConverges(t *testing.T) {
	p := stage1Placement(t)
	res, err := RunCtx(context.Background(), p, Options{Seed: 5, Ac: 20, M: 8})
	if err != nil {
		t.Fatal(err)
	}
	// §4.3: three refinement steps suffice for area convergence — the
	// last two iterations should differ by less than 25% on this small
	// circuit.
	a2 := float64(res.Iterations[1].ChipArea)
	a3 := float64(res.Iterations[2].ChipArea)
	if diff := abs64(a3-a2) / a2; diff > 0.25 {
		t.Fatalf("area still moving at iteration 3: %v -> %v", a2, a3)
	}
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
