package place

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/rng"
)

func TestPlacementRoundTrip(t *testing.T) {
	p := newTestPlacement(t, 8, true)
	Randomize(p, rng.New(5))
	teil, c2 := p.TEIL(), p.C2Raw()

	var sb strings.Builder
	if err := WritePlacement(&sb, p); err != nil {
		t.Fatal(err)
	}

	// Load into a fresh placement of the same circuit.
	q := newTestPlacement(t, 8, true)
	if err := ReadPlacement(strings.NewReader(sb.String()), q); err != nil {
		t.Fatalf("ReadPlacement: %v\n%s", err, sb.String())
	}
	for i := range p.Circuit.Cells {
		a, b := p.State(i), q.State(i)
		if a.Pos != b.Pos || a.Orient != b.Orient || a.Instance != b.Instance {
			t.Fatalf("cell %d state mismatch: %+v vs %+v", i, a, b)
		}
		if math.Abs(a.Aspect-b.Aspect) > 1e-9 {
			t.Fatalf("cell %d aspect mismatch", i)
		}
		for u := range a.Units {
			if a.Units[u] != b.Units[u] {
				t.Fatalf("cell %d unit %d mismatch", i, u)
			}
		}
	}
	if q.TEIL() != teil || q.C2Raw() != c2 {
		t.Fatalf("cost mismatch after reload: TEIL %v/%v C2 %d/%d",
			teil, q.TEIL(), c2, q.C2Raw())
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReadPlacementCoreKeepsCostsExact loads a saved placement into
// placements on other cores, one in static mode (as twmc's -load path
// does) and one with an estimator: the file's core line must leave C2
// equal to a full recompute, and TEIL (an integer span sum) equal to the
// saved placement's.
func TestReadPlacementCoreKeepsCostsExact(t *testing.T) {
	p := newTestPlacement(t, 8, true)
	Randomize(p, rng.New(5))
	var sb strings.Builder
	if err := WritePlacement(&sb, p); err != nil {
		t.Fatal(err)
	}
	c := p.Circuit
	other := geom.R(0, 0, p.Core.W()/2, p.Core.H()/3)
	for _, q := range []*Placement{
		New(c, geom.R(0, 0, 1, 1), nil),
		New(c, other, estimate.New(c, other, estimate.DefaultParams())),
	} {
		if err := ReadPlacement(strings.NewReader(sb.String()), q); err != nil {
			t.Fatal(err)
		}
		if q.Core != p.Core {
			t.Fatalf("core %v, want %v", q.Core, p.Core)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("static=%v: %v", q.Est == nil, err)
		}
		if got, want := q.C2Raw(), scanC2(q); got != want {
			t.Fatalf("static=%v: C2 %d, full scan %d", q.Est == nil, got, want)
		}
		if q.TEIL() != p.TEIL() {
			t.Fatalf("static=%v: TEIL %v, want %v", q.Est == nil, q.TEIL(), p.TEIL())
		}
		if q.Est != nil && q.C2Raw() != p.C2Raw() {
			t.Fatalf("estimator-attached reload: C2 %d, want %d", q.C2Raw(), p.C2Raw())
		}
	}
}

func TestReadPlacementErrors(t *testing.T) {
	p := newTestPlacement(t, 3, false)
	cases := []struct{ name, in string }{
		{"wrong circuit", "placement other\n"},
		{"unknown cell", "placement grid\ncell nosuch 0 0 R0 0 1\n"},
		{"bad orient", "placement grid\ncell ma0 0 0 R45 0 1\n"},
		{"bad instance", "placement grid\ncell ma0 0 0 R0 9 1\n"},
		{"unit outside cell", "placement grid\nunit 0 0\n"},
		{"unknown directive", "placement grid\nbogus\n"},
		{"bad core", "placement grid\ncore 1 2 3\n"},
	}
	for _, tc := range cases {
		if err := ReadPlacement(strings.NewReader(tc.in), p); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestReadPlacementPartial(t *testing.T) {
	// A file naming only one cell updates just that cell.
	p := newTestPlacement(t, 3, false)
	Randomize(p, rng.New(9))
	before1 := p.State(1)
	in := "placement grid\ncell ma0 7 9 R180 0 1\n"
	if err := ReadPlacement(strings.NewReader(in), p); err != nil {
		t.Fatal(err)
	}
	st := p.State(0)
	if st.Pos.X != 7 || st.Pos.Y != 9 || st.Orient.String() != "R180" {
		t.Fatalf("cell 0 not updated: %+v", st)
	}
	after1 := p.State(1)
	if before1.Pos != after1.Pos {
		t.Fatal("unrelated cell changed")
	}
}

// TestReadPlacementRejectsBadStates feeds ReadPlacement a written
// placement with one cell state no producer writes: a custom cell's aspect
// not a number, infinite, or outside the instance's range, or a unit on a
// site past the cell's site count. Each must be refused with the cell
// named, not loaded (a NaN aspect used to load as a one-unit-wide strip, an
// overlong site was wrapped).
func TestReadPlacementRejectsBadStates(t *testing.T) {
	p := newTestPlacement(t, 8, true)
	Randomize(p, rng.New(5))
	var sb strings.Builder
	if err := WritePlacement(&sb, p); err != nil {
		t.Fatal(err)
	}
	ci := -1
	for i := range p.Circuit.Cells {
		if p.Circuit.Cells[i].Instances[p.State(i).Instance].IsCustomShape() && p.Units(i) > 0 {
			ci = i
			break
		}
	}
	if ci < 0 {
		t.Fatal("no custom-shape cell with uncommitted units in the test circuit")
	}
	name := p.Circuit.Cells[ci].Name
	for _, tc := range []struct{ name, aspect, site string }{
		{"NaN aspect", "NaN", ""},
		{"infinite aspect", "+Inf", ""},
		{"aspect out of range", "1e300", ""},
		{"site out of range", "", strconv.Itoa(p.SitesPerEdge(ci))},
	} {
		lines := strings.Split(sb.String(), "\n")
		for k := range lines {
			f := strings.Fields(lines[k])
			if len(f) != 7 || f[0] != "cell" || f[1] != name {
				continue
			}
			if tc.aspect != "" {
				f[6] = tc.aspect
				lines[k] = strings.Join(f, " ")
			}
			if tc.site != "" {
				lines[k+1] = "  unit 0 " + tc.site
			}
		}
		q := newTestPlacement(t, 8, true)
		err := ReadPlacement(strings.NewReader(strings.Join(lines, "\n")), q)
		if err == nil || !strings.Contains(err.Error(), `cell "`+name+`"`) {
			t.Errorf("%s: err = %v, want an error naming cell %q", tc.name, err, name)
		}
	}
}
