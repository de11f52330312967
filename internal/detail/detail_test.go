package detail

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDensitySimple(t *testing.T) {
	// Three nets: 0 spans [0,4], 1 spans [2,6], 2 spans [5,8].
	p := &Problem{Pins: []Pin{
		{X: 0, Net: 0, Top: true}, {X: 4, Net: 0},
		{X: 2, Net: 1, Top: true}, {X: 6, Net: 1},
		{X: 5, Net: 2, Top: true}, {X: 8, Net: 2},
	}}
	if d := p.Density(); d != 2 {
		t.Fatalf("density = %d want 2", d)
	}
}

func TestRouteTrivialChannel(t *testing.T) {
	// Two non-overlapping nets share one track.
	p := &Problem{Pins: []Pin{
		{X: 0, Net: 0, Top: true}, {X: 2, Net: 0},
		{X: 4, Net: 1, Top: true}, {X: 6, Net: 1},
	}}
	r, err := Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tracks != 1 {
		t.Fatalf("tracks = %d want 1", r.Tracks)
	}
	if err := Verify(p, r); err != nil {
		t.Fatal(err)
	}
}

func TestRouteVerticalConstraint(t *testing.T) {
	// Column 3 has net 0 on top and net 1 on the bottom with overlapping
	// spans: net 0 must take the higher track.
	p := &Problem{Pins: []Pin{
		{X: 0, Net: 0, Top: true}, {X: 3, Net: 0, Top: true},
		{X: 3, Net: 1}, {X: 6, Net: 1},
	}}
	r, err := Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, r); err != nil {
		t.Fatal(err)
	}
	if r.Tracks != 2 {
		t.Fatalf("tracks = %d want 2", r.Tracks)
	}
	var t0, t1 int
	for _, s := range r.Segments {
		if s.Net == 0 {
			t0 = s.Track
		} else {
			t1 = s.Track
		}
	}
	if t0 >= t1 {
		t.Fatalf("net 0 (track %d) must be above net 1 (track %d)", t0, t1)
	}
}

func TestRouteVCGCycleDogleg(t *testing.T) {
	// The classic cycle: column 2 wants 0 above 1; column 5 wants 1 above
	// 0. Only a dogleg resolves it.
	p := &Problem{Pins: []Pin{
		{X: 2, Net: 0, Top: true}, {X: 5, Net: 0},
		{X: 2, Net: 1}, {X: 5, Net: 1, Top: true},
	}}
	r, err := Route(p)
	if err != nil {
		t.Fatalf("cycle not resolved: %v", err)
	}
	if err := Verify(p, r); err != nil {
		t.Fatal(err)
	}
}

func TestRouteMultiPinDoglegs(t *testing.T) {
	// A 4-pin net alternating edges is split at interior pin columns
	// (restricted doglegs); a second net underneath shares the channel.
	p := &Problem{Pins: []Pin{
		{X: 0, Net: 0, Top: true},
		{X: 3, Net: 0},
		{X: 6, Net: 0, Top: true},
		{X: 9, Net: 0},
		{X: 1, Net: 1}, {X: 8, Net: 1},
	}}
	r, err := Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, r); err != nil {
		t.Fatal(err)
	}
	// Net 0 must have been doglegged into multiple segments.
	segs := 0
	for _, s := range r.Segments {
		if s.Net == 0 {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("expected doglegged net 0, got %d segment(s)", segs)
	}
	if r.Doglegs == 0 {
		t.Fatal("dogleg count not reported")
	}
}

func TestRouteExits(t *testing.T) {
	// Net 0 exits left: its span extends to the channel start.
	p := &Problem{
		Pins: []Pin{
			{X: 5, Net: 0, Top: true},
			{X: 0, Net: 1}, {X: 8, Net: 1},
		},
		Exits: []Exit{{Net: 0, Left: true}},
	}
	r, err := Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, r); err != nil {
		t.Fatal(err)
	}
	// Net 0's segment must reach column 0.
	ok := false
	for _, s := range r.Segments {
		if s.Net == 0 && s.XLo == 0 {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("exit-left span not extended: %+v", r.Segments)
	}
}

func TestRouteRejectsSharedColumn(t *testing.T) {
	p := &Problem{Pins: []Pin{
		{X: 3, Net: 0, Top: true},
		{X: 3, Net: 1, Top: true}, // second top pin in the same column
		{X: 5, Net: 0}, {X: 6, Net: 1},
	}}
	if _, err := Route(p); err == nil {
		t.Fatal("shared pin column accepted")
	}
}

// randomProblem builds a valid random channel: each column has at most one
// top and one bottom pin; every net gets at least two pins.
func randomProblem(src *rng.Source, cols, nets int) *Problem {
	p := &Problem{}
	topUsed := make([]bool, cols)
	botUsed := make([]bool, cols)
	// Seed every net with two pins.
	place := func(net int) {
		for {
			x := src.Intn(cols)
			top := src.Bool(0.5)
			if top && !topUsed[x] {
				topUsed[x] = true
				p.Pins = append(p.Pins, Pin{X: x, Net: net, Top: true})
				return
			}
			if !top && !botUsed[x] {
				botUsed[x] = true
				p.Pins = append(p.Pins, Pin{X: x, Net: net})
				return
			}
		}
	}
	for n := 0; n < nets; n++ {
		place(n)
		place(n)
	}
	// Some extra pins.
	extra := src.Intn(nets)
	for k := 0; k < extra; k++ {
		place(src.Intn(nets))
	}
	return p
}

// TestRouteQualityQuick: the paper's premise — random channels route in
// t ≤ d+1 tracks almost always; never accept an invalid routing and keep a
// modest worst case. The fixed inputs first are random channels on which
// the router once needed density + 5 tracks: cycles were broken only once
// a whole track made no progress, so their pieces stacked up at the bottom.
func TestRouteQualityQuick(t *testing.T) {
	within := 0
	total := 0
	f := func(seed uint64, colsB, netsB uint8) bool {
		src := rng.New(seed)
		nets := 2 + int(netsB%8)
		cols := 2*nets + 2 + int(colsB%10)
		p := randomProblem(src, cols, nets)
		r, err := Route(p)
		if err != nil {
			// Unbreakable 2-pin cycles exist in theory; they must be
			// rare and reported, not silently wrong.
			return true
		}
		if err := Verify(p, r); err != nil {
			t.Logf("verify failed: %v (problem %+v)", err, p)
			return false
		}
		total++
		if r.Tracks <= r.Density+1 {
			within++
		}
		// Hard bound: never pathological.
		return r.Tracks <= r.Density+4
	}
	for _, in := range []struct {
		seed         uint64
		colsB, netsB uint8
	}{
		{0x39d092d7ca091589, 0xc3, 0xe},
		{0x2276a0c49e3c4d0b, 0x66, 0xd},
		{0x2532cb064810e839, 0xde, 0x86},
		{0x6f06d197a7c65120, 0xab, 0x86},
	} {
		if !f(in.seed, in.colsB, in.netsB) {
			t.Errorf("recorded input (%#x, %#x, %#x) exceeds density + 4 tracks", in.seed, in.colsB, in.netsB)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if total == 0 {
		t.Fatal("no instances routed")
	}
	frac := float64(within) / float64(total)
	if frac < 0.7 {
		t.Fatalf("only %.0f%% of channels routed within d+1 tracks", frac*100)
	}
	t.Logf("d+1 attainment: %d/%d (%.0f%%)", within, total, frac*100)
}

// TestVerifyCatchesDoglegShort: net 0 doglegs at its bottom pin in column
// 4, where net 1 has a top pin. Net 0's wire there runs from the bottom
// edge up to its higher piece (track 0) and crosses net 1's wire down to
// track 1, although net 1 is above net 0's lower piece.
func TestVerifyCatchesDoglegShort(t *testing.T) {
	p := &Problem{Pins: []Pin{
		{X: 0, Net: 0, Top: true}, {X: 4, Net: 0}, {X: 8, Net: 0},
		{X: 2, Net: 1}, {X: 4, Net: 1, Top: true},
	}}
	bad := &Result{Segments: []Segment{
		{Net: 0, Track: 0, XLo: 4, XHi: 8, SubNet: 1},
		{Net: 1, Track: 1, XLo: 2, XHi: 4},
		{Net: 0, Track: 2, XLo: 0, XHi: 4},
	}, Tracks: 3}
	if err := Verify(p, bad); err == nil {
		t.Fatal("crossing vertical wires passed verification")
	}
	r, err := Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, r); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesOverlap(t *testing.T) {
	p := &Problem{Pins: []Pin{
		{X: 0, Net: 0, Top: true}, {X: 5, Net: 0},
		{X: 3, Net: 1, Top: true}, {X: 8, Net: 1},
	}}
	bad := &Result{Segments: []Segment{
		{Net: 0, Track: 0, XLo: 0, XHi: 5},
		{Net: 1, Track: 0, XLo: 3, XHi: 8}, // overlaps net 0 on track 0
	}, Tracks: 1}
	if err := Verify(p, bad); err == nil {
		t.Fatal("overlapping segments passed verification")
	}
}
