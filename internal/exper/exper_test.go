package exper

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{Seed: 7, Trials: 1, Ac: 10, M: 4, Circuits: []string{"i3"}}
}

func TestTable3Runs(t *testing.T) {
	rows, err := Table3(tiny())
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(rows) != 1 || rows[0].Circuit != "i3" {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Cells != 18 || r.Nets != 38 || r.Pins != 102 {
		t.Fatalf("published counts wrong: %+v", r)
	}
	var sb strings.Builder
	WriteTable3(&sb, rows)
	if !strings.Contains(sb.String(), "i3") || !strings.Contains(sb.String(), "Avg.") {
		t.Fatalf("table output malformed:\n%s", sb.String())
	}
}

func TestTable4Runs(t *testing.T) {
	rows, err := Table4(tiny())
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	r := rows[0]
	if r.Baseline != "greedy" {
		t.Fatalf("i3 baseline = %s want greedy", r.Baseline)
	}
	if r.TEIL <= 0 || r.BaseTEIL <= 0 || r.Chip.Area() <= 0 || r.BaseChip.Area() <= 0 {
		t.Fatalf("degenerate row: %+v", r)
	}
	var sb strings.Builder
	WriteTable4(&sb, rows)
	if !strings.Contains(sb.String(), "greedy") {
		t.Fatalf("table output malformed:\n%s", sb.String())
	}
}

// TestTablesDeterministicAcrossWorkers pins the parallel harness contract:
// the rendered table output is byte-identical whether trials run serially or
// fanned across eight workers, because every trial derives its seed from its
// grid index and rows aggregate in index order.
func TestTablesDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		cfg := tiny()
		cfg.Trials = 2
		cfg.Circuits = []string{"i3", "i2"}
		cfg.Workers = workers
		var sb strings.Builder
		rows3, err := Table3(cfg)
		if err != nil {
			t.Fatalf("Table3(workers=%d): %v", workers, err)
		}
		WriteTable3(&sb, rows3)
		rows4, err := Table4(cfg)
		if err != nil {
			t.Fatalf("Table4(workers=%d): %v", workers, err)
		}
		WriteTable4(&sb, rows4)
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("table output depends on worker count:\n-- workers=1 --\n%s\n-- workers=8 --\n%s",
			serial, parallel)
	}
}

func TestBaselineForMapping(t *testing.T) {
	cases := map[string]string{
		"i1": "quadratic", "x1": "quadratic",
		"i2": "greedy", "i3": "greedy",
		"p1": "slicing", "l1": "slicing", "d1": "slicing", "d2": "slicing", "d3": "slicing",
	}
	for c, want := range cases {
		if got := BaselineFor(c); got != want {
			t.Errorf("BaselineFor(%s) = %s want %s", c, got, want)
		}
	}
}

// TestBaselineForResolves: every preset's Table 4 method names a placer
// that baseline.ByName knows, so Table4 never reaches its "no baseline
// placer" error on a preset.
func TestBaselineForResolves(t *testing.T) {
	for _, c := range gen.PresetNames() {
		name := BaselineFor(c)
		if pl, ok := baseline.ByName(name); !ok || pl.Name() != name {
			t.Errorf("BaselineFor(%s) = %q does not resolve through baseline.ByName", c, name)
		}
	}
}

func TestFigure3Sweep(t *testing.T) {
	cfg := tiny()
	pts, err := Figure3(cfg, []float64{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Value <= 0 || p.Normalized < 1 {
			t.Fatalf("bad point %+v", p)
		}
	}
	// The minimum normalizes to exactly 1.
	minSeen := pts[0].Normalized
	for _, p := range pts {
		if p.Normalized < minSeen {
			minSeen = p.Normalized
		}
	}
	if minSeen != 1 {
		t.Fatalf("min normalized = %v want 1", minSeen)
	}
}

func TestFigure5And6Sweeps(t *testing.T) {
	cfg := tiny()
	p5, err := Figure5(cfg, []int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(p5) != 2 {
		t.Fatal("fig5 points")
	}
	p6, err := Figure6(cfg, []int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(p6) != 2 {
		t.Fatal("fig6 points")
	}
	for _, p := range p6 {
		if p.Value <= 0 {
			t.Fatalf("fig6 area %v", p.Value)
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := tiny()
	etas, err := AblationEta(cfg, []float64{0.25, 1})
	if err != nil || len(etas) != 2 {
		t.Fatalf("eta: %v %d", err, len(etas))
	}
	rhos, err := AblationRho(cfg, []float64{1, 4})
	if err != nil || len(rhos) != 2 {
		t.Fatalf("rho: %v %d", err, len(rhos))
	}
	ds, err := AblationDsDr(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TEILDs <= 0 || ds.TEILDr <= 0 {
		t.Fatalf("ds/dr degenerate: %+v", ds)
	}
}

func TestRefineConvergenceRows(t *testing.T) {
	rows, err := RefineConvergence(tiny(), "i3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows want 3", len(rows))
	}
	for i, r := range rows {
		if r.Iteration != i+1 || r.TEIL <= 0 || r.ChipArea <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestFigure4Law(t *testing.T) {
	rows := Figure4(4)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if rows[0].WxFrac != 1 {
		t.Fatalf("full window at T_inf: %v", rows[0].WxFrac)
	}
	// Each decade shrinks the window by exactly rho.
	for i := 1; i < len(rows); i++ {
		ratio := rows[i-1].WxFrac / rows[i].WxFrac
		if ratio < 3.99 || ratio > 4.01 {
			t.Fatalf("decade ratio = %v want 4", ratio)
		}
	}
}

func TestWriteSweepFormat(t *testing.T) {
	var sb strings.Builder
	WriteSweep(&sb, "r", "teil", []SweepPoint{{Param: 2, Value: 10, Normalized: 1}})
	out := sb.String()
	if !strings.Contains(out, "r") || !strings.Contains(out, "10.0") {
		t.Fatalf("sweep output malformed: %q", out)
	}
}
