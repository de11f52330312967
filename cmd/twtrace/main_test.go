package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestReportGolden records a real (small, deterministic) flow trace and
// checks the default twtrace report against testdata/report.golden. The
// default report excludes every wall-clock field, so the bytes are stable
// run to run; regenerate with go test ./cmd/twtrace -run Golden -update.
func TestReportGolden(t *testing.T) {
	c, err := gen.Preset("i1", 17)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	tel := telemetry.New(sink, nil, nil)
	_, err = core.PlaceCtx(context.Background(), c, core.Options{
		Seed: 7, Ac: 4, MaxSteps: 6, Iterations: 1, M: 4, Tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, stats, err := telemetry.DecodeLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || stats.Events == 0 {
		t.Fatalf("trace decode: %+v", stats)
	}
	var report bytes.Buffer
	if err := writeReport(&report, events, stats, "", false); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, report.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(report.Bytes(), want) {
		t.Errorf("report differs from %s (regenerate with -update if the change is intended)\n--- got ---\n%s",
			golden, report.String())
	}
}

// TestLadderGolden records a deterministic parallel-tempering run and checks
// the -ladder report — one summary row per replica rung plus the untouched
// full table for the non-family route run — against testdata/ladder.golden.
func TestLadderGolden(t *testing.T) {
	c, err := gen.Preset("i1", 17)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	tel := telemetry.New(sink, nil, nil)
	_, err = core.PlaceCtx(context.Background(), c, core.Options{
		Seed: 7, Ac: 4, MaxSteps: 6, Iterations: 1, M: 4, Replicas: 3, Workers: 1, Tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, stats, err := telemetry.DecodeLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := writeLadderReport(&report, events, stats, "", false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report.Bytes(), []byte("ladder stage1: 3 replicas")) {
		t.Fatalf("replica family not folded:\n%s", report.String())
	}

	golden := filepath.Join("testdata", "ladder.golden")
	if *update {
		if err := os.WriteFile(golden, report.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(report.Bytes(), want) {
		t.Errorf("report differs from %s (regenerate with -update if the change is intended)\n--- got ---\n%s",
			golden, report.String())
	}
}

// TestLadderGroupsTrials checks <base>.t<k> multi-start labels fold into a
// trial family and that solo runs render with the full per-run table.
func TestLadderGroupsTrials(t *testing.T) {
	trace := `{"v":1,"type":"step","run":"s1.t1","step":1,"T":8,"acc":0.8,"cost":4}` + "\n" +
		`{"v":1,"type":"run-end","run":"s1.t1","step":1,"attempts":12,"cost":4,"acc":0.8}` + "\n" +
		`{"v":1,"type":"step","run":"s1.t0","step":1,"T":9,"acc":0.9,"cost":3}` + "\n" +
		`{"v":1,"type":"run-end","run":"s1.t0","step":1,"attempts":10,"cost":3,"acc":0.9}` + "\n" +
		`{"v":1,"type":"step","run":"solo","step":1,"T":5,"acc":0.5,"cost":2}` + "\n"
	events, stats, err := telemetry.DecodeString(trace)
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := writeLadderReport(&report, events, stats, "", false); err != nil {
		t.Fatal(err)
	}
	out := report.String()
	for _, want := range []string{"ladder s1: 2 trials", "run solo"} {
		if !bytes.Contains(report.Bytes(), []byte(want)) {
			t.Errorf("ladder report missing %q:\n%s", want, out)
		}
	}
	// t0 sorts before t1 regardless of trace arrival order.
	if i0, i1 := bytes.Index(report.Bytes(), []byte("t0")), bytes.Index(report.Bytes(), []byte("t1")); i0 > i1 {
		t.Errorf("rungs not index-ordered:\n%s", out)
	}
}

// TestReportSkipsMalformed checks the report surfaces the skipped-line count.
func TestReportSkipsMalformed(t *testing.T) {
	trace := `{"v":1,"type":"run-start","run":"x","cells":3,"seed":9}` + "\n" +
		"garbage\n" +
		`{"v":1,"type":"run-end","run":"x","step":2,"attempts":10,"cost":5,"acc":0.5}` + "\n"
	events, stats, err := telemetry.DecodeString(trace)
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := writeReport(&report, events, stats, "", false); err != nil {
		t.Fatal(err)
	}
	out := report.String()
	for _, want := range []string{"2 events", "1 malformed", "run x", "end: 2 steps"} {
		if !bytes.Contains(report.Bytes(), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportRunFilter checks -run narrows the report to one run.
func TestReportRunFilter(t *testing.T) {
	trace := `{"v":1,"type":"step","run":"a","step":1,"T":10,"acc":0.9,"cost":1}` + "\n" +
		`{"v":1,"type":"step","run":"b","step":1,"T":10,"acc":0.9,"cost":1}` + "\n"
	events, stats, err := telemetry.DecodeString(trace)
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := writeReport(&report, events, stats, "b", false); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(report.Bytes(), []byte("run a")) || !bytes.Contains(report.Bytes(), []byte("run b")) {
		t.Errorf("filter failed:\n%s", report.String())
	}
}

// TestReportRouteDuration checks that -wall adds a routing pass's duration
// to its route line and that the default report leaves it out.
func TestReportRouteDuration(t *testing.T) {
	trace := `{"v":1,"type":"route","run":"refine1.route","cells":38,"len":900,"excess":2,"attempts":40,"dur_ms":1234.4}` + "\n"
	events, stats, err := telemetry.DecodeString(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		wall bool
		want string
	}{
		{false, "  route: 38 nets, length 900, excess 2, 40 attempts\n"},
		{true, "  route: 38 nets, length 900, excess 2, 40 attempts, 1234 ms\n"},
	} {
		var report bytes.Buffer
		if err := writeReport(&report, events, stats, "", tc.wall); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(report.Bytes(), []byte(tc.want)) {
			t.Errorf("wall=%v: report lacks %q:\n%s", tc.wall, tc.want, report.String())
		}
	}
}
