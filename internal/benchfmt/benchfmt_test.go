package benchfmt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/place
cpu: some CPU @ 3.00GHz
BenchmarkStage1Inner/telemetry=off-8         	  633482	      1874 ns/op	     443 B/op	      14 allocs/op
BenchmarkStage1Inner/telemetry=on-8          	  611034	      1961 ns/op	     443 B/op	      14 allocs/op
BenchmarkThroughput-8	100	12.5 ns/op	800.00 MB/s
--- BENCH: BenchmarkNoise
    some log line with numbers 123 456
PASS
ok  	repro/internal/place	4.521s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(results), results)
	}
	off := results[0]
	if off.Name != "BenchmarkStage1Inner/telemetry=off-8" ||
		off.Iterations != 633482 || off.NsPerOp != 1874 ||
		off.BytesPerOp != 443 || off.AllocsPerOp != 14 {
		t.Errorf("bad first result: %+v", off)
	}
	// MB/s is an untracked unit; ns/op on the same line still parses.
	if tp := results[2]; tp.NsPerOp != 12.5 || tp.AllocsPerOp != 0 {
		t.Errorf("bad throughput result: %+v", tp)
	}
}

func TestParseLineRejects(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  \trepro/internal/place\t4.521s",
		"goos: linux",
		"BenchmarkBroken notanumber 5 ns/op",
		"BenchmarkNoMetrics-8 100",
		"BenchmarkOnlyUnknown-8 100 5 widgets/op",
	} {
		if r, ok := ParseLine(line); ok {
			t.Errorf("ParseLine(%q) accepted: %+v", line, r)
		}
	}
}

func TestWriteJSONSorted(t *testing.T) {
	var buf bytes.Buffer
	err := WriteJSON(&buf, []Result{
		{Name: "BenchmarkB", Iterations: 1, NsPerOp: 2},
		{Name: "BenchmarkA", Iterations: 1, NsPerOp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "BenchmarkA") > strings.Index(out, "BenchmarkB") {
		t.Errorf("output not sorted by name:\n%s", out)
	}
	for _, field := range []string{`"name"`, `"ns_per_op"`, `"allocs_per_op"`} {
		if !strings.Contains(out, field) {
			t.Errorf("output missing %s:\n%s", field, out)
		}
	}
}

func TestReadJSONRoundTrip(t *testing.T) {
	in := []Result{
		{Name: "BenchmarkB", Iterations: 10, NsPerOp: 2.5, BytesPerOp: 8, AllocsPerOp: 1},
		{Name: "BenchmarkA", Iterations: 5, NsPerOp: 100},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{in[1], in[0]} // WriteJSON sorts by name
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("round trip = %+v, want %+v", out, want)
	}
}

func TestDiff(t *testing.T) {
	old := []Result{
		{Name: "BenchmarkFast", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "BenchmarkSlow", NsPerOp: 1000, AllocsPerOp: 2},
		{Name: "BenchmarkAlloc", NsPerOp: 50, AllocsPerOp: 0},
		{Name: "BenchmarkGone", NsPerOp: 10},
	}
	new := []Result{
		{Name: "BenchmarkFast", NsPerOp: 105, AllocsPerOp: 0},  // +5%: within threshold
		{Name: "BenchmarkSlow", NsPerOp: 1200, AllocsPerOp: 2}, // +20%: regression
		{Name: "BenchmarkAlloc", NsPerOp: 40, AllocsPerOp: 1},  // faster but allocates: regression
		{Name: "BenchmarkNew", NsPerOp: 7},
	}
	rows := Diff(old, new, 10)
	got := map[string]DiffRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	if len(rows) != 5 {
		t.Fatalf("Diff returned %d rows, want 5", len(rows))
	}
	if r := got["BenchmarkFast"]; r.Regressed {
		t.Errorf("Fast: +5%% flagged as regression under a 10%% threshold")
	}
	if r := got["BenchmarkSlow"]; !r.Regressed || r.Reason != "ns/op over threshold" {
		t.Errorf("Slow: want ns/op regression, got %+v", r)
	}
	if r := got["BenchmarkAlloc"]; !r.Regressed || r.Reason != "allocs/op increased" {
		t.Errorf("Alloc: any allocs/op increase must regress, got %+v", r)
	}
	if r := got["BenchmarkGone"]; r.New != nil || r.Regressed {
		t.Errorf("Gone: removed benchmark must not regress, got %+v", r)
	}
	if r := got["BenchmarkNew"]; r.Old != nil || r.Regressed {
		t.Errorf("New: added benchmark must not regress, got %+v", r)
	}
}

func TestMedian(t *testing.T) {
	in := []Result{
		{Name: "BenchmarkB", Iterations: 100, NsPerOp: 500, BytesPerOp: 8, AllocsPerOp: 1},
		{Name: "BenchmarkA", Iterations: 100, NsPerOp: 40},
		{Name: "BenchmarkB", Iterations: 100, NsPerOp: 3600, BytesPerOp: 0, AllocsPerOp: 0}, // one stall
		{Name: "BenchmarkB", Iterations: 100, NsPerOp: 520, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "BenchmarkA", Iterations: 100, NsPerOp: 30},
	}
	want := []Result{
		{Name: "BenchmarkB", Iterations: 100, NsPerOp: 520, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "BenchmarkA", Iterations: 100, NsPerOp: 30}, // even count: lower middle
	}
	if got := Median(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("Median = %+v, want %+v", got, want)
	}
}
