// Package benchfmt parses the standard `go test -bench` text output into
// structured records, so benchmark results can be committed and diffed as
// JSON (see `make bench` and BENCH_PR3.json).
//
// Only benchmark result lines are parsed; everything else (goos/goarch
// headers, PASS/ok trailers, test log output) is ignored. A line is a
// result when it starts with "Benchmark", has an iteration count, and at
// least one value/unit metric pair:
//
//	BenchmarkStage1Inner/telemetry=off-8   633482   1874 ns/op   443 B/op   14 allocs/op
package benchfmt

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. NsPerOp, BytesPerOp and AllocsPerOp
// are zero when the corresponding metric is absent (-benchmem not set).
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// ParseLine parses a single benchmark output line. ok is false for
// non-benchmark lines (headers, PASS, log output, malformed results).
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters < 0 {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			continue // unit we don't track (MB/s, custom metrics)
		}
		seen = true
	}
	if !seen {
		return Result{}, false
	}
	return r, true
}

// Parse reads `go test -bench` output and returns every benchmark result in
// input order. Non-benchmark lines are skipped silently; only a read error
// is fatal.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if res, ok := ParseLine(sc.Text()); ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// Median folds repeated results of one benchmark (go test -count N) into
// one: the median of each of ns/op, B/op and allocs/op, taken separately,
// with the lower middle value for an even count. A one-off stall in one
// repetition then moves no figure. Results keep the order of each name's
// first appearance.
func Median(results []Result) []Result {
	var order []string
	byName := map[string][]Result{}
	for _, r := range results {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		med := func(v func(Result) float64) float64 {
			xs := make([]float64, len(rs))
			for i, r := range rs {
				xs[i] = v(r)
			}
			sort.Float64s(xs)
			return xs[(len(xs)-1)/2]
		}
		out = append(out, Result{
			Name:        name,
			Iterations:  rs[0].Iterations,
			NsPerOp:     med(func(r Result) float64 { return r.NsPerOp }),
			BytesPerOp:  int64(med(func(r Result) float64 { return float64(r.BytesPerOp) })),
			AllocsPerOp: int64(med(func(r Result) float64 { return float64(r.AllocsPerOp) })),
		})
	}
	return out
}

// WriteJSON writes results as indented JSON, sorted by name for stable
// committed output (`go test` ordering already matches, but sorting makes
// the file diffable across -cpu and shuffle settings).
func WriteJSON(w io.Writer, results []Result) error {
	sorted := make([]Result, len(results))
	copy(sorted, results)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sorted)
}

// ReadJSON reads results previously written by WriteJSON.
func ReadJSON(r io.Reader) ([]Result, error) {
	var out []Result
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// DiffRow is one benchmark's old-vs-new comparison. Old or New is nil when
// the benchmark exists on only one side (never a regression by itself).
type DiffRow struct {
	Name       string
	Old, New   *Result
	NsDeltaPct float64 // (new-old)/old ns/op, percent; 0 when either side is absent or old is 0
	Regressed  bool
	Reason     string
}

// Diff compares two result sets by benchmark name. A row regresses when
// ns/op grew by more than nsThresholdPct percent, or when allocs/op grew at
// all — allocation regressions are always significant because the hot paths
// are pinned at zero. Rows come back sorted by name, matched or not.
func Diff(old, new []Result, nsThresholdPct float64) []DiffRow {
	byName := func(rs []Result) map[string]*Result {
		m := make(map[string]*Result, len(rs))
		for i := range rs {
			m[rs[i].Name] = &rs[i]
		}
		return m
	}
	om, nm := byName(old), byName(new)
	names := make([]string, 0, len(om)+len(nm))
	for name := range om {
		names = append(names, name)
	}
	for name := range nm {
		if _, ok := om[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rows := make([]DiffRow, 0, len(names))
	for _, name := range names {
		row := DiffRow{Name: name, Old: om[name], New: nm[name]}
		if row.Old != nil && row.New != nil {
			if row.Old.NsPerOp > 0 {
				row.NsDeltaPct = (row.New.NsPerOp - row.Old.NsPerOp) / row.Old.NsPerOp * 100
			}
			switch {
			case row.New.AllocsPerOp > row.Old.AllocsPerOp:
				row.Regressed = true
				row.Reason = "allocs/op increased"
			case row.NsDeltaPct > nsThresholdPct:
				row.Regressed = true
				row.Reason = "ns/op over threshold"
			}
		}
		rows = append(rows, row)
	}
	return rows
}
