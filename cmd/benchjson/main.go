// Command benchjson converts `go test -bench` text output into JSON records
// of {name, iterations, ns_per_op, bytes_per_op, allocs_per_op}, sorted by
// benchmark name. It reads stdin and writes stdout (or -o FILE), so it slots
// into a pipe:
//
//	go test -bench . -benchmem -run '^$' ./internal/place | benchjson -o BENCH_PR6.json
//
// Repeated results of one benchmark (go test -count N) are folded into
// their median (benchfmt.Median). Non-benchmark lines (headers, PASS/ok,
// log output) are ignored. With no
// benchmark lines at all it exits 1 rather than writing an empty file, so a
// silently-failing bench run doesn't overwrite committed results.
//
// With -diff it becomes a regression gate over two committed files:
//
//	benchjson -diff BENCH_PR3.json BENCH_PR6.json
//
// Every benchmark present in both files is compared; a ns/op increase
// beyond -ns-threshold percent, or any allocs/op increase, is a regression
// and exits 1. So is a baseline benchmark missing from NEW ("gone"): a
// benchmark that failed or was deleted must not pass for a clean run, so
// retiring one means dropping it from the baseline file too. Benchmarks
// only in NEW are reported and never fail the gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchfmt"
)

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	diff := flag.Bool("diff", false, "compare two result files: benchjson -diff OLD.json NEW.json")
	nsThreshold := flag.Float64("ns-threshold", 10, "with -diff, max tolerated ns/op increase in percent")
	flag.Parse()

	if *diff {
		os.Exit(runDiff(flag.Args(), *nsThreshold))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: go test -bench . | benchjson [-o FILE]")
		fmt.Fprintln(os.Stderr, "       benchjson -diff [-ns-threshold PCT] OLD.json NEW.json")
		os.Exit(2)
	}

	results, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	results = benchfmt.Median(results)
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found on stdin"))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w = f
	}
	if err := benchfmt.WriteJSON(w, results); err != nil {
		fatal(err)
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks\n", len(results))
}

// runDiff loads two result files and prints the comparison, returning the
// process exit code: 0 clean, 1 on any regression or gone benchmark, 2 on
// usage/IO errors.
func runDiff(args []string, nsThreshold float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson -diff [-ns-threshold PCT] OLD.json NEW.json")
		return 2
	}
	load := func(path string) []benchfmt.Result {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		defer f.Close()
		rs, err := benchfmt.ReadJSON(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
			os.Exit(2)
		}
		return rs
	}
	oldRes, newRes := load(args[0]), load(args[1])
	rows := benchfmt.Diff(oldRes, newRes, nsThreshold)
	regressions := 0
	for _, row := range rows {
		switch {
		case row.Old == nil:
			fmt.Printf("  new   %-60s %12.1f ns/op %6d allocs/op\n",
				row.Name, row.New.NsPerOp, row.New.AllocsPerOp)
		case row.New == nil:
			fmt.Printf("  GONE  %-60s\n", row.Name)
			regressions++
		default:
			mark := "  ok  "
			if row.Regressed {
				mark = "  FAIL"
				regressions++
			}
			fmt.Printf("%s  %-60s %12.1f -> %12.1f ns/op (%+6.1f%%)  %d -> %d allocs/op",
				mark, row.Name, row.Old.NsPerOp, row.New.NsPerOp, row.NsDeltaPct,
				row.Old.AllocsPerOp, row.New.AllocsPerOp)
			if row.Regressed {
				fmt.Printf("  [%s]", row.Reason)
			}
			fmt.Println()
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) vs %s (threshold %+.0f%% ns/op, any allocs/op increase, any benchmark gone)\n",
			regressions, args[0], nsThreshold)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: no regressions vs %s (%d compared)\n", args[0], len(rows))
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
