// Command twtrace renders an annealing trace recorded with -trace into
// human-readable cooling-curve and acceptance-rate tables, grouped by run.
//
// Usage:
//
//	twtrace trace.jsonl
//	twmc -preset i1 -trace /dev/stdout | twtrace
//	twtrace -run stage1 -wall trace.jsonl
//	twtrace -ladder trace.jsonl
//
// The default report contains no wall-clock fields, so equal runs produce
// byte-identical reports (diff-friendly); -wall adds elapsed milliseconds
// and routing-pass durations. -ladder folds parallel-tempering replicas (<run>.r<k>) and multi-start
// trials (<run>.t<k>) into one summary table per family instead of a full
// cooling curve per rung. Malformed or unknown-version lines are skipped
// and counted, never fatal.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"text/tabwriter"

	"repro/internal/telemetry"
)

func main() {
	var (
		runFilter = flag.String("run", "", "report only this run label")
		wall      = flag.Bool("wall", false, "include wall-clock columns (non-deterministic)")
		ladder    = flag.Bool("ladder", false, "summarize <run>.r<k> replica ladders and <run>.t<k> trial families as one table per family")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	default:
		fmt.Fprintln(os.Stderr, "usage: twtrace [-run LABEL] [-wall] [-ladder] [trace.jsonl]")
		os.Exit(2)
	}

	events, stats, err := telemetry.DecodeLines(in)
	if err != nil {
		fatal(err)
	}
	if *ladder {
		err = writeLadderReport(os.Stdout, events, stats, *runFilter, *wall)
	} else {
		err = writeReport(os.Stdout, events, stats, *runFilter, *wall)
	}
	if err != nil {
		fatal(err)
	}
}

// runGroup collects one run's events in arrival order.
type runGroup struct {
	name   string
	events []telemetry.Event
}

// groupByRun splits events into per-run groups, ordered by each run's first
// appearance in the trace. Events with an empty Run field group under "".
func groupByRun(events []telemetry.Event) []*runGroup {
	index := map[string]*runGroup{}
	var order []*runGroup
	for _, ev := range events {
		g, ok := index[ev.Run]
		if !ok {
			g = &runGroup{name: ev.Run}
			index[ev.Run] = g
			order = append(order, g)
		}
		g.events = append(g.events, ev)
	}
	return order
}

// writeReport renders the trace. Without wall, the output is a pure function
// of the decoded events' deterministic fields — the golden test relies on
// that.
func writeReport(w io.Writer, events []telemetry.Event, stats telemetry.DecodeStats, runFilter string, wall bool) error {
	fmt.Fprintf(w, "trace: %d events", stats.Events)
	if stats.Skipped > 0 {
		fmt.Fprintf(w, " (%d malformed or unsupported lines skipped)", stats.Skipped)
	}
	fmt.Fprintln(w)
	for _, g := range groupByRun(events) {
		if runFilter != "" && g.name != runFilter {
			continue
		}
		fmt.Fprintln(w)
		if err := writeRun(w, g, wall); err != nil {
			return err
		}
	}
	return nil
}

func writeRun(w io.Writer, g *runGroup, wall bool) error {
	name := g.name
	if name == "" {
		name = "(unlabeled)"
	}
	fmt.Fprintf(w, "run %s", name)
	for _, ev := range g.events {
		if ev.Type == telemetry.TypeRunStart {
			fmt.Fprintf(w, " (circuit %s, %d cells, seed %d)", ev.Label, ev.Cells, ev.Seed)
			break
		}
	}
	fmt.Fprintln(w)

	var steps []telemetry.Event
	var ckWrites, resumes, tasks int
	var ckBytes int64
	for _, ev := range g.events {
		switch ev.Type {
		case telemetry.TypeStep:
			steps = append(steps, ev)
		case telemetry.TypeCheckpoint:
			ckWrites++
			ckBytes += ev.Bytes
		case telemetry.TypeResume:
			resumes++
		case telemetry.TypeTask:
			tasks++
		case telemetry.TypeRoute:
			fmt.Fprintf(w, "  route: %d nets, length %d, excess %d, %d attempts",
				ev.Cells, ev.Length, ev.Excess, ev.Attempts)
			if wall {
				fmt.Fprintf(w, ", %.0f ms", ev.DurMS)
			}
			fmt.Fprintln(w)
		}
	}
	if len(steps) > 0 {
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "  step\tT\talpha\tacc\tcost\tteil\tattempts\t")
		if wall {
			fmt.Fprint(tw, "ms\t")
		}
		fmt.Fprintln(tw)
		prevT := 0.0
		for i, ev := range steps {
			alpha := "-"
			if i > 0 && prevT > 0 {
				alpha = fmt.Sprintf("%.3f", ev.T/prevT)
			}
			prevT = ev.T
			fmt.Fprintf(tw, "  %d\t%.4g\t%s\t%.3f\t%.1f\t%.0f\t%d\t",
				ev.Step, ev.T, alpha, ev.Acc, ev.Cost, ev.TEIL, ev.Attempts)
			if wall {
				fmt.Fprintf(tw, "%.0f\t", ev.ElapsedMS)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if ckWrites > 0 {
		fmt.Fprintf(w, "  checkpoints: %d written, %d bytes\n", ckWrites, ckBytes)
	}
	if resumes > 0 {
		fmt.Fprintf(w, "  resumes: %d\n", resumes)
	}
	if tasks > 0 {
		fmt.Fprintf(w, "  tasks: %d\n", tasks)
	}
	for _, ev := range g.events {
		if ev.Type == telemetry.TypeRunEnd {
			fmt.Fprintf(w, "  end: %d steps, %d attempts, final cost %.1f, accept rate %.3f",
				ev.Step, ev.Attempts, ev.Cost, ev.Acc)
			if wall {
				fmt.Fprintf(w, ", %.0f ms", ev.ElapsedMS)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// rungRe matches the labels RunStage1N and RunStage1TemperedCtx derive for
// concurrent members of one logical run: "<base>.r<k>" for a tempering
// replica on ladder rung k, "<base>.t<k>" for multi-start trial k.
var rungRe = regexp.MustCompile(`^(.+)\.([rt])(\d+)$`)

// rung is one member of a run family with its summary figures pulled out of
// the member's events.
type rung struct {
	label    string // suffix: "r0", "t3"
	index    int    // numeric rung/trial index
	steps    int    // from run-end (falls back to counted step events)
	attempts int64
	finalT   float64 // temperature of the last recorded step
	acc      float64
	cost     float64
	ended    bool // run-end seen (an interrupted rung reports partial data)
	ms       float64
}

// family is a base run label plus its rungs, ordered by index.
type family struct {
	base  string
	kind  string // "replica" or "trial"
	rungs []*rung
	solo  *runGroup // non-family run, rendered with the full writeRun table
}

// groupFamilies folds per-run groups into ladder families. Runs whose label
// does not match the rung pattern pass through as solo entries; order
// follows each base's first appearance in the trace.
func groupFamilies(groups []*runGroup) []*family {
	index := map[string]*family{}
	var order []*family
	for _, g := range groups {
		m := rungRe.FindStringSubmatch(g.name)
		if m == nil {
			f := &family{base: g.name, solo: g}
			order = append(order, f)
			continue
		}
		base := m[1]
		f, ok := index[base]
		if !ok {
			kind := "replica"
			if m[2] == "t" {
				kind = "trial"
			}
			f = &family{base: base, kind: kind}
			index[base] = f
			order = append(order, f)
		}
		idx, _ := strconv.Atoi(m[3])
		f.rungs = append(f.rungs, summarizeRung(m[2]+m[3], idx, g.events))
	}
	for _, f := range order {
		sort.Slice(f.rungs, func(a, b int) bool { return f.rungs[a].index < f.rungs[b].index })
	}
	return order
}

func summarizeRung(label string, idx int, events []telemetry.Event) *rung {
	r := &rung{label: label, index: idx}
	for _, ev := range events {
		switch ev.Type {
		case telemetry.TypeStep:
			r.steps++
			r.finalT = ev.T
		case telemetry.TypeRunEnd:
			r.steps = ev.Step
			r.attempts = ev.Attempts
			r.acc = ev.Acc
			r.cost = ev.Cost
			r.ms = ev.ElapsedMS
			r.ended = true
		}
	}
	return r
}

// writeLadderReport renders the -ladder view: one summary row per rung for
// each replica/trial family, full tables for everything else. The filter
// matches either the family base or a member's full label.
func writeLadderReport(w io.Writer, events []telemetry.Event, stats telemetry.DecodeStats, runFilter string, wall bool) error {
	fmt.Fprintf(w, "trace: %d events", stats.Events)
	if stats.Skipped > 0 {
		fmt.Fprintf(w, " (%d malformed or unsupported lines skipped)", stats.Skipped)
	}
	fmt.Fprintln(w)
	for _, f := range groupFamilies(groupByRun(events)) {
		if runFilter != "" && f.base != runFilter && !matchesMember(f, runFilter) {
			continue
		}
		fmt.Fprintln(w)
		if f.solo != nil {
			if err := writeRun(w, f.solo, wall); err != nil {
				return err
			}
			continue
		}
		if err := writeFamily(w, f, wall); err != nil {
			return err
		}
	}
	return nil
}

func matchesMember(f *family, filter string) bool {
	for _, r := range f.rungs {
		if f.base+"."+r.label == filter {
			return true
		}
	}
	return false
}

func writeFamily(w io.Writer, f *family, wall bool) error {
	fmt.Fprintf(w, "ladder %s: %d %ss\n", f.base, len(f.rungs), f.kind)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "  rung\tsteps\tattempts\tfinal T\tacc\tcost\t")
	if wall {
		fmt.Fprint(tw, "ms\t")
	}
	fmt.Fprintln(tw)
	for _, r := range f.rungs {
		end := ""
		if !r.ended {
			end = "*" // interrupted: no run-end record, figures are partial
		}
		fmt.Fprintf(tw, "  %s%s\t%d\t%d\t%.4g\t%.3f\t%.1f\t",
			r.label, end, r.steps, r.attempts, r.finalT, r.acc, r.cost)
		if wall {
			fmt.Fprintf(tw, "%.0f\t", r.ms)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "twtrace:", err)
	os.Exit(1)
}
