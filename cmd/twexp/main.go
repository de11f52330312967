// Command twexp regenerates the paper's tables and figures (see DESIGN.md
// §3 for the experiment index; -h lists the experiment ids).
//
// Usage:
//
//	twexp -exp table3                 # quick settings
//	twexp -exp table4 -full           # paper-faithful settings (slow)
//	twexp -exp fig3 -trials 3
//	twexp -exp all
//
// A failing task (one (circuit, trial) or (parameter, trial) of a table or
// sweep, one circuit of table4, refine or eqn22) is retried once with its
// original seed, then reported individually; the surviving tasks still
// aggregate, so one bad task costs one data point, not the whole
// experiment. Partial results exit with code 3. SIGINT/SIGTERM stops
// in-flight trials promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"repro/internal/exper"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/telcli"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(expIDs(), ",")+")")
		full     = flag.Bool("full", false, "paper-faithful settings (Ac=400, M=20; hours of CPU)")
		seed     = flag.Uint64("seed", 1988, "base seed")
		trials   = flag.Int("trials", 0, "trials per data point (0 = config default)")
		ac       = flag.Int("ac", 0, "inner-loop criterion override")
		m        = flag.Int("m", 0, "router alternatives override")
		circuits = flag.String("circuits", "", "comma-separated preset subset")
		workers  = flag.Int("workers", 0, "parallel trial workers (0 = all CPUs, 1 = serial; output is identical either way)")
		replicas = flag.Int("replicas", 1, "parallel-tempering replicas inside each table-experiment run (1 = classic anneal)")
		retries  = flag.Int("retries", 0, "per-task retry budget (0 = default 1, -1 = no retries)")
	)
	tf := telcli.Register(flag.CommandLine)
	flag.Parse()

	if err := validateFlags(*exp, *trials, *ac, *m, *workers, *replicas, *retries, *circuits); err != nil {
		fmt.Fprintln(os.Stderr, "twexp:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rt, rerr := tf.Start("twexp", false)
	if rerr != nil {
		fmt.Fprintln(os.Stderr, "twexp:", rerr)
		os.Exit(1)
	}
	// Closed explicitly: every exit below goes through os.Exit, which skips
	// deferred functions (and with them the trace flush).
	closeTelemetry := func() {
		if cerr := rt.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "twexp: telemetry:", cerr)
		}
	}

	cfg := exper.Quick()
	if *full {
		cfg = exper.Full()
	}
	cfg.Seed = *seed
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *ac > 0 {
		cfg.Ac = *ac
	}
	if *m > 0 {
		cfg.M = *m
	}
	if *circuits != "" {
		cfg.Circuits = strings.Split(*circuits, ",")
	}
	cfg.Workers = *workers
	cfg.Replicas = *replicas
	cfg.Retries = *retries
	cfg.Ctx = ctx
	cfg.Tel = rt.Tracer

	exit := 0
	for _, e := range exper.Experiments {
		if *exp != "all" && *exp != e.ID {
			continue
		}
		fmt.Printf("== %s ==\n", e.Title)
		err := e.Run(cfg, os.Stdout)
		fmt.Println()
		if err != nil {
			reportFailure(e.ID, err)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Cancelled: later experiments would fail the same way.
				closeTelemetry()
				os.Exit(exitPartial)
			}
			exit = exitPartial
		}
	}
	closeTelemetry()
	os.Exit(exit)
}

// exitPartial signals that some tasks failed or were cancelled but the
// printed tables aggregate the survivors.
const exitPartial = 3

// reportFailure prints the failure of one experiment, expanding per-task
// errors individually so a single bad (circuit, trial) is attributable.
func reportFailure(id string, err error) {
	var te *par.TaskError
	if errors.As(err, &te) {
		fmt.Fprintf(os.Stderr, "twexp: %s completed partially; failed tasks:\n", id)
		// errors.Join concatenates with newlines; indent for readability.
		for _, line := range strings.Split(err.Error(), "\n") {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "twexp: %s: %v\n", id, err)
}

// expIDs returns every experiment id in -exp all order, then "all".
func expIDs() []string {
	ids := []string{}
	for _, e := range exper.Experiments {
		ids = append(ids, e.ID)
	}
	return append(ids, "all")
}

// validateFlags rejects out-of-range flag values with a usage error.
func validateFlags(exp string, trials, ac, m, workers, replicas, retries int, circuits string) error {
	if !slices.Contains(expIDs(), exp) {
		return fmt.Errorf("-exp must be one of %s (got %q)", strings.Join(expIDs(), ","), exp)
	}
	switch {
	case trials < 0:
		return fmt.Errorf("-trials must be >= 0 (got %d; 0 selects the config default)", trials)
	case ac < 0:
		return fmt.Errorf("-ac must be >= 0 (got %d; 0 selects the config default)", ac)
	case m < 0:
		return fmt.Errorf("-m must be >= 0 (got %d; 0 selects the config default)", m)
	case workers < 0:
		return fmt.Errorf("-workers must be >= 0 (got %d; 0 selects all CPUs)", workers)
	case replicas < 1:
		return fmt.Errorf("-replicas must be >= 1 (got %d)", replicas)
	case retries < -1:
		return fmt.Errorf("-retries must be >= -1 (got %d)", retries)
	}
	if circuits != "" {
		valid := map[string]bool{}
		for _, n := range gen.PresetNames() {
			valid[n] = true
		}
		for _, n := range strings.Split(circuits, ",") {
			if !valid[n] {
				return fmt.Errorf("-circuits: unknown preset %q (known: %s)",
					n, strings.Join(gen.PresetNames(), ","))
			}
		}
	}
	return nil
}
