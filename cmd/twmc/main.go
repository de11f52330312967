// Command twmc places and globally routes a macro/custom-cell circuit with
// the TimberWolfMC flow: Stage 1 simulated-annealing placement with dynamic
// interconnect-area estimation, then three executions of channel definition,
// global routing, and placement refinement.
//
// Usage:
//
//	twmc [flags] netlist.twc     # or a .yal MCNC benchmark
//	twmc -preset i3            # place a built-in synthetic circuit
//
// Long runs are interruptible: with -checkpoint set, SIGINT/SIGTERM (or an
// elapsed -deadline) stops the anneal at the next stride boundary, writes a
// resumable snapshot, and reports the best placement so far. Rerunning with
// -resume continues the run and produces the layout the uninterrupted run
// would have — bit for bit.
//
// The input format is documented in internal/netlist (see also cmd/twgen,
// which writes it).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/invariant"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/telcli"
	"repro/internal/viz"
)

// exitInterrupted is the exit code for a run stopped by signal or deadline:
// distinct from 1 (hard failure) and 2 (usage) so wrappers can requeue.
const exitInterrupted = 3

// exitDRC is the exit code for a completed run whose result failed the
// design-rule checks (-drc): the layout exists but is not legal.
const exitDRC = 4

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "random seed (equal seeds reproduce runs)")
		ac       = flag.Int("ac", 0, "attempts per cell per temperature (0 = paper default 400)")
		r        = flag.Float64("r", 0, "displacement:interchange ratio (0 = default 10)")
		rho      = flag.Float64("rho", 0, "range-limiter shrink rate (0 = default 4)")
		eta      = flag.Float64("eta", 0, "overlap normalization target (0 = default 0.5)")
		m        = flag.Int("m", 0, "alternative routes per net (0 = default 20)")
		aspect   = flag.Float64("aspect", 1, "target core height/width ratio")
		iters    = flag.Int("refine", 0, "refinement executions (0 = default 3)")
		nstarts  = flag.Int("nstarts", 1, "independent Stage 1 anneals; best final cost wins")
		replicas = flag.Int("replicas", 1, "parallel-tempering replicas within the Stage 1 run (1 = classic anneal; results are worker-count independent)")
		workers  = flag.Int("workers", 0, "goroutines for -nstarts or -replicas > 1 and for global routing (0 = all CPUs; results are scheduling-independent)")
		preset   = flag.String("preset", "", "place a built-in synthetic circuit (i1,p1,x1,i2,i3,l1,d2,d1,d3)")
		genSeed  = flag.Uint64("preset-seed", 17, "seed for -preset circuit synthesis")
		stage1   = flag.Bool("stage1-only", false, "stop after Stage 1")
		verbose  = flag.Bool("v", false, "print per-iteration detail")
		svgPath  = flag.String("svg", "", "write an SVG rendering of the result to this file")
		outPath  = flag.String("out", "", "write the final placement to this file (reloadable)")
		report   = flag.Bool("report", false, "print a post-run quality report")
		runDRC   = flag.Bool("drc", false, "run design-rule checks on the result (exit 4 when errors are found)")
		load     = flag.String("load", "", "load a saved placement (-out file) and run Stage 2 only")
		ckPath   = flag.String("checkpoint", "", "write resumable Stage 1 checkpoints to this file (periodically and on interrupt)")
		ckEvery  = flag.Int("checkpoint-every", 0, "temperature steps between periodic checkpoints (0 = default 5)")
		resume   = flag.String("resume", "", "resume an interrupted run from this checkpoint file (continued checkpoints default to the same file)")
		deadline = flag.Duration("deadline", 0, "stop the run after this duration, checkpointing if -checkpoint is set (0 = none)")
		invar    = flag.Bool("invariants", false, "enable runtime invariant checks (cost-accumulator drift at every temperature step); observe-only, bit-identical results")
		metricsL = flag.String("metrics-listen", "", "serve GET /metrics (Prometheus text format) and /healthz on this address for the duration of the run")
	)
	tf := telcli.Register(flag.CommandLine)
	flag.Parse()
	if *invar {
		invariant.Enable(invariant.Options{Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "twmc: "+format+"\n", args...)
		}})
		defer invariant.Disable()
	}

	if err := validateFlags(*nstarts, *replicas, *workers, *ac, *m, *iters, *ckEvery,
		*r, *rho, *eta, *aspect, *deadline, *ckPath, *resume, *load); err != nil {
		fmt.Fprintln(os.Stderr, "twmc:", err)
		os.Exit(2)
	}
	// An interrupted -resume run should stay resumable without extra flags.
	if *resume != "" && *ckPath == "" {
		*ckPath = *resume
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	var c *netlist.Circuit
	var err error
	switch {
	case *preset != "":
		c, err = gen.Preset(*preset, *genSeed)
	case flag.NArg() == 1:
		f, ferr := os.Open(flag.Arg(0))
		if ferr != nil {
			fatal(ferr)
		}
		if strings.HasSuffix(flag.Arg(0), ".yal") {
			c, err = netlist.ParseYAL(f)
		} else {
			c, err = netlist.Parse(f)
		}
		f.Close()
	default:
		if *resume != "" {
			// The checkpoint stores the run state, not the circuit; the
			// same netlist or preset must accompany -resume.
			fmt.Fprintln(os.Stderr,
				"twmc: -resume needs the circuit the checkpoint came from (repeat the original netlist file or -preset)")
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "usage: twmc [flags] netlist.twc | twmc -preset NAME")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("circuit %s: %d cells, %d nets, %d pins\n",
		c.Name, len(c.Cells), len(c.Nets), c.NumPins())

	// -v routes per-iteration and per-cell detail through the telemetry
	// progress sink: one formatting path, on stderr, so piped stdout stays
	// machine-readable.
	rt, err := tf.Start("twmc", *verbose)
	if err != nil {
		fatal(err)
	}
	// Closed explicitly (not deferred): the interrupted path below leaves
	// via os.Exit, which would skip a deferred flush of the trace.
	closeTelemetry := func() {
		if cerr := rt.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "twmc: telemetry:", cerr)
		}
	}
	if *metricsL != "" {
		// Before tel is captured: ServeMetrics ensures a registry, which
		// rebuilds the tracer so producers feed it.
		bound, merr := rt.ServeMetrics(*metricsL, "")
		if merr != nil {
			closeTelemetry()
			fatal(merr)
		}
		fmt.Fprintf(os.Stderr, "twmc: metrics listening on http://%s/metrics\n", bound)
	}
	tel := rt.Tracer
	die := func(err error) {
		closeTelemetry()
		fatal(err)
	}

	opts := core.Options{
		Seed:            *seed,
		Ac:              *ac,
		R:               *r,
		Rho:             *rho,
		Eta:             *eta,
		M:               *m,
		CoreAspect:      *aspect,
		Iterations:      *iters,
		Starts:          *nstarts,
		Replicas:        *replicas,
		Workers:         *workers,
		SkipStage2:      *stage1,
		CheckpointPath:  *ckPath,
		CheckpointEvery: *ckEvery,
		Tel:             tel,
	}
	// The Stage 1 mode line comes from what runs: the flags for a fresh
	// start, the checkpoint itself when resuming.
	var from core.Start
	switch {
	case *resume != "":
		ck, cerr := place.LoadCheckpoint(*resume)
		if cerr != nil {
			die(cerr)
		}
		fmt.Printf("resuming from checkpoint %s: %s\n", *resume, ck)
		from.Checkpoint = ck
	case *load != "":
		f, ferr := os.Open(*load)
		if ferr != nil {
			die(ferr)
		}
		defer f.Close()
		from.Placement = f
	case *nstarts > 1:
		fmt.Printf("stage 1: best of %d independent anneals\n", *nstarts)
	case *replicas > 1:
		fmt.Printf("stage 1: parallel tempering with %d replicas\n", *replicas)
	}
	res, err := core.Run(ctx, c, from, opts)
	interrupted := err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if err != nil && !(interrupted && res != nil) {
		die(err)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "twmc: interrupted:", err)
	}

	fmt.Printf("stage 1: TEIL %.0f, chip area %d, residual overlap %d, %d temperature steps\n",
		res.Stage1TEIL, res.Stage1Area, res.Stage1.Overlap, res.Stage1.Steps)
	if res.Stage2 != nil {
		if *verbose {
			for i, it := range res.Stage2.Iterations {
				tel.Progressf("refine %d: %d regions, %d graph edges, route length %d (excess %d), TEIL %.0f, area %d",
					i+1, it.Regions, it.GraphEdges, it.RouteLength, it.Excess, it.TEIL, it.ChipArea)
			}
		}
		fmt.Printf("final: TEIL %.0f (%+.1f%% vs stage 1), chip %d x %d (area %+.1f%% vs stage 1)\n",
			res.TEIL, res.TEILChangePct(), res.Chip.W(), res.Chip.H(), res.AreaChangePct())
		if res.Stage2.Routing != nil {
			fmt.Printf("routing: total length %d, excess tracks %d\n",
				res.Stage2.Routing.Length, res.Stage2.Routing.Excess)
		}
	} else {
		fmt.Printf("final (stage 1 only): TEIL %.0f, chip %d x %d\n",
			res.TEIL, res.Chip.W(), res.Chip.H())
	}
	if *verbose {
		for i := range c.Cells {
			st := res.Placement.State(i)
			tel.Progressf("cell %-8s at (%d,%d) %s instance %d",
				c.Cells[i].Name, st.Pos.X, st.Pos.Y, st.Orient, st.Instance)
		}
	}

	drcFailed := false
	if *runDRC {
		dr := res.DRC()
		fmt.Printf("drc: %d errors, %d warnings\n", dr.Errors(), dr.Warnings())
		for _, v := range dr.Violations {
			fmt.Println(" ", v)
		}
		drcFailed = dr.Errors() > 0
	}

	if *report {
		fmt.Println()
		if err := res.WriteReport(os.Stdout); err != nil {
			die(err)
		}
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			die(err)
		}
		if err := place.WritePlacement(f, res.Placement); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fatal(err)
		}
		var g *channel.Graph
		var routing *route.Result
		if res.Stage2 != nil {
			g, routing = res.Stage2.Graph, res.Stage2.Routing
		}
		if err := viz.WriteSVG(f, res.Placement, g, routing); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}

	closeTelemetry()
	if interrupted {
		if *ckPath != "" {
			fmt.Fprintf(os.Stderr, "twmc: results above are the best so far; continue with -resume %s\n", *ckPath)
		} else {
			fmt.Fprintln(os.Stderr, "twmc: results above are the best so far; set -checkpoint to make interrupted runs resumable")
		}
		os.Exit(exitInterrupted)
	}
	if drcFailed {
		fmt.Fprintln(os.Stderr, "twmc: placement failed design-rule checks (see drc lines above)")
		os.Exit(exitDRC)
	}
}

// validateFlags rejects out-of-range or contradictory flag values up front
// with a usage error, instead of letting them surface as a panic or a silent
// misconfiguration deep in the run.
func validateFlags(nstarts, replicas, workers, ac, m, iters, ckEvery int,
	r, rho, eta, aspect float64, deadline time.Duration, ckPath, resume, load string) error {
	switch {
	case nstarts < 1:
		return fmt.Errorf("-nstarts must be >= 1 (got %d)", nstarts)
	case replicas < 1:
		return fmt.Errorf("-replicas must be >= 1 (got %d)", replicas)
	case nstarts > 1 && replicas > 1:
		return fmt.Errorf("-nstarts and -replicas are mutually exclusive (got %d and %d): pick independent restarts or one tempered run", nstarts, replicas)
	case workers < 0:
		return fmt.Errorf("-workers must be >= 0 (got %d; 0 selects all CPUs)", workers)
	case ac < 0:
		return fmt.Errorf("-ac must be >= 0 (got %d; 0 selects the default)", ac)
	case m < 0:
		return fmt.Errorf("-m must be >= 0 (got %d; 0 selects the default)", m)
	case iters < 0:
		return fmt.Errorf("-refine must be >= 0 (got %d; 0 selects the default)", iters)
	case ckEvery < 0:
		return fmt.Errorf("-checkpoint-every must be >= 0 (got %d; 0 selects the default)", ckEvery)
	case r < 0 || rho < 0 || eta < 0:
		return fmt.Errorf("-r, -rho, and -eta must be >= 0 (0 selects the default)")
	case aspect <= 0:
		return fmt.Errorf("-aspect must be > 0 (got %g)", aspect)
	case deadline < 0:
		return fmt.Errorf("-deadline must be >= 0 (got %v)", deadline)
	case nstarts > 1 && (ckPath != "" || resume != ""):
		return fmt.Errorf("-checkpoint/-resume require a single start (got -nstarts %d): checkpointing snapshots one annealing trajectory", nstarts)
	case resume != "" && load != "":
		return fmt.Errorf("-resume (annealing checkpoint) and -load (saved placement) are mutually exclusive")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "twmc:", err)
	os.Exit(1)
}
