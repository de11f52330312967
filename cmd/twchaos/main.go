// Command twchaos is the chaos driver for the crash-safe placement job
// machinery: it runs N randomized, deterministically seeded fault schedules
// against the jobs manager and verifies the recovery contract on what each
// schedule leaves on disk — every job ends succeeded with a placement
// byte-identical to a clean run, failed/canceled with an explicit journaled
// reason, or loudly quarantined; never a hang, a corrupt result, or a
// runtime invariant violation (DESIGN.md §11).
//
// Five modes:
//
//	-mode inprocess   faults fire via internal/faultinject inside this
//	                  process; workers are interrupted by drain/restart
//	                  cycles (default)
//	-mode sigkill     each armed phase is a re-executed child process that
//	                  the parent kills with SIGKILL at a seeded random
//	                  moment — real crashes, no deferred cleanup
//	-mode node        a fleet of -nodes child processes shares one store,
//	                  claiming jobs under leases with fencing tokens, while
//	                  whole instances are SIGKILLed and restarted mid-claim
//	-mode storm       a seeded multi-tenant submission storm crosses the
//	                  full admission surface (quotas, queue-full, the
//	                  weighted overload band) while a 2–3 node fleet with
//	                  lease faults armed churns through the accepted work;
//	                  also asserts quotas never exceeded, typed rejections
//	                  with Retry-After, no tenant starved, and deadline
//	                  fail-fast (DESIGN.md §15)
//	-mode dupstorm    racing goroutines submit identical specs — raw
//	                  duplicates plus retried idempotency keys — through one
//	                  admission front end while an armed fleet executes the
//	                  deduplicated work under SIGKILLs; also asserts exactly
//	                  one execution per content digest, byte-identical
//	                  result fan-out through every alias, and durable
//	                  key→job mappings (DESIGN.md §16)
//
// Every mode ends each schedule with the same cold verifier: a store open
// that quarantines nothing more, a twobs analysis with no error finding
// (clean journals, no token regression, lease audit, journaled takeovers,
// no zombie writes), a dry-run twfsck scrub with no error defect, and every
// job terminal with a placement byte-identical to a clean reference run,
// an explicit failure reason, or a quarantined directory.
//
// A failing schedule is reproducible alone: twchaos -seed S -schedule N
// -schedules 1 reruns exactly that rule set and timing stream. Exit status
// is 0 when the contract held, 1 on any violation, 2 on usage or harness
// errors. Scratch stores are kept (and their path printed) on violation.
//
// The telemetry flags (-metrics, -trace, -pprof) apply; the metrics snapshot
// includes the faultinject.* trip counters and invariant.* violation
// counters.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/telcli"
)

func main() { os.Exit(run()) }

func run() int {
	// Child-protocol re-executions (sigkill mode) must short-circuit before
	// flag parsing: the child sees the parent's argv.
	if chaos.IsChild() {
		return chaos.ChildMain()
	}

	var (
		mode      = flag.String("mode", "inprocess", "fault delivery: inprocess, sigkill, node, storm, or dupstorm")
		schedules = flag.Int("schedules", 20, "number of randomized fault schedules to run")
		first     = flag.Int("schedule", 0, "index of the first schedule (rerun a failing schedule N with -schedule N -schedules 1)")
		seed      = flag.Uint64("seed", 1, "master seed; equal seeds reproduce equal runs")
		store     = flag.String("store", "", "scratch root for per-schedule job stores (default: temp dir, removed on success)")
		restarts  = flag.Int("restarts", 0, "max armed interrupt/restart cycles per schedule (0 = default 4)")
		nodes     = flag.Int("nodes", 0, "fleet size for -mode node (0 = default 3)")
		replicas  = flag.Int("replicas", 0, "parallel-tempering replicas in the job under test (0 = classic anneal)")
		verbose   = flag.Bool("v", false, "log every schedule, not just violations")
	)
	tf := telcli.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "twchaos: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	rt, err := tf.Start("twchaos", false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twchaos: %v\n", err)
		return 2
	}
	defer rt.Close()

	opts := chaos.Options{
		Schedules:     *schedules,
		FirstSchedule: *first,
		Seed:          *seed,
		Dir:           *store,
		MaxRestarts:   *restarts,
		Nodes:         *nodes,
		Replicas:      *replicas,
		Registry:      rt.EnsureRegistry(),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "twchaos: "+format+"\n", args...)
		},
		Verbose: *verbose,
	}

	var rep *chaos.Report
	switch *mode {
	case "inprocess":
		rep, err = chaos.Run(opts)
	case "sigkill":
		rep, err = chaos.RunSigkill(opts, "")
	case "node":
		rep, err = chaos.RunNode(opts, "")
	case "storm":
		rep, err = chaos.RunStorm(opts, "")
	case "dupstorm":
		rep, err = chaos.RunDupStorm(opts, "")
	default:
		fmt.Fprintf(os.Stderr, "twchaos: unknown -mode %q (want inprocess, sigkill, node, storm, or dupstorm)\n", *mode)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "twchaos: %v\n", err)
		return 2
	}

	fmt.Println("twchaos: " + rep.Summary())
	if !rep.OK() {
		for _, v := range rep.Violations {
			fmt.Printf("twchaos: schedule %d [%s]: %v\n", v.Schedule, v.RulesString(), v.Violation)
		}
		fmt.Println("twchaos: FAIL — recovery contract violated")
		return 1
	}
	fmt.Println("twchaos: OK — recovery contract held")
	return 0
}
