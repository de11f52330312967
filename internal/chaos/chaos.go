// Package chaos is the randomized fault-schedule harness behind cmd/twchaos
// and the chaos property test: it drives the crash-safe job machinery
// (internal/jobs over internal/fsio, internal/par, internal/place) through
// seeded sequences of injected faults and restarts, then verifies the core
// recovery contract on what is left on disk.
//
// The contract (DESIGN.md §11): every schedule must terminate — no hangs —
// and every job it touched must end in exactly one of
//
//   - succeeded, with a placement byte-identical to an uninterrupted clean
//     run of the same spec (resume and restart-from-scratch are both
//     deterministic, so injected crashes must not change a single byte);
//   - failed or canceled, with an explicit journaled reason;
//   - quarantined, set aside loudly during a store open.
//
// Never a corrupt result, a silently lost job, a journal that breaks the
// state machine, or a runtime invariant violation.
//
// The five modes (Run, RunSigkill, RunNode, RunStorm, RunDupStorm) share
// one driver and differ only in their workload and their own assertions.
// Every mode ends with the same cold verifier (verifyCold): one store
// open that must quarantine nothing more, zero error findings from
// obs.Analyze (twobs), zero error defects from a dry-run scrub.Scan
// (twfsck), and the per-job outcome checks only chaos can make against
// its clean reference runs.
//
// A schedule is reproducible from (master seed, schedule index): the rule
// set, interrupt timings, and cancel decisions all derive from one
// rng.Source, and the fault plane itself is seeded, so a failing schedule
// can be rerun alone with -schedule N -seed S.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/jobs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Options shapes a chaos run.
type Options struct {
	// Schedules is the number of randomized fault schedules (default 20).
	Schedules int
	// FirstSchedule is the index of the first schedule to run (default 0).
	// A schedule is a pure function of (Seed, index), so a failing schedule
	// N reruns alone with FirstSchedule=N, Schedules=1.
	FirstSchedule int
	// Seed is the master seed; schedule i derives everything from
	// (Seed, i), so equal seeds reproduce equal runs (default 1).
	Seed uint64
	// Spec is the placement job under test; the zero Spec selects a
	// truncated i1 anneal that completes in tens of milliseconds.
	Spec jobs.Spec
	// Replicas overrides Spec.Replicas when > 0, turning the job under test
	// into a parallel-tempering run (exercises the ladder-wide checkpoint
	// format through the same fault schedules).
	Replicas int
	// Dir is the scratch root for per-schedule stores; empty means a fresh
	// temporary directory (removed on success, kept on violation).
	Dir string
	// MaxRestarts bounds the armed open→run→interrupt→drain cycles per
	// schedule before the heal pass (default 4). In node mode it is the
	// number of SIGKILL events delivered to the fleet per schedule.
	MaxRestarts int
	// Nodes is the fleet size for node-level chaos (RunNode; default 3).
	Nodes int
	// ScheduleDeadline is the per-schedule watchdog; a schedule that does
	// not finish in time is reported as a hang (default 2 minutes).
	ScheduleDeadline time.Duration
	// CancelProb is the probability a schedule issues a job cancel
	// (default 0.15).
	CancelProb float64
	// Registry, when non-nil, accumulates faultinject.* and invariant.*
	// counters across schedules.
	Registry *telemetry.Registry
	// Logf receives progress lines (nil = silent).
	Logf func(string, ...any)
	// Verbose adds per-schedule detail to Logf.
	Verbose bool
}

func (o *Options) fill() {
	if o.Schedules <= 0 {
		o.Schedules = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FirstSchedule < 0 {
		o.FirstSchedule = 0
	}
	if o.Spec == (jobs.Spec{}) {
		o.Spec = jobs.Spec{
			Preset: "i1", Seed: 1, Ac: 8, MaxSteps: 8,
			SkipStage2: true, SkipDRC: true, Retries: 3,
		}
	}
	if o.Replicas > 0 {
		o.Spec.Replicas = o.Replicas
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 4
	}
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.ScheduleDeadline <= 0 {
		o.ScheduleDeadline = 2 * time.Minute
	}
	if o.CancelProb == 0 {
		o.CancelProb = 0.15
	}
	if o.CancelProb < 0 {
		o.CancelProb = 0
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Outcome records one schedule's result.
type Outcome struct {
	Schedule int
	Rules    []faultinject.Rule
	Restarts int
	Trips    int64
	// States maps every surviving job to its final state.
	States map[string]jobs.State
	// Quarantined counts the files and dirs the schedule's store holds
	// set aside under ".quarantined.N" names after the heal pass, read from
	// disk because subprocess children quarantine in their own processes.
	Quarantined int
	// Canceled reports whether the schedule issued a cancel.
	Canceled bool
	// Violation is non-nil when the schedule broke the recovery contract.
	Violation error
}

// RulesString renders the schedule's rules in ParseRules syntax.
func (o *Outcome) RulesString() string {
	var parts []string
	for _, r := range o.Rules {
		s := string(r.Point)
		var kv []string
		if r.After > 0 {
			kv = append(kv, fmt.Sprintf("after=%d", r.After))
		}
		if r.Prob > 0 && r.Prob < 1 {
			kv = append(kv, fmt.Sprintf("prob=%.2f", r.Prob))
		}
		if r.Times > 1 {
			kv = append(kv, fmt.Sprintf("times=%d", r.Times))
		}
		if r.Frac > 0 {
			kv = append(kv, fmt.Sprintf("frac=%.2f", r.Frac))
		}
		if r.Delay > 0 {
			kv = append(kv, fmt.Sprintf("delay=%v", r.Delay))
		}
		if r.Panic {
			kv = append(kv, "panic")
		}
		switch {
		case r.Err == nil:
		case errors.Is(r.Err, syscall.ENOSPC):
			kv = append(kv, "err=enospc")
		case errors.Is(r.Err, syscall.EROFS):
			kv = append(kv, "err=erofs")
		case errors.Is(r.Err, syscall.EIO):
			kv = append(kv, "err=eio")
		default:
			kv = append(kv, "err=fail")
		}
		if len(kv) > 0 {
			s += ":" + strings.Join(kv, ",")
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// Report aggregates a whole run.
type Report struct {
	Schedules   int
	Succeeded   int // jobs that ended succeeded (byte-identical, by construction)
	Failed      int // jobs that ended failed with an explicit reason
	Canceled    int // jobs that ended canceled
	Deduped     int // jobs that ended as dedup aliases of an executor
	Quarantined int // files/dirs quarantined across all schedules
	Restarts    int
	Trips       int64
	// InvariantViolations is the process-wide invariant counter delta over
	// the run; the contract requires zero.
	InvariantViolations int64
	// Violations holds every schedule that broke the contract.
	Violations []Outcome
}

// OK reports whether the run upheld the recovery contract.
func (r *Report) OK() bool {
	return len(r.Violations) == 0 && r.InvariantViolations == 0
}

// Summary renders a one-paragraph result.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"%d schedules: %d succeeded / %d failed / %d canceled / %d deduped jobs, %d quarantined, %d restarts, %d fault trips, %d invariant violations, %d contract violations",
		r.Schedules, r.Succeeded, r.Failed, r.Canceled, r.Deduped, r.Quarantined,
		r.Restarts, r.Trips, r.InvariantViolations, len(r.Violations))
}

// absorb folds one schedule's outcome into the report, logging violations
// (always) and clean schedules (when verbose).
func (r *Report) absorb(out Outcome, logf func(string, ...any), verbose bool) {
	r.Restarts += out.Restarts
	r.Trips += out.Trips
	r.Quarantined += out.Quarantined
	for _, st := range out.States {
		switch st {
		case jobs.StateSucceeded:
			r.Succeeded++
		case jobs.StateFailed:
			r.Failed++
		case jobs.StateCanceled:
			r.Canceled++
		case jobs.StateDedup:
			r.Deduped++
		}
	}
	if out.Violation != nil {
		r.Violations = append(r.Violations, out)
		logf("chaos: schedule %d VIOLATION [%s]: %v", out.Schedule, out.RulesString(), out.Violation)
	} else if verbose {
		logf("chaos: schedule %d ok [%s]: %d restarts, %d trips, states %v",
			out.Schedule, out.RulesString(), out.Restarts, out.Trips, out.States)
	}
}

// fastBackoff keeps injected-failure retries snappy while staying a real
// exponential schedule.
var fastBackoff = par.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}

// refsFunc runs a mode's clean reference jobs under the run's scratch dir
// and returns their placement bytes keyed by content digest.
type refsFunc func(opts *Options, dir string) (map[string][]byte, error)

// scheduleFunc runs one schedule of a mode end to end — workload, heal and
// cold verification — in dir.
type scheduleFunc func(opts *Options, idx int, dir, exe string, refs map[string][]byte) Outcome

// run is the one driver behind every mode: fill and validate the options,
// resolve the child executable, make the scratch root, run the clean
// reference jobs, then every schedule in turn with invariants enabled, and
// keep the scratch stores only when something broke. err is non-nil only
// for harness-level failures (unusable scratch dir, reference run
// failure), never for contract violations — those are in the report.
func run(opts Options, exe, prefix string, refs refsFunc, schedule scheduleFunc) (*Report, error) {
	opts.fill()
	if err := opts.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: spec: %w", err)
	}
	if exe == "" {
		var err error
		if exe, err = os.Executable(); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "twchaos-*"); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
	}
	if faultinject.Armed() {
		return nil, errors.New("chaos: a fault plane is already armed")
	}

	// Invariants stay on for the whole run (reference included): the
	// checks are observe-only, so they cannot perturb byte-identity, and
	// any violation the schedules provoke must be counted. Subprocess
	// children enable their own checker and report trips by exit code.
	invariant.Enable(invariant.Options{Logf: opts.Logf, Registry: opts.Registry})
	defer invariant.Disable()
	invBase := invariant.Count()

	ref, err := refs(&opts, dir)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}

	rep := &Report{Schedules: opts.Schedules}
	for i := opts.FirstSchedule; i < opts.FirstSchedule+opts.Schedules; i++ {
		out := schedule(&opts, i, filepath.Join(dir, fmt.Sprintf("%s%03d", prefix, i)), exe, ref)
		rep.absorb(out, opts.Logf, opts.Verbose)
	}
	rep.InvariantViolations = invariant.Count() - invBase

	if rep.OK() && opts.Dir == "" {
		os.RemoveAll(dir)
	} else if !rep.OK() {
		opts.Logf("chaos: scratch stores kept at %s", dir)
	}
	return rep, nil
}

// Run executes a full chaos run in-process: a clean reference run of the
// spec, then Options.Schedules randomized fault schedules, each verified
// against the contract.
func Run(opts Options) (*Report, error) {
	return run(opts, "", "s", specRef, runSchedule)
}

// specRef runs the options' spec once, cleanly: the one reference every
// mode but dupstorm compares against.
func specRef(opts *Options, dir string) (map[string][]byte, error) {
	ref, err := referenceRun(opts, filepath.Join(dir, "reference"))
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return map[string][]byte{opts.Spec.ContentDigest(): ref}, nil
}

// referenceRun executes the spec once, cleanly, and returns the final
// placement bytes every successful chaos job must match.
func referenceRun(opts *Options, dir string) ([]byte, error) {
	st, err := jobs.Open(dir, opts.Logf)
	if err != nil {
		return nil, err
	}
	m := jobs.NewManager(st, jobs.Config{
		Workers: 1, Backoff: fastBackoff, CheckpointEvery: 1, Logf: opts.Logf,
	})
	m.Start()
	defer drainQuiet(m)
	j, err := m.Submit(opts.Spec)
	if err != nil {
		return nil, err
	}
	rec, err := waitTerminal(j, opts.ScheduleDeadline)
	if err != nil {
		return nil, err
	}
	if rec.State != jobs.StateSucceeded {
		return nil, fmt.Errorf("reference ended %q (%s)", rec.State, rec.Detail)
	}
	return os.ReadFile(j.PlacementPath())
}

// runSchedule executes one fault schedule under a watchdog; a schedule that
// outlives the deadline is itself a contract violation (hang).
func runSchedule(opts *Options, idx int, dir, _ string, refs map[string][]byte) Outcome {
	done := make(chan Outcome, 1)
	go func() { done <- runScheduleBody(opts, idx, dir, refs) }()
	select {
	case out := <-done:
		return out
	case <-time.After(opts.ScheduleDeadline):
		faultinject.Disarm() // free the plane for the next schedule
		return Outcome{
			Schedule:  idx,
			Violation: fmt.Errorf("hang: schedule did not terminate within %v", opts.ScheduleDeadline),
		}
	}
}

func runScheduleBody(opts *Options, idx int, dir string, refs map[string][]byte) Outcome {
	src := scheduleSource(opts.Seed, idx)
	out := Outcome{
		Schedule: idx,
		Rules:    genRules(src),
		Canceled: src.Bool(opts.CancelProb),
	}
	cancelAfter := time.Duration(src.IntRange(1, 30)) * time.Millisecond

	pl := faultinject.NewPlane(opts.Seed^uint64(idx)<<20, out.Rules...)
	if opts.Registry != nil {
		pl.SetRegistry(opts.Registry)
	}
	if err := pl.Arm(); err != nil {
		out.Violation = err
		return out
	}
	defer faultinject.Disarm() // idempotent; normally disarmed before heal

	var jobID string
	submitted := false
	canceledIssued := false

	// Armed phase: open → (submit) → run a little → interrupt → restart,
	// with faults firing at seeded moments throughout.
	for r := 0; r <= opts.MaxRestarts; r++ {
		if r > 0 {
			out.Restarts++
		}
		st, err := jobs.Open(dir, opts.Logf)
		if err != nil {
			out.Violation = fmt.Errorf("open store: %w", err)
			return out
		}
		m := jobs.NewManager(st, jobs.Config{
			Workers: 1, Backoff: fastBackoff, CheckpointEvery: 1, Logf: opts.Logf,
		})
		m.Start()
		if !submitted {
			if j, err := m.Submit(opts.Spec); err == nil {
				submitted, jobID = true, j.ID
			}
			// An injected submit failure is a clean rejection; the next
			// cycle (or the heal pass) retries it.
		}
		if out.Canceled && submitted && !canceledIssued && src.Bool(0.5) {
			time.Sleep(cancelAfter)
			if _, err := m.Cancel(jobID); err == nil {
				canceledIssued = true
			}
		}
		interruptAfter := time.Duration(src.IntRange(5, 40)) * time.Millisecond
		deadline := time.Now().Add(interruptAfter)
		for time.Now().Before(deadline) && !allTerminal(st) {
			time.Sleep(time.Millisecond)
		}
		terminal := allTerminal(st) && submitted
		if err := drainDeadline(m, 30*time.Second); err != nil {
			out.Violation = fmt.Errorf("hang: drain on restart %d: %w", r, err)
			return out
		}
		if terminal {
			break
		}
	}
	out.Trips = pl.TotalTrips()
	faultinject.Disarm()

	// Heal pass: no faults, reopen, recover, and run everything out. This
	// is where "clean retry" must actually converge.
	st, err := jobs.Open(dir, opts.Logf)
	if err != nil {
		out.Violation = fmt.Errorf("heal open: %w", err)
		return out
	}
	m := jobs.NewManager(st, jobs.Config{
		Workers: 1, Backoff: fastBackoff, CheckpointEvery: 1, Logf: opts.Logf,
	})
	m.Start()
	if !submitted {
		j, err := m.Submit(opts.Spec)
		if err != nil {
			drainQuiet(m)
			out.Violation = fmt.Errorf("heal submit: %w", err)
			return out
		}
		jobID = j.ID
	}
	for _, j := range st.List() {
		if _, err := waitTerminal(j, opts.ScheduleDeadline); err != nil {
			drainQuiet(m)
			out.Violation = fmt.Errorf("hang: %s: %w", j.ID, err)
			return out
		}
	}
	if err := drainDeadline(m, 30*time.Second); err != nil {
		out.Violation = fmt.Errorf("hang: heal drain: %w", err)
		return out
	}

	_, out.Violation = verifyCold(opts, dir, []string{jobID}, canceledIssued, refs, &out)
	return out
}

// scheduleSource derives schedule idx's private rng stream from the master
// seed; everything random about a schedule flows from it.
func scheduleSource(seed uint64, idx int) *rng.Source {
	return rng.New(seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15)
}

// ScheduleRules returns the fault rules of schedule idx under the master
// seed — the same derivation the in-process runner uses, exported so a
// subprocess child (or a human rerunning one schedule) can reconstruct them
// without shipping rules across a process boundary.
func ScheduleRules(seed uint64, idx int) []faultinject.Rule {
	return genRules(scheduleSource(seed, idx))
}

// genRules draws 1–4 seeded rules from the injection-point pool. Every rule
// is budget-bounded (Times ≤ 3, never Unlimited): a finite trip budget is
// what guarantees the heal pass converges.
func genRules(src *rng.Source) []faultinject.Rule {
	n := src.IntRange(1, 4)
	rules := make([]faultinject.Rule, 0, n)
	for i := 0; i < n; i++ {
		rules = append(rules, genRule(src))
	}
	return rules
}

func genRule(src *rng.Source) faultinject.Rule {
	r := faultinject.Rule{
		After: src.Intn(6),
		Times: src.IntRange(1, 3),
	}
	if src.Bool(0.2) {
		r.Prob = 0.3 + 0.6*src.Float64()
	}
	switch src.Intn(12) {
	case 0:
		r.Point = faultinject.FsioWrite
		if src.Bool(0.5) {
			// Half the write faults are ENOSPC, exercising the disk-full
			// latch and the submit-refusal/probe-heal path.
			r.Err = syscall.ENOSPC
		}
	case 1:
		r.Point = faultinject.FsioSync
	case 2:
		r.Point = faultinject.FsioRename
	case 3:
		r.Point = faultinject.FsioSyncDir
	case 4:
		r.Point = faultinject.FsioWriteTorn
		r.Frac = 0.1 + 0.8*src.Float64()
	case 5:
		r.Point = faultinject.JobsJournalBefore
	case 6:
		r.Point = faultinject.JobsJournalAfter
	case 7:
		r.Point = faultinject.JobsCheckpointCorrupt
	case 8:
		r.Point = faultinject.ParAttempt
		switch src.Intn(3) {
		case 0:
			r.Panic = true
		case 1:
			r.Delay = time.Duration(src.IntRange(1, 20)) * time.Millisecond
		}
	case 9:
		r.Point = faultinject.ParTask
		r.Delay = time.Duration(src.IntRange(1, 20)) * time.Millisecond
	case 10:
		r.Point = faultinject.PlaceCheckpointSave
	case 11:
		r.Point = faultinject.PlaceCheckpointLoad
	}
	return r
}

// allTerminal reports whether every job in the store has reached a terminal
// state (vacuously false while the store is empty: nothing has run yet).
func allTerminal(st *jobs.Store) bool {
	list := st.List()
	if len(list) == 0 {
		return false
	}
	for _, j := range list {
		if !j.Last().State.Terminal() {
			return false
		}
	}
	return true
}

// waitTerminal polls j until it reaches a terminal state or d elapses.
func waitTerminal(j *jobs.Job, d time.Duration) (jobs.Record, error) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if rec := j.Last(); rec.State.Terminal() {
			return rec, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return jobs.Record{}, fmt.Errorf("job %s stuck in %q after %v", j.ID, j.Last().State, d)
}

func drainQuiet(m *jobs.Manager) { _ = drainDeadline(m, 30*time.Second) }

func drainDeadline(m *jobs.Manager, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return m.Drain(ctx)
}
