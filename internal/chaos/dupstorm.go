package chaos

// Duplicate-submission storms (DESIGN.md §16). Dupstorm mode is the chaos
// proof behind exactly-once submission: many concurrent submitters push the
// SAME few specs — raw duplicates racing in parallel goroutines, plus
// idempotency-keyed submissions that are immediately retried — through one
// admission front end while an armed worker fleet executes whatever wins a
// digest generation and gets SIGKILLed mid-run. The parent is the sole
// submitter, so the whole dedupe contract is checkable cold:
//
//   - exactly-once execution per content digest: every duplicate resolves to
//     a dedup alias of one executor; a second executor may exist only when a
//     journaled predecessor generation terminally failed, and at most one
//     executor per digest ever succeeds;
//   - byte-identical fan-out: every alias resolves (one hop) to an executor
//     of the same digest, and every successful result served through an
//     alias is byte-identical to a clean single-node reference run;
//   - idempotency keys are durable: the retried key returns the original
//     job ID at submit time, and the on-disk key index still maps every key
//     to that job after the SIGKILL churn;
//   - the store itself stays scrubbable and analyzable: like every mode,
//     the schedule ends with verifyCold, whose twfsck (internal/scrub) and
//     twobs (internal/obs) passes must report zero error-severity defects
//     and findings — SIGKILL may leave self-healing crash debris (torn
//     O_EXCL claim/index files), never divergence or rot.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/jobs"
)

// dupStormAttempts is the refusal-retry budget per duplicate submitter.
// Unlike the tenant storm — where dropping a refused submission is the
// point — a dupstorm submission that never lands would leave a planned
// duplicate unverified, so exhausting the budget is a violation.
const dupStormAttempts = 6

// dupSubmitter is one planned submission: every seeded decision is drawn
// before the goroutine starts, so the schedule's rng source is only ever
// touched from the schedule runner.
type dupSubmitter struct {
	spec  jobs.Spec
	key   string // idempotency key; "" submits keyless
	delay time.Duration
}

// dupResult is what one submitter goroutine reports back.
type dupResult struct {
	job    string
	digest string
	key    string
	err    error
}

// RunDupStorm executes a duplicate-submission storm run: for each schedule,
// 1–3 distinct specs are submitted by 3–6 racing submitters each (a seeded
// half of them idempotency-keyed and immediately retried) while an armed
// 2–3 node fleet churns through the deduplicated executions under seeded
// SIGKILLs. After a faultless heal pass, verifyCold checks the store and
// the exactly-once/fan-out assertions above run on it. exe follows the
// RunSigkill child-protocol contract (empty = current executable routing
// IsChild() to ChildMain).
func RunDupStorm(opts Options, exe string) (*Report, error) {
	return run(opts, exe, "d", dupRefs, runDupStormSchedule)
}

// dupVariants returns the storm's spec variants: they differ only in their
// anneal seed, which is enough for distinct content digests and distinct
// (deterministic) placements.
func dupVariants(spec jobs.Spec) []jobs.Spec {
	variants := make([]jobs.Spec, 3)
	for i := range variants {
		variants[i] = spec
		variants[i].Seed = spec.Seed + uint64(i)
	}
	return variants
}

// dupRefs runs one clean reference per spec variant.
func dupRefs(opts *Options, dir string) (map[string][]byte, error) {
	refs := map[string][]byte{}
	for i, v := range dupVariants(opts.Spec) {
		o := *opts
		o.Spec = v
		ref, err := referenceRun(&o, filepath.Join(dir, fmt.Sprintf("reference%d", i)))
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		refs[v.ContentDigest()] = ref
	}
	return refs, nil
}

// runDupStormSchedule runs one duplicate-storm schedule end to end.
func runDupStormSchedule(opts *Options, idx int, dir, exe string, refs map[string][]byte) Outcome {
	src := scheduleSource(opts.Seed, idx)
	out := Outcome{Schedule: idx, Rules: NodeScheduleRules(opts.Seed, idx, 0)}

	st, err := jobs.Open(dir, opts.Logf)
	if err != nil {
		out.Violation = fmt.Errorf("open store: %w", err)
		return out
	}
	// The parent's manager is the admission front end only (never started):
	// idempotency replay, digest claim/publish, alias fan-out. The armed
	// fleet children execute whatever wins a generation.
	sub := jobs.NewManager(st, jobs.Config{
		NodeID: "sub", Workers: 1, QueueDepth: stormQueueDepth,
		Backoff: fastBackoff, Logf: opts.Logf,
	})

	// Seeded plan, drawn entirely up front: rng sources are not safe for
	// concurrent use, and the racing goroutines are the point of this mode.
	tenants := []string{"", "acme", "beta"}
	variants := dupVariants(opts.Spec)
	var plan []dupSubmitter
	nspecs := src.IntRange(1, 3)
	for i := 0; i < nspecs; i++ {
		for k, n := 0, src.IntRange(3, 6); k < n; k++ {
			s := dupSubmitter{
				spec:  variants[i],
				delay: time.Duration(src.IntRange(0, 80)) * time.Millisecond,
			}
			// Tenants are drawn independently of the spec: the digest
			// excludes the tenant, so duplicates from different tenants must
			// still collapse into one execution.
			s.spec.Tenant = tenants[src.Intn(len(tenants))]
			if src.Bool(0.5) {
				s.key = fmt.Sprintf("dup-%d-%d-%d", idx, i, k)
			}
			plan = append(plan, s)
		}
	}
	backoffSeed := opts.Seed ^ uint64(idx)<<32

	f, err := newFleet(opts, exe, src.IntRange(2, 3), childEnv(opts, idx, dir))
	if err != nil {
		out.Violation = err
		return out
	}

	// The storm: every planned submitter races in its own goroutine against
	// the others and against the SIGKILLs landing on the fleet. A keyed
	// submitter retries its key immediately after the accept — the classic
	// client-timed-out-and-retried pattern — and must get the original job
	// back without a new admission.
	results := make([]dupResult, len(plan))
	var wg sync.WaitGroup
	for n, s := range plan {
		wg.Add(1)
		go func(n int, s dupSubmitter) {
			defer wg.Done()
			time.Sleep(s.delay)
			results[n] = submitDup(sub, s, n, backoffSeed)
		}(n, s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.After(scheduleDeadline)

	kills := 0
	for submitting := true; submitting; {
		select {
		case <-done:
			submitting = false
		case <-time.After(time.Duration(src.IntRange(10, 50)) * time.Millisecond):
			if out.Violation = f.reap(true); out.Violation != nil {
				return out
			}
			if kills < opts.MaxRestarts && src.Bool(0.3) {
				if out.Violation = f.kill(src.Intn(len(f.procs))); out.Violation != nil {
					return out
				}
				kills++
				out.Restarts++
			}
		case <-deadline:
			out.Violation = fmt.Errorf("hang: submitters outlived %v", scheduleDeadline)
			f.stop()
			return out
		}
	}
	f.stop()
	for _, r := range results {
		if r.err != nil {
			out.Violation = r.err
			return out
		}
	}
	if opts.Verbose {
		opts.Logf("chaos: dupstorm schedule %d: %d submitters across %d spec(s)",
			idx, len(plan), nspecs)
	}

	// Heal: a faultless fleet must run every winning execution to a
	// terminal state within the deadline (aliases are born terminal). Then
	// the one cold verifier, and the exactly-once/fan-out assertions on the
	// store it opened.
	if out.Violation = f.heal(); out.Violation != nil {
		return out
	}
	ids := make([]string, len(results))
	for k, r := range results {
		ids[k] = r.job
	}
	st, out.Violation = verifyCold(opts, dir, ids, false, refs, &out)
	if out.Violation == nil {
		out.Violation = verifyDupStorm(st, results, refs)
	}
	return out
}

// submitDup pushes one planned duplicate submission through admission,
// retrying typed refusals with the hint-derived backoff, and — when keyed —
// immediately replays the key and requires the original job ID back.
func submitDup(sub *jobs.Manager, s dupSubmitter, n int, seed uint64) dupResult {
	var j *jobs.Job
	for attempt := 1; ; attempt++ {
		var created bool
		var err error
		j, created, err = sub.SubmitIdem(s.spec, s.key)
		if err == nil {
			if s.key != "" && !created {
				// The key is unique to this submitter; nobody can have
				// published it before the first accept.
				return dupResult{err: fmt.Errorf("submitter %d: fresh key %q replayed on first accept", n, s.key)}
			}
			break
		}
		kind, hint, vio := classifyRefusal(err, s.spec.Tenant)
		if vio != nil {
			return dupResult{err: fmt.Errorf("submitter %d: %w", n, vio)}
		}
		if attempt >= dupStormAttempts {
			// Duplicates bypass the queue, so nothing here should exhaust a
			// polite retry budget; a dropped duplicate would go unverified.
			return dupResult{err: fmt.Errorf("submitter %d: still refused (%s) after %d attempts: %v", n, kind, attempt, err)}
		}
		time.Sleep(hintBackoff(hint, seed).Delay(n, attempt))
	}
	if s.key != "" {
		rj, created, err := sub.SubmitIdem(s.spec, s.key)
		if err != nil {
			return dupResult{err: fmt.Errorf("submitter %d: key retry refused: %w", n, err)}
		}
		if created || rj.ID != j.ID {
			return dupResult{err: fmt.Errorf("submitter %d: key retry returned %s (created=%v), original was %s",
				n, rj.ID, created, j.ID)}
		}
	}
	return dupResult{job: j.ID, digest: s.spec.ContentDigest(), key: s.key}
}

// verifyDupStorm checks the exactly-once and fan-out contract on the cold
// store. Submitted jobs missing from it were already judged by verifyCold
// (quarantined, not lost).
func verifyDupStorm(st *jobs.Store, subs []dupResult, refs map[string][]byte) error {
	byID := map[string]*jobs.Job{}
	for _, j := range st.List() {
		byID[j.ID] = j
	}

	// Every submission maps to a surviving job of the submitted content,
	// and every key still resolves to its job in the durable index.
	for _, s := range subs {
		j, ok := byID[s.job]
		if !ok {
			continue
		}
		if got := j.Spec.ContentDigest(); got != s.digest {
			return fmt.Errorf("%s: persisted content digest %s, submitted %s", s.job, got, s.digest)
		}
		if s.key != "" {
			e, ok, err := st.LookupIdem(j.Spec.Tenant, s.key)
			if err != nil {
				return fmt.Errorf("%s: key %q: %w", s.job, s.key, err)
			}
			if !ok {
				return fmt.Errorf("%s: key %q missing from the durable index after churn", s.job, s.key)
			}
			if e.Job != s.job || e.Digest != s.digest {
				return fmt.Errorf("key %q indexes job %s digest %s, submitted job %s digest %s",
					s.key, e.Job, e.Digest, s.job, s.digest)
			}
		}
	}

	// Exactly-once per digest: group the store's jobs into executors and
	// aliases. At most one executor per digest ever succeeds, and every
	// executor beyond the first must be a journaled digest-index generation
	// superseding a terminally failed predecessor — never a silent
	// duplicate execution.
	executors := map[string][]*jobs.Job{}
	var aliases []*jobs.Job
	for _, j := range byID {
		if _, isAlias := j.DedupSource(); isAlias {
			aliases = append(aliases, j)
		} else {
			executors[j.Spec.ContentDigest()] = append(executors[j.Spec.ContentDigest()], j)
		}
	}
	submittedDigests := map[string]bool{}
	for _, s := range subs {
		submittedDigests[s.digest] = true
	}
	for digest := range submittedDigests {
		execs := executors[digest]
		if len(execs) == 0 {
			return fmt.Errorf("digest %s: submissions but no executor in the store", digest)
		}
		succeeded := 0
		for _, e := range execs {
			if e.Last().State == jobs.StateSucceeded {
				succeeded++
			}
		}
		if succeeded > 1 {
			return fmt.Errorf("digest %s: executed to success %d times; exactly-once violated", digest, succeeded)
		}
		if len(execs) > 1 {
			entries := st.DigestEntries(digest)
			published := map[string]int{} // executor job → generation
			maxGen := 0
			for _, e := range entries {
				if e.Job != "" {
					published[e.Job] = e.Gen
					if e.Gen > maxGen {
						maxGen = e.Gen
					}
				}
			}
			for _, e := range execs {
				gen, ok := published[e.ID]
				if !ok {
					return fmt.Errorf("digest %s: %d executors but %s holds no index generation — un-indexed duplicate execution",
						digest, len(execs), e.ID)
				}
				if gen < maxGen && e.Last().State != jobs.StateFailed {
					return fmt.Errorf("digest %s: superseded generation %d executor %s ended %q, want failed",
						digest, gen, e.ID, e.Last().State)
				}
			}
		}
	}

	// Byte-identical fan-out: fetch every alias's result the way a client
	// would (one hop through the source link) and compare the served bytes
	// against the clean reference for that content.
	for _, a := range aliases {
		src, err := st.ResolveResult(a)
		if err != nil {
			return fmt.Errorf("%s: fan-out fetch failed: %w", a.ID, err)
		}
		if src.Last().State != jobs.StateSucceeded {
			continue // sharing a failed execution's outcome is honest fan-out
		}
		got, err := os.ReadFile(src.PlacementPath())
		if err != nil {
			return fmt.Errorf("%s: fan-out placement unreadable via %s: %w", a.ID, src.ID, err)
		}
		ref, ok := refs[a.Spec.ContentDigest()]
		if !ok {
			return fmt.Errorf("%s: alias digest %s has no reference run", a.ID, a.Spec.ContentDigest())
		}
		if string(got) != string(ref) {
			return fmt.Errorf("%s: fan-out bytes via %s differ from clean reference (%d vs %d bytes)",
				a.ID, src.ID, len(got), len(ref))
		}
	}

	return nil
}
