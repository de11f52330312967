package chaos

// Multi-tenant submission storms (DESIGN.md §15). Storm mode is the chaos
// proof behind tenant isolation: a seeded mix of tenants hammers one
// fleet's admission surface while 2–3 leased worker nodes — with the
// lease-heavy fault rules of node mode armed, and SIGKILLs landing
// mid-claim — churn through whatever gets accepted. The parent is the sole
// submitter, which makes every isolation property checkable without
// coordination:
//
//   - quotas are never exceeded: each accepted submission is checked at its
//     accept instant, and after the heal pass the per-tenant in-flight
//     overlap is re-derived cold from the journals' accept/terminal times;
//   - every rejection is well-formed: a typed quota (429-family) or
//     capacity (503-family) refusal carrying a Retry-After of at least one
//     second — never a bare error, never an unexplained drop;
//   - no tenant starves: every accepted job of every tenant is terminal
//     (or loudly quarantined) after heal, and jobs submitted with an
//     already-expired deadline are failed fast with a journaled reason
//     instead of clogging their tenant's quota forever;
//   - accepted work still runs exactly once: the cold verifier every mode
//     ends with (verifyCold: obs findings, scrub defects, outcomes against
//     the clean reference) runs first, on the same store.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/par"
)

// stormQueueDepth bounds the shared backlog during a storm: small enough
// that seeded bursts reach the overload band and queue-full refusals, large
// enough that a 2–3 node fleet keeps accepting most of the time.
const stormQueueDepth = 8

// stormRetryAttempts is the polite-retry budget per storm submission: a
// refusal is retried with hint-derived backoff this many times before the
// submission is dropped.
const stormRetryAttempts = 3

// stormRetryCap compresses the wall-clock Retry-After hints (≥ 1s by
// contract) into the few-hundred-millisecond life of a chaos schedule, the
// same way nodeLeaseTTL compresses production lease TTLs: what is under
// test is the shape — a hint-derived base growing exponentially under a
// cap, with deterministic jitter — not the wall-clock wait itself.
const stormRetryCap = 40 * time.Millisecond

// classifyRefusal validates one typed submit refusal against the hint
// contract and returns its reject-counter key plus the Retry-After hint it
// carried. Quota (429-family) and capacity (503-family) refusals must carry
// a hint of at least one second and name the submitting tenant where
// applicable; anything else — including an untyped error — is a contract
// violation.
func classifyRefusal(err error, tenant string) (kind string, hint time.Duration, vio error) {
	var oq *jobs.ErrOverQuota
	var qf *jobs.ErrQueueFull
	var sh *jobs.ErrShed
	switch {
	case errors.As(err, &oq):
		if (oq.Reason != "rate" && oq.Reason != "inflight") || oq.RetryAfter < time.Second || oq.Tenant != tenant {
			return "", 0, fmt.Errorf("malformed quota refusal %+v", oq)
		}
		return "quota_" + oq.Reason, oq.RetryAfter, nil
	case errors.As(err, &qf):
		if qf.RetryAfter < time.Second {
			return "", 0, fmt.Errorf("queue-full refusal without retry hint: %+v", qf)
		}
		return "queue_full", qf.RetryAfter, nil
	case errors.As(err, &sh):
		if (sh.Reason != "saturated" && sh.Reason != "overload") || sh.RetryAfter < time.Second {
			return "", 0, fmt.Errorf("malformed shed refusal %+v", sh)
		}
		return "shed_" + sh.Reason, sh.RetryAfter, nil
	case errors.Is(err, jobs.ErrDiskFull):
		// 507-family: carries no structured hint field at this layer (the
		// HTTP surface stamps its fixed Retry-After); retry on the same
		// cadence as a capacity shed.
		return "disk_full", time.Second, nil
	}
	return "", 0, fmt.Errorf("tenant %s: unexpected submit refusal: %w", tenant, err)
}

// hintBackoff builds the capped deterministic-jitter schedule a storm
// submitter waits on after a refusal: the base is the refusal's own
// Retry-After hint, chaos-compressed under stormRetryCap.
func hintBackoff(hint time.Duration, seed uint64) par.Backoff {
	base := hint / 50
	if base < time.Millisecond {
		base = time.Millisecond
	}
	if base > stormRetryCap/2 {
		base = stormRetryCap / 2
	}
	return par.Backoff{Base: base, Max: stormRetryCap, Jitter: 0.5, Seed: seed}
}

// RunStorm executes a multi-tenant storm run: for each schedule, a seeded
// tenant config (weights, in-flight caps, sometimes a tight rate limit), a
// fleet of armed worker children sharing one store, and a submission storm
// from the parent through the full admission surface, with fleet members
// SIGKILLed at seeded moments. After a faultless heal pass, verifyCold
// checks the store and the tenant-isolation assertions above run on it.
// exe follows the RunSigkill child-protocol contract (empty = current
// executable routing IsChild() to ChildMain).
func RunStorm(opts Options, exe string) (*Report, error) {
	return run(opts, exe, "s", specRef, runStormSchedule)
}

// stormSubmission is one accepted storm job the parent tracks for the cold
// verification pass.
type stormSubmission struct {
	id      string
	tenant  string
	expired bool // submitted with an already-lapsed absolute deadline
}

// runStormSchedule runs one storm schedule end to end.
func runStormSchedule(opts *Options, idx int, dir, exe string, refs map[string][]byte) Outcome {
	src := scheduleSource(opts.Seed, idx)
	out := Outcome{Schedule: idx, Rules: NodeScheduleRules(opts.Seed, idx, 0)}

	// Seeded tenant mix. Weights spread 1/2/4 so the overload band has an
	// actual shedding order; in-flight caps are tight enough that a burst
	// from one tenant hits its quota while the fleet still has room.
	names := []string{"acme", "beta", "carol"}[:src.IntRange(2, 3)]
	pols := map[string]jobs.TenantPolicy{}
	for i, n := range names {
		p := jobs.TenantPolicy{
			Weight:      1 << uint(src.Intn(3)),
			MaxInFlight: src.IntRange(2, 4),
		}
		if i == 0 && src.Bool(0.4) {
			p.Rate, p.Burst = 1, 1 // tight bucket: forces "rate" 429s
		}
		pols[n] = p
	}
	tcfg := jobs.NewTenantConfig(pols, jobs.TenantPolicy{})

	st, err := jobs.Open(dir, opts.Logf)
	if err != nil {
		out.Violation = fmt.Errorf("open store: %w", err)
		return out
	}
	// The parent's manager is never started: it exists purely as the
	// admission front end (quota, queue-full, and overload-band refusals),
	// exactly what a fleet submit node runs before work lands in the shared
	// store. NodeID marks it fleet-mode so backpressure reads the shared
	// queued backlog.
	sub := jobs.NewManager(st, jobs.Config{
		NodeID: "sub", Workers: 1, QueueDepth: stormQueueDepth,
		Tenants: tcfg, Backoff: fastBackoff, Logf: opts.Logf,
	})
	nodes := src.IntRange(2, 3)

	// The first submission lands before the fleet exists: an empty store is
	// all-terminal, and a worker child that sees one exits immediately.
	var accepted []stormSubmission
	rejects := map[string]int{}
	// submitOne pushes one submission through admission, honoring the
	// Retry-After hint on every typed refusal: instead of dropping the
	// submission on first refusal (fixed-cadence resubmission), it waits
	// out a capped deterministic-jitter backoff seeded from the hint and
	// retries, up to stormRetryAttempts. A submission still refused after
	// the budget is dropped; a malformed refusal is a violation.
	submitOne := func(k int, tenant string, expired bool) error {
		spec := opts.Spec
		spec.Tenant = tenant
		if expired {
			spec.NotAfter = time.Now().Add(-time.Second).UnixMilli()
		}
		for attempt := 1; ; attempt++ {
			// Fold the fleet's progress into this process before admission:
			// the parent is the sole submitter, so after this its in-flight
			// counts can only overestimate (a conservative quota check).
			for _, j := range st.List() {
				j.Reload()
			}
			j, err := sub.Submit(spec)
			if err == nil {
				if max := tcfg.Policy(tenant).MaxInFlight; max > 0 {
					if got := st.TenantInFlight(tenant); got > max {
						return fmt.Errorf("tenant %s: %d in flight just after accept, quota %d exceeded", tenant, got, max)
					}
				}
				accepted = append(accepted, stormSubmission{id: j.ID, tenant: tenant, expired: expired})
				return nil
			}
			kind, hint, vio := classifyRefusal(err, tenant)
			if vio != nil {
				return vio
			}
			rejects[kind]++
			if attempt >= stormRetryAttempts {
				return nil
			}
			time.Sleep(hintBackoff(hint, opts.Seed^uint64(idx)<<32).Delay(k, attempt))
		}
	}
	if err := submitOne(0, names[0], false); err != nil {
		out.Violation = err
		return out
	}

	f, err := newFleet(opts, exe, nodes, childEnv(opts, idx, dir, EnvTenants+"="+tcfg.String()))
	if err != nil {
		out.Violation = err
		return out
	}

	// The storm: seeded tenant picks, seeded gaps, a seeded minority of
	// submissions carrying already-expired deadlines, and SIGKILLs landing
	// on seeded victims mid-storm. Self-exited children (the fleet drained
	// the backlog, or an armed fault took them down) are reaped and
	// respawned so the fleet stays at strength.
	total := src.IntRange(14, 22)
	kills := 0
	for k := 1; k < total; k++ {
		time.Sleep(time.Duration(src.IntRange(5, 40)) * time.Millisecond)
		if out.Violation = f.reap(true); out.Violation != nil {
			return out
		}
		if kills < opts.MaxRestarts && src.Bool(0.2) {
			if out.Violation = f.kill(src.Intn(nodes)); out.Violation != nil {
				return out
			}
			kills++
			out.Restarts++
		}
		if out.Violation = submitOne(k, names[src.Intn(len(names))], src.Bool(0.15)); out.Violation != nil {
			f.stop()
			return out
		}
	}
	if opts.Verbose {
		opts.Logf("chaos: storm schedule %d: %d submissions, %d accepted, rejects %v",
			idx, total, len(accepted), rejects)
	}

	// Heal: a faultless fleet must run every accepted job to a terminal
	// state within the deadline. Then the one cold verifier, and the
	// tenant-isolation assertions on the store it opened.
	if out.Violation = f.heal(); out.Violation != nil {
		return out
	}
	ids := make([]string, len(accepted))
	for k, s := range accepted {
		ids[k] = s.id
	}
	st, out.Violation = verifyCold(opts, dir, ids, false, refs, &out)
	if out.Violation == nil {
		out.Violation = verifyStorm(st, tcfg, accepted)
	}
	return out
}

// verifyStorm checks the tenant-isolation contract on the cold store.
// Accepted jobs missing from it were already judged by verifyCold
// (quarantined, not lost).
func verifyStorm(st *jobs.Store, tcfg *jobs.TenantConfig, accepted []stormSubmission) error {
	type interval struct {
		accept, term time.Time
	}
	byTenant := map[string][]interval{}
	for _, s := range accepted {
		j, ok := st.Get(s.id)
		if !ok {
			continue
		}
		if got := j.Spec.Tenant; got != s.tenant {
			return fmt.Errorf("%s: persisted tenant %q, submitted as %q", s.id, got, s.tenant)
		}
		// No tenant starves: verifyCold already proved every accepted job
		// terminal or loudly quarantined.
		h := j.History()
		last := h[len(h)-1]
		// Deadline fail-fast: a job submitted with a lapsed absolute
		// deadline must be failed with a journaled deadline reason — never
		// run to success, never left to rot in its tenant's quota.
		if s.expired {
			if last.State != jobs.StateFailed {
				return fmt.Errorf("%s (tenant %s): expired-deadline job ended %q, want failed", s.id, s.tenant, last.State)
			}
			if !strings.Contains(last.Detail, "deadline") {
				return fmt.Errorf("%s: expired-deadline failure reason %q does not name the deadline", s.id, last.Detail)
			}
		}
		byTenant[s.tenant] = append(byTenant[s.tenant], interval{accept: h[0].Time, term: last.Time})
	}
	// Quotas never exceeded, re-derived cold: at every accept instant, the
	// number of the tenant's jobs accepted-and-not-yet-terminal (including
	// the newcomer) must be within MaxInFlight. Journal times can only
	// undercount what admission saw (the parent's view of a terminal
	// transition is never earlier than the journal record), so this is
	// exact, not heuristic.
	for tenant, ivs := range byTenant {
		max := tcfg.Policy(tenant).MaxInFlight
		if max == 0 {
			continue
		}
		for _, iv := range ivs {
			n := 0
			for _, o := range ivs {
				// o (which may be iv itself) was in flight at iv's accept
				// instant: already accepted, not yet terminal.
				if !o.accept.After(iv.accept) && o.term.After(iv.accept) {
					n++
				}
			}
			if n > max {
				return fmt.Errorf("tenant %s: %d jobs in flight at an accept instant, quota %d", tenant, n, max)
			}
		}
	}
	return nil
}
