package chaos

import (
	"fmt"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/rng"
)

// Lease timing inside node-mode children: compressed far below the
// production defaults so lease expiry, reclaim, and fencing all happen
// within a schedule's few hundred milliseconds.
const (
	nodeLeaseTTL  = 250 * time.Millisecond
	nodeScanEvery = 20 * time.Millisecond
)

// RunNode executes a multi-node chaos run: Options.Nodes fleet worker
// processes share one job store, claiming work under TTL leases with
// fencing tokens, while the parent SIGKILLs and restarts whole instances at
// seeded random moments — including mid-claim and mid-heartbeat, with the
// jobs.lease.* fault points stretching those windows inside each child.
// After a faultless heal pass converges, verifyCold checks the store: every
// job terminal with a clean journal, no record under a stale or fabricated
// fencing token (the lease audit), every takeover journaled before the new
// owner runs, and every succeeded placement byte-identical to a clean
// single-node reference run of the same spec.
//
// exe follows the RunSigkill child-protocol contract (empty = current
// executable routing IsChild() to ChildMain).
func RunNode(opts Options, exe string) (*Report, error) {
	return run(opts, exe, "n", specRef, runNodeSchedule)
}

// runNodeSchedule runs one schedule: publish jobs, churn a fleet of armed
// children with SIGKILLs, heal with a faultless fleet, verify cold.
func runNodeSchedule(opts *Options, idx int, dir, exe string, refs map[string][]byte) Outcome {
	src := scheduleSource(opts.Seed, idx)
	out := Outcome{Schedule: idx, Rules: NodeScheduleRules(opts.Seed, idx, 0)}

	// The parent publishes the jobs before any node exists; Create's
	// build-in-temp-then-rename publish is what lets later submits land
	// while a fleet is live, but here ordering keeps the schedule simple.
	st, err := jobs.Open(dir, opts.Logf)
	if err != nil {
		out.Violation = fmt.Errorf("open store: %w", err)
		return out
	}
	ids := make([]string, src.IntRange(2, 4))
	for k := range ids {
		j, err := st.Create(opts.Spec)
		if err != nil {
			out.Violation = fmt.Errorf("submit job %d: %w", k, err)
			return out
		}
		ids[k] = j.ID
	}

	// Armed phase: a full fleet under per-node fault rules; MaxRestarts
	// SIGKILL events land on seeded victims at seeded moments. A child that
	// exits on its own is reaped and respawned at the next event that picks
	// its slot.
	f, err := newFleet(opts, exe, opts.Nodes, childEnv(opts, idx, dir))
	if err != nil {
		out.Violation = err
		return out
	}
	for k := 0; k < opts.MaxRestarts; k++ {
		time.Sleep(time.Duration(src.IntRange(10, 120)) * time.Millisecond)
		if out.Violation = f.reap(false); out.Violation != nil {
			return out
		}
		if out.Violation = f.kill(src.Intn(opts.Nodes)); out.Violation != nil {
			return out
		}
		out.Restarts++
	}
	if out.Violation = f.heal(); out.Violation == nil {
		_, out.Violation = verifyCold(opts, dir, ids, false, refs, &out)
	}
	return out
}

// NodeScheduleRules derives node slot's fault rules for schedule idx — a
// lease-heavy pool (claim-race widening, heartbeat stalls past the TTL,
// clock skew, torn claim writes) mixed with the classic storage faults, so
// different fleet members fail differently within one schedule. Exported
// for the same reason as ScheduleRules: children and humans reconstruct
// rules from (seed, idx, slot) instead of shipping them across processes.
func NodeScheduleRules(seed uint64, idx, slot int) []faultinject.Rule {
	src := rng.New(seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15 ^ (uint64(slot)+1)*0xbf58476d1ce4e5b9)
	n := src.IntRange(1, 3)
	rules := make([]faultinject.Rule, 0, n)
	for i := 0; i < n; i++ {
		r := faultinject.Rule{After: src.Intn(4), Times: src.IntRange(1, 3)}
		switch src.Intn(9) {
		case 0:
			// Widen the read-decide-create claim window so concurrent
			// claimers pile onto the same token.
			r.Point = faultinject.JobsLeaseClaim
			r.Delay = time.Duration(src.IntRange(1, 40)) * time.Millisecond
		case 1:
			r.Point = faultinject.JobsLeaseClaim
			r.Err = syscall.EIO
		case 2:
			// Stall a heartbeat past the TTL: the textbook expired-lease
			// takeover, with the stalled node coming back as a zombie.
			r.Point = faultinject.JobsLeaseHeartbeat
			r.Delay = time.Duration(src.IntRange(100, 400)) * time.Millisecond
		case 3:
			// Skew this node's lease clock forward: it sees live leases as
			// expired (premature reclaims must still fence correctly).
			r.Point = faultinject.JobsLeaseSkew
			r.Delay = time.Duration(src.IntRange(10, 300)) * time.Millisecond
		case 4:
			r.Point = faultinject.JobsLeaseTorn
			r.Frac = 0.1 + 0.8*src.Float64()
		case 5:
			r.Point = faultinject.FsioWrite
			if src.Bool(0.5) {
				r.Err = syscall.ENOSPC
			}
		case 6:
			r.Point = faultinject.JobsJournalBefore
		case 7:
			r.Point = faultinject.JobsJournalAfter
		case 8:
			r.Point = faultinject.PlaceCheckpointSave
		}
		rules = append(rules, r)
	}
	return rules
}
