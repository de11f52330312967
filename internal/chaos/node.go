package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/invariant"
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
// After a faultless heal pass converges, the parent verifies the store
// cold:
//
//   - every job submitted is terminal, with a journal that decodes cleanly
//     and satisfies the state machine plus token monotonicity;
//   - at-most-once effective execution: no record was written under a stale
//     or fabricated fencing token (AuditLease against the claim chain), and
//     a takeover is always journaled before the new owner runs;
//   - every succeeded placement is byte-identical to a clean single-node
//     reference run of the same spec.
//
// exe follows the RunSigkill child-protocol contract (empty = current
// executable routing IsChild() to ChildMain).
func RunNode(opts Options, exe string) (*Report, error) {
	opts.fill()
	if err := opts.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: spec: %w", err)
	}
	if exe == "" {
		var err error
		exe, err = os.Executable()
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "twchaos-*")
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
	}
	if faultinject.Armed() {
		return nil, errors.New("chaos: a fault plane is already armed")
	}

	invariant.Enable(invariant.Options{Logf: opts.Logf, Registry: opts.Registry})
	defer invariant.Disable()
	invBase := invariant.Count()

	ref, err := referenceRun(&opts, filepath.Join(dir, "reference"))
	if err != nil {
		return nil, fmt.Errorf("chaos: reference run: %w", err)
	}
	refs := map[string][]byte{opts.Spec.ContentDigest(): ref}

	rep := &Report{Schedules: opts.Schedules}
	for i := opts.FirstSchedule; i < opts.FirstSchedule+opts.Schedules; i++ {
		out := runNodeSchedule(&opts, i, filepath.Join(dir, fmt.Sprintf("n%03d", i)), refs, exe)
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

// runNodeSchedule runs one schedule: publish jobs, churn a fleet of armed
// children with SIGKILLs, heal with a faultless fleet, verify cold.
func runNodeSchedule(opts *Options, idx int, dir string, refs map[string][]byte, exe string) Outcome {
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
	njobs := src.IntRange(2, 4)
	ids := make(map[string]bool, njobs)
	for k := 0; k < njobs; k++ {
		j, err := st.Create(opts.Spec)
		if err != nil {
			out.Violation = fmt.Errorf("submit job %d: %w", k, err)
			return out
		}
		ids[j.ID] = true
	}

	env := func(slot int, armed bool) []string {
		e := append(os.Environ(),
			EnvChild+"=1",
			EnvDir+"="+dir,
			EnvSeed+"="+strconv.FormatUint(opts.Seed, 10),
			EnvIndex+"="+strconv.Itoa(idx),
			EnvNode+"="+strconv.Itoa(slot),
		)
		if armed {
			e = append(e, EnvArmed+"=1")
		}
		return e
	}

	// Armed phase: a full fleet under per-node fault rules; MaxRestarts
	// SIGKILL events land on seeded victims at seeded moments. A child that
	// exits on its own is reaped (invariant trips and protocol breaks are
	// violations) and respawned at the next event that picks its slot.
	procs := make([]*nodeProc, opts.Nodes)
	for slot := range procs {
		p, err := startNode(exe, env(slot, true))
		if err != nil {
			out.Violation = fmt.Errorf("spawn node %d: %w", slot, err)
			return out
		}
		procs[slot] = p
	}
	stopAll := func() {
		for _, p := range procs {
			if p != nil {
				p.kill()
			}
		}
	}
	for k := 0; k < opts.MaxRestarts; k++ {
		time.Sleep(time.Duration(src.IntRange(10, 120)) * time.Millisecond)
		for slot, p := range procs {
			if p == nil || !p.exited() {
				continue
			}
			if v := reapNode(slot, p); v != nil {
				out.Violation = v
				stopAll()
				return out
			}
			procs[slot] = nil
		}
		victim := src.Intn(opts.Nodes)
		if p := procs[victim]; p != nil {
			p.kill() // SIGKILL mid-whatever: claim, heartbeat, checkpoint
		}
		p, err := startNode(exe, env(victim, true))
		if err != nil {
			out.Violation = fmt.Errorf("respawn node %d: %w", victim, err)
			stopAll()
			return out
		}
		procs[victim] = p
		out.Restarts++
	}
	stopAll()

	// Heal phase: a faultless fleet must converge — every node exits OK
	// (all jobs terminal) within the schedule deadline, no excuses.
	heal := make([]*nodeProc, opts.Nodes)
	for slot := range heal {
		p, err := startNode(exe, env(slot, false))
		if err != nil {
			out.Violation = fmt.Errorf("heal: spawn node %d: %w", slot, err)
			break
		}
		heal[slot] = p
	}
	for slot, p := range heal {
		if p == nil {
			continue
		}
		res := p.result(opts.ScheduleDeadline)
		switch {
		case res.hung:
			out.Violation = fmt.Errorf("hang: heal node %d outlived %v\n%s", slot, opts.ScheduleDeadline, res.stderr)
		case res.code == ChildExitInvariant:
			out.Violation = fmt.Errorf("heal node %d reported invariant violations\n%s", slot, res.stderr)
		case res.code != childExitOK:
			out.Violation = fmt.Errorf("heal node %d exited %d\n%s", slot, res.code, res.stderr)
		}
	}
	if out.Violation != nil {
		for _, p := range heal {
			if p != nil {
				p.kill()
			}
		}
		return out
	}

	out.Violation = verifyNodeStore(opts, dir, ids, refs, &out)
	return out
}

// reapNode classifies a self-exited armed child. Clean completion and clean
// retryable non-results are fine mid-churn; invariant trips and protocol
// breaks are violations.
func reapNode(slot int, p *nodeProc) error {
	res := p.take()
	switch res.code {
	case childExitOK, childExitRetry:
		return nil
	case ChildExitInvariant:
		return fmt.Errorf("node %d reported invariant violations\n%s", slot, res.stderr)
	default:
		return fmt.Errorf("node %d exited %d\n%s", slot, res.code, res.stderr)
	}
}

// verifyNodeStore checks the multi-node contract on the cold store. refs
// maps each expected content digest to the placement bytes of a clean
// single-node run of that spec; every succeeded job must match its digest's
// reference byte for byte.
func verifyNodeStore(opts *Options, dir string, ids map[string]bool, refs map[string][]byte, out *Outcome) error {
	st, err := jobs.Open(dir, opts.Logf)
	if err != nil {
		return fmt.Errorf("verify open: %w", err)
	}
	if n := st.Quarantined(); n > 0 {
		return fmt.Errorf("heal left corruption behind: verify open quarantined %d more file(s)", n)
	}
	out.States = map[string]jobs.State{}
	seen := 0
	for _, j := range st.List() {
		if ids[j.ID] {
			seen++
		}
		recs, err := jobs.ReadJournalDir(j.Dir())
		if err != nil {
			return fmt.Errorf("%s: journal corrupt after heal: %w", j.ID, err)
		}
		// CheckJournal covers the state machine and token monotonicity;
		// AuditLease proves every journaled token against the claim chain —
		// together, no record stands under a stale or fabricated token.
		if err := jobs.CheckJournal(recs); err != nil {
			return fmt.Errorf("%s: %w", j.ID, err)
		}
		if err := jobs.AuditLease(j.Dir(), recs); err != nil {
			return fmt.Errorf("%s: %w", j.ID, err)
		}
		// A change of executing owner must be journaled: the reclaimer
		// appends a takeover/recovery record (queued) before it runs, so a
		// running record never follows another running record under a
		// different node or token. Same node and token back-to-back is the
		// in-process retry path whose bookkeeping append got eaten by a
		// fault — no ownership change, allowed by the state machine.
		for i := 1; i < len(recs); i++ {
			if recs[i].State == jobs.StateRunning && recs[i-1].State == jobs.StateRunning &&
				(recs[i].Node != recs[i-1].Node || recs[i].Token != recs[i-1].Token) {
				return fmt.Errorf("%s: record %d: running (%s token %d) directly after running (%s token %d) — takeover not journaled",
					j.ID, i, recs[i].Node, recs[i].Token, recs[i-1].Node, recs[i-1].Token)
			}
		}
		if len(recs) == 0 || !recs[len(recs)-1].State.Terminal() {
			return fmt.Errorf("%s: not terminal after heal (journal has %d records)", j.ID, len(recs))
		}
		last := recs[len(recs)-1]
		out.States[j.ID] = last.State
		switch last.State {
		case jobs.StateSucceeded:
			got, err := os.ReadFile(j.PlacementPath())
			if err != nil {
				return fmt.Errorf("%s: succeeded but placement unreadable: %w", j.ID, err)
			}
			ref, ok := refs[j.Spec.ContentDigest()]
			if !ok {
				return fmt.Errorf("%s: succeeded with digest %s, which no reference run produced", j.ID, j.Spec.ContentDigest())
			}
			if !bytes.Equal(got, ref) {
				return fmt.Errorf("%s: placement differs from clean single-node reference (%d vs %d bytes)",
					j.ID, len(got), len(ref))
			}
			info, err := j.ReadResult()
			if err != nil {
				return fmt.Errorf("%s: succeeded but result unreadable: %w", j.ID, err)
			}
			if !info.Succeeded {
				return fmt.Errorf("%s: journal says succeeded, result.json says not", j.ID)
			}
		case jobs.StateFailed:
			if last.Detail == "" {
				return fmt.Errorf("%s: failed with no journaled reason", j.ID)
			}
		case jobs.StateCanceled:
			return fmt.Errorf("%s: canceled, but node schedules never issue cancels", j.ID)
		case jobs.StateDedup:
			// A dedup alias must link to a real executor of the same content:
			// one hop, never chained, never dangling. Its bytes are its
			// source's bytes, so byte-identity is covered by the source's own
			// succeeded check above.
			if _, ok := j.DedupSource(); !ok {
				return fmt.Errorf("%s: dedup record without a source link", j.ID)
			}
			src, err := st.ResolveResult(j)
			if err != nil {
				return fmt.Errorf("%s: dedup alias does not resolve: %w", j.ID, err)
			}
			if src.Spec.ContentDigest() != j.Spec.ContentDigest() {
				return fmt.Errorf("%s: alias digest %s served by source %s with digest %s",
					j.ID, j.Spec.ContentDigest(), src.ID, src.Spec.ContentDigest())
			}
		}
	}
	if seen != len(ids) && st.Quarantined() == 0 && out.Quarantined == 0 {
		return fmt.Errorf("jobs silently lost: %d of %d submitted remain with nothing quarantined", seen, len(ids))
	}
	return nil
}

// nodeProc is one fleet child under parent control: unlike runChild it
// outlives the call, so the kill loop can SIGKILL any member at any moment.
type nodeProc struct {
	cmd  *exec.Cmd
	buf  bytes.Buffer
	done chan struct{}
}

func startNode(exe string, env []string) (*nodeProc, error) {
	p := &nodeProc{done: make(chan struct{})}
	p.cmd = exec.Command(exe)
	p.cmd.Env = env
	p.cmd.Stdout = &p.buf
	p.cmd.Stderr = &p.buf
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// exited reports whether the child has terminated (without blocking).
func (p *nodeProc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the child and waits for the reaper.
func (p *nodeProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// take returns the result of an already-exited child.
func (p *nodeProc) take() childResult {
	<-p.done
	return childResult{code: p.cmd.ProcessState.ExitCode(), stderr: p.buf.String()}
}

// result waits for the child up to deadline, killing it on expiry.
func (p *nodeProc) result(deadline time.Duration) childResult {
	select {
	case <-p.done:
		return p.take()
	case <-time.After(deadline):
		p.kill()
		return childResult{hung: true, stderr: p.buf.String()}
	}
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
