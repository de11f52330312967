package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/invariant"
)

// getJob fetches id from st, rescanning first so a store opened before the
// job was published (the peer-node case) picks it up.
func getJob(t *testing.T, st *Store, id string) *Job {
	t.Helper()
	st.Rescan()
	j, ok := st.Get(id)
	if !ok {
		t.Fatalf("job %s not visible in store", id)
	}
	return j
}

// openNode opens an independent Store handle on root posing as node id —
// the in-process stand-in for a separate twserve instance.
func openNode(t *testing.T, root, id string) *Store {
	t.Helper()
	st, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	st.SetNode(id)
	return st
}

// TestLeaseClaimRace races K "nodes" (independent Store handles over one
// directory) for the same job, repeatedly: every round must produce exactly
// one winner, every loser must see ErrLeaseHeld, and the winning tokens must
// be strictly increasing. Run under -race this also pins the in-process
// locking of the claim path.
func TestLeaseClaimRace(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	seedStore := openNode(t, dir, "seed")
	job, err := seedStore.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}

	const nodes = 8
	const rounds = 10
	stores := make([]*Store, nodes)
	for i := range stores {
		stores[i] = openNode(t, dir, fmt.Sprintf("n%d", i))
	}

	var lastToken uint64
	for r := 0; r < rounds; r++ {
		var (
			mu      sync.Mutex
			winners []*Lease
			wg      sync.WaitGroup
		)
		for i := range stores {
			wg.Add(1)
			go func(st *Store) {
				defer wg.Done()
				j, ok := st.Get(job.ID)
				if !ok {
					t.Errorf("node store lost job %s", job.ID)
					return
				}
				l, _, err := st.Claim(j, time.Minute)
				switch {
				case err == nil:
					mu.Lock()
					winners = append(winners, l)
					mu.Unlock()
				case !errors.Is(err, ErrLeaseHeld):
					t.Errorf("claim failed with non-lease error: %v", err)
				}
			}(stores[i])
		}
		wg.Wait()
		if len(winners) != 1 {
			t.Fatalf("round %d: %d claim winners, want exactly 1", r, len(winners))
		}
		w := winners[0]
		if w.Token <= lastToken {
			t.Fatalf("round %d: token %d not above previous %d", r, w.Token, lastToken)
		}
		lastToken = w.Token
		if err := w.Release(); err != nil {
			t.Fatalf("round %d: release: %v", r, err)
		}
	}

	// The claim chain on disk is the audit trail: one immutable file per
	// token, each decoding to the node that won that round.
	chain, err := ReadClaimChain(job.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != rounds {
		t.Fatalf("claim chain has %d entries, want %d", len(chain), rounds)
	}
	for _, c := range chain {
		if c.Record.Node == "" {
			t.Fatalf("claim token %d is torn/undecodable", c.Token)
		}
	}
}

// TestLeaseExpiryFencing walks the zombie scenario: node a claims with a
// short TTL and goes silent; after expiry node b reclaims with the next
// token; from then on every one of a's write paths — Validate, Renew,
// journal Append, GuardWrite — must refuse with ErrFenced, while b's write
// path works.
func TestLeaseExpiryFencing(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	stA := openNode(t, dir, "a")
	stB := openNode(t, dir, "b")
	job, err := stA.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}

	leaseA, prev, err := stA.Claim(job, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Token != 0 {
		t.Fatalf("first claim reported prior lease %+v", prev)
	}
	if leaseA.Token != 1 {
		t.Fatalf("first token = %d, want 1", leaseA.Token)
	}

	// Live lease: b must be refused.
	jB := getJob(t, stB, job.ID)
	if _, _, err := stB.Claim(jB, time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("claim against live lease: err = %v, want ErrLeaseHeld", err)
	}

	time.Sleep(80 * time.Millisecond) // let a's lease lapse

	leaseB, prev, err := stB.Claim(jB, time.Minute)
	if err != nil {
		t.Fatalf("reclaim after expiry: %v", err)
	}
	if leaseB.Token != leaseA.Token+1 {
		t.Fatalf("reclaim token = %d, want %d", leaseB.Token, leaseA.Token+1)
	}
	if prev.Node != "a" || prev.Released {
		t.Fatalf("reclaim reported prev %+v, want expired lease from a", prev)
	}

	// The zombie is fenced on every write path.
	if err := leaseA.Validate(); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Validate: err = %v, want ErrFenced", err)
	}
	if err := leaseA.Renew(); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Renew: err = %v, want ErrFenced", err)
	}
	if _, err := job.Append(StateRunning, 1, "zombie write"); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Append: err = %v, want ErrFenced", err)
	}
	if err := job.GuardWrite(); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie GuardWrite: err = %v, want ErrFenced", err)
	}

	// The reclaimer writes normally, stamped with its token.
	rec, err := jB.Append(StateRunning, 1, "reclaimed")
	if err != nil {
		t.Fatalf("reclaimer Append: %v", err)
	}
	if rec.Node != "b" || rec.Token != leaseB.Token {
		t.Fatalf("reclaimer record = %+v, want node b token %d", rec, leaseB.Token)
	}
	// The zombie's fenced Append must not have landed on disk.
	if err := AuditLease(jB.Dir(), jB.History()); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseRenewRelease pins the TTL mechanics: renewal extends a lease past
// its original expiry, and a voluntary release makes the job reclaimable
// immediately, reported as released (not expired) to the reclaimer.
func TestLeaseRenewRelease(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	stA := openNode(t, dir, "a")
	stB := openNode(t, dir, "b")
	job, err := stA.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	lease, _, err := stA.Claim(job, 120*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	jB := getJob(t, stB, job.ID)
	for i := 0; i < 4; i++ {
		time.Sleep(60 * time.Millisecond)
		if err := lease.Renew(); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	// 240ms past the original 120ms expiry, the renewed lease is still live.
	if _, _, err := stB.Claim(jB, time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("claim against renewed lease: err = %v, want ErrLeaseHeld", err)
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	_, prev, err := stB.Claim(jB, time.Minute)
	if err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	if !prev.Released || prev.Node != "a" {
		t.Fatalf("prev = %+v, want released lease from a", prev)
	}
}

// TestFleetTwoNodes runs two fleet managers over one store directory: jobs
// submitted through one node must all complete exactly once somewhere in the
// fleet, with journals that pass the fencing audit.
//
// All three jobs are submitted before n2 starts. n1 has one worker, so it
// is saturated once it holds two jobs; with a live peer it would shed the
// third submission as "saturated". Without one it cannot shed, and n2 still
// joins in time to claim work from the shared store.
func TestFleetTwoNodes(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	fleetCfg := func(id string) Config {
		return Config{
			Workers: 1, Backoff: fastBackoff, CheckpointEvery: 1, Logf: t.Logf,
			NodeID: id, LeaseTTL: time.Second, ScanEvery: 10 * time.Millisecond,
		}
	}
	st1, m1 := newTestManager(t, dir, fleetCfg("n1"))
	_, m2 := newTestManager(t, dir, fleetCfg("n2"))
	m1.Start()
	defer drain(t, m1)

	const njobs = 3
	jobsSubmitted := make([]*Job, njobs)
	for i := range jobsSubmitted {
		// Distinct seeds: identical specs would dedupe into one execution.
		spec := fastSpec()
		spec.Seed = uint64(i + 1)
		j, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobsSubmitted[i] = j
	}
	m2.Start()
	defer drain(t, m2)
	for _, j := range jobsSubmitted {
		rec := waitTerminal(t, j)
		if rec.State != StateSucceeded {
			t.Fatalf("%s ended %q (%s)", j.ID, rec.State, rec.Detail)
		}
	}
	// Cold audit: journals intact, every tokened record backed by a claim
	// from the journaling node, placements present.
	for _, j := range jobsSubmitted {
		jj, ok := st1.Get(j.ID)
		if !ok {
			t.Fatalf("job %s missing from store", j.ID)
		}
		jj.Reload()
		recs := jj.History()
		if err := CheckJournal(recs); err != nil {
			t.Fatalf("%s: %v", j.ID, err)
		}
		if err := AuditLease(jj.Dir(), recs); err != nil {
			t.Fatalf("%s: %v", j.ID, err)
		}
		if _, err := os.Stat(jj.PlacementPath()); err != nil {
			t.Fatalf("%s succeeded without a placement: %v", j.ID, err)
		}
	}
}

// TestFleetDrainReleasesLeases pins the drain satellite: a draining node
// journals its in-flight job back to queued and releases the lease, so a
// peer reclaims it immediately — no TTL wait — and runs it to completion.
func TestFleetDrainReleasesLeases(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// A one-minute TTL guarantees that any prompt takeover below happened
	// via release, not expiry.
	cfg := Config{
		Workers: 1, Backoff: fastBackoff, CheckpointEvery: 1, Logf: t.Logf,
		NodeID: "n1", LeaseTTL: time.Minute, ScanEvery: 10 * time.Millisecond,
	}
	st1, m1 := newTestManager(t, dir, cfg)
	m1.Start()
	j, err := m1.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	drain(t, m1)

	j.Reload()
	if got := j.Last().State; got != StateQueued {
		t.Fatalf("after drain, job is %q, want queued", got)
	}
	ls, err := readLeaseState(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if holder, live := ls.heldBy(time.Now()); live {
		t.Fatalf("lease still live after drain (held by %q)", holder)
	}
	if eff := ls.effective(); !eff.Released {
		t.Fatalf("drained lease not marked released: %+v", eff)
	}
	// Node heartbeat withdrawn too: no peers are alive from n2's view.
	if alive := AliveNodes([]string{dir}, "n2"); len(alive) != 0 {
		t.Fatalf("drained node still advertised alive: %v", alive)
	}

	cfg.NodeID = "n2"
	_, m2 := newTestManager(t, dir, cfg)
	m2.Start()
	defer drain(t, m2)
	// st1's manager is drained, so nothing refreshes its in-memory journals;
	// poll the job with explicit reloads.
	j2, ok := st1.Get(j.ID)
	if !ok {
		t.Fatal("job lost")
	}
	deadline := time.Now().Add(60 * time.Second)
	for !j2.Last().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want a terminal state", j2.ID, j2.Last().State)
		}
		time.Sleep(5 * time.Millisecond)
		j2.Reload()
	}
	rec := j2.Last()
	if rec.State != StateSucceeded {
		t.Fatalf("reclaimed job ended %q (%s)", rec.State, rec.Detail)
	}
	if rec.Node != "n2" {
		t.Fatalf("final record from node %q, want the reclaimer n2", rec.Node)
	}
	j2.Reload()
	if err := AuditLease(j2.Dir(), j2.History()); err != nil {
		t.Fatal(err)
	}
}

// TestNodeHeartbeats pins the liveness registry behind load shedding.
func TestNodeHeartbeats(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	stA := openNode(t, dir, "a")
	stB := openNode(t, dir, "b")
	if err := stA.WriteNodeHeartbeat(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := stB.WriteNodeHeartbeat(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := AliveNodes([]string{dir}, "a"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("AliveNodes excluding a = %v, want [b]", got)
	}
	time.Sleep(50 * time.Millisecond) // b's heartbeat lapses
	if got := AliveNodes([]string{dir}, ""); len(got) != 1 || got[0] != "a" {
		t.Fatalf("AliveNodes after b expiry = %v, want [a]", got)
	}
	stA.RemoveNodeHeartbeat()
	if got := AliveNodes([]string{dir}, ""); len(got) != 0 {
		t.Fatalf("AliveNodes after removal = %v, want none", got)
	}
}

// TestGuardWriteZeroAlloc pins the single-node fast path: with no lease
// attached, the fencing guard consulted before every checkpoint write must
// not allocate (benchjson -diff separately guards the annealer inner loop).
func TestGuardWriteZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	st := openNode(t, dir, "")
	j, err := st.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := j.GuardWrite(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("GuardWrite without a lease allocates %.1f per op, want 0", allocs)
	}
}

// TestCheckJournalTokenMonotonic pins the journal-level fencing check: a
// record whose token goes backwards is a stale write and must be rejected.
func TestCheckJournalTokenMonotonic(t *testing.T) {
	t.Parallel()
	now := time.Now()
	recs := []Record{
		{Seq: 1, Time: now, State: StateQueued, Node: "a", Token: 1},
		{Seq: 2, Time: now, State: StateRunning, Node: "a", Token: 1, Attempt: 1},
		{Seq: 3, Time: now, State: StateQueued, Node: "b", Token: 2, Attempt: 1},
		{Seq: 4, Time: now, State: StateRunning, Node: "b", Token: 2, Attempt: 2},
	}
	if err := CheckJournal(recs); err != nil {
		t.Fatalf("monotonic tokens rejected: %v", err)
	}
	recs[3].Token = 1 // the zombie's write
	if err := CheckJournal(recs); err == nil {
		t.Fatal("token regression accepted")
	}
	// Token-less single-node records stay exempt.
	recs[3].Token = 0
	recs[3].Node = ""
	if err := CheckJournal(recs); err != nil {
		t.Fatalf("token-less record rejected: %v", err)
	}
}

// TestAppendInvariants pins Job.AppendOpts's two invariant sites: an append
// that breaks the record check trips jobs.transition, and a leased append
// whose token falls below one already journaled trips jobs.lease.fence.
// Both are observe-only: the append itself goes through. Not parallel:
// invariant checking is process-wide.
func TestAppendInvariants(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	invariant.Enable(invariant.Options{Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	defer invariant.Disable()
	st := openNode(t, t.TempDir(), "a")

	j, err := st.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(StateSucceeded, 1, "success out of nowhere"); err != nil {
		t.Fatal(err)
	}

	k, err := st.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	lease, _, err := st.Claim(k, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	// A journaled token above the live claim's: only a fabricated record
	// can get there, so plant one in memory.
	k.mu.Lock()
	k.records = append(k.records, Record{Seq: len(k.records) + 1, State: StateRunning, Node: "z", Token: lease.Token + 4})
	k.mu.Unlock()
	if _, err := k.Append(StateQueued, 1, "stale"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{
		fmt.Sprintf(`[jobs.transition]: job %s: invalid transition "queued" → "succeeded"`, j.ID),
		fmt.Sprintf(`[jobs.lease.fence]: job %s: appending token %d after token %d`, k.ID, lease.Token, lease.Token+4),
	}
	for _, w := range want {
		if !slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, w) }) {
			t.Errorf("no violation %q in %q", w, lines)
		}
	}
}

// TestAuditLease pins the claim-chain cross-check.
func TestAuditLease(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st := openNode(t, dir, "a")
	j, err := st.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Claim(j, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(StateRunning, 1, "executing"); err != nil {
		t.Fatal(err)
	}
	j.Reload()
	if err := AuditLease(j.Dir(), j.History()); err != nil {
		t.Fatal(err)
	}
	// A record under a token with no claim file is a fabricated write.
	forged := append(append([]Record{}, j.History()...),
		Record{Seq: 3, Time: time.Now(), State: StateQueued, Node: "x", Token: 99, Attempt: 1})
	if err := AuditLease(j.Dir(), forged); err == nil {
		t.Fatal("fabricated token passed the audit")
	}
	// A record claiming another node's token is a stolen write.
	stolen := append([]Record{}, j.History()...)
	stolen[len(stolen)-1].Node = "impostor"
	if err := AuditLease(j.Dir(), stolen); err == nil {
		t.Fatal("stolen token passed the audit")
	}
}

// TestTornClaimForcesReclaim pins the torn-write degradation: a claim file
// that lost its payload still occupies its token (the writer may believe it
// holds the lease) but reads as expired, so the next claimer supersedes it
// and the torn writer is fenced — never two owners.
func TestTornClaimForcesReclaim(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	stA := openNode(t, dir, "a")
	stB := openNode(t, dir, "b")
	j, err := stA.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	leaseA, _, err := stA.Claim(j, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Tear both the claim and the heartbeat mid-line, as a crash would.
	cpath := filepath.Join(j.Dir(), claimsDir, fmt.Sprintf("t%08d", leaseA.Token))
	if err := os.Truncate(cpath, 10); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(j.Dir(), claimsDir, heartbeatFile), 5); err != nil {
		t.Fatal(err)
	}
	jB := getJob(t, stB, j.ID)
	leaseB, _, err := stB.Claim(jB, time.Minute)
	if err != nil {
		t.Fatalf("claim over torn lease: %v", err)
	}
	if leaseB.Token != leaseA.Token+1 {
		t.Fatalf("reclaim token = %d, want %d (torn token still occupied)", leaseB.Token, leaseA.Token+1)
	}
	if err := leaseA.Validate(); !errors.Is(err, ErrFenced) {
		t.Fatalf("torn-claim writer not fenced: %v", err)
	}
}

// TestTakeoverDetailRoundTrip covers every detail noteClaim can journal
// for a takeover (any peer node, any token, an expired or a released
// lease): each survives the journal codec and is a takeover record to
// IsTakeoverDetail, which twobs uses. The other details the manager
// journals are not takeover records.
func TestTakeoverDetailRoundTrip(t *testing.T) {
	if got, want := TakeoverDetail("n1", 1, true), "lease takeover from n1 (token 1 expired)"; got != want {
		t.Fatalf("TakeoverDetail = %q, want %q", got, want)
	}
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for _, node := range []string{"n1", "nœud-1 \"east\"", "node (token 9 expired)", ""} {
		for _, token := range []uint64{1, 42, 1<<64 - 1} {
			for _, expired := range []bool{true, false} {
				detail := TakeoverDetail(node, token, expired)
				data, err := EncodeJournal([]Record{{Seq: 1, Time: t0, State: StateQueued, Detail: detail, Node: "n2", Token: 2}})
				if err != nil {
					t.Fatal(err)
				}
				recs, err := DecodeJournal(bytes.NewReader(data))
				if err != nil || len(recs) != 1 || recs[0].Detail != detail {
					t.Fatalf("%q: journal round trip = %+v, %v", detail, recs, err)
				}
				if !IsTakeoverDetail(recs[0].Detail) {
					t.Errorf("%q is not recognized as a takeover record", detail)
				}
			}
		}
	}
	for _, detail := range []string{"submitted", "executing", "recovered after restart", "canceled while queued", "interrupted by drain", ""} {
		if IsTakeoverDetail(detail) {
			t.Errorf("%q recognized as a takeover record", detail)
		}
	}
}

// TestReleaseRacingRenewStaysReleased races Renew (the scan loop's renewal)
// against Release (the drain path) on one lease, round after round: once
// Release has returned and the renewer has stopped, the heartbeat on disk
// must read released, never live.
func TestReleaseRacingRenewStaysReleased(t *testing.T) {
	t.Parallel()
	st := openNode(t, t.TempDir(), "a")
	job, err := st.Create(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		lease, _, err := st.Claim(job, time.Minute)
		if err != nil {
			t.Fatalf("round %d: claim: %v", round, err)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					_ = lease.Renew()
				}
			}
		}()
		time.Sleep(time.Millisecond)
		if err := lease.Release(); err != nil {
			t.Fatalf("round %d: release: %v", round, err)
		}
		close(stop)
		<-done
		ls, err := readLeaseState(job.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if holder, live := ls.heldBy(time.Now()); live {
			t.Fatalf("round %d: lease live after Release (held by %q)", round, holder)
		}
	}
}
