package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fsio"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/telemetry"
)

// Defaults for Config zero values.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 64
	DefaultRetries    = 1
	// DefaultLeaseTTL is how long a fleet node's job lease stays live
	// without a heartbeat before peers may reclaim the job.
	DefaultLeaseTTL = 3 * time.Second
	// DefaultScanEvery is the fleet scan/heartbeat cadence; it must be
	// comfortably under DefaultLeaseTTL so renewals never lapse by accident.
	DefaultScanEvery = 200 * time.Millisecond
)

// Cancellation causes, distinguished via context.Cause so the worker can
// journal the right terminal state.
var (
	errCanceled = errors.New("jobs: canceled by request")
	errDraining = errors.New("jobs: draining")
	errDeadline = errors.New("jobs: deadline exceeded")
	// errFenced cancels a running job whose lease was lost to another node;
	// the worker must stop without journaling — the job belongs to the
	// reclaimer now.
	errFenced = errors.New("jobs: lease fenced")
)

// ErrQueueFull is returned by Submit when the queue is at capacity; it
// carries a retry-after hint sized to the backlog so clients can back off
// instead of hammering.
type ErrQueueFull struct {
	Depth      int
	RetryAfter time.Duration
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("jobs: queue full (%d pending); retry after %v", e.Depth, e.RetryAfter)
}

// ErrDraining is returned by Submit once a drain has begun.
var ErrDraining = errors.New("jobs: not accepting jobs (draining)")

// ErrOverQuota is returned by Submit when the tenant's admission quota
// refuses the job (429-family: the client exceeded its own allowance, not
// the service's capacity). RetryAfter is computed from the token deficit
// and RetryBudget counts the remaining polite retries before hints escalate.
type ErrOverQuota struct {
	Tenant      string
	Reason      string // "rate" or "inflight"
	RetryAfter  time.Duration
	RetryBudget int
}

func (e *ErrOverQuota) Error() string {
	return fmt.Sprintf("jobs: tenant %s over quota (%s); retry after %v (retry budget %d)",
		e.Tenant, e.Reason, e.RetryAfter, e.RetryBudget)
}

// ErrShed is returned by Submit when the node sheds the submission under
// load (503-family: service capacity, not client quota). Reason "saturated"
// is the fleet try-a-peer hint; "overload" is the weighted high-water-mark
// shed that drops lowest-weight tenants first as the shared backlog fills.
type ErrShed struct {
	Tenant     string
	Reason     string // "saturated" or "overload"
	RetryAfter time.Duration
}

func (e *ErrShed) Error() string {
	return fmt.Sprintf("jobs: shedding %s submission (%s); retry after %v", e.Tenant, e.Reason, e.RetryAfter)
}

// ErrDiskFull is returned by Submit while the store's filesystem is full or
// read-only (it wraps fsio.ErrDiskFull, so errors.Is works against either).
// Accepting a job the store cannot journal would lose it on the next crash,
// so the manager refuses work until a write succeeds again.
var ErrDiskFull = fmt.Errorf("jobs: not accepting jobs: %w", fsio.ErrDiskFull)

// Config shapes a Manager.
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs before
	// Submit applies backpressure (default 64).
	QueueDepth int
	// Retries is the default per-job retry budget for transient failures
	// (default 1); a spec may override it (-1 disables).
	Retries int
	// Backoff is the delay schedule between retry attempts (default
	// par.DefaultBackoff).
	Backoff par.Backoff
	// CheckpointEvery is the outer-step interval between periodic job
	// checkpoints (default place.DefaultCheckpointEvery).
	CheckpointEvery int
	// Tel receives trace events, metrics, and progress lines from job
	// runs; its registry also carries the manager's own jobs.* metrics.
	Tel *telemetry.Tracer
	// Logf receives operational log lines (nil = silent).
	Logf func(string, ...any)

	// NodeID, when non-empty, switches the manager to fleet mode: jobs are
	// claimed from the shared store under TTL leases with fencing tokens
	// instead of dispatched from a private queue, so several processes can
	// serve one store without double-executing or clobbering each other.
	NodeID string
	// LeaseTTL is the job-lease lifetime in fleet mode (default
	// DefaultLeaseTTL). A node that misses renewals for this long loses its
	// jobs to peers.
	LeaseTTL time.Duration
	// ScanEvery is the fleet scan cadence (default DefaultScanEvery): node
	// heartbeat, store rescan, lease renewal, and claim sweep.
	ScanEvery time.Duration
	// PeerDirs lists additional store roots whose node heartbeats count as
	// live peers (for load-shedding hints). Nodes sharing this store's root
	// see each other without any PeerDirs.
	PeerDirs []string

	// Tenants configures per-tenant quotas, weights, and admission control
	// (nil = every tenant gets DefaultTenantPolicy: unit weight, no quotas
	// — the pre-tenancy behavior).
	Tenants *TenantConfig
	// LeaseRetention, when positive, garbage-collects lease litter on
	// Start: expired node heartbeats and terminal jobs' superseded claim
	// files older than the retention (the fencing high-water mark — the
	// highest claim file — is always preserved). Zero disables GC.
	LeaseRetention time.Duration

	// Retention, when positive, bounds store growth: Start launches a
	// periodic Store.GCJobs sweep deleting terminal job directories whose
	// last journal record is older than the window. The ID high-water
	// directory and dedup sources with surviving aliases are always
	// preserved (DESIGN.md §16). Zero disables the sweep.
	Retention time.Duration
	// ScrubEvery, when positive together with ScrubFunc, runs a low-priority
	// background integrity sweep over the store root at this cadence.
	ScrubEvery time.Duration
	// ScrubFunc performs one integrity sweep (read-only) over a store root,
	// returning the number of defects found. cmd/twserve wires in
	// scrub.Scan; the indirection exists because internal/scrub imports
	// this package.
	ScrubFunc func(root string) (defects int, err error)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Retries == 0 {
		c.Retries = DefaultRetries
	}
	if c.Backoff == (par.Backoff{}) {
		c.Backoff = par.DefaultBackoff
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.ScanEvery <= 0 {
		c.ScanEvery = DefaultScanEvery
	}
}

// Manager executes stored jobs on a bounded worker pool. Lifecycle:
//
//	m := jobs.NewManager(store, cfg)
//	recovered := m.Start()   // re-enqueues interrupted jobs, starts workers
//	...Submit / Cancel...
//	m.Drain(ctx)             // stop accepting, checkpoint in-flight, stop
//
// Everything the manager knows is reconstructable from the store, so a
// crashed process loses nothing: the next Start resumes interrupted jobs
// from their latest valid checkpoint, and the resumed run's final placement
// is byte-identical to an uninterrupted one (DESIGN.md §8, §10).
type Manager struct {
	store *Store
	cfg   Config

	ctx    context.Context // root; cancelled (cause errDraining) by Drain
	cancel context.CancelCauseFunc

	qmu      sync.Mutex
	qcond    *sync.Cond
	pending  []*Job
	stopping bool

	rmu     sync.Mutex
	running map[string]context.CancelCauseFunc

	// hmu guards held, the leases this node currently owns (fleet mode),
	// keyed by job ID. Entries are added by the claim sweep and removed on
	// release or fencing loss.
	hmu  sync.Mutex
	held map[string]*Lease

	// adm enforces per-tenant admission quotas; sched orders fleet claims
	// across tenants (owned by the scan goroutine).
	adm   *Admission
	sched *tenantSched

	wg sync.WaitGroup

	// jobs.* instruments (nil-safe no-ops when telemetry is off).
	mQueueDepth  *telemetry.Gauge
	mRunning     *telemetry.Gauge
	mSubmitted   *telemetry.Counter
	mRejected    *telemetry.Counter
	mRetries     *telemetry.Counter
	mRecovered   *telemetry.Counter
	mQuarantined *telemetry.Gauge
	mCkBytes     *telemetry.Gauge
	mStates      map[State]*telemetry.Gauge

	// jobs.dedup.* / jobs.idem.* / jobs.scrub.* instruments.
	mDedupHits    *telemetry.Counter
	mIdemReplays  *telemetry.Counter
	mScrubSweeps  *telemetry.Counter
	mScrubDefects *telemetry.Gauge

	// jobs.lease.* instruments (fleet mode).
	mLeaseClaims   *telemetry.Counter
	mLeaseRenewals *telemetry.Counter
	mLeaseExpiries *telemetry.Counter
	mLeaseFenced   *telemetry.Counter
	mReclaimLat    *telemetry.Histogram

	// tmu guards tmetrics, the per-tenant labeled instruments, created
	// lazily on a tenant's first submission and cached so the admission
	// fast path never rebuilds a labeled name.
	tmu      sync.Mutex
	tmetrics map[string]tenantInstruments
}

// tenantInstruments are one tenant's labeled jobs.tenant.* instruments.
type tenantInstruments struct {
	submitted *telemetry.Counter
	rejected  *telemetry.Counter
	shed      *telemetry.Counter
	inflight  *telemetry.Gauge
}

// NewManager builds a manager over store. Call Start to begin executing.
func NewManager(store *Store, cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		store:    store,
		cfg:      cfg,
		running:  map[string]context.CancelCauseFunc{},
		held:     map[string]*Lease{},
		adm:      NewAdmission(cfg.Tenants),
		sched:    newTenantSched(cfg.Tenants),
		tmetrics: map[string]tenantInstruments{},
	}
	m.ctx, m.cancel = context.WithCancelCause(context.Background())
	m.qcond = sync.NewCond(&m.qmu)
	store.SetNode(cfg.NodeID)
	reg := cfg.Tel.Registry()
	m.mQueueDepth = reg.Gauge("jobs.queue_depth")
	m.mRunning = reg.Gauge("jobs.running")
	m.mSubmitted = reg.Counter("jobs.submitted")
	m.mRejected = reg.Counter("jobs.rejected")
	m.mRetries = reg.Counter("jobs.retries")
	m.mRecovered = reg.Counter("jobs.recovered")
	m.mQuarantined = reg.Gauge("jobs.quarantined")
	m.mCkBytes = reg.Gauge("jobs.checkpoint_bytes")
	m.mStates = map[State]*telemetry.Gauge{}
	for _, st := range []State{StateQueued, StateRunning, StateSucceeded, StateFailed, StateCanceled, StateDedup} {
		m.mStates[st] = reg.Gauge("jobs.state." + string(st))
	}
	m.mDedupHits = reg.Counter("jobs.dedup.hits")
	m.mIdemReplays = reg.Counter("jobs.idem.replays")
	m.mScrubSweeps = reg.Counter("jobs.scrub.sweeps")
	m.mScrubDefects = reg.Gauge("jobs.scrub.defects")
	m.mLeaseClaims = reg.Counter("jobs.lease.claims")
	m.mLeaseRenewals = reg.Counter("jobs.lease.renewals")
	m.mLeaseExpiries = reg.Counter("jobs.lease.expiries")
	m.mLeaseFenced = reg.Counter("jobs.lease.fencing_rejections")
	m.mReclaimLat = reg.Histogram("jobs.lease.reclaim_seconds",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})
	return m
}

// fleet reports whether the manager runs in multi-node (leased) mode.
func (m *Manager) fleet() bool { return m.cfg.NodeID != "" }

// tenantInstruments returns (creating and caching on first use) the
// tenant's labeled jobs.tenant.* instruments. The cache keeps the labeled
// name construction off the admission fast path: a hit is one mutex and one
// map lookup, no allocation.
func (m *Manager) tenantInstrumentsFor(tenant string) tenantInstruments {
	tenant = canonTenant(tenant)
	m.tmu.Lock()
	defer m.tmu.Unlock()
	ti, ok := m.tmetrics[tenant]
	if !ok {
		reg := m.cfg.Tel.Registry()
		ti = tenantInstruments{
			submitted: reg.Counter(telemetry.LabeledName("jobs.tenant.submitted", "tenant", tenant)),
			rejected:  reg.Counter(telemetry.LabeledName("jobs.tenant.rejected", "tenant", tenant)),
			shed:      reg.Counter(telemetry.LabeledName("jobs.tenant.shed", "tenant", tenant)),
			inflight:  reg.Gauge(telemetry.LabeledName("jobs.tenant.inflight", "tenant", tenant)),
		}
		m.tmetrics[tenant] = ti
	}
	return ti
}

// Start re-enqueues every resumable job (crash/drain recovery) and launches
// the worker pool. It returns the number of recovered jobs.
//
// In fleet mode recovery happens through the lease protocol instead: the
// scan loop claims resumable jobs (our own from a previous incarnation, or a
// dead peer's once their lease expires), so Start only launches the scanner
// and workers and returns 0.
func (m *Manager) Start() int {
	if m.cfg.Retention > 0 {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.gcJobsLoop()
		}()
	}
	if m.cfg.ScrubEvery > 0 && m.cfg.ScrubFunc != nil {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.scrubLoop()
		}()
	}
	if m.cfg.LeaseRetention > 0 {
		if n, err := m.store.GCLeases(m.cfg.LeaseRetention); err != nil {
			m.cfg.Logf("jobs: lease gc: %v", err)
		} else if n > 0 {
			m.cfg.Logf("jobs: lease gc removed %d stale file(s)", n)
		}
	}
	if m.fleet() {
		if err := m.store.WriteNodeHeartbeat(3 * m.cfg.LeaseTTL); err != nil {
			m.cfg.Logf("jobs: node heartbeat: %v", err)
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.scan()
		}()
		for w := 0; w < m.cfg.Workers; w++ {
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.work()
			}()
		}
		return 0
	}
	resumable := m.store.Resumable()
	for _, j := range resumable {
		last := j.Last()
		detail := "recovered after restart"
		if _, err := os.Stat(j.CheckpointPath()); err == nil {
			detail = "recovered after restart (checkpoint present)"
		}
		if last.State == StateRunning {
			// The previous process died mid-run; journal the gap.
			if _, err := j.Append(StateQueued, last.Attempt, detail); err != nil {
				m.cfg.Logf("jobs: %s: %v", j.ID, err)
			}
		}
		m.mRecovered.Inc()
		m.cfg.Logf("jobs: recovered %s (%s)", j.ID, detail)
	}
	m.qmu.Lock()
	m.pending = append(m.pending, resumable...)
	m.qmu.Unlock()
	m.updateMetrics()
	for w := 0; w < m.cfg.Workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.work()
		}()
	}
	return len(resumable)
}

// gcJobsLoop is the retention sweep: delete terminal job directories older
// than the window (Store.GCJobs documents the protections). It runs one pass
// immediately so a restart with a shrunken -retention takes effect without
// waiting out a tick, then at a cadence comfortably finer than the window.
func (m *Manager) gcJobsLoop() {
	period := m.cfg.Retention / 2
	if period < 10*time.Second {
		period = 10 * time.Second
	}
	if period > 10*time.Minute {
		period = 10 * time.Minute
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		if n, err := m.store.GCJobs(m.cfg.Retention); err != nil {
			m.cfg.Logf("jobs: retention gc: %v", err)
		} else if n > 0 {
			m.cfg.Logf("jobs: retention gc removed %d expired job(s)", n)
			m.updateMetrics()
		}
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// scrubLoop runs the configured integrity sweep (cmd/twserve wires in
// scrub.Scan) as a low-priority background task. The first sweep waits out a
// full tick: Open already quarantined startup damage, so scrubbing again
// immediately would only delay the serving path.
func (m *Manager) scrubLoop() {
	t := time.NewTicker(m.cfg.ScrubEvery)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
		}
		defects, err := m.cfg.ScrubFunc(m.store.Root())
		m.mScrubSweeps.Inc()
		if err != nil {
			m.cfg.Logf("jobs: scrub: %v", err)
			continue
		}
		m.mScrubDefects.Set(float64(defects))
		if defects > 0 {
			m.cfg.Logf("jobs: scrub found %d defect(s)", defects)
		}
	}
}

// scan is the fleet maintenance loop: heartbeat the node, pick up jobs
// published by peers, renew held leases (fencing any we lost), and claim
// available work. It runs one pass immediately so a fresh node starts
// claiming without waiting out the first tick.
func (m *Manager) scan() {
	t := time.NewTicker(m.cfg.ScanEvery)
	defer t.Stop()
	for {
		m.scanOnce()
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (m *Manager) scanOnce() {
	if err := m.store.WriteNodeHeartbeat(3 * m.cfg.LeaseTTL); err != nil {
		m.cfg.Logf("jobs: node heartbeat: %v", err)
	}
	m.store.Rescan()
	m.renewHeld()
	m.claimWork()
	m.updateMetrics()
}

// renewHeld extends every held lease. A renewal that comes back ErrFenced
// means another node took the job over (our heartbeat lapsed past the TTL):
// cancel the local run with errFenced so it stops writing, and forget the
// lease. Other renewal errors (transient I/O) are only logged — the lease
// stays live on disk until its TTL actually lapses.
func (m *Manager) renewHeld() {
	m.hmu.Lock()
	held := make(map[string]*Lease, len(m.held))
	for id, l := range m.held {
		held[id] = l
	}
	m.hmu.Unlock()
	for id, l := range held {
		err := l.Renew()
		switch {
		case err == nil:
			m.mLeaseRenewals.Inc()
		case errors.Is(err, ErrFenced):
			m.mLeaseFenced.Inc()
			m.cfg.Logf("jobs: %s: %v", id, err)
			m.rmu.Lock()
			cancel, ok := m.running[id]
			m.rmu.Unlock()
			if ok {
				cancel(errFenced)
			}
			m.hmu.Lock()
			delete(m.held, id)
			m.hmu.Unlock()
			_ = l.Release() // marks the lease dead locally; skips the hb write
		default:
			m.cfg.Logf("jobs: %s: renew: %v", id, err)
		}
	}
}

// claimWork claims up to 2×Workers outstanding jobs (pending + running) so
// each node keeps a modest local buffer without hoarding the shared backlog.
// Every candidate not already terminal in memory re-syncs its journal from
// disk first, so the decision is made against the current owner's records,
// not a stale snapshot; a terminal job is skipped without a read.
//
// Claim order is deficit-weighted round-robin across tenants (sched.go):
// within a tenant jobs stay in store order, but the budget is spread across
// backlogged tenants by weight, so one tenant's burst cannot monopolize the
// node. The ordering is a fairness hint only — at-most-once execution comes
// from the lease fencing, not from who scans what first.
func (m *Manager) claimWork() {
	m.qmu.Lock()
	if m.stopping {
		m.qmu.Unlock()
		return
	}
	budget := m.cfg.Workers*2 - len(m.pending)
	m.qmu.Unlock()
	m.rmu.Lock()
	budget -= len(m.running)
	m.rmu.Unlock()
	if budget <= 0 {
		return
	}
	queues := map[string][]*Job{}
	for _, j := range m.store.List() {
		m.hmu.Lock()
		_, mine := m.held[j.ID]
		m.hmu.Unlock()
		// A terminal record is final (checkRecord refuses anything after
		// it) and disk is never behind memory, so no re-read can revive it.
		if mine || j.Last().State.Terminal() {
			continue
		}
		j.Reload()
		last := j.Last()
		if last.State != StateQueued && last.State != StateRunning {
			continue
		}
		t := canonTenant(j.Spec.Tenant)
		queues[t] = append(queues[t], j)
	}
	for _, j := range m.sched.order(queues) {
		if budget <= 0 {
			return
		}
		lease, prev, err := m.store.Claim(j, m.cfg.LeaseTTL)
		if err != nil {
			if !errors.Is(err, ErrLeaseHeld) {
				m.cfg.Logf("jobs: %s: claim: %v", j.ID, err)
			}
			continue
		}
		m.mLeaseClaims.Inc()
		if err := m.noteClaim(j, lease, prev); err != nil {
			// The takeover/recovery record is a precondition for running:
			// skipping it would let the new owner's running record land
			// directly after the old owner's with no journaled trace of the
			// ownership change. Give the claim back; the next scan retries.
			m.cfg.Logf("jobs: %s: claim note: %v", j.ID, err)
			if rerr := lease.Release(); rerr != nil {
				m.cfg.Logf("jobs: %s: release: %v", j.ID, rerr)
			}
			continue
		}
		m.hmu.Lock()
		m.held[j.ID] = lease
		m.hmu.Unlock()
		m.qmu.Lock()
		if m.stopping {
			m.qmu.Unlock()
			return
		}
		m.pending = append(m.pending, j)
		budget--
		m.qcond.Signal()
		m.qmu.Unlock()
	}
}

// takeoverPrefix starts every takeover record's detail.
const takeoverPrefix = "lease takeover from "

// TakeoverDetail is the detail of the queued record a node journals when it
// takes a running job over from a peer's expired or released lease. twobs
// recognizes takeover records by IsTakeoverDetail, so the two change
// together.
func TakeoverDetail(prevNode string, prevToken uint64, expired bool) string {
	how := "released"
	if expired {
		how = "expired"
	}
	return fmt.Sprintf("%s%s (token %d %s)", takeoverPrefix, prevNode, prevToken, how)
}

// IsTakeoverDetail reports whether a journal record's detail is a takeover
// record's (TakeoverDetail).
func IsTakeoverDetail(detail string) bool { return strings.HasPrefix(detail, takeoverPrefix) }

// noteClaim journals what a successful claim means: a takeover from a dead
// or drained peer, or this node recovering its own interrupted job. A plain
// claim of a freshly queued job needs no extra record — the claim file and
// the running record's token already tell the story. The record is
// mandatory: a non-nil error means the claim must be given back.
func (m *Manager) noteClaim(j *Job, lease *Lease, prev LeaseRecord) error {
	// Claim re-synced the journal from disk, so this is the prior owner's
	// final word, not the possibly stale pre-claim snapshot.
	last := j.Last()
	expired := prev.Token > 0 && !prev.Released
	if expired {
		m.mLeaseExpiries.Inc()
		if lat := leaseNow().Sub(prev.Expires); lat > 0 {
			m.mReclaimLat.Observe(lat.Seconds())
		}
	}
	takeover := false
	switch {
	case prev.Token > 0 && prev.Node != m.cfg.NodeID:
		detail := TakeoverDetail(prev.Node, prev.Token, expired)
		if last.State == StateRunning {
			takeover = true
			if _, err := j.Append(StateQueued, last.Attempt, detail); err != nil {
				return err
			}
		}
		m.cfg.Logf("jobs: %s: %s", j.ID, detail)
	case last.State == StateRunning:
		// Our own previous incarnation died mid-run; journal the gap like
		// single-node Start recovery does.
		if _, err := j.Append(StateQueued, last.Attempt, "recovered after restart"); err != nil {
			return err
		}
		m.mRecovered.Inc()
		m.cfg.Logf("jobs: recovered %s (lease token %d)", j.ID, prev.Token)
	}
	// One claim span per won claim, emitted only once any mandatory
	// takeover/recovery record is durable — so a takeover span without its
	// matching journal record is a protocol violation twobs can flag.
	now := time.Now().UTC()
	attrs := map[string]string{}
	if prev.Token > 0 {
		attrs["prev_node"] = prev.Node
		attrs["prev_token"] = strconv.FormatUint(prev.Token, 10)
		if expired {
			attrs["prev_lease"] = "expired"
		} else {
			attrs["prev_lease"] = "released"
		}
	}
	if takeover {
		attrs["takeover"] = "true"
	}
	j.guardedSpan(telemetry.Span{
		ID:    fmt.Sprintf("claim.t%d", lease.Token),
		Name:  "claim",
		Start: now,
		End:   now,
		Attrs: attrs,
	})
	return nil
}

// releaseLease gives up this node's lease on j (after the run finishes or a
// drain abandons the pending claim) so peers can pick the job up without
// waiting out the TTL.
func (m *Manager) releaseLease(j *Job) {
	m.hmu.Lock()
	l, ok := m.held[j.ID]
	delete(m.held, j.ID)
	m.hmu.Unlock()
	if !ok {
		return
	}
	if err := l.Release(); err != nil {
		m.cfg.Logf("jobs: %s: release: %v", j.ID, err)
	}
}

// PeersAlive counts other fleet nodes with live heartbeats, looking at this
// store's root plus any configured PeerDirs. Zero in single-node mode.
func (m *Manager) PeersAlive() int {
	if !m.fleet() {
		return 0
	}
	roots := append([]string{m.store.Root()}, m.cfg.PeerDirs...)
	return len(AliveNodes(roots, m.cfg.NodeID))
}

// Saturated reports whether this fleet node's claim budget is exhausted:
// local outstanding work (claimed-pending plus running) has reached
// 2×Workers, the same bound the scan loop claims up to. Always false in
// single-node mode, where the pending queue is the real backlog.
func (m *Manager) Saturated() bool {
	if !m.fleet() {
		return false
	}
	m.qmu.Lock()
	pending := len(m.pending)
	m.qmu.Unlock()
	m.rmu.Lock()
	running := len(m.running)
	m.rmu.Unlock()
	return pending+running >= m.cfg.Workers*2
}

// ShedHint reports whether a fleet front end should shed new submissions
// with a try-elsewhere hint: this node is saturated, live peers could take
// the work, and the shared backlog still has room (a full backlog is
// ErrQueueFull's 429, not shedding).
func (m *Manager) ShedHint() bool {
	if !m.Saturated() {
		return false
	}
	if m.store.QueuedCount() >= m.cfg.QueueDepth {
		return false
	}
	return m.PeersAlive() > 0
}

// Submit validates, persists, and enqueues a new job. The refusal surface,
// in precedence order (DESIGN.md §15): ErrDraining (shutting down),
// ErrDiskFull (store unwritable), *ErrOverQuota (tenant admission — rate or
// in-flight quota, a 429 with Retry-After), *ErrQueueFull (shared backlog
// at capacity, also 429), *ErrShed (capacity shedding — fleet try-a-peer or
// the weighted overload band, a 503). Nothing lands on disk for a refused
// submission. Submit also stamps the spec's absolute deadline (NotAfter)
// from a relative Deadline, so the deadline starts at submission and
// survives the hop to whichever fleet node claims the job.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	j, _, err := m.SubmitIdem(spec, "")
	return j, err
}

// SubmitIdem is Submit with an optional idempotency key. created is false
// only on an exact replay: the key was seen before with the same content
// digest, and the original job is returned without consuming quota or
// capacity (the HTTP layer's 200-instead-of-201). Reusing a key with a
// different spec fails with *ErrIdemConflict.
//
// Every accepted submission is also resolved against the content-digest
// index (DESIGN.md §16): when an identical spec is already executing or has
// a verified cached result, the new submission is registered as a dedup
// alias — journaled, visible, serving the shared result — without entering
// the queue. Dedupe resolution runs after admission, so quota accounting
// stays truthful per tenant, and before the capacity refusals, which exist
// to protect the queue an alias never touches.
func (m *Manager) SubmitIdem(spec Spec, key string) (*Job, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if spec.NotAfter == 0 && spec.Deadline > 0 {
		spec.NotAfter = time.Now().Add(time.Duration(spec.Deadline)).UnixMilli()
	}
	// The digest is stamped server-side; whatever the client sent is
	// untrusted and overwritten.
	spec.Digest = spec.ContentDigest()

	// Idempotency replay, before any refusal: a retry of an already-accepted
	// submission must succeed even while the node is draining or the
	// tenant's quota is exhausted — the work was admitted the first time.
	if key != "" {
		e, ok, err := m.store.LookupIdem(spec.Tenant, key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if e.Digest != spec.Digest {
				return nil, false, &ErrIdemConflict{Key: key, Job: e.Job}
			}
			if j, found := m.store.Lookup(e.Job); found {
				m.mIdemReplays.Inc()
				return j, false, nil
			}
			// The key names a job that no longer exists (retention GC without
			// the index sweep catching up, or manual surgery): fall through
			// and submit afresh; PublishIdem below will lose to the existing
			// entry, which is fine — the digest layer still collapses the
			// execution.
			m.cfg.Logf("jobs: idempotency key names missing job %s; resubmitting", e.Job)
		}
	}

	m.qmu.Lock()
	if m.stopping {
		m.qmu.Unlock()
		return nil, false, ErrDraining
	}
	m.qmu.Unlock()
	// Disk-full latch: retest with a probe write (self-healing once space
	// returns) and refuse work while the store is unwritable.
	if !m.store.ProbeDisk() {
		m.mRejected.Inc()
		return nil, false, ErrDiskFull
	}
	// Tenant admission: quota refusals outrank capacity refusals so a
	// client over its own allowance always sees its 429, not a transient
	// capacity 503 that hides the quota problem. It also outranks the dedup
	// fast path: a cache hit is still one admission against the tenant's own
	// rate quota (the digest deliberately excludes the tenant, so tenants
	// share results but never each other's allowance).
	if dec := m.adm.Admit(spec.Tenant, m.store.TenantInFlight(spec.Tenant)); !dec.OK {
		m.mRejected.Inc()
		m.tenantInstrumentsFor(spec.Tenant).rejected.Inc()
		return nil, false, &ErrOverQuota{
			Tenant:      canonTenant(spec.Tenant),
			Reason:      dec.Reason,
			RetryAfter:  dec.RetryAfter,
			RetryBudget: dec.BudgetLeft,
		}
	}

	job, err := m.submitResolved(spec)
	if err != nil {
		return nil, false, err
	}
	if key != "" {
		m.publishIdemKey(&spec, key, job)
	}
	return job, true, nil
}

// submitResolved resolves an admitted submission against the digest index
// and either registers it as a dedup alias (cache hit / in-flight
// subscribe) or wins a digest generation and executes it for real. The
// claim-then-publish dance mirrors the lease layer: an O_EXCL pending entry
// decides racing submitters, the winner creates the job and fills the entry
// in, losers poll the entry until the job ID appears.
func (m *Manager) submitResolved(spec Spec) (*Job, error) {
	// An already-lapsed absolute deadline bypasses the index entirely: the
	// deadline contract (DESIGN.md §15) promises a journaled fail-fast, and
	// neither an alias nor a cache hit can deliver one. It must not claim a
	// digest generation either — a dead-on-arrival job is no dedupe source.
	if na := spec.NotAfterTime(); !na.IsZero() && !time.Now().Before(na) {
		return m.submitExecuting(spec)
	}
	// ~5s of polling against a pending claim before giving up on the index.
	const pendingPoll = 25 * time.Millisecond
	for tries := 0; tries < 200; tries++ {
		claim, entry, err := m.store.ClaimDigest(spec.Digest)
		if err != nil {
			// The index is damaged or unwritable; the store itself may still
			// be fine, so fall back to an un-indexed execution below.
			m.cfg.Logf("jobs: dedup: %v; submitting without index", err)
			break
		}
		if claim == nil {
			if entry.Job == "" {
				// A racer holds the pending claim; its job ID appears within
				// the publish window. Poll rather than claim a duplicate.
				time.Sleep(pendingPoll)
				continue
			}
			src, live := m.store.sourceLive(entry.Job)
			if !live {
				continue // source died since the claim scan; take over
			}
			return m.submitAlias(spec, src)
		}
		job, err := m.submitExecuting(spec)
		if err != nil {
			claim.Abandon()
			return nil, err
		}
		if err := claim.Publish(job.ID); err != nil {
			// The job runs regardless; the worst case is the pending entry
			// aging out and a later submit executing the digest again under
			// the next generation (exactly-once holds per generation).
			m.cfg.Logf("jobs: %s: dedup publish: %v", job.ID, err)
		}
		return job, nil
	}
	// Pending-claim poll exhausted (or index unusable): submit an
	// independent, un-indexed execution. Determinism makes its result
	// byte-identical to the indexed one, so correctness survives; only the
	// dedupe economy is lost.
	m.cfg.Logf("jobs: dedup: index did not settle for %s; submitting without index", spec.Digest)
	return m.submitExecuting(spec)
}

// submitAlias registers an admitted submission as a dedup alias of src,
// journaled queued→dedup and born terminal: it never enters the queue, is
// never claimable by fleet nodes, and serves src's result by link. A
// succeeded source's artifacts were already CRC-verified against its
// journal by the liveness check, so the cache never fans out rotted bytes.
func (m *Manager) submitAlias(spec Spec, src *Job) (*Job, error) {
	kind := "subscribed to in-flight"
	if src.Last().State == StateSucceeded {
		kind = "cache hit"
	}
	alias, err := m.store.CreateAlias(spec, src.ID, fmt.Sprintf("dedup: %s %s", kind, src.ID))
	if err != nil {
		if errors.Is(err, fsio.ErrDiskFull) {
			m.mRejected.Inc()
			return nil, fmt.Errorf("%w (%v)", ErrDiskFull, err)
		}
		return nil, err
	}
	m.mDedupHits.Inc()
	m.mSubmitted.Inc()
	m.tenantInstrumentsFor(spec.Tenant).submitted.Inc()
	m.cfg.Logf("jobs: %s %s (digest %s)", alias.ID,
		fmt.Sprintf("dedup: %s %s", kind, src.ID), spec.Digest)
	m.updateMetrics()
	return alias, nil
}

// submitExecuting applies the capacity refusals and persists + enqueues a
// real execution. It is the tail of the historical Submit: everything here
// protects the queue, which is why dedup aliases bypass it.
func (m *Manager) submitExecuting(spec Spec) (*Job, error) {
	m.qmu.Lock()
	if m.stopping {
		m.qmu.Unlock()
		return nil, ErrDraining
	}
	depth := len(m.pending)
	m.qmu.Unlock()
	if m.fleet() {
		// The local pending buffer only mirrors claimed work; backpressure
		// in fleet mode is the shared store's queued backlog, which every
		// node's Submit sees.
		depth = m.store.QueuedCount()
	}
	if depth >= m.cfg.QueueDepth {
		m.mRejected.Inc()
		m.tenantInstrumentsFor(spec.Tenant).rejected.Inc()
		return nil, &ErrQueueFull{Depth: depth, RetryAfter: m.retryAfter(depth)}
	}
	if err := m.shedSubmit(spec.Tenant, depth); err != nil {
		m.mRejected.Inc()
		m.tenantInstrumentsFor(spec.Tenant).shed.Inc()
		return nil, err
	}

	// Persist outside the queue lock (disk I/O), then enqueue. Concurrent
	// submits can overshoot QueueDepth by the number of in-flight Creates;
	// the bound is backpressure, not a hard invariant.
	job, err := m.store.Create(spec)
	if err != nil {
		if errors.Is(err, fsio.ErrDiskFull) {
			// The probe passed but the real write hit ENOSPC/EROFS; the
			// latch is set, so report it as the same refusal.
			m.mRejected.Inc()
			return nil, fmt.Errorf("%w (%v)", ErrDiskFull, err)
		}
		return nil, err
	}
	if m.fleet() {
		// Fleet mode never enqueues directly: the job is durably queued in
		// the shared store, and whichever node's scan loop claims it first
		// (possibly ours, within ScanEvery) runs it under a lease.
		m.mSubmitted.Inc()
		m.tenantInstrumentsFor(spec.Tenant).submitted.Inc()
		m.updateMetrics()
		return job, nil
	}
	m.qmu.Lock()
	if m.stopping {
		// Drain began while persisting: leave the job durably queued; the
		// next Start picks it up.
		m.qmu.Unlock()
		m.updateMetrics()
		return job, nil
	}
	m.pending = append(m.pending, job)
	m.qcond.Signal()
	m.qmu.Unlock()
	m.mSubmitted.Inc()
	m.tenantInstrumentsFor(spec.Tenant).submitted.Inc()
	m.updateMetrics()
	return job, nil
}

// publishIdemKey durably records key → job after a successful submission,
// best-effort: the job already exists either way, and a lost first-writer
// race just means a concurrent retry's job owns the key — both executions
// were collapsed by the digest layer, so either link is correct.
func (m *Manager) publishIdemKey(spec *Spec, key string, job *Job) {
	e, err := m.store.PublishIdem(spec.Tenant, key, spec.Digest, job.ID)
	switch {
	case err != nil:
		m.cfg.Logf("jobs: %s: idempotency key: %v", job.ID, err)
	case e.Job != job.ID:
		m.cfg.Logf("jobs: %s: idempotency key %.40q raced; owned by %s", job.ID, key, e.Job)
	}
}

// shedSubmit decides whether to shed a submission for capacity reasons
// (503-family), given the shared backlog depth already measured by Submit.
// Two sheds exist:
//
//   - "saturated": the fleet try-a-peer hint — this node's claim budget is
//     exhausted, live peers could take the work, and the backlog has room
//     (a full backlog stays ErrQueueFull's 429). Tenant-agnostic, same as
//     ShedHint.
//   - "overload": graceful degradation as the backlog fills. Above a
//     high-water mark (3/4 of QueueDepth) each tenant gets a weighted slice
//     of the remaining band: tenant w's submissions shed once depth >=
//     hwm + (QueueDepth-hwm)·w/maxWeight. Lowest-weight tenants shed first;
//     the heaviest tenant never sheds before the backlog is hard-full.
//     With no tenant config every weight is maxWeight and the band is
//     inactive — the pre-tenancy behavior.
func (m *Manager) shedSubmit(tenant string, depth int) error {
	if m.fleet() && m.Saturated() && m.PeersAlive() > 0 {
		return &ErrShed{Tenant: canonTenant(tenant), Reason: "saturated", RetryAfter: time.Second}
	}
	q := m.cfg.QueueDepth
	hwm := q * 3 / 4
	if depth < hwm || hwm >= q {
		return nil
	}
	w := m.cfg.Tenants.Policy(tenant).Weight
	maxW := m.cfg.Tenants.MaxWeight()
	if w > maxW {
		maxW = w
	}
	limit := hwm + (q-hwm)*w/maxW
	if depth >= limit {
		return &ErrShed{Tenant: canonTenant(tenant), Reason: "overload", RetryAfter: m.retryAfter(depth)}
	}
	return nil
}

// retryAfter sizes a backpressure hint to the backlog: roughly one second
// of queue per worker, clamped to [1s, 60s].
func (m *Manager) retryAfter(depth int) time.Duration {
	d := time.Duration(depth/m.cfg.Workers) * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// DiskFull reports whether the store is refusing work because its
// filesystem is full or read-only (readyz flips to 503 on this).
func (m *Manager) DiskFull() bool { return m.store.DiskFull() }

// QueueDepth returns the number of jobs waiting to run.
func (m *Manager) QueueDepth() int {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return len(m.pending)
}

// Cancel cancels the job: a running job's context is cancelled (it
// checkpoints and stops at the next stride boundary), a queued job is
// journaled canceled and skipped at dispatch. Cancelling an already
// terminal job reports false.
func (m *Manager) Cancel(id string) (bool, error) {
	j, ok := m.store.Get(id)
	if !ok {
		return false, fmt.Errorf("jobs: no job %s", id)
	}
	m.rmu.Lock()
	cancel, isRunning := m.running[id]
	m.rmu.Unlock()
	if isRunning {
		cancel(errCanceled)
		return true, nil
	}
	if j.Last().State != StateQueued {
		return false, nil
	}
	// Append enforces the terminal-state invariant atomically, so this
	// cannot corrupt the journal even if the job finishes concurrently.
	if _, err := j.Append(StateCanceled, 0, "canceled while queued"); err != nil {
		if errors.Is(err, ErrTerminal) {
			return false, nil
		}
		return false, err
	}
	m.updateMetrics()
	return true, nil
}

// Drain performs a graceful shutdown: stop accepting submissions, leave
// queued jobs durably queued, cancel in-flight jobs so they checkpoint and
// journal themselves back to queued, and wait for the workers to stop. The
// ctx bounds the wait; on expiry the remaining work is abandoned — still
// resumable, which is the point of the store.
func (m *Manager) Drain(ctx context.Context) error {
	m.qmu.Lock()
	m.stopping = true
	m.qcond.Broadcast()
	m.qmu.Unlock()
	m.cancel(errDraining)
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var derr error
	select {
	case <-done:
	case <-ctx.Done():
		derr = fmt.Errorf("jobs: drain: %w", ctx.Err())
	}
	if m.fleet() {
		// Release every lease still held (claimed-but-undispatched jobs, or
		// in-flight ones if the drain timed out) and withdraw the node
		// heartbeat, so peers reclaim this node's work immediately instead
		// of waiting out the lease TTL.
		m.hmu.Lock()
		held := make([]*Lease, 0, len(m.held))
		for _, l := range m.held {
			held = append(held, l)
		}
		m.held = map[string]*Lease{}
		m.hmu.Unlock()
		for _, l := range held {
			if err := l.Release(); err != nil {
				m.cfg.Logf("jobs: release on drain: %v", err)
			}
		}
		m.store.RemoveNodeHeartbeat()
	}
	return derr
}

// work is one worker's dispatch loop.
func (m *Manager) work() {
	for {
		m.qmu.Lock()
		for len(m.pending) == 0 && !m.stopping {
			m.qcond.Wait()
		}
		if m.stopping {
			m.qmu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.qmu.Unlock()
		if j.Last().State == StateQueued {
			m.runJob(j)
		}
		if m.fleet() {
			m.releaseLease(j)
		}
		m.updateMetrics()
	}
}

// outcome carries what happened inside an execution attempt out to the
// retry loop's final bookkeeping.
type outcome struct {
	attempt  int
	terminal State // set when the attempt already journaled the job's fate
	// fenced means the lease was lost mid-attempt: another node owns the
	// job and its journal now, so this node writes nothing and stops.
	fenced bool
}

// runJob executes one job with bounded retries and backoff, journaling
// every transition. Panics are confined to the attempt and retried
// (par.Retry's recovery semantics).
func (m *Manager) runJob(j *Job) {
	if m.failExpired(j) {
		return
	}
	retries := m.cfg.Retries
	switch {
	case j.Spec.Retries > 0:
		retries = j.Spec.Retries
	case j.Spec.Retries < 0:
		retries = 0
	}
	var out outcome
	attempts, err := par.Retry(m.ctx, 0, retries, m.cfg.Backoff, func() error {
		out = outcome{}
		err := m.attempt(j, &out)
		if err != nil && m.ctx.Err() == nil && !isCtxErr(err) {
			// A transient failure the retry loop may rerun: journal it so
			// the history shows every attempt.
			m.mRetries.Inc()
			if _, jerr := j.Append(StateQueued, out.attempt,
				fmt.Sprintf("attempt failed: %s", truncate(err.Error(), 300))); jerr != nil {
				m.cfg.Logf("jobs: %s: %v", j.ID, jerr)
			}
		}
		return err
	})
	switch {
	case out.fenced:
		// The lease was lost mid-run: the job's journal belongs to the
		// node that reclaimed it, and whatever it decides is the truth.
		m.cfg.Logf("jobs: %s: fenced; taken over by another node", j.ID)
	case out.terminal != "":
		// The attempt journaled its own fate (succeeded, failed DRC or
		// deadline, canceled, or interrupted-by-drain → queued).
	case err == nil:
		// Defensive: a nil error always sets a terminal outcome above.
	case m.ctx.Err() != nil:
		// Drain between attempts: the transient-failure record already
		// left the job queued for the next process.
	default:
		detail := fmt.Sprintf("failed after %d attempt(s): %s", attempts, truncate(err.Error(), 300))
		if _, jerr := j.Append(StateFailed, out.attempt, detail); jerr != nil {
			m.cfg.Logf("jobs: %s: %v", j.ID, jerr)
		}
		m.cfg.Logf("jobs: %s %s", j.ID, detail)
	}
}

// failExpired fails a job whose absolute deadline (Spec.NotAfter) already
// passed, without spending an execution attempt on it: a job that can no
// longer finish in time burns a worker for nothing. In fleet mode this runs
// after the claim (journaling needs the lease), so the failing node is the
// job's legitimate owner. Reports whether the job was disposed of.
func (m *Manager) failExpired(j *Job) bool {
	na := j.Spec.NotAfterTime()
	if na.IsZero() || time.Now().Before(na) {
		return false
	}
	last := j.Last()
	detail := fmt.Sprintf("deadline expired %v before execution; failed fast",
		time.Since(na).Round(time.Millisecond))
	if _, err := j.Append(StateFailed, last.Attempt, detail); err != nil {
		// Terminal already (canceled race) or fenced — either way the job
		// is no longer ours to run.
		m.cfg.Logf("jobs: %s: %v", j.ID, err)
		return true
	}
	m.cfg.Logf("jobs: %s %s", j.ID, detail)
	return true
}

// attempt executes the job once and folds any fencing loss — surfacing from
// a journal append, the checkpoint guard inside the annealer, a result
// write, or an errFenced cancellation — into out.fenced with a nil error,
// which stops the retry loop without journaling under the stale token.
func (m *Manager) attempt(j *Job, out *outcome) error {
	start := time.Now().UTC()
	err := m.attemptOnce(j, out)
	end := time.Now().UTC()
	if err != nil && errors.Is(err, ErrFenced) {
		out.fenced = true
		m.mLeaseFenced.Inc()
		// The fenced-abort marker is the one span a superseded node still
		// writes: it documents the abort under the now-stale identity, and
		// twobs exempts the "fenced" name from zombie-write detection for
		// exactly this record.
		j.appendSpan(telemetry.Span{
			ID:    fmt.Sprintf("fenced.a%d", out.attempt),
			Name:  "fenced",
			Node:  m.cfg.NodeID,
			Start: start,
			End:   end,
			Attrs: map[string]string{"attempt": strconv.Itoa(out.attempt)},
		})
		return nil
	}
	oc := "retry"
	switch {
	case out.terminal != "":
		oc = string(out.terminal)
	case err == nil:
		oc = "done"
	case m.ctx.Err() != nil || isCtxErr(err):
		oc = "interrupted"
	}
	j.guardedSpan(telemetry.Span{
		ID:    fmt.Sprintf("a%d", out.attempt),
		Name:  "attempt",
		Start: start,
		End:   end,
		Attrs: map[string]string{
			"attempt": strconv.Itoa(out.attempt),
			"outcome": oc,
		},
	})
	return err
}

// attemptOnce executes the job once under its own context. Terminal outcomes
// are journaled here and signalled through out; the returned error drives
// the retry loop (nil = done, context errors = stop, else = retry).
func (m *Manager) attemptOnce(j *Job, out *outcome) error {
	ctx, cancel := context.WithCancelCause(m.ctx)
	defer cancel(nil)
	// Per-attempt deadline, tightened by the spec's absolute NotAfter: the
	// attempt is cut off at whichever comes first.
	var dl time.Time
	if d := time.Duration(j.Spec.Deadline); d > 0 {
		dl = time.Now().Add(d)
	}
	if na := j.Spec.NotAfterTime(); !na.IsZero() && (dl.IsZero() || na.Before(dl)) {
		dl = na
	}
	if !dl.IsZero() {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithDeadlineCause(ctx, dl, errDeadline)
		defer cancelT()
	}
	m.rmu.Lock()
	m.running[j.ID] = cancel
	m.rmu.Unlock()
	defer func() {
		m.rmu.Lock()
		delete(m.running, j.ID)
		m.rmu.Unlock()
	}()

	out.attempt = j.Last().Attempt + 1
	if _, err := j.Append(StateRunning, out.attempt, "executing"); err != nil {
		if errors.Is(err, ErrTerminal) {
			// Canceled between dispatch and execution.
			out.terminal = j.Last().State
			return nil
		}
		return err
	}
	m.updateMetrics()

	c, err := j.Spec.Circuit()
	if err != nil {
		// Validated at submit time; only a store from a newer/older
		// version can get here. Deterministic, so don't retry.
		return m.fail(j, out, err.Error())
	}

	opts := j.Spec.coreOptions(j.CheckpointPath(), m.cfg.CheckpointEvery)
	// Tee the run's trace events into anneal-phase spans parented to this
	// attempt. The recorder appends through guardedSpan, so a node whose
	// lease is lost mid-run stops leaving spans at the same boundary it
	// stops leaving checkpoints.
	opts.Tel = m.cfg.Tel.Fan(telemetry.NewRunSpans(fmt.Sprintf("a%d", out.attempt), j.guardedSpan))
	// Fencing at the checkpoint boundary: every periodic checkpoint save
	// first validates the lease, so a zombie whose lease expired stops at
	// its next save instead of clobbering the reclaimer's checkpoint.
	// GuardWrite is a no-op when the job carries no lease (single-node).
	opts.CheckpointGuard = j.GuardWrite

	var from core.Start
	if ck := m.loadCheckpoint(j, c); ck != nil {
		m.cfg.Logf("jobs: %s resuming from checkpoint: %s", j.ID, ck)
		from.Checkpoint = ck
	}
	res, err := core.Run(ctx, c, from, opts)
	if fi, serr := os.Stat(j.CheckpointPath()); serr == nil {
		m.mCkBytes.Set(float64(fi.Size()))
	}
	if err != nil {
		switch cause := context.Cause(ctx); {
		case errors.Is(cause, errDraining):
			out.terminal = StateQueued
			m.journal(j, StateQueued, out.attempt, "interrupted by drain; resumable")
			return err
		case errors.Is(cause, errCanceled):
			out.terminal = StateCanceled
			m.journal(j, StateCanceled, out.attempt, "canceled")
			return err
		case errors.Is(cause, errDeadline):
			out.terminal = StateFailed
			detail := fmt.Sprintf("deadline %v exceeded", time.Duration(j.Spec.Deadline))
			if j.Spec.Deadline == 0 {
				detail = fmt.Sprintf("absolute deadline %s exceeded", j.Spec.NotAfterTime().UTC().Format(time.RFC3339))
			}
			m.journal(j, StateFailed, out.attempt, detail)
			return err
		case errors.Is(cause, errFenced):
			// The renew loop detected a takeover and cancelled us; the
			// attempt wrapper converts this into a silent fenced stop.
			return ErrFenced
		}
		// Transient failure: the retry loop decides. A checkpoint, if one
		// was written, lets the retry resume instead of recomputing.
		return err
	}
	return m.finish(j, c, res, out)
}

// journal appends best-effort, logging instead of failing (used on paths
// already carrying an error).
func (m *Manager) journal(j *Job, st State, attempt int, detail string) {
	if _, err := j.Append(st, attempt, detail); err != nil {
		m.cfg.Logf("jobs: %s: %v", j.ID, err)
	}
}

// fail journals a deterministic failure and stops the retry loop.
func (m *Manager) fail(j *Job, out *outcome, detail string) error {
	out.terminal = StateFailed
	if _, err := j.Append(StateFailed, out.attempt, truncate(detail, 300)); err != nil {
		return err
	}
	m.cfg.Logf("jobs: %s failed: %s", j.ID, detail)
	return nil
}

// finish runs the legality gate and persists the job's result. A DRC error
// fails the job with diagnostics instead of silently returning a bad
// placement; DRC failures are deterministic, so they are not retried.
func (m *Manager) finish(j *Job, c *netlist.Circuit, res *core.Result, out *outcome) error {
	info := &ResultInfo{
		ID:         j.ID,
		Circuit:    c.Name,
		Attempts:   out.attempt,
		TEIL:       res.TEIL,
		Stage1TEIL: res.Stage1TEIL,
		ChipW:      res.Chip.W(),
		ChipH:      res.Chip.H(),
		Area:       res.ChipArea(),
	}
	if !j.Spec.SkipDRC {
		dr := res.DRC()
		info.DRCErrors = dr.Errors()
		info.DRCWarnings = dr.Warnings()
		if !dr.Clean() {
			for _, v := range dr.Violations {
				info.DRCViolations = append(info.DRCViolations, v.String())
			}
			if _, err := j.WriteResult(info); err != nil {
				return err
			}
			return m.fail(j, out, fmt.Sprintf("placement failed DRC: %d error(s), %d warning(s)",
				dr.Errors(), dr.Warnings()))
		}
	}
	pcrc, err := m.writePlacement(j, res)
	if err != nil {
		return err
	}
	info.Succeeded = true
	rcrc, err := j.WriteResult(info)
	if err != nil {
		return err
	}
	out.terminal = StateSucceeded
	detail := fmt.Sprintf("TEIL %.0f, chip %dx%d", res.TEIL, res.Chip.W(), res.Chip.H())
	// The succeeded record carries the artifact CRCs: placement.tw and
	// result.json have no internal framing, so this is what lets the dedupe
	// cache verify a source before fanning it out and lets twfsck detect
	// rot at rest.
	if _, err := j.AppendOpts(StateSucceeded, out.attempt, detail,
		RecordOpts{PlacementCRC: pcrc, ResultCRC: rcrc}); err != nil {
		return err
	}
	m.cfg.Logf("jobs: %s succeeded (%s)", j.ID, detail)
	return nil
}

// writePlacement persists the final placement through the verified
// artifact write and returns the CRC-32/Castagnoli of its bytes for the
// succeeded journal record.
func (m *Manager) writePlacement(j *Job, res *core.Result) (uint32, error) {
	var buf bytes.Buffer
	if err := place.WritePlacement(&buf, res.Placement); err != nil {
		return 0, err
	}
	return j.writeArtifact(placementFile, buf.Bytes())
}

// loadCheckpoint returns the job's checkpoint if present and valid for c,
// whichever kind it is (single-run or parallel-tempering ladder). A corrupt
// or mismatched checkpoint is quarantined and logged, never fatal: the job
// simply restarts from scratch.
func (m *Manager) loadCheckpoint(j *Job, c *netlist.Circuit) *place.AnyCheckpoint {
	path := j.CheckpointPath()
	if _, err := os.Stat(path); err != nil {
		return nil
	}
	ck, err := place.LoadCheckpoint(path)
	if err == nil {
		err = ck.Validate(c)
	}
	if err == nil {
		// Chaos injection: treat a freshly loaded, valid checkpoint as
		// corrupt, driving the quarantine-and-restart-from-scratch path.
		err = faultinject.Err(faultinject.JobsCheckpointCorrupt)
	}
	if err != nil {
		m.cfg.Logf("jobs: %s: quarantining bad checkpoint: %v", j.ID, err)
		m.store.QuarantineFile(path)
		return nil
	}
	return ck
}

// isCtxErr reports whether err is (or wraps) a context error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// truncate bounds s for journal details.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// updateMetrics refreshes the jobs.* gauges from the store and queue.
func (m *Manager) updateMetrics() {
	if m.cfg.Tel.Registry() == nil {
		return
	}
	m.mQueueDepth.Set(float64(m.QueueDepth()))
	m.rmu.Lock()
	m.mRunning.Set(float64(len(m.running)))
	m.rmu.Unlock()
	counts := m.store.StateCounts()
	for st, g := range m.mStates {
		g.Set(float64(counts[st]))
	}
	m.mQuarantined.Set(float64(m.store.Quarantined()))
	m.tmu.Lock()
	tenants := make([]string, 0, len(m.tmetrics))
	for t := range m.tmetrics {
		tenants = append(tenants, t)
	}
	m.tmu.Unlock()
	for _, t := range tenants {
		m.tenantInstrumentsFor(t).inflight.Set(float64(m.store.TenantInFlight(t)))
	}
}
