package jobs

// Lease-based multi-node job claiming (DESIGN.md §13).
//
// The store is a plain directory tree shared by N twserve processes (one
// local filesystem, N node IDs). Mutual exclusion over a job comes from a
// per-job claim chain: claims/t00000001, t00000002, ... — each an
// exclusively created file (fsio.CreateExclusive) holding one CRC-framed
// LeaseRecord. Exclusive creation is atomic across processes, so every
// token has exactly one winner, and tokens are monotonic by construction
// because a claimer always targets highestToken+1. Claim files are never
// deleted or rewritten while the job lives, so the high-water mark survives
// crashes and a late zombie can never reset it.
//
// The current holder is the node named in the highest-token claim file.
// Liveness is a TTL: the claim carries an initial expiry, and the holder
// refreshes it by rewriting claims/hb (fsio.WriteFileAtomic) with the same
// token. A heartbeat with a stale token is ignored by readers, so a
// zombie's last hb can never extend a superseded lease. A lease that is
// expired, explicitly released, or held by the reading node itself (an
// earlier incarnation) is claimable.
//
// O_EXCL plus a TTL is still an imperfect lock — a paused holder can wake
// after its TTL and keep writing. Safety therefore does not rest on the
// lock but on fencing: every durable write (journal append, checkpoint,
// placement, result) validates that the writer's token is still the highest
// claim before writing, and the chaos journal audit (AuditLease plus the
// TokenOrder fencing rule) verifies no stale write ever landed.

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/fsio"
	"repro/internal/invariant"
)

const (
	// LeaseVersion is bumped on any incompatible lease-record change.
	LeaseVersion = 1
	// maxLeaseLine bounds one lease record's JSON payload.
	maxLeaseLine = 1 << 16
)

// ErrFenced is returned by lease validation (and every fenced durable
// write) when a newer claim has superseded the caller's token: the job was
// taken over, and the caller must stop touching it.
var ErrFenced = errors.New("jobs: lease fenced (superseded by a newer claim)")

// ErrLeaseHeld is returned by Claim (and unleased fleet-mode writes) when
// another node holds a live lease on the job.
var ErrLeaseHeld = errors.New("jobs: lease held by another node")

// LeaseRecord is one claim or heartbeat: who holds which token until when.
type LeaseRecord struct {
	// Token is the fencing token; claim file t%08d carries Token N.
	Token uint64 `json:"token"`
	// Node is the claiming node's ID.
	Node string `json:"node"`
	// Time is when the record was written.
	Time time.Time `json:"time"`
	// Expires is when the lease lapses unless renewed.
	Expires time.Time `json:"expires"`
	// Released marks a voluntary release (drain): the lease is immediately
	// reclaimable without waiting out the TTL.
	Released bool `json:"released,omitempty"`
}

// leaseFormat frames claim and heartbeat records (internal/frame).
var leaseFormat = frame.Format{Magic: "twlease", Version: LeaseVersion, Max: maxLeaseLine}

// EncodeLeaseRecord renders rec as one framed line:
//
//	twlease VERSION CRC32C PAYLOADLEN PAYLOADJSON\n
//
// internal/frame's line record format, so a torn claim or heartbeat is
// detected rather than trusted.
func EncodeLeaseRecord(rec LeaseRecord) ([]byte, error) {
	data, err := leaseFormat.Append(nil, rec)
	if err != nil {
		return nil, fmt.Errorf("jobs: encode lease record: %w", err)
	}
	return data, nil
}

// DecodeLeaseRecord parses and verifies one framed lease record. It never
// panics on malformed input (FuzzDecodeLease pins this).
func DecodeLeaseRecord(data []byte) (LeaseRecord, error) {
	var rec LeaseRecord
	if err := leaseFormat.Decode(data, &rec); err != nil {
		return rec, fmt.Errorf("jobs: lease record: %w", err)
	}
	if rec.Token == 0 {
		return rec, fmt.Errorf("jobs: lease record: token 0 out of range")
	}
	if rec.Node == "" {
		return rec, fmt.Errorf("jobs: lease record: empty node")
	}
	return rec, nil
}

// leaseNow is the lease layer's clock: time.Now plus any injected skew
// (jobs.lease.skew Delay), so chaos schedules can make one node see peers'
// leases as already expired and prove fencing holds anyway.
func leaseNow() time.Time {
	now := time.Now()
	if f := faultinject.Check(faultinject.JobsLeaseSkew); f != nil {
		now = now.Add(f.Delay)
	}
	return now
}

// leaseState is the decoded on-disk lease view of one job.
type leaseState struct {
	// maxToken is the highest claim token present (by filename, so a torn
	// claim still counts — its writer may believe it holds the lease).
	maxToken uint64
	// top is the decoded highest claim; zero-valued (Node "") when the
	// claim file is torn or undecodable, which readers treat as an expired
	// lease held by an unknown node.
	top LeaseRecord
	// hb is the decoded heartbeat, if present and matching maxToken.
	hb LeaseRecord
}

// effective returns the record governing the current lease: the matching
// heartbeat when there is one (renewals extend expiry there), else the
// claim record itself.
func (ls *leaseState) effective() LeaseRecord {
	if ls.hb.Token == ls.maxToken && ls.maxToken != 0 {
		return ls.hb
	}
	return ls.top
}

// heldBy reports the live holder of the lease, if any, at time now. A torn
// top claim (Node "") reads as not live: the writer cannot validate its own
// token either, so treating it as expired cannot create two effective
// owners — it only forces a reclaim.
func (ls *leaseState) heldBy(now time.Time) (string, bool) {
	if ls.maxToken == 0 {
		return "", false
	}
	eff := ls.effective()
	if eff.Node == "" || eff.Released || !now.Before(eff.Expires) {
		return "", false
	}
	return eff.Node, true
}

// readLeaseState reads a job directory's claim chain and heartbeat. A
// missing claims directory is an empty state (never-claimed job); torn
// claim files still count by name, never as errors — the lease layer must
// keep working on a store a crash tore up.
func readLeaseState(dir string) (leaseState, error) {
	var ls leaseState
	chain, err := ReadClaimChain(dir)
	if err != nil {
		return ls, fmt.Errorf("jobs: lease state %s: %w", dir, err)
	}
	if len(chain) == 0 {
		return ls, nil
	}
	top := chain[len(chain)-1]
	ls.maxToken, ls.top = top.Token, top.Record
	ls.hb, _ = ReadHeartbeat(dir)
	return ls, nil
}

// Lease is one node's claim on one job. It is owned by the claiming
// manager; Renew/Release/Validate are safe for concurrent use.
type Lease struct {
	job  *Job
	node string
	ttl  time.Duration

	mu sync.Mutex
	// Token is the fencing token this lease was claimed under.
	Token uint64
	// released is set by Release (or a fencing loss) so later calls are
	// no-ops.
	released bool
}

// Node returns the claiming node's ID.
func (l *Lease) Node() string { return l.node }

// Claim attempts to take the lease on j for node s.NodeID() with the given
// TTL. It succeeds when the job has never been claimed, the current lease
// is expired or released, or the current holder is this node itself (an
// earlier incarnation after a restart — the new claim supersedes it). It
// returns ErrLeaseHeld when another node's lease is live, or when a racing
// claimer wins the O_EXCL create first.
//
// On success the job's in-memory journal is resynced from disk (the prior
// holder may have journaled records this process never saw) and the lease
// is attached to the job, so subsequent Appends stamp and validate it. prev
// reports the superseded lease (zero-valued for a first claim) so callers
// can journal takeovers and measure reclaim latency.
func (s *Store) Claim(j *Job, ttl time.Duration) (l *Lease, prev LeaseRecord, err error) {
	node := s.NodeID()
	if node == "" {
		return nil, LeaseRecord{}, fmt.Errorf("jobs: claim %s: store has no node ID (fleet mode off)", j.ID)
	}
	if ttl <= 0 {
		return nil, LeaseRecord{}, fmt.Errorf("jobs: claim %s: non-positive TTL %v", j.ID, ttl)
	}
	// Injected claim faults: Delay widens the read-decide-create window so
	// concurrent claimers pile onto the same token; Err fails the claim.
	if f := faultinject.Check(faultinject.JobsLeaseClaim); f != nil {
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Err != nil {
			return nil, LeaseRecord{}, fmt.Errorf("jobs: claim %s: %w", j.ID, f.Err)
		}
	}
	ls, err := readLeaseState(j.dir)
	if err != nil {
		return nil, LeaseRecord{}, err
	}
	now := leaseNow()
	if holder, live := ls.heldBy(now); live && holder != node {
		return nil, LeaseRecord{}, fmt.Errorf("%w: %s holds %s (token %d)", ErrLeaseHeld, holder, j.ID, ls.maxToken)
	}
	prev = ls.effective()
	token := ls.maxToken + 1
	rec := LeaseRecord{Token: token, Node: node, Time: now, Expires: now.Add(ttl)}
	data, err := EncodeLeaseRecord(rec)
	if err != nil {
		return nil, LeaseRecord{}, err
	}
	path := claimPath(j.dir, token)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, LeaseRecord{}, fmt.Errorf("jobs: claim %s: %w", j.ID, err)
	}
	if err := fsio.CreateExclusive(path, data, 0o644); err != nil {
		if errors.Is(err, fsio.ErrExists) {
			// Lost the race: someone else created this token first.
			return nil, LeaseRecord{}, fmt.Errorf("%w: lost claim race for %s token %d", ErrLeaseHeld, j.ID, token)
		}
		s.noteWrite(err)
		return nil, LeaseRecord{}, err
	}
	s.noteWrite(nil)
	// Invariant jobs.lease.token: O_EXCL hands out each token to exactly
	// one winner, and we always target maxToken+1, so a successful claim's
	// token must exceed everything previously on disk.
	if invariant.Enabled() && token <= ls.maxToken {
		invariant.Failf("jobs.lease.token", "job %s: claimed token %d not above prior max %d", j.ID, token, ls.maxToken)
	}
	// Injected torn claim: the create succeeded but the media lost part of
	// it. Readers see the token (filename) but no decodable record, treat
	// the lease as expired, and a reclaimer fences this claimer out.
	if f := faultinject.Check(faultinject.JobsLeaseTorn); f != nil {
		keep := int64(f.Frac * float64(len(data)))
		_ = os.Truncate(path, keep)
	}
	l = &Lease{job: j, node: node, ttl: ttl, Token: token}
	// Best-effort heartbeat; ownership and initial expiry live in the claim
	// file, so a failed hb write only shortens the first renewal window.
	_ = l.writeHeartbeat(rec)
	j.mu.Lock()
	j.reloadLocked()
	j.lease = l
	j.mu.Unlock()
	return l, prev, nil
}

// writeHeartbeat atomically replaces claims/hb with rec.
func (l *Lease) writeHeartbeat(rec LeaseRecord) error {
	data, err := EncodeLeaseRecord(rec)
	if err != nil {
		return err
	}
	werr := fsio.WriteFileAtomic(leaseHeartbeatPath(l.job.dir), data, 0o644)
	l.job.store.noteWrite(werr)
	return werr
}

// Validate confirms this lease still governs the job: its token is the
// highest claim on disk and names this node. Any newer claim means a
// takeover happened — the caller is fenced and must stop writing.
func (l *Lease) Validate() error {
	l.mu.Lock()
	released := l.released
	l.mu.Unlock()
	if released {
		return fmt.Errorf("%w: lease on %s was released", ErrFenced, l.job.ID)
	}
	ls, err := readLeaseState(l.job.dir)
	if err != nil {
		return err
	}
	if ls.maxToken != l.Token || ls.top.Node != l.node {
		return fmt.Errorf("%w: %s token %d superseded (disk has token %d, node %q)",
			ErrFenced, l.job.ID, l.Token, ls.maxToken, ls.top.Node)
	}
	return nil
}

// Renew extends the lease by its TTL via the heartbeat file, after
// validating the token is still the highest claim. Injected heartbeat
// faults (jobs.lease.heartbeat) stall the renewal past the TTL or fail it,
// opening real takeover windows for chaos schedules.
func (l *Lease) Renew() error {
	if f := faultinject.Check(faultinject.JobsLeaseHeartbeat); f != nil {
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Err != nil {
			return fmt.Errorf("jobs: renew %s: %w", l.job.ID, f.Err)
		}
	}
	if err := l.Validate(); err != nil {
		return err
	}
	// The live heartbeat is written under l.mu, after a second look at
	// released: a Release that lands between Validate and this write would
	// otherwise write its released heartbeat first and have it overwritten
	// by this live one, leaving a drained job looking held for a full TTL.
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return fmt.Errorf("%w: lease on %s was released", ErrFenced, l.job.ID)
	}
	now := leaseNow()
	return l.writeHeartbeat(LeaseRecord{Token: l.Token, Node: l.node, Time: now, Expires: now.Add(l.ttl)})
}

// Release voluntarily gives the lease up (drain path): the heartbeat is
// rewritten with Released set, so peers reclaim immediately instead of
// waiting out the TTL. Releasing an already fenced or released lease is a
// no-op — the lease is no longer ours to write.
func (l *Lease) Release() error {
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return nil
	}
	l.released = true
	l.mu.Unlock()
	l.job.mu.Lock()
	if l.job.lease == l {
		l.job.lease = nil
	}
	l.job.mu.Unlock()
	ls, err := readLeaseState(l.job.dir)
	if err != nil || ls.maxToken != l.Token || ls.top.Node != l.node {
		// Fenced (or unreadable): the current lease belongs to someone
		// else; leave their heartbeat alone.
		return err
	}
	now := leaseNow()
	return l.writeHeartbeat(LeaseRecord{Token: l.Token, Node: l.node, Time: now, Expires: now, Released: true})
}

// AuditLease cross-checks a job's journal against its on-disk claim chain:
// every journaled fencing token must exist as a claim file — except tokens
// strictly below the on-disk high-water mark, whose claim files lease GC
// (GCLeases) may have removed — a decodable claim must name the journaling
// node. A journaled token above the high-water mark is always a violation:
// tokens are only minted through O_EXCL claim files and the highest one is
// never GC'd, so such a record was fabricated. Token order along the journal
// is not checked here; CheckJournal and twobs's token-regression finding
// apply TokenOrder for that. Together they are the chaos verifier's proof
// that no record was written under a stale or fabricated token.
func AuditLease(dir string, recs []Record) error {
	chain, err := ReadClaimChain(dir)
	if err != nil {
		return fmt.Errorf("jobs: lease audit: %w", err)
	}
	var maxTok uint64
	if len(chain) > 0 {
		maxTok = chain[len(chain)-1].Token // the chain is token-ordered
	}
	for i, rec := range recs {
		if rec.Token == 0 {
			continue
		}
		k, ok := slices.BinarySearchFunc(chain, rec.Token, func(c ClaimFile, tok uint64) int { return cmp.Compare(c.Token, tok) })
		if !ok {
			if rec.Token < maxTok {
				// GC debris: the claim existed (tokens are only minted
				// through claim files) and was below the preserved
				// high-water mark when removed.
				continue
			}
			return fmt.Errorf("jobs: lease audit: journal record %d carries token %d with no claim file (high-water mark %d)",
				i, rec.Token, maxTok)
		}
		if claim := chain[k].Record; claim.Node != "" && rec.Node != claim.Node {
			return fmt.Errorf("jobs: lease audit: journal record %d: node %q wrote under token %d claimed by %q",
				i, rec.Node, rec.Token, claim.Node)
		}
	}
	return nil
}

// GCLeases removes lease litter a long-lived store accumulates: node
// liveness files whose heartbeat expired more than retention ago, and — for
// jobs already in a terminal state — superseded claim files (token below
// the chain's high-water mark) and dead lease heartbeats older than the
// retention. The highest claim file of every chain is always preserved: it
// is the fencing high-water mark, and removing it would let a token be
// re-minted. Undecodable files are aged by mtime. Returns the number of
// files removed; per-file errors are skipped, not fatal.
func (s *Store) GCLeases(retention time.Duration) (int, error) {
	if retention <= 0 {
		return 0, fmt.Errorf("jobs: lease gc: non-positive retention %v", retention)
	}
	now := leaseNow()
	removed := 0
	// Stale node liveness advertisements.
	for _, hb := range readNodeHeartbeats(s.root) {
		if hb.stale(now, retention) && os.Remove(hb.Path) == nil {
			removed++
		}
	}
	// Superseded claims and dead heartbeats of terminal jobs. Live jobs are
	// left alone wholesale: their chains are small and their leases are
	// load-bearing.
	for _, j := range s.List() {
		j.Reload()
		if !j.Last().State.Terminal() {
			continue
		}
		chain, err := ReadClaimChain(j.dir)
		if err != nil || len(chain) == 0 {
			continue
		}
		// The last claim is the high-water mark and stays, always.
		for _, c := range chain[:len(chain)-1] {
			if fi, serr := os.Stat(c.Path); serr == nil && now.Sub(fi.ModTime()) > retention {
				if os.Remove(c.Path) == nil {
					removed++
				}
			}
		}
		hb := readLeaseFile(leaseHeartbeatPath(j.dir))
		if hb.stale(now, retention) && os.Remove(hb.Path) == nil {
			removed++
		}
	}
	return removed, nil
}

// WriteNodeHeartbeat advertises this node as alive in <root>/nodes/, with a
// TTL-bounded expiry. Peers (and the load-shedding readyz path) count live
// entries to decide whether shedding to the fleet makes sense.
func (s *Store) WriteNodeHeartbeat(ttl time.Duration) error {
	node := s.NodeID()
	if node == "" {
		return fmt.Errorf("jobs: node heartbeat: store has no node ID")
	}
	now := leaseNow()
	data, err := EncodeLeaseRecord(LeaseRecord{Token: 1, Node: node, Time: now, Expires: now.Add(ttl)})
	if err != nil {
		return err
	}
	path := nodeHeartbeatPath(s.root, node)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("jobs: node heartbeat: %w", err)
	}
	return fsio.WriteFileAtomic(path, data, 0o644)
}

// RemoveNodeHeartbeat withdraws this node's liveness advertisement (clean
// shutdown); best-effort.
func (s *Store) RemoveNodeHeartbeat() {
	if node := s.NodeID(); node != "" {
		_ = os.Remove(nodeHeartbeatPath(s.root, node))
	}
}

// AliveNodes returns the IDs of nodes with unexpired heartbeats under the
// given store roots (deduplicated, sorted), excluding self.
func AliveNodes(roots []string, self string) []string {
	now := leaseNow()
	seen := map[string]bool{}
	for _, root := range roots {
		for _, hb := range readNodeHeartbeats(root) {
			if hb.Node == self || hb.Err != nil || hb.Rec.Node != hb.Node || !now.Before(hb.Rec.Expires) {
				continue
			}
			seen[hb.Node] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
