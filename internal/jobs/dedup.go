package jobs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/fsio"
)

// The dedupe index lives under <root>/index/ and makes submission
// retry-safe (idempotency keys) and duplicate-free (content digests):
//
//	<root>/index/
//	    idem/k<sha256 hex of tenant NUL key>.twk   idempotency key → job
//	    digest/<64 hex>/g000001.twd                digest generation claims
//
// Every entry is one line in internal/frame's record format ("twidx
// VERSION CRC32C LEN JSON\n"). Entries are created with
// fsio.CreateExclusive — the same first-writer-wins primitive the lease
// layer's claim files use — so racing submits resolve without locks: the
// winner's entry is the link everyone else follows. The framing lets
// readers detect a torn entry by checksum, quarantine it, and re-claim.
//
// A digest's generations form a chain: generation N is claimed pending
// (Job empty), then published with the executing job's ID. Followers alias
// to the highest generation whose job is live (queued, running, or
// succeeded). A generation whose job failed, was canceled, or vanished is
// dead; the next submitter claims generation N+1 and executes afresh. A
// pending claim older than digestPendingGrace is treated as abandoned (the
// claimant crashed between claim and publish) and superseded the same way.
const (
	IndexVersion = 1
	// maxIndexLine bounds one entry's JSON payload.
	maxIndexLine = 1 << 16
	// digestPendingGrace is how long a pending (unpublished) digest claim
	// stays authoritative before followers may supersede it. It must
	// comfortably cover the claim→create→publish window (a few fsyncs).
	digestPendingGrace = 10 * time.Second
)

// IndexEntry is one dedupe index record.
type IndexEntry struct {
	// Kind is "idem" (idempotency key → job) or "digest" (generation claim).
	Kind string `json:"kind"`
	// Tenant and Key are set on idem entries: the raw client key, scoped to
	// the canonical tenant (the file name is a hash of both, so the raw
	// values are kept for verification).
	Tenant string `json:"tenant,omitempty"`
	Key    string `json:"key,omitempty"`
	// Digest is the content digest the entry resolves ("sha256:<64 hex>").
	Digest string `json:"digest"`
	// Job is the linked job ID; empty on a digest claim still pending
	// publication.
	Job string `json:"job,omitempty"`
	// Gen is the digest generation (1-based); zero on idem entries.
	Gen int `json:"gen,omitempty"`
	// Time is when the entry was created (UTC); pending-claim staleness is
	// judged against it.
	Time time.Time `json:"time"`
	// Node is the creating node's ID ("" in single-node mode).
	Node string `json:"node,omitempty"`
}

// indexFormat frames every index entry (internal/frame).
var indexFormat = frame.Format{Magic: "twidx", Version: IndexVersion, Max: maxIndexLine}

// EncodeIndexEntry renders e as its one CRC-framed line.
func EncodeIndexEntry(e IndexEntry) ([]byte, error) {
	data, err := indexFormat.Append(nil, e)
	if err != nil {
		return nil, fmt.Errorf("jobs: encode index entry: %w", err)
	}
	return data, nil
}

// DecodeIndexEntry parses and verifies one index entry file's contents. It
// never panics on malformed input; every defect is a descriptive error.
func DecodeIndexEntry(data []byte) (IndexEntry, error) {
	var e IndexEntry
	if err := indexFormat.Decode(data, &e); err != nil {
		return e, fmt.Errorf("jobs: index entry: %w", err)
	}
	switch e.Kind {
	case "idem":
		if e.Job == "" {
			return e, fmt.Errorf("jobs: index entry: idem entry without a job")
		}
		if e.Gen != 0 {
			return e, fmt.Errorf("jobs: index entry: idem entry with generation %d", e.Gen)
		}
	case "digest":
		if e.Gen <= 0 {
			return e, fmt.Errorf("jobs: index entry: digest entry with generation %d", e.Gen)
		}
		if e.Key != "" || e.Tenant != "" {
			return e, fmt.Errorf("jobs: index entry: digest entry carries an idempotency key")
		}
	default:
		return e, fmt.Errorf("jobs: index entry: unknown kind %.20q", e.Kind)
	}
	if !ValidDigest(e.Digest) {
		return e, fmt.Errorf("jobs: index entry: bad digest %.80q", e.Digest)
	}
	if e.Job != "" && !jobDirRe.MatchString(e.Job) {
		return e, fmt.Errorf("jobs: index entry: bad job ID %.40q", e.Job)
	}
	return e, nil
}

// ErrIdemConflict is returned by SubmitIdem when an idempotency key is
// reused with a different spec: the retry contract covers exact retries
// only, so a content mismatch is a client bug surfaced as a 409.
type ErrIdemConflict struct {
	Key string
	Job string // the job the key already names
}

func (e *ErrIdemConflict) Error() string {
	return fmt.Sprintf("jobs: idempotency key %.80q already used by %s with a different spec", e.Key, e.Job)
}

// LookupIdem resolves an idempotency key to its recorded entry. A torn or
// corrupt entry file is quarantined and reported as absent, so a crashed
// writer's debris never wedges the key.
func (s *Store) LookupIdem(tenant, key string) (IndexEntry, bool, error) {
	path := filepath.Join(IdemDir(s.root), IdemFileName(tenant, key))
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return IndexEntry{}, false, nil
	}
	if err != nil {
		return IndexEntry{}, false, fmt.Errorf("jobs: idempotency index: %w", err)
	}
	e, derr := DecodeIndexEntry(data)
	if derr != nil {
		s.logf("jobs: quarantining corrupt idempotency entry %s: %v", path, derr)
		s.quarantine(path)
		return IndexEntry{}, false, nil
	}
	if e.Kind != "idem" || e.Key != key || canonTenant(e.Tenant) != canonTenant(tenant) {
		// A hash collision or a tampered entry: never serve someone else's
		// job for this key.
		return IndexEntry{}, false, fmt.Errorf("jobs: idempotency index %s: entry does not match key", path)
	}
	return e, true, nil
}

// PublishIdem durably records key → job, first writer wins. It returns the
// authoritative entry: the caller's own on a win, the earlier winner's on a
// lost race (both submissions then share the digest layer's single
// execution, so following the winner is always safe).
func (s *Store) PublishIdem(tenant, key, digest, jobID string) (IndexEntry, error) {
	dir := IdemDir(s.root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return IndexEntry{}, fmt.Errorf("jobs: idempotency index: %w", err)
	}
	mine := IndexEntry{
		Kind:   "idem",
		Tenant: canonTenant(tenant),
		Key:    key,
		Digest: digest,
		Job:    jobID,
		Time:   time.Now().UTC(),
		Node:   s.NodeID(),
	}
	data, err := EncodeIndexEntry(mine)
	if err != nil {
		return IndexEntry{}, err
	}
	path := filepath.Join(dir, IdemFileName(tenant, key))
	for tries := 0; tries < 3; tries++ {
		err := fsio.CreateExclusive(path, data, 0o644)
		if err == nil {
			return mine, nil
		}
		if !errors.Is(err, fsio.ErrExists) {
			s.noteWrite(err)
			return IndexEntry{}, fmt.Errorf("jobs: idempotency index: %w", err)
		}
		e, ok, lerr := s.LookupIdem(tenant, key)
		if lerr != nil {
			return IndexEntry{}, lerr
		}
		if ok {
			return e, nil
		}
		// The existing entry was torn and has just been quarantined; the
		// slot is free again, so retry the exclusive create.
	}
	return IndexEntry{}, fmt.Errorf("jobs: idempotency index %s: claim did not settle", path)
}

// DigestClaim is a won (pending) digest generation: the holder must either
// Publish the executing job's ID or Abandon the claim.
type DigestClaim struct {
	store *Store
	path  string
	entry IndexEntry
}

// Gen returns the claimed generation.
func (c *DigestClaim) Gen() int { return c.entry.Gen }

// Publish fills the claim with the executing job's ID. Only the claim
// holder writes here (O_EXCL already decided the race), so an atomic
// overwrite is safe.
func (c *DigestClaim) Publish(jobID string) error {
	e := c.entry
	e.Job = jobID
	data, err := EncodeIndexEntry(e)
	if err != nil {
		return err
	}
	werr := fsio.WriteFileAtomic(c.path, data, 0o644)
	c.store.noteWrite(werr)
	if werr != nil {
		return fmt.Errorf("jobs: digest index: %w", werr)
	}
	return nil
}

// Abandon releases a claim whose job creation failed, so followers are not
// stuck waiting out the pending grace.
func (c *DigestClaim) Abandon() {
	if err := os.Remove(c.path); err != nil && !os.IsNotExist(err) {
		c.store.logf("jobs: digest index: abandon %s: %v", c.path, err)
	}
}

// currentDigestEntry returns the highest-generation entry for the digest
// (gen 0 when none exist), decoding only that one file. Corrupt entries at
// the top of the chain are quarantined — freeing their generation number —
// and the scan retries.
func (s *Store) currentDigestEntry(dir string) (IndexEntry, int, error) {
	for {
		gens, err := readDigestDir(dir)
		if os.IsNotExist(err) {
			return IndexEntry{}, 0, nil
		}
		if err != nil {
			return IndexEntry{}, 0, fmt.Errorf("jobs: digest index: %w", err)
		}
		if len(gens) == 0 {
			return IndexEntry{}, 0, nil
		}
		top := gens[len(gens)-1]
		e, derr := ReadIndexEntryFile(top.Path)
		if derr == nil {
			return e, top.Gen, nil
		}
		if os.IsNotExist(derr) {
			continue // lost a race with a quarantine or GC; rescan
		}
		s.logf("jobs: quarantining corrupt digest entry %s: %v", top.Path, derr)
		s.quarantine(top.Path)
	}
}

// sourceLive reports whether the job a digest entry points to is worth
// aliasing: queued or running (subscribe) or succeeded (cache hit). A
// failed, canceled, missing, rotted, or itself-aliased job is dead — the
// digest needs a fresh execution under a new generation.
func (s *Store) sourceLive(jobID string) (*Job, bool) {
	j, ok := s.Lookup(jobID)
	if !ok {
		return nil, false
	}
	j.Reload()
	switch st := j.Last().State; {
	case st == StateSucceeded:
		// A cache hit serves this job's bytes verbatim, so they must still
		// match the CRCs journaled at success; rot means re-executing.
		if err := VerifyCachedResult(j); err != nil {
			s.logf("jobs: digest source %s failed verification: %v", jobID, err)
			return nil, false
		}
		return j, true
	case st == StateDedup:
		return nil, false // never chain aliases
	case !st.Terminal():
		return j, true
	}
	return nil, false
}

// ClaimDigest resolves a content digest against the index: either this
// caller wins a fresh generation (claim != nil — it must create the
// executing job and Publish, or Abandon) or an authoritative entry already
// exists (entry returned; Job may still be empty on a pending claim the
// caller should poll). The fault point jobs.dedup.claim fails the claim
// before its create, so the index is left as it was.
func (s *Store) ClaimDigest(digest string) (*DigestClaim, IndexEntry, error) {
	hx, ok := digestHex(digest)
	if !ok {
		return nil, IndexEntry{}, fmt.Errorf("jobs: bad digest %.80q", digest)
	}
	dir := filepath.Join(DigestIndexDir(s.root), hx)
	for tries := 0; tries < 100; tries++ {
		e, gen, err := s.currentDigestEntry(dir)
		if err != nil {
			return nil, IndexEntry{}, err
		}
		if gen > 0 {
			if e.Job == "" {
				if time.Since(e.Time) < digestPendingGrace {
					return nil, e, nil // pending; caller polls
				}
				// Abandoned claim: the claimant died between claim and
				// publish. Supersede it.
			} else if _, live := s.sourceLive(e.Job); live {
				return nil, e, nil
			}
		}
		pending := IndexEntry{
			Kind:   "digest",
			Digest: digest,
			Gen:    gen + 1,
			Time:   time.Now().UTC(),
			Node:   s.NodeID(),
		}
		data, eerr := EncodeIndexEntry(pending)
		if eerr != nil {
			return nil, IndexEntry{}, eerr
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, IndexEntry{}, fmt.Errorf("jobs: digest index: %w", err)
		}
		if err := faultinject.Err(faultinject.JobsDedupClaim); err != nil {
			return nil, IndexEntry{}, fmt.Errorf("jobs: digest index: %w", err)
		}
		path := digestGenPath(dir, pending.Gen)
		cerr := fsio.CreateExclusive(path, data, 0o644)
		if cerr == nil {
			return &DigestClaim{store: s, path: path, entry: pending}, IndexEntry{}, nil
		}
		if !errors.Is(cerr, fsio.ErrExists) {
			s.noteWrite(cerr)
			return nil, IndexEntry{}, fmt.Errorf("jobs: digest index: %w", cerr)
		}
		// Lost the race for this generation; re-read and follow the winner.
	}
	return nil, IndexEntry{}, fmt.Errorf("jobs: digest index %s: claim did not settle", dir)
}

// DigestEntries returns every generation entry recorded for a digest, in
// generation order, skipping (not quarantining) undecodable files. The
// chaos verifier and tests use it.
func (s *Store) DigestEntries(digest string) []IndexEntry {
	hx, ok := digestHex(digest)
	if !ok {
		return nil
	}
	gens, _ := readDigestDir(filepath.Join(DigestIndexDir(s.root), hx))
	var out []IndexEntry
	for _, g := range gens {
		if e, err := ReadIndexEntryFile(g.Path); err == nil {
			out = append(out, e)
		}
	}
	return out
}

// DedupSource returns the source job ID when j is a dedup alias.
func (j *Job) DedupSource() (string, bool) {
	last := j.Last()
	if last.State != StateDedup || last.Source == "" {
		return "", false
	}
	return last.Source, true
}

// ResolveResult returns the job whose result artifacts serve j: j itself
// for an executing job, the linked source for a dedup alias (one hop only —
// aliases never chain; a chained link is reported as corruption).
func (s *Store) ResolveResult(j *Job) (*Job, error) {
	src, ok := j.DedupSource()
	if !ok {
		return j, nil
	}
	sj, found := s.Lookup(src)
	if !found {
		return nil, fmt.Errorf("jobs: %s: dedup source %s not found", j.ID, src)
	}
	if _, chained := sj.DedupSource(); chained {
		return nil, fmt.Errorf("jobs: %s: dedup source %s is itself an alias", j.ID, src)
	}
	return sj, nil
}

// VerifyCachedResult checks a succeeded source job's result artifacts
// against the CRCs its succeeded record journaled (CheckArtifacts), so the
// dedupe cache never fans out silently rotted bytes.
func VerifyCachedResult(src *Job) error {
	last := src.Last()
	if last.State != StateSucceeded {
		return fmt.Errorf("jobs: %s: not succeeded (%s)", src.ID, last.State)
	}
	if _, faults := CheckArtifacts(src.dir, last); len(faults) > 0 {
		return fmt.Errorf("jobs: %s: cached %s: %w", src.ID, faults[0].Kind, faults[0].Err)
	}
	return nil
}
