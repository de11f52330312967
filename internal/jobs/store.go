package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/fsio"
	"repro/internal/invariant"
)

// File names inside a job directory.
const (
	specFile       = "spec.json"
	journalFile    = "journal.twj"
	checkpointFile = "checkpoint.ck"
	resultFile     = "result.json"
	placementFile  = "placement.tw"
	// tmpJobPrefix marks an under-construction job directory awaiting its
	// atomic rename-publish; scans skip it, Open removes stale ones.
	tmpJobPrefix = ".tmp-j"
)

// jobDirRe matches job directory names ("j" + six or more digits).
var jobDirRe = regexp.MustCompile(`^j(\d{6,})$`)

// Job is one stored job: its immutable spec plus the mutable status
// journal. All journal access goes through the job's mutex; the journal
// file is rewritten atomically (temp+fsync+rename+dir-sync) on every
// transition, so the on-disk journal is always a valid prefix of the
// in-memory one.
type Job struct {
	ID   string
	Spec Spec
	dir  string
	// store is the owning store (nil only in tests that build bare Jobs);
	// durable writes report their outcome to it for disk-full tracking.
	store *Store

	mu      sync.Mutex
	records []Record
	// lease is this process's claim on the job (fleet mode only); while
	// set, every durable write validates its fencing token first.
	lease *Lease
}

// Dir returns the job's directory.
func (j *Job) Dir() string { return j.dir }

// CheckpointPath returns the job's Stage 1 checkpoint file path.
func (j *Job) CheckpointPath() string { return filepath.Join(j.dir, checkpointFile) }

// ResultPath returns the job's result metadata path.
func (j *Job) ResultPath() string { return filepath.Join(j.dir, resultFile) }

// PlacementPath returns the job's final placement file path.
func (j *Job) PlacementPath() string { return filepath.Join(j.dir, placementFile) }

// ErrTerminal is returned by Append after a job has reached a terminal
// state: the check-and-append is atomic under the job's lock, so racing
// transitions (e.g. cancel vs. completion) cannot corrupt the journal.
var ErrTerminal = errors.New("jobs: job already in a terminal state")

// RecordOpts carries a journal record's optional payload fields: the dedup
// source link and the succeeded-record artifact checksums.
type RecordOpts struct {
	Source       string
	PlacementCRC uint32
	ResultCRC    uint32
}

// Append journals a state transition durably and returns the record.
//
// Fault-injection points bracket the disk write: jobs.journal.before fails
// the append with nothing written (crash-before-transition — memory and
// disk both keep the old state), jobs.journal.after fails it with the
// record already durable (crash-between-transitions — disk is one record
// ahead of memory; the next whole-journal rewrite or store reopen heals
// the divergence).
func (j *Job) Append(state State, attempt int, detail string) (Record, error) {
	return j.AppendOpts(state, attempt, detail, RecordOpts{})
}

// AppendOpts is Append with the record's optional fields spelled out.
func (j *Job) AppendOpts(state State, attempt int, detail string, opts RecordOpts) (Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	node := j.store.NodeID()
	lease := j.lease
	if node != "" {
		if lease != nil {
			// Fencing: the whole-journal rewrite below would clobber a
			// reclaimer's records if our lease was taken over; refuse first.
			if err := lease.Validate(); err != nil {
				return Record{}, fmt.Errorf("jobs: journal %s: %w", j.ID, err)
			}
		} else {
			// Unleased fleet write (submit's first record, cancel of an
			// unclaimed job): resync memory from disk — a peer may have
			// appended — and refuse while another node holds a live lease.
			j.reloadLocked()
			ls, err := readLeaseState(j.dir)
			if err != nil {
				return Record{}, err
			}
			if holder, live := ls.heldBy(leaseNow()); live && holder != node {
				return Record{}, fmt.Errorf("jobs: journal %s: %w: held by %s", j.ID, ErrLeaseHeld, holder)
			}
		}
	}
	prev := State("")
	if n := len(j.records); n > 0 {
		prev = j.records[n-1].State
		if prev.Terminal() {
			return Record{}, fmt.Errorf("%w: %s is %s", ErrTerminal, j.ID, prev)
		}
	}
	// Invariant jobs.transition: the terminal-exclusivity check above plus
	// ValidTransition cover the full journal state machine; a violation
	// here means a manager bug, not disk damage.
	if invariant.Enabled() && !ValidTransition(prev, state) {
		invariant.Failf("jobs.transition", "job %s: %q → %q", j.ID, prev, state)
	}
	rec := Record{
		Seq:          len(j.records) + 1,
		Time:         time.Now().UTC(),
		State:        state,
		Attempt:      attempt,
		Detail:       detail,
		Source:       opts.Source,
		PlacementCRC: opts.PlacementCRC,
		ResultCRC:    opts.ResultCRC,
	}
	if node != "" {
		rec.Node = node
		if lease != nil {
			rec.Token = lease.Token
			// Invariant jobs.lease.fence: a validated lease is the highest
			// claim, so its token can never fall below one already journaled.
			if invariant.Enabled() {
				for _, r := range j.records {
					if r.Token > rec.Token {
						invariant.Failf("jobs.lease.fence", "job %s: appending token %d after token %d",
							j.ID, rec.Token, r.Token)
					}
				}
			}
		}
	}
	data, err := EncodeJournal(append(j.records, rec))
	if err != nil {
		return rec, err
	}
	if err := faultinject.Err(faultinject.JobsJournalBefore); err != nil {
		return rec, fmt.Errorf("jobs: journal %s: %w", j.ID, err)
	}
	werr := fsio.WriteFileAtomic(filepath.Join(j.dir, journalFile), data, 0o644)
	j.store.noteWrite(werr)
	if werr != nil {
		return rec, fmt.Errorf("jobs: journal %s: %w", j.ID, werr)
	}
	if err := faultinject.Err(faultinject.JobsJournalAfter); err != nil {
		return rec, fmt.Errorf("jobs: journal %s: %w", j.ID, err)
	}
	j.records = append(j.records, rec)
	// Mirror the durable transition as a lifecycle span (best-effort). The
	// lease is checked again first: a reclaimer that took over during the
	// journal write owns the span file now, and this node's late mirror
	// would land after the reclaimer's spans as a zombie write.
	if lease == nil || lease.Validate() == nil {
		j.recordSpan(rec)
	}
	return rec, nil
}

// Last returns the most recent journal record (a synthetic queued record if
// the journal is somehow empty).
func (j *Job) Last() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.records) == 0 {
		return Record{Seq: 0, State: StateQueued}
	}
	return j.records[len(j.records)-1]
}

// History returns a copy of the journal.
func (j *Job) History() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.records...)
}

// Reload resyncs the in-memory journal from disk. In fleet mode peers
// append to jobs this process only observes; the manager's scanner calls
// this so Last/History/StateCounts converge on what is actually journaled.
func (j *Job) Reload() {
	j.mu.Lock()
	j.reloadLocked()
	j.mu.Unlock()
}

// reloadLocked re-reads the journal with j.mu held. Disk can only be ahead
// of memory (a peer appended, or a journal.after fault landed the write the
// caller saw fail); a shorter or defective on-disk journal never truncates
// the in-memory view.
func (j *Job) reloadLocked() {
	f, err := os.Open(filepath.Join(j.dir, journalFile))
	if err != nil {
		return
	}
	recs, _ := DecodeJournal(f)
	f.Close()
	if len(recs) >= len(j.records) {
		j.records = recs
	}
}

// GuardWrite validates fleet-mode write authority for non-journal artifacts
// (checkpoint, placement, result): with a lease attached the lease must
// still be the highest claim; without one (single-node mode) it is a no-op.
// The manager installs this as the annealer's CheckpointGuard.
func (j *Job) GuardWrite() error {
	j.mu.Lock()
	l := j.lease
	j.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Validate()
}

// Store is the durable job store: one directory per job under root. In
// single-node mode (no SetNode) a store is owned by one process at a time;
// in fleet mode N processes share the root and coordinate through the
// lease layer (lease.go, DESIGN.md §13).
type Store struct {
	root string
	logf func(string, ...any)

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int
	// quarantined counts files or directories set aside during Open.
	quarantined int

	// fleet holds the node ID once fleet mode is enabled; nil keeps
	// single-node semantics with one atomic load of overhead per write.
	fleet atomic.Pointer[string]

	// diskFull latches when a durable write fails with fsio.ErrDiskFull and
	// clears on the next successful one; readyz and Submit consult it.
	diskFull atomic.Bool
}

// SetNode enables fleet-mode semantics under the given node ID: journal
// records are stamped with node and fencing token, and every durable write
// is fenced against the job's lease chain. Call before any manager starts;
// an empty id is a no-op.
func (s *Store) SetNode(id string) {
	if id != "" {
		s.fleet.Store(&id)
	}
}

// NodeID returns the fleet node ID, or "" in single-node mode. Nil-receiver
// safe for bare test Jobs.
func (s *Store) NodeID() string {
	if s == nil {
		return ""
	}
	p := s.fleet.Load()
	if p == nil {
		return ""
	}
	return *p
}

// Open scans root (creating it if needed), loads every job, and
// quarantines anything corrupt: an unreadable spec sets the whole job
// directory aside, a corrupt journal sets the journal file aside and keeps
// its valid prefix. Defects are logged through logf (nil = silent) and are
// never fatal — a damaged store always opens.
func Open(root string, logf func(string, ...any)) (*Store, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	s := &Store{root: root, logf: logf, jobs: map[string]*Job{}}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), tmpJobPrefix) {
			// A crash mid-Create leaves an unpublished temp dir behind. A
			// peer may still be mid-Create right now, so only clearly stale
			// ones are removed.
			if fi, err := e.Info(); err == nil && time.Since(fi.ModTime()) > time.Hour {
				s.logf("jobs: removing stale create-temp dir %s", e.Name())
				os.RemoveAll(filepath.Join(root, e.Name()))
			}
			continue
		}
		m := jobDirRe.FindStringSubmatch(e.Name())
		if m == nil || !e.IsDir() {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if n > s.seq {
			s.seq = n
		}
		job, ok := s.loadJob(e.Name())
		if ok {
			s.jobs[job.ID] = job
		}
	}
	return s, nil
}

// Rescan picks up job directories published by peer processes since Open
// (or the last Rescan), loading — and, exactly as during Open, quarantining
// — anything new. It returns the newly loaded jobs ordered by ID. The
// fleet-mode manager calls this on every scan tick.
func (s *Store) Rescan() []*Job {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		s.logf("jobs: rescan: %v", err)
		return nil
	}
	var added []*Job
	for _, e := range entries {
		m := jobDirRe.FindStringSubmatch(e.Name())
		if m == nil || !e.IsDir() {
			continue
		}
		s.mu.Lock()
		_, known := s.jobs[e.Name()]
		if n, _ := strconv.Atoi(m[1]); n > s.seq {
			s.seq = n
		}
		s.mu.Unlock()
		if known {
			continue
		}
		job, ok := s.loadJob(e.Name())
		if !ok {
			continue
		}
		s.mu.Lock()
		if _, dup := s.jobs[job.ID]; !dup {
			s.jobs[job.ID] = job
			added = append(added, job)
		}
		s.mu.Unlock()
	}
	sort.Slice(added, func(a, b int) bool { return added[a].ID < added[b].ID })
	return added
}

// ReadSpecDir reads and validates the spec stored in a job directory,
// without opening the store. Offline analyzers (internal/obs) use it to
// recover per-job metadata — notably the tenant — straight from the
// durable artifacts.
func ReadSpecDir(dir string) (Spec, error) {
	data, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return Spec{}, err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Spec{}, fmt.Errorf("jobs: %s: %w", specFile, err)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// loadJob reads one job directory, quarantining defects. ok is false when
// the job is unusable (quarantined wholesale).
func (s *Store) loadJob(id string) (*Job, bool) {
	dir := filepath.Join(s.root, id)
	specData, err := os.ReadFile(filepath.Join(dir, specFile))
	var spec Spec
	if err == nil {
		err = json.Unmarshal(specData, &spec)
		if err == nil {
			err = spec.Validate()
		}
	}
	if err != nil {
		s.logf("jobs: quarantining job %s: bad spec: %v", id, err)
		s.quarantine(dir)
		return nil, false
	}
	job := &Job{ID: id, Spec: spec, dir: dir, store: s}
	jpath := filepath.Join(dir, journalFile)
	f, err := os.Open(jpath)
	switch {
	case os.IsNotExist(err):
		// A crash between mkdir and the first journal write: treat as
		// freshly queued.
	case err != nil:
		s.logf("jobs: quarantining job %s: journal: %v", id, err)
		s.quarantine(dir)
		return nil, false
	default:
		recs, derr := DecodeJournal(f)
		f.Close()
		job.records = recs
		if derr != nil {
			// Keep the valid prefix; set the damaged file aside so the
			// next journal write starts from known-good state.
			s.logf("jobs: job %s: quarantining corrupt journal (keeping %d valid records): %v",
				id, len(recs), derr)
			s.quarantine(jpath)
			if data, eerr := EncodeJournal(recs); eerr == nil {
				if werr := fsio.WriteFileAtomic(jpath, data, 0o644); werr != nil {
					s.logf("jobs: job %s: rewrite journal: %v", id, werr)
				}
			}
		}
		// Invariant jobs.journal: whatever survived decode (and possible
		// prefix-trimming) must satisfy the whole-journal state machine.
		if invariant.Enabled() {
			if ierr := CheckJournal(job.records); ierr != nil {
				invariant.Failf("jobs.journal", "job %s: %v", id, ierr)
			}
		}
	}
	return job, true
}

// quarantine renames path aside with a unique ".quarantined" suffix. It
// never fails the caller; an impossible rename is only logged. Safe for
// concurrent use (Rescan loads peer jobs while the manager runs).
func (s *Store) quarantine(path string) {
	for i := 0; ; i++ {
		dst := fmt.Sprintf("%s.quarantined.%d", path, i)
		if _, err := os.Lstat(dst); err == nil {
			continue
		}
		if err := os.Rename(path, dst); err != nil {
			s.logf("jobs: quarantine %s: %v", path, err)
		} else {
			s.mu.Lock()
			s.quarantined++
			s.mu.Unlock()
			_ = fsio.SyncDir(filepath.Dir(path))
		}
		return
	}
}

// QuarantineFile sets a damaged file aside (used by the manager when a
// checkpoint fails validation at run time).
func (s *Store) QuarantineFile(path string) {
	s.quarantine(path)
}

// noteWrite records the outcome of a durable write for disk-full tracking:
// an fsio.ErrDiskFull latches the condition, any successful write clears
// it. Nil-receiver safe for bare test Jobs.
func (s *Store) noteWrite(err error) {
	if s == nil {
		return
	}
	if err == nil {
		s.diskFull.Store(false)
	} else if errors.Is(err, fsio.ErrDiskFull) {
		s.diskFull.Store(true)
	}
}

// DiskFull reports whether the store's last failing durable write hit a
// full or read-only filesystem and no write has succeeded since. Submit
// rejects work and readyz reports 503 while this holds.
func (s *Store) DiskFull() bool {
	if s == nil {
		return false
	}
	return s.diskFull.Load()
}

// ProbeDisk retests a latched disk-full condition with a small probe write
// in the store root, clearing the latch when space is back. It reports
// whether the store is writable.
func (s *Store) ProbeDisk() bool {
	if !s.DiskFull() {
		return true
	}
	probe := filepath.Join(s.root, ".probe")
	err := fsio.WriteFileAtomic(probe, []byte("probe\n"), 0o644)
	if err == nil {
		os.Remove(probe)
	}
	s.noteWrite(err)
	return err == nil
}

// Quarantined returns the number of files/directories set aside so far.
func (s *Store) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Create persists a new job for spec (already validated) and journals it
// queued. The job directory, spec, and first journal record are all durable
// when Create returns.
//
// The job is built in a hidden temp directory and published with a single
// rename: a peer process scanning the root (fleet mode) must never observe
// a half-created job directory, which its Open/Rescan would quarantine.
// Peers race for IDs, so a taken ID (rename onto an existing directory)
// just bumps the sequence and retries.
func (s *Store) Create(spec Spec) (*Job, error) {
	return s.create(spec, nil)
}

// CreateAlias persists a new dedup alias for spec: a job that is born
// terminal, its journal reading [queued, dedup→source]. Both records are
// written inside the hidden temp directory, so by the time the directory is
// visible to any scanner the alias is already terminal — no fleet node can
// ever claim it, and it never counts toward queue depth or tenant in-flight
// totals. The alias holds no result bytes of its own; reads follow Source.
func (s *Store) CreateAlias(spec Spec, source string, detail string) (*Job, error) {
	return s.create(spec, func(j *Job) error {
		_, err := j.AppendOpts(StateDedup, 0, detail, RecordOpts{Source: source})
		return err
	})
}

// create builds a job in a temp directory — spec, queued record, then the
// optional seal step — and publishes it with a single rename.
func (s *Store) create(spec Spec, seal func(*Job) error) (*Job, error) {
	// Every persisted spec carries its content digest, whatever the entry
	// path: the manager stamps it at admission, but direct Create callers
	// (recovery tools, the chaos harness) must not produce digest-less
	// spec.json files the scrubber would flag as legacy.
	if spec.Digest == "" {
		spec.Digest = spec.ContentDigest()
	}
	data, err := json.MarshalIndent(&spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobs: create: %w", err)
	}
	tmp, err := os.MkdirTemp(s.root, tmpJobPrefix+"*")
	if err != nil {
		return nil, fmt.Errorf("jobs: create: %w", err)
	}
	job := &Job{Spec: spec, dir: tmp, store: s}
	if err := fsio.WriteFileAtomic(filepath.Join(tmp, specFile), data, 0o644); err != nil {
		s.noteWrite(err)
		os.RemoveAll(tmp)
		return nil, err
	}
	if _, err := job.Append(StateQueued, 0, "submitted"); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	if seal != nil {
		if err := seal(job); err != nil {
			os.RemoveAll(tmp)
			return nil, err
		}
	}
	for tries := 0; ; tries++ {
		s.mu.Lock()
		s.seq++
		id := fmt.Sprintf("j%06d", s.seq)
		s.mu.Unlock()
		dir := filepath.Join(s.root, id)
		err := os.Rename(tmp, dir)
		if err == nil {
			job.ID = id
			job.dir = dir
			break
		}
		// EEXIST/ENOTEMPTY: a peer published that ID since our last scan;
		// the bumped sequence tries the next one. (A published dir is never
		// empty, so the rename cannot silently replace one.)
		if !(os.IsExist(err) || errors.Is(err, syscall.ENOTEMPTY)) || tries >= 10000 {
			os.RemoveAll(tmp)
			return nil, fmt.Errorf("jobs: create: publish: %w", err)
		}
	}
	if err := fsio.SyncDir(s.root); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.mu.Unlock()
	return job, nil
}

// Get returns the job with the given id.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns every job ordered by id (submission order).
func (s *Store) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Resumable returns the jobs recovery must re-enqueue: those whose last
// journaled state is queued (never started, or interrupted by a drain) or
// running (the process died mid-run), ordered by id.
func (s *Store) Resumable() []*Job {
	var out []*Job
	for _, j := range s.List() {
		switch j.Last().State {
		case StateQueued, StateRunning:
			out = append(out, j)
		}
	}
	return out
}

// StateCounts tallies jobs by last journaled state.
func (s *Store) StateCounts() map[State]int {
	counts := map[State]int{}
	for _, j := range s.List() {
		counts[j.Last().State]++
	}
	return counts
}

// QueuedCount reports how many known jobs are currently queued. Fleet
// managers use it for store-level backpressure: with multiple writers the
// local pending channel no longer reflects the shared backlog.
func (s *Store) QueuedCount() int {
	return s.StateCounts()[StateQueued]
}

// TenantInFlight counts the tenant's non-terminal jobs (queued or running).
// It is the admission controller's MaxInFlight input, called on every
// submit, so it deliberately avoids List()'s sorted-copy allocation: one
// pass over the job map under the store lock. Taking each job's lock under
// s.mu is safe — no code path acquires s.mu while holding a job lock.
func (s *Store) TenantInFlight(tenant string) int {
	tenant = canonTenant(tenant)
	n := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if canonTenant(j.Spec.Tenant) != tenant {
			continue
		}
		if !j.Last().State.Terminal() {
			n++
		}
	}
	return n
}

// ResultInfo is the terminal metadata written to result.json.
type ResultInfo struct {
	ID      string `json:"id"`
	Circuit string `json:"circuit"`
	// Attempts is the number of execution attempts the job took.
	Attempts int `json:"attempts"`
	// Succeeded distinguishes a real result from failure diagnostics.
	Succeeded bool `json:"succeeded"`

	TEIL       float64 `json:"teil"`
	Stage1TEIL float64 `json:"stage1_teil"`
	ChipW      int     `json:"chip_w"`
	ChipH      int     `json:"chip_h"`
	Area       int64   `json:"area"`

	// DRCErrors/DRCWarnings/DRCViolations report the legality gate; a
	// job with DRCErrors > 0 is failed-with-diagnostics unless the spec
	// set skip_drc.
	DRCErrors     int      `json:"drc_errors"`
	DRCWarnings   int      `json:"drc_warnings"`
	DRCViolations []string `json:"drc_violations,omitempty"`
}

// WriteResult persists info durably to the job's result.json and verifies
// it by reading the file back: a torn write on the final artifact must
// surface as a retryable error here, never as a corrupt result served to a
// client later. It returns the CRC-32/Castagnoli of the bytes written, which
// a succeeded record journals so the dedupe cache and twfsck can detect rot
// at rest (result.json has no internal framing of its own).
func (j *Job) WriteResult(info *ResultInfo) (uint32, error) {
	// Fencing: a stale lease must never publish a result over the
	// reclaimer's. No-op when the job carries no lease (single-node mode).
	if err := j.GuardWrite(); err != nil {
		return 0, err
	}
	data, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("jobs: result %s: %w", j.ID, err)
	}
	data = append(data, '\n')
	werr := fsio.WriteFileAtomic(j.ResultPath(), data, 0o644)
	j.store.noteWrite(werr)
	if werr != nil {
		return 0, werr
	}
	got, rerr := os.ReadFile(j.ResultPath())
	if rerr != nil {
		return 0, fmt.Errorf("jobs: result %s: read-back: %w", j.ID, rerr)
	}
	if !bytes.Equal(got, data) {
		return 0, fmt.Errorf("jobs: result %s: read-back mismatch: wrote %d bytes, file has %d",
			j.ID, len(data), len(got))
	}
	return frame.Checksum(data), nil
}

// ReadResult loads the job's result.json, if present.
func (j *Job) ReadResult() (*ResultInfo, error) {
	data, err := os.ReadFile(j.ResultPath())
	if err != nil {
		return nil, err
	}
	info := &ResultInfo{}
	if err := json.Unmarshal(data, info); err != nil {
		return nil, fmt.Errorf("jobs: result %s: %w", j.ID, err)
	}
	return info, nil
}
