// Package scrub verifies a job store's durable artifacts offline: specs
// and their content digests, journals, claim chains, span files,
// checkpoints, succeeded placement/result bytes against their journaled
// CRCs, and the dedupe index (idempotency keys and digest generations).
//
// Scan never opens a jobs.Store — it reads the files directly, so it can
// run against a dead fleet's roots or concurrently with a live node (the
// manager runs it as a detection-only background sweep). Dry runs are
// strictly read-only; with Options.Repair the scrubber repairs what is
// safe to repair and quarantines the rest:
//
//	defect                          repair action
//	------                          -------------
//	spec missing/unparsable         quarantine whole job directory
//	spec digest missing             backfill (rewrite spec.json)
//	spec digest mismatch            rewrite with recomputed digest
//	journal corrupt tail            quarantine file, rewrite valid prefix
//	journal missing/empty           quarantine whole job directory
//	torn claim below high-water     quarantine claim file
//	torn claim AT high-water        report only — removing the fencing
//	                                high-water claim could let a stale
//	                                holder re-mint its token
//	span file torn lines            report only (spans are advisory)
//	checkpoint corrupt              quarantine file (job restarts fresh)
//	placement/result CRC mismatch   quarantine file
//	index entry corrupt/divergent   quarantine entry file
//	alias with broken source        report only — no safe auto-repair
package scrub

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/fsio"
	"repro/internal/jobs"
	"repro/internal/place"
)

// Severity classifies a defect: errors mean data a reader could trust is
// wrong or unreadable; warnings mean degraded-but-safe (torn span tails,
// missing backfillable digests).
type Severity string

const (
	SevWarn  Severity = "warn"
	SevError Severity = "error"
)

// Defect is one verification failure found during a scan.
type Defect struct {
	// Kind names the artifact class: spec, digest, journal, claims,
	// spans, checkpoint, placement, result, alias, index, verify.
	Kind     string   `json:"kind"`
	Severity Severity `json:"severity"`
	// Job is the owning job ID, empty for store-level artifacts.
	Job    string `json:"job,omitempty"`
	Path   string `json:"path"`
	Detail string `json:"detail"`
	// Repaired reports whether a -repair run fixed or quarantined it.
	Repaired bool `json:"repaired,omitempty"`
}

// Options configures a scan.
type Options struct {
	// Repair applies the repair matrix above; false is strictly read-only.
	Repair bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Report is the outcome of one Scan.
type Report struct {
	Roots     []string `json:"roots"`
	Jobs      int      `json:"jobs"`
	Artifacts int      `json:"artifacts"`
	Defects   []Defect `json:"defects"`
	Repaired  int      `json:"repaired"`
}

// Errors counts error-severity defects.
func (r *Report) Errors() int { return r.count(SevError) }

// Warnings counts warn-severity defects.
func (r *Report) Warnings() int { return r.count(SevWarn) }

func (r *Report) count(sev Severity) int {
	n := 0
	for _, d := range r.Defects {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// WriteText renders the report for terminals.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "scrubbed %d root(s): %d job(s), %d artifact(s)\n",
		len(r.Roots), r.Jobs, r.Artifacts)
	if len(r.Defects) == 0 {
		fmt.Fprintln(w, "clean: no defects")
		return
	}
	fmt.Fprintf(w, "defects: %d (%d error(s), %d warning(s)), repaired %d\n",
		len(r.Defects), r.Errors(), r.Warnings(), r.Repaired)
	for _, d := range r.Defects {
		job := d.Job
		if job == "" {
			job = "-"
		}
		fix := ""
		if d.Repaired {
			fix = " (repaired)"
		}
		fmt.Fprintf(w, "  [%s] %s %s: %s: %s%s\n", d.Severity, job, d.Kind, d.Path, d.Detail, fix)
	}
}

// scanner carries scan state across one Scan call.
type scanner struct {
	opts Options
	rep  *Report
	// digests maps job ID → recomputed spec content digest, and lastState
	// maps job ID → final journal state, for the jobs that survived the
	// per-directory pass; the index pass checks entries against them. A
	// job whose verification was skipped maps to the empty digest.
	digests   map[string]string
	lastState map[string]jobs.State
}

func (s *scanner) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// add records a defect. repaired is only honored under Options.Repair.
func (s *scanner) add(d Defect) {
	if d.Repaired {
		s.rep.Repaired++
	}
	s.rep.Defects = append(s.rep.Defects, d)
	s.logf("scrub: [%s] %s: %s: %s", d.Severity, d.Kind, d.Path, d.Detail)
}

// quarantine sets path aside with the store's own scheme (jobs.Quarantine:
// the first free ".quarantined.N"). Returns false when repair is off or the
// rename failed.
func (s *scanner) quarantine(path string) bool {
	if !s.opts.Repair {
		return false
	}
	if _, err := jobs.Quarantine(path); err != nil {
		s.logf("scrub: quarantine %s: %v", path, err)
		return false
	}
	return true
}

// Scan walks every root, verifying each job directory and the dedupe
// index. It returns an error only when a root itself is unwalkable (or
// the scrub.walk fault point fires); per-artifact failures become Defects.
func Scan(roots []string, opts Options) (*Report, error) {
	s := &scanner{opts: opts, rep: &Report{Roots: roots}}
	for _, root := range roots {
		// Job IDs repeat across roots (every store starts at j000001), so
		// the ID→digest/state view is rebuilt per root.
		s.digests = map[string]string{}
		s.lastState = map[string]jobs.State{}
		if err := faultinject.Err(faultinject.ScrubWalk); err != nil {
			return nil, fmt.Errorf("scrub: %s: %w", root, err)
		}
		dirs, err := jobs.ListJobDirs(root)
		if err != nil {
			return nil, fmt.Errorf("scrub: %s: %w", root, err)
		}
		for _, dir := range dirs {
			s.scanJob(dir)
		}
		s.scanIndex(root)
	}
	return s.rep, nil
}

// scanJob verifies one job directory end to end.
func (s *scanner) scanJob(dir string) {
	id := filepath.Base(dir)
	s.rep.Jobs++
	if err := faultinject.Err(faultinject.ScrubVerify); err != nil {
		s.add(Defect{Kind: "verify", Severity: SevError, Job: id, Path: dir,
			Detail: fmt.Sprintf("injected verification failure: %v", err)})
		s.digests[id] = ""
		return
	}

	// Spec + content digest. An unreadable spec condemns the whole
	// directory: nothing else in it can be attributed or re-derived.
	spec, err := jobs.ReadSpecDir(dir)
	if err != nil {
		s.add(Defect{Kind: "spec", Severity: SevError, Job: id, Path: jobs.SpecFilePath(dir),
			Detail: err.Error(), Repaired: s.quarantine(dir)})
		return
	}
	s.rep.Artifacts++
	want := spec.ContentDigest()
	s.digests[id] = want
	switch {
	case spec.Digest == "":
		s.add(Defect{Kind: "digest", Severity: SevWarn, Job: id, Path: jobs.SpecFilePath(dir),
			Detail: "spec has no content digest", Repaired: s.rewriteSpec(dir, spec, want)})
	case spec.Digest != want:
		s.add(Defect{Kind: "digest", Severity: SevError, Job: id, Path: jobs.SpecFilePath(dir),
			Detail:   fmt.Sprintf("spec digest %s, canonical content hashes to %s", spec.Digest, want),
			Repaired: s.rewriteSpec(dir, spec, want)})
	}

	// Journal: the valid prefix is authoritative; a corrupt tail is
	// quarantined and the prefix rewritten so readers agree again.
	recs, derr := jobs.ReadJournalDir(dir)
	s.rep.Artifacts++
	if derr != nil {
		s.add(Defect{Kind: "journal", Severity: SevError, Job: id, Path: jobs.JournalPath(dir),
			Detail: derr.Error(), Repaired: s.rewriteJournal(dir, recs)})
	}
	if len(recs) == 0 {
		if derr == nil {
			s.add(Defect{Kind: "journal", Severity: SevError, Job: id, Path: jobs.JournalPath(dir),
				Detail: "journal missing or empty (torn mid-create)", Repaired: s.quarantine(dir)})
			delete(s.digests, id)
		}
		return
	}
	last := recs[len(recs)-1]
	s.lastState[id] = last.State

	s.scanClaims(id, dir)
	s.scanSpans(id, dir)
	s.scanCheckpoint(id, dir)

	switch last.State {
	case jobs.StateSucceeded:
		s.scanResultArtifacts(id, dir, last)
	case jobs.StateDedup:
		s.scanAlias(id, dir, last)
	}
}

// rewriteSpec rewrites spec.json with the recomputed digest.
func (s *scanner) rewriteSpec(dir string, spec jobs.Spec, digest string) bool {
	if !s.opts.Repair {
		return false
	}
	spec.Digest = digest
	data, err := json.MarshalIndent(&spec, "", "  ")
	if err != nil {
		return false
	}
	if err := fsio.WriteFileAtomic(jobs.SpecFilePath(dir), data, 0o644); err != nil {
		s.logf("scrub: rewrite %s: %v", jobs.SpecFilePath(dir), err)
		return false
	}
	return true
}

// rewriteJournal quarantines the corrupt journal and writes back its
// valid record prefix (jobs.RepairJournal, as the store does on open).
func (s *scanner) rewriteJournal(dir string, recs []jobs.Record) bool {
	if !s.opts.Repair {
		return false
	}
	if _, err := jobs.RepairJournal(dir, recs); err != nil {
		s.logf("scrub: repair %s: %v", jobs.JournalPath(dir), err)
		return false
	}
	return true
}

// scanClaims verifies the fencing claim chain. A torn claim below the
// high-water token is dead history and safe to quarantine; a torn claim
// AT the high-water mark is reported but never repaired — its writer may
// believe it holds the lease, and deleting it would let the next claimer
// re-mint that token. Torn claims are warnings, not errors: readers
// already treat an undecodable claim as "unknown holder" (self-healing via
// TTL).
func (s *scanner) scanClaims(id, dir string) {
	chain, err := jobs.ReadClaimChain(dir)
	if err != nil {
		return
	}
	s.rep.Artifacts += len(chain)
	for i, c := range chain {
		switch {
		case !c.Torn:
		case i == len(chain)-1:
			s.add(Defect{Kind: "claims", Severity: SevWarn, Job: id, Path: c.Path,
				Detail: "torn claim at fencing high-water mark (never auto-repaired: removing it could re-mint the token)"})
		default:
			s.add(Defect{Kind: "claims", Severity: SevWarn, Job: id, Path: c.Path,
				Detail: "torn claim below high-water mark", Repaired: s.quarantine(c.Path)})
		}
	}
}

// scanSpans checks the span file for torn lines. Spans are advisory
// observability data, so damage is a warning and never repaired.
func (s *scanner) scanSpans(id, dir string) {
	path := jobs.SpanFilePath(dir)
	if _, err := os.Stat(path); err != nil {
		return
	}
	s.rep.Artifacts++
	_, stats, err := jobs.ReadSpanFile(path)
	if err != nil {
		s.add(Defect{Kind: "spans", Severity: SevWarn, Job: id, Path: path, Detail: err.Error()})
		return
	}
	if stats.Skipped > 0 {
		s.add(Defect{Kind: "spans", Severity: SevWarn, Job: id, Path: path,
			Detail: fmt.Sprintf("%d malformed line(s) (torn tail)", stats.Skipped)})
	}
}

// scanCheckpoint verifies checkpoint framing/CRC. A bad checkpoint only
// costs a restart from scratch, so it is a warning; repair quarantines it
// so the next run does not trip over it.
func (s *scanner) scanCheckpoint(id, dir string) {
	path := jobs.CheckpointFilePath(dir)
	if _, err := os.Stat(path); err != nil {
		return
	}
	s.rep.Artifacts++
	if _, err := place.LoadCheckpoint(path); err != nil {
		s.add(Defect{Kind: "checkpoint", Severity: SevWarn, Job: id, Path: path,
			Detail: err.Error(), Repaired: s.quarantine(path)})
	}
}

// scanResultArtifacts verifies a succeeded job's placement and result
// bytes against the CRCs journaled in its success record
// (jobs.CheckArtifacts). Rotted bytes are quarantined; an unreadable file
// is only reported.
func (s *scanner) scanResultArtifacts(id, dir string, last jobs.Record) {
	checked, faults := jobs.CheckArtifacts(dir, last)
	s.rep.Artifacts += checked
	for _, f := range faults {
		d := Defect{Kind: f.Kind, Severity: SevError, Job: id, Path: f.Path,
			Detail: fmt.Sprintf("succeeded job: %v", f.Err)}
		if f.Rot {
			d.Detail, d.Repaired = f.Err.Error(), s.quarantine(f.Path)
		}
		s.add(d)
	}
}

// scanAlias verifies a dedup alias: its source must exist and must not
// itself be an alias. Neither failure has a safe auto-repair — the alias
// holds no bytes of its own, so the only fix is re-execution.
func (s *scanner) scanAlias(id, dir string, last jobs.Record) {
	root := filepath.Dir(dir)
	src := last.Source
	srcRecs, err := jobs.ReadJournalDir(filepath.Join(root, src))
	if err != nil || len(srcRecs) == 0 {
		s.add(Defect{Kind: "alias", Severity: SevError, Job: id, Path: jobs.JournalPath(dir),
			Detail: fmt.Sprintf("dedup source %s missing or unreadable (no auto-repair: alias holds no result bytes)", src)})
		return
	}
	if srcRecs[len(srcRecs)-1].State == jobs.StateDedup {
		s.add(Defect{Kind: "alias", Severity: SevError, Job: id, Path: jobs.JournalPath(dir),
			Detail: fmt.Sprintf("dedup source %s is itself an alias (chained aliases are never written)", src)})
	}
}
