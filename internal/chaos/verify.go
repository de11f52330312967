package chaos

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scrub"
)

// verifyCold is every mode's one verifier. After the heal pass it opens the
// schedule's store once, cold, and checks the recovery contract on what is
// on disk:
//
//   - the open quarantines nothing more: earlier opens set damage aside
//     loudly and rewrote journals from their valid prefixes;
//   - obs.Analyze (twobs) reports no error finding: journals decode and
//     satisfy the state machine, fencing tokens never regress, the claim
//     chain backs every journaled token (lease audit), every takeover is
//     journaled, and no zombie span landed;
//   - a dry-run scrub.Scan (twfsck) reports no error defect: specs,
//     journals, result bytes against their journaled CRCs, aliases and the
//     dedupe index all check out;
//   - the per-job outcomes only chaos can judge, because only chaos knows
//     the clean reference bytes and what the schedule did.
//
// submitted lists the job IDs the parent knows were accepted; canceled
// reports whether the schedule issued a cancel. It records the job states
// and the on-disk quarantine count in out and returns the opened store for
// the mode's own assertions.
func verifyCold(opts *Options, dir string, submitted []string, canceled bool, refs map[string][]byte, out *Outcome) (*jobs.Store, error) {
	st, err := jobs.Open(dir, opts.Logf)
	if err != nil {
		return nil, fmt.Errorf("verify open: %w", err)
	}
	if n := st.Quarantined(); n > 0 {
		return nil, fmt.Errorf("heal left corruption behind: verify open quarantined %d more file(s)", n)
	}
	// Children quarantine in their own processes, so the count is read from
	// the ".quarantined.N" names the store leaves on disk.
	out.Quarantined = 0
	if err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), ".quarantined.") {
			out.Quarantined++
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	orep, err := obs.Analyze([]string{dir})
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	for _, f := range orep.Findings() {
		if f.Severity == "error" {
			return nil, fmt.Errorf("%s: obs %s: %s", f.Job, f.Kind, f.Detail)
		}
	}
	// Scrub warnings are legitimate SIGKILL debris (torn O_EXCL claim and
	// index files) that the store self-heals; errors are divergence or rot.
	srep, err := scrub.Scan([]string{dir}, scrub.Options{Logf: opts.Logf})
	if err != nil {
		return nil, fmt.Errorf("verify scrub: %w", err)
	}
	for _, d := range srep.Defects {
		if d.Severity == scrub.SevError {
			return nil, fmt.Errorf("scrub found %d error defect(s); first: %s %s: %s", srep.Errors(), d.Kind, d.Path, d.Detail)
		}
	}

	out.States = map[string]jobs.State{}
	for _, j := range st.List() {
		last := j.Last()
		if !last.State.Terminal() {
			return nil, fmt.Errorf("%s: not terminal after heal (journal has %d records)", j.ID, len(j.History()))
		}
		out.States[j.ID] = last.State
		if err := checkOutcome(st, j, last, canceled, refs); err != nil {
			return nil, fmt.Errorf("%s: %w", j.ID, err)
		}
	}
	// A job the parent saw accepted is lost only when neither its directory
	// nor a quarantined copy of it is left.
	for _, id := range submitted {
		if _, ok := st.Get(id); ok {
			continue
		}
		// Glob fails only on a malformed pattern, and job IDs hold no
		// pattern metacharacters.
		if q, _ := filepath.Glob(filepath.Join(dir, id+".quarantined.*")); len(q) == 0 {
			return nil, fmt.Errorf("job %s silently lost: missing from the store and not quarantined", id)
		}
	}
	return st, nil
}

// checkOutcome checks one terminal job against what chaos alone knows.
func checkOutcome(st *jobs.Store, j *jobs.Job, last jobs.Record, canceled bool, refs map[string][]byte) error {
	switch last.State {
	case jobs.StateSucceeded:
		got, err := os.ReadFile(j.PlacementPath())
		if err != nil {
			return fmt.Errorf("succeeded but placement unreadable: %w", err)
		}
		ref, ok := refs[j.Spec.ContentDigest()]
		if !ok {
			return fmt.Errorf("succeeded with digest %s, which no reference run produced", j.Spec.ContentDigest())
		}
		if !bytes.Equal(got, ref) {
			return fmt.Errorf("placement differs from clean reference (%d vs %d bytes)", len(got), len(ref))
		}
		info, err := j.ReadResult()
		if err != nil {
			return fmt.Errorf("succeeded but result unreadable: %w", err)
		}
		if !info.Succeeded {
			return fmt.Errorf("journal says succeeded, result.json says not")
		}
	case jobs.StateFailed:
		if last.Detail == "" {
			return fmt.Errorf("failed with no journaled reason")
		}
	case jobs.StateCanceled:
		if !canceled {
			return fmt.Errorf("canceled, but the schedule never issued a cancel")
		}
	case jobs.StateDedup:
		// An alias must link to a real executor of the same content: one
		// hop, never chained, never dangling. Its bytes are its source's
		// bytes, which the source's own succeeded check covers.
		if _, ok := j.DedupSource(); !ok {
			return fmt.Errorf("dedup record without a source link")
		}
		src, err := st.ResolveResult(j)
		if err != nil {
			return fmt.Errorf("dedup alias does not resolve: %w", err)
		}
		if src.Spec.ContentDigest() != j.Spec.ContentDigest() {
			return fmt.Errorf("alias digest %s served by source %s with digest %s",
				j.Spec.ContentDigest(), src.ID, src.Spec.ContentDigest())
		}
	}
	return nil
}
