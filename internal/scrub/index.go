package scrub

// Dedupe-index verification: the idempotency-key index
// (<root>/index/idem/k<hash>.twk) and the content-digest index
// (<root>/index/digest/<hex>/g%06d.twd). Entries are write-once, so any
// divergence from the specs they point at is corruption or operator
// damage, never a transient: the repair is always to quarantine the entry
// (readers then fall back to a fresh generation / fresh submit, which is
// safe — the index is a cache of identity, not the source of truth).

import (
	"fmt"
	"path/filepath"

	"repro/internal/jobs"
)

// scanIndex verifies both index trees against the job directories scanned
// earlier (s.digests / s.lastState).
func (s *scanner) scanIndex(root string) {
	ix := jobs.ReadIndex(root)
	// Idempotency-key entries: decodable, filed under the name their
	// tenant+key hash to, pointing at an existing job whose spec content
	// hashes to the recorded digest.
	for _, f := range ix.Idem {
		e, ok := s.readEntry(f)
		if !ok {
			continue
		}
		if want := jobs.IdemFileName(e.Tenant, e.Key); want != filepath.Base(f.Path) {
			s.add(Defect{Kind: "index", Severity: SevError, Path: f.Path,
				Detail:   fmt.Sprintf("entry for tenant %q key %q belongs in %s", e.Tenant, e.Key, want),
				Repaired: s.quarantine(f.Path)})
			continue
		}
		s.checkEntryTarget(f.Path, e)
	}
	// Digest generation chains: decodable entries, each published
	// generation pointing at a real, non-alias job whose spec re-derives to
	// the directory's digest.
	for _, d := range ix.Digests {
		for _, f := range d.Gens {
			e, ok := s.readEntry(f)
			if !ok {
				continue
			}
			if e.Digest != d.Digest {
				s.add(Defect{Kind: "index", Severity: SevError, Path: f.Path,
					Detail:   fmt.Sprintf("entry digest %s filed under %s", e.Digest, d.Digest),
					Repaired: s.quarantine(f.Path)})
				continue
			}
			if e.Job == "" {
				continue // pending claim; the manager's grace window owns it
			}
			s.checkEntryTarget(f.Path, e)
		}
	}
}

// readEntry decodes one index entry. A torn entry is O_EXCL tear debris
// the store quarantines on read anyway: a warning, swept under repair.
func (s *scanner) readEntry(f jobs.IndexFile) (jobs.IndexEntry, bool) {
	s.rep.Artifacts++
	e, err := jobs.ReadIndexEntryFile(f.Path)
	if err != nil {
		s.add(Defect{Kind: "index", Severity: SevWarn, Path: f.Path,
			Detail: err.Error(), Repaired: s.quarantine(f.Path)})
		return e, false
	}
	return e, true
}

// checkEntryTarget verifies the job an index entry points at: it must
// exist (GC removes entries with its jobs; a survivor is divergence), its
// spec must re-derive to the entry's digest, and a digest entry must
// never point at an alias (aliases are fan-out, not sources).
func (s *scanner) checkEntryTarget(path string, e jobs.IndexEntry) {
	got, scanned := s.digests[e.Job]
	if scanned && got == "" {
		return // the job's own verification was skipped; nothing to compare
	}
	if !scanned {
		s.add(Defect{Kind: "index", Severity: SevError, Path: path,
			Detail:   fmt.Sprintf("%s entry points at vanished job %s", e.Kind, e.Job),
			Repaired: s.quarantine(path)})
		return
	}
	if got != e.Digest {
		s.add(Defect{Kind: "index", Severity: SevError, Path: path,
			Detail:   fmt.Sprintf("%s entry records digest %s, %s's spec re-derives to %s", e.Kind, e.Digest, e.Job, got),
			Repaired: s.quarantine(path)})
		return
	}
	if e.Kind == "digest" && s.lastState[e.Job] == jobs.StateDedup {
		s.add(Defect{Kind: "index", Severity: SevError, Path: path,
			Detail:   fmt.Sprintf("digest entry points at alias %s (executors only)", e.Job),
			Repaired: s.quarantine(path)})
	}
}
