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
	"os"
	"path/filepath"

	"repro/internal/jobs"
)

// scanIndex verifies both index trees against the job directories scanned
// earlier (s.digests / s.lastState).
func (s *scanner) scanIndex(root string) {
	s.scanIdemIndex(root)
	s.scanDigestIndex(root)
}

// scanIdemIndex verifies idempotency-key entries: decodable, filed under
// the name their tenant+key hash to, pointing at an existing job whose
// spec content hashes to the recorded digest.
func (s *scanner) scanIdemIndex(root string) {
	dir := jobs.IdemDir(root)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // no idempotency index yet
	}
	for _, name := range sortedNames(entries, jobs.IdemFileRe.MatchString) {
		path := filepath.Join(dir, name)
		s.rep.Artifacts++
		e, derr := jobs.ReadIndexEntryFile(path)
		if derr != nil {
			// A torn entry is debris the store quarantines on read anyway.
			s.add(Defect{Kind: "index", Severity: SevWarn, Path: path,
				Detail: derr.Error(), Repaired: s.quarantine(path)})
			continue
		}
		if want := jobs.IdemFileName(e.Tenant, e.Key); want != name {
			s.add(Defect{Kind: "index", Severity: SevError, Path: path,
				Detail:   fmt.Sprintf("entry for tenant %q key %q belongs in %s", e.Tenant, e.Key, want),
				Repaired: s.quarantine(path)})
			continue
		}
		s.checkEntryTarget(path, e)
	}
}

// scanDigestIndex verifies digest generation chains: well-named
// directories, decodable entries, each published generation pointing at a
// real, non-alias job whose spec re-derives to the directory's digest.
func (s *scanner) scanDigestIndex(root string) {
	dir := jobs.DigestIndexDir(root)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // no digest index yet
	}
	for _, hex := range sortedNames(entries, jobs.DigestDirRe.MatchString) {
		ddir := filepath.Join(dir, hex)
		want := "sha256:" + hex
		gens, gerr := os.ReadDir(ddir)
		if gerr != nil {
			continue
		}
		for _, name := range sortedNames(gens, jobs.DigestGenRe.MatchString) {
			path := filepath.Join(ddir, name)
			s.rep.Artifacts++
			e, derr := jobs.ReadIndexEntryFile(path)
			if derr != nil {
				// Torn, as for idem entries: warn and sweep.
				s.add(Defect{Kind: "index", Severity: SevWarn, Path: path,
					Detail: derr.Error(), Repaired: s.quarantine(path)})
				continue
			}
			if e.Digest != want {
				s.add(Defect{Kind: "index", Severity: SevError, Path: path,
					Detail:   fmt.Sprintf("entry digest %s filed under %s", e.Digest, want),
					Repaired: s.quarantine(path)})
				continue
			}
			if e.Job == "" {
				continue // pending claim; the manager's grace window owns it
			}
			s.checkEntryTarget(path, e)
		}
	}
}

// checkEntryTarget verifies the job an index entry points at: it must
// exist (GC removes entries with its jobs; a survivor is divergence), its
// spec must re-derive to the entry's digest, and a digest entry must
// never point at an alias (aliases are fan-out, not sources).
func (s *scanner) checkEntryTarget(path string, e jobs.IndexEntry) {
	got, scanned := s.digests[e.Job]
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
