package jobs

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/fsio"
)

// GCJobs bounds store growth: it deletes terminal job directories whose last
// journal record is older than retention, plus the dedupe index entries that
// pointed at them. Three protections keep the sweep safe:
//
//   - The highest-numbered job directory is never deleted, whatever its age.
//     Open derives the ID sequence from the directory names; deleting the
//     high-water mark would let a restarted store re-mint an old ID, and
//     with it an old job's fencing-token universe.
//   - A job is never deleted while a surviving dedup alias links to it: the
//     alias serves the source's result bytes by reference, so the source
//     must outlive every alias (aliases themselves age out independently).
//   - Non-terminal jobs are untouchable — only succeeded, failed, canceled,
//     and dedup states age out.
//
// Deletion is rename-then-remove: the directory is atomically moved to a
// hidden create-temp name first, so a crash mid-removal leaves debris that
// Open already knows to clear, never a half-deleted job directory a scan
// would quarantine. Returns the number of job directories removed.
func (s *Store) GCJobs(retention time.Duration) (int, error) {
	cutoff := time.Now().Add(-retention)
	jobs := s.List()
	maxID := ""
	if len(jobs) > 0 {
		maxID = jobs[len(jobs)-1].ID // List is in ID order
	}
	expired := map[string]*Job{}
	for _, j := range jobs {
		j.Reload()
		last := j.Last()
		if j.ID != maxID && last.State.Terminal() && last.Time.Before(cutoff) {
			expired[j.ID] = j
		}
	}
	if len(expired) == 0 {
		return 0, nil
	}
	// A source referenced by any surviving alias survives too; re-run the
	// check until it settles (an alias kept alive this round can itself be
	// the reason a source stays next round — one pass suffices here because
	// aliases never chain, but the loop is cheap and self-evidently right).
	for {
		kept := false
		for _, j := range s.List() {
			if _, dying := expired[j.ID]; dying {
				continue
			}
			if src, ok := j.DedupSource(); ok {
				if _, dying := expired[src]; dying {
					delete(expired, src)
					kept = true
				}
			}
		}
		if !kept {
			break
		}
	}
	n := 0
	for id, j := range expired {
		// Unregister before touching disk: a concurrent submit resolving a
		// digest entry must see the job as gone (dead source → fresh
		// generation), never alias to a directory mid-removal.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		tmp := filepath.Join(s.root, tmpJobPrefix+"gc-"+id)
		if err := os.Rename(j.dir, tmp); err != nil {
			s.logf("jobs: retention gc %s: %v", id, err)
			continue
		}
		os.RemoveAll(tmp)
		n++
	}
	s.gcIndex()
	if err := fsio.SyncDir(s.root); err != nil {
		return n, err
	}
	return n, nil
}

// gcIndex removes dedupe index entries that point at jobs no longer on
// disk, so a digest whose source aged out is re-executed under a fresh
// generation instead of resolving to a dangling link. Pending claims (no
// job yet) are left alone — the claim grace and the scrubber own those.
func (s *Store) gcIndex() {
	drop := func(path string) {
		e, err := ReadIndexEntryFile(path)
		if err != nil || e.Job == "" {
			return // corrupt entries are the scrubber's call, not GC's
		}
		if _, err := os.Stat(filepath.Join(s.root, e.Job)); !os.IsNotExist(err) {
			return
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			s.logf("jobs: retention gc index %s: %v", path, err)
		}
	}
	ix := ReadIndex(s.root)
	for _, f := range ix.Idem {
		drop(f.Path)
	}
	for _, d := range ix.Digests {
		for _, g := range d.Gens {
			drop(g.Path)
		}
		// An emptied digest directory disappears with its entries.
		os.Remove(d.Dir)
	}
}
