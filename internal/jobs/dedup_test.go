package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// canonBase is a spec with every content field set to a non-default value,
// so each perturbation below flips exactly one field away from it.
func canonBase() Spec {
	return Spec{
		Preset: "i1", PresetSeed: 3, Seed: 9,
		Ac: 8, R: 0.85, Rho: 1.1, Eta: 0.5, M: 2, Iterations: 7,
		CoreAspect: 1.25, MaxSteps: 64,
		SkipStage2: true, Replicas: 2, SkipDRC: true,
	}
}

// TestCanonicalSpecDigestProperties pins the digest equivalence relation:
// equal content fields give equal digests, every content field perturbs the
// digest, and every scheduling/ownership field does not (DESIGN.md §16 —
// changing a deadline must not defeat the cache, changing a seed must).
func TestCanonicalSpecDigestProperties(t *testing.T) {
	base := canonBase()
	baseDigest := base.ContentDigest()
	if !ValidDigest(baseDigest) {
		t.Fatalf("ContentDigest() = %q, not a valid digest", baseDigest)
	}
	copyOf := canonBase()
	if d := copyOf.ContentDigest(); d != baseDigest {
		t.Fatalf("equal specs digest differently: %s != %s", d, baseDigest)
	}

	content := map[string]func(*Spec){
		"Preset":     func(s *Spec) { s.Preset = "i3" },
		"PresetSeed": func(s *Spec) { s.PresetSeed = 4 },
		"Netlist":    func(s *Spec) { s.Netlist = "cell a 1 1\n" },
		"Seed":       func(s *Spec) { s.Seed++ },
		"Ac":         func(s *Spec) { s.Ac++ },
		"R":          func(s *Spec) { s.R += 0.01 },
		"Rho":        func(s *Spec) { s.Rho += 0.01 },
		"Eta":        func(s *Spec) { s.Eta += 0.01 },
		"M":          func(s *Spec) { s.M++ },
		"Iterations": func(s *Spec) { s.Iterations++ },
		"CoreAspect": func(s *Spec) { s.CoreAspect += 0.01 },
		"MaxSteps":   func(s *Spec) { s.MaxSteps++ },
		"SkipStage2": func(s *Spec) { s.SkipStage2 = false },
		"Replicas":   func(s *Spec) { s.Replicas++ },
		"SkipDRC":    func(s *Spec) { s.SkipDRC = false },
	}
	for name, mutate := range content {
		s := canonBase()
		mutate(&s)
		if d := s.ContentDigest(); d == baseDigest {
			t.Errorf("perturbing content field %s left the digest unchanged", name)
		}
	}

	excluded := map[string]func(*Spec){
		"Name":     func(s *Spec) { s.Name = "nightly" },
		"Tenant":   func(s *Spec) { s.Tenant = "acme" },
		"Deadline": func(s *Spec) { s.Deadline = Duration(time.Hour) },
		"NotAfter": func(s *Spec) { s.NotAfter = 1893456000000 },
		"Retries":  func(s *Spec) { s.Retries = 5 },
		"Digest":   func(s *Spec) { s.Digest = "sha256:" + "0123456789abcdef" },
	}
	for name, mutate := range excluded {
		s := canonBase()
		mutate(&s)
		if d := s.ContentDigest(); d != baseDigest {
			t.Errorf("excluded field %s changed the digest: %s != %s", name, d, baseDigest)
		}
	}
}

// TestCanonicalPresetSeedDefaulting pins the one canonicalization rule the
// encoding applies: spelling out Circuit's default preset seed (17) digests
// the same as omitting it, and without a preset the seed is inert entirely.
func TestCanonicalPresetSeedDefaulting(t *testing.T) {
	implicit := canonBase()
	implicit.PresetSeed = 0
	explicit := canonBase()
	explicit.PresetSeed = 17
	if implicit.ContentDigest() != explicit.ContentDigest() {
		t.Error("preset_seed 0 and 17 digest differently with a preset; the documented default defeats the cache")
	}

	a := Spec{Netlist: "cell a 1 1\n", PresetSeed: 5}
	b := Spec{Netlist: "cell a 1 1\n", PresetSeed: 99}
	if a.ContentDigest() != b.ContentDigest() {
		t.Error("preset_seed perturbs the digest without a preset, but Circuit never reads it")
	}
}

// TestCanonicalEncodingDeterministic pins the encoding itself: identical
// input gives identical bytes, the version line leads, SumCanonicalSpec
// agrees with ContentDigest, and a reused scratch buffer digests without
// heap allocations (the contract BenchmarkSpecDigest gates).
func TestCanonicalEncodingDeterministic(t *testing.T) {
	s := canonBase()
	enc1 := AppendCanonicalSpec(nil, &s)
	enc2 := AppendCanonicalSpec(nil, &s)
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("two encodings of one spec differ:\n%q\n%q", enc1, enc2)
	}
	if !bytes.HasPrefix(enc1, []byte(canonVersion)) {
		t.Fatalf("encoding does not start with the version line: %q", enc1[:min(len(enc1), 20)])
	}
	// Appending onto a prefilled buffer must not disturb the prefix.
	withPrefix := AppendCanonicalSpec([]byte("prefix"), &s)
	if !bytes.Equal(withPrefix, append([]byte("prefix"), enc1...)) {
		t.Fatal("AppendCanonicalSpec clobbered the destination prefix")
	}

	sum, _ := SumCanonicalSpec(make([]byte, 0, 512), &s)
	if want := DigestPrefix + fmt.Sprintf("%x", sum); want != s.ContentDigest() {
		t.Fatalf("SumCanonicalSpec digest %s != ContentDigest %s", want, s.ContentDigest())
	}

	scratch := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		var sum [32]byte
		sum, scratch = SumCanonicalSpec(scratch, &s)
		_ = sum
	})
	if allocs != 0 {
		t.Errorf("SumCanonicalSpec with reused scratch allocates %.1f/op, want 0", allocs)
	}
}

// TestSubmitDedup covers the single-threaded dedupe surface end to end:
// a second identical submission after success becomes a cache-hit alias, an
// idempotency-key replay returns the original job without a new one, and a
// key reused with different content is a conflict.
func TestSubmitDedup(t *testing.T) {
	st, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)

	first, created, err := m.SubmitIdem(fastSpec(), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("fresh idempotency key reported as a replay")
	}
	if rec := waitTerminal(t, first); rec.State != StateSucceeded {
		t.Fatalf("executor ended %q: %s", rec.State, rec.Detail)
	}

	// Exact replay: same key, same spec → the original job, created=false.
	again, created, err := m.SubmitIdem(fastSpec(), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if created || again.ID != first.ID {
		t.Fatalf("replay returned (%s, created=%v), want (%s, created=false)", again.ID, created, first.ID)
	}

	// Same content, no key → a dedup alias serving the cached result.
	alias, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := alias.Last().State; got != StateDedup {
		t.Fatalf("duplicate submission ended %q, want %q", got, StateDedup)
	}
	if src, ok := alias.DedupSource(); !ok || src != first.ID {
		t.Fatalf("alias source = (%q, %v), want (%q, true)", src, ok, first.ID)
	}
	srcJob, err := st.ResolveResult(alias)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(first.PlacementPath())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(srcJob.PlacementPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || len(got) == 0 {
		t.Fatalf("alias resolves to %d placement bytes, executor wrote %d", len(got), len(want))
	}

	// Key reuse with different content is a client bug, surfaced loudly.
	other := fastSpec()
	other.Seed = 777
	_, _, err = m.SubmitIdem(other, "key-1")
	var conflict *ErrIdemConflict
	if !errors.As(err, &conflict) {
		t.Fatalf("key reuse with new content returned %v, want *ErrIdemConflict", err)
	}
	if conflict.Job != first.ID {
		t.Fatalf("conflict names job %s, want %s", conflict.Job, first.ID)
	}
}

// TestRacingDuplicateSubmits is the exactly-once race property under the
// race detector: N goroutines submit one content digest concurrently — half
// with distinct idempotency keys, half raw — and exactly one execution may
// happen; every submitter's fetch must return the same placement bytes.
func TestRacingDuplicateSubmits(t *testing.T) {
	const n = 8
	st, m := newTestManager(t, t.TempDir(), Config{Workers: 2, QueueDepth: n})
	m.Start()
	defer drain(t, m)

	jobsOut := make([]*Job, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				jobsOut[i], errs[i] = m.Submit(fastSpec())
			} else {
				jobsOut[i], _, errs[i] = m.SubmitIdem(fastSpec(), fmt.Sprintf("race-%d", i))
			}
		}(i)
	}
	wg.Wait()

	executors := map[string]bool{}
	var fetches [][]byte
	for i, j := range jobsOut {
		if errs[i] != nil {
			t.Fatalf("submitter %d: %v", i, errs[i])
		}
		rec := waitTerminal(t, j)
		if _, isAlias := j.DedupSource(); !isAlias {
			if rec.State != StateSucceeded {
				t.Fatalf("executor %s ended %q: %s", j.ID, rec.State, rec.Detail)
			}
			executors[j.ID] = true
		}
		srcJob, err := st.ResolveResult(j)
		if err != nil {
			t.Fatalf("submitter %d: resolve %s: %v", i, j.ID, err)
		}
		waitTerminal(t, srcJob)
		b, err := os.ReadFile(srcJob.PlacementPath())
		if err != nil {
			t.Fatalf("submitter %d: fetch: %v", i, err)
		}
		fetches = append(fetches, b)
	}
	if len(executors) != 1 {
		t.Fatalf("%d executions for one digest, want exactly 1 (executors %v)", len(executors), executors)
	}
	for i := 1; i < len(fetches); i++ {
		if !bytes.Equal(fetches[i], fetches[0]) {
			t.Fatalf("fetch %d differs from fetch 0 (%d vs %d bytes)", i, len(fetches[i]), len(fetches[0]))
		}
	}
	if len(fetches[0]) == 0 {
		t.Fatal("fetched placements are empty")
	}
	// Every key must be durably indexed at the job its submitter got.
	for i := 1; i < n; i += 2 {
		e, ok, err := st.LookupIdem("", fmt.Sprintf("race-%d", i))
		if err != nil || !ok {
			t.Fatalf("key race-%d not durably indexed: ok=%v err=%v", i, ok, err)
		}
		if e.Job != jobsOut[i].ID {
			t.Fatalf("key race-%d indexed at %s, submitter got %s", i, e.Job, jobsOut[i].ID)
		}
	}
}

// TestGCJobsRetention covers the retention sweep's three protections and the
// index cleanup: the high-water job directory survives any age, a source
// outlives its surviving aliases, and once both age out the dangling index
// entries are dropped so the digest re-executes fresh.
func TestGCJobsRetention(t *testing.T) {
	st, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)

	specA := fastSpec()
	executor, _, err := m.SubmitIdem(specA, "gc-key")
	if err != nil {
		t.Fatal(err)
	}
	if rec := waitTerminal(t, executor); rec.State != StateSucceeded {
		t.Fatalf("executor ended %q: %s", rec.State, rec.Detail)
	}
	alias, err := m.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, alias)
	if _, ok := alias.DedupSource(); !ok {
		t.Fatalf("second submission is not an alias (state %q)", alias.Last().State)
	}

	// A generous retention deletes nothing.
	if n, err := st.GCJobs(time.Hour); err != nil || n != 0 {
		t.Fatalf("GCJobs(1h) = (%d, %v), want (0, nil)", n, err)
	}
	// Retention 0 makes both terminal jobs stale, but the alias is the
	// high-water mark and the source is protected by its surviving alias.
	if n, err := st.GCJobs(0); err != nil || n != 0 {
		t.Fatalf("GCJobs(0) with alias as high-water = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := os.Stat(executor.dir); err != nil {
		t.Fatalf("protected source directory gone: %v", err)
	}

	// A newer job takes the high-water mark; now source and alias age out
	// together and their index entries go with them.
	specB := fastSpec()
	specB.Seed = 2
	newest, err := m.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	if rec := waitTerminal(t, newest); rec.State != StateSucceeded {
		t.Fatalf("newest job ended %q: %s", rec.State, rec.Detail)
	}
	n, err := st.GCJobs(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("GCJobs(0) removed %d directories, want 2 (source+alias)", n)
	}
	for _, gone := range []*Job{executor, alias} {
		if _, err := os.Stat(gone.dir); !os.IsNotExist(err) {
			t.Errorf("%s directory still present after gc (err=%v)", gone.ID, err)
		}
	}
	if _, err := os.Stat(newest.dir); err != nil {
		t.Fatalf("high-water job %s deleted by gc: %v", newest.ID, err)
	}
	if _, ok, err := st.LookupIdem("", "gc-key"); err != nil || ok {
		t.Fatalf("idempotency key survived its job: ok=%v err=%v", ok, err)
	}
	if entries := st.DigestEntries(specA.ContentDigest()); len(entries) != 0 {
		t.Fatalf("digest index for aged-out content still has %d entries", len(entries))
	}
	if entries := st.DigestEntries(specB.ContentDigest()); len(entries) != 1 {
		t.Fatalf("digest index for the live job has %d entries, want 1", len(entries))
	}

	// The digest is executable again: a fresh submission must run, not
	// resolve to a dangling alias.
	fresh, err := m.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	if rec := waitTerminal(t, fresh); rec.State != StateSucceeded {
		t.Fatalf("post-gc resubmission ended %q, want a fresh execution: %s", rec.State, rec.Detail)
	}
}

// TestDedupClaimFaultSubmitsUnindexed arms jobs.dedup.claim once: the claim
// fails before its create, so nothing lands in the digest index, and the
// submission still executes, just without the index. The next duplicate
// therefore finds no source, executes again, and claims generation 1.
func TestDedupClaimFaultSubmitsUnindexed(t *testing.T) {
	pl := faultinject.NewPlane(1, faultinject.Rule{Point: faultinject.JobsDedupClaim})
	if err := pl.Arm(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disarm)
	st, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)

	first, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatalf("submit under a failed digest claim: %v", err)
	}
	if n := pl.Trips()[faultinject.JobsDedupClaim]; n != 1 {
		t.Fatalf("jobs.dedup.claim tripped %d times, want 1", n)
	}
	digest := first.Spec.Digest
	if es := st.DigestEntries(digest); len(es) != 0 {
		t.Fatalf("failed claim left index entries: %+v", es)
	}
	if rec := waitTerminal(t, first); rec.State != StateSucceeded {
		t.Fatalf("un-indexed job ended %q: %s", rec.State, rec.Detail)
	}

	second, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, alias := second.DedupSource(); alias || second.ID == first.ID {
		t.Fatalf("duplicate of an un-indexed job was deduplicated (%s -> %s)", second.ID, first.ID)
	}
	if rec := waitTerminal(t, second); rec.State != StateSucceeded {
		t.Fatalf("second execution ended %q: %s", rec.State, rec.Detail)
	}
	es := st.DigestEntries(digest)
	if len(es) != 1 || es[0].Gen != 1 || es[0].Job != second.ID {
		t.Fatalf("index after the second submit = %+v, want generation 1 -> %s", es, second.ID)
	}
}
