package jobs

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestStoreLayoutGolden pins the store's on-disk layout: the relative path
// of every file and directory a store holds after the public API has built
// one of each record chain — an executed job under an idempotency key, a
// dedup alias of it, two digest generations, a fleet claim chain with its
// heartbeat, a node heartbeat, and a journal quarantined on reopen.
// Rewrite the golden with go test -run TestStoreLayoutGolden -update, only
// for an intended change of the on-disk format.
func TestStoreLayoutGolden(t *testing.T) {
	root := t.TempDir()
	st, m := newTestManager(t, root, Config{Workers: 1})
	m.Start()
	exec, _, err := m.SubmitIdem(fastSpec(), "layout-key")
	if err != nil {
		t.Fatal(err)
	}
	if rec := waitTerminal(t, exec); rec.State != StateSucceeded {
		t.Fatalf("executor ended %q: %s", rec.State, rec.Detail)
	}
	alias, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := alias.Last().State; got != StateDedup {
		t.Fatalf("duplicate submission ended %q, want %q", got, StateDedup)
	}

	// Generation 1 of a second digest names a canceled job, so the next
	// submission of that content claims generation 2 and executes.
	spec2 := fastSpec()
	spec2.Seed = 2
	dead, err := st.Create(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.Append(StateCanceled, 0, "canceled"); err != nil {
		t.Fatal(err)
	}
	claim, _, err := st.ClaimDigest(spec2.ContentDigest())
	if err != nil || claim == nil {
		t.Fatalf("claim generation 1: claim=%v err=%v", claim, err)
	}
	if err := claim.Publish(dead.ID); err != nil {
		t.Fatal(err)
	}
	gen2, err := m.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if rec := waitTerminal(t, gen2); rec.State != StateSucceeded {
		t.Fatalf("generation 2 executor ended %q: %s", rec.State, rec.Detail)
	}
	if n := len(st.DigestEntries(spec2.ContentDigest())); n != 2 {
		t.Fatalf("digest has %d generations, want 2", n)
	}
	drain(t, m)

	// A fleet job claimed twice (a released claim, then a live one) and
	// the claiming node's liveness file.
	fleet := openNode(t, root, "n1")
	spec3 := fastSpec()
	spec3.Seed = 3
	fj, err := fleet.Create(spec3)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := fleet.Claim(fj, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fleet.Claim(fj, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := fleet.WriteNodeHeartbeat(time.Minute); err != nil {
		t.Fatal(err)
	}

	// A torn journal tail is set aside on reopen and its prefix rewritten.
	jpath := JournalPath(dead.Dir())
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x20
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Quarantined() != 1 {
		t.Fatalf("reopen quarantined %d, want 1", reopened.Quarantined())
	}

	var b strings.Builder
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			rel += "/"
		}
		b.WriteString(rel + "\n")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Digest directories are named by content hash; the spec codec (and so
	// the hash) is pinned elsewhere, so only their shape is pinned here.
	got := b.String()
	for _, s := range []Spec{fastSpec(), spec2} {
		hx, _ := digestHex(s.ContentDigest())
		got = strings.ReplaceAll(got, hx, fmt.Sprintf("<digest seed %d>", s.Seed))
	}
	key := strings.TrimSuffix(strings.TrimPrefix(IdemFileName("", "layout-key"), "k"), ".twk")
	got = strings.ReplaceAll(got, key, "<key>")
	file := filepath.Join("testdata", "layout.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("store layout differs from %s:\n got:\n%s\nwant:\n%s", file, got, want)
	}
}
