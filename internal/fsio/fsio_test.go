package fsio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWriteFileAtomicCreatesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")

	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("content %q, want %q", got, "v1")
	}

	if err := WriteFileAtomic(path, []byte("v2 longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2 longer" {
		t.Fatalf("content %q, want %q", got, "v2 longer")
	}
}

func TestWriteFileAtomicLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for i := 0; i < 3; i++ {
		if err := WriteFileAtomic(path, []byte("x"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

func TestWriteFileAtomicBadDir(t *testing.T) {
	err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), 0o644)
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("sync of a missing directory succeeded")
	}
}

// TestCreateExclusiveIsAtomic races creators of one path against readers:
// exactly one creator wins, and a reader sees either no file or the whole
// content — never an empty or partial one, which the lease and dedupe
// layers would take for a torn record and supersede.
func TestCreateExclusiveIsAtomic(t *testing.T) {
	data := bytes.Repeat([]byte("claim "), 50)
	for round := 0; round < 50; round++ {
		path := filepath.Join(t.TempDir(), "t00000001")
		var (
			wins, partial atomic.Int32
			readers       sync.WaitGroup
			creators      sync.WaitGroup
		)
		stop := make(chan struct{})
		for i := 0; i < 2; i++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got, err := os.ReadFile(path); err == nil && !bytes.Equal(got, data) {
						partial.Add(1)
					}
				}
			}()
		}
		for i := 0; i < 4; i++ {
			creators.Add(1)
			go func() {
				defer creators.Done()
				switch err := CreateExclusive(path, data, 0o644); {
				case err == nil:
					wins.Add(1)
				case !errors.Is(err, ErrExists):
					t.Error(err)
				}
			}()
		}
		creators.Wait()
		close(stop)
		readers.Wait()
		if n := wins.Load(); n != 1 {
			t.Fatalf("round %d: %d creators won, want 1", round, n)
		}
		if n := partial.Load(); n > 0 {
			t.Fatalf("round %d: readers saw a partial file %d time(s)", round, n)
		}
		entries, err := os.ReadDir(filepath.Dir(path))
		if err != nil || len(entries) != 1 {
			t.Fatalf("round %d: directory holds %d entries (%v), want only the created file", round, len(entries), err)
		}
	}
}
