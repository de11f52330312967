// Package fsio provides the crash-durability file primitives shared by the
// checkpoint writer (internal/place) and the job store (internal/jobs): an
// atomic write-file and a directory fsync.
//
// The durability contract is the standard one: a file replaced with
// WriteFileAtomic is, after a crash at any instant, either the complete old
// content or the complete new content — never a torn mix, and never missing.
// The last property is the subtle one: os.Rename alone makes the *data*
// durable (the temp file was fsynced) but not the *name* — the rename lives
// in the directory, and until the directory is fsynced a power cut can roll
// it back, leaving no file at all. SyncDir closes that window.
//
// Two failure-handling extras ride on the primitives:
//
//   - Errors that mean "this filesystem will reject every write" (ENOSPC,
//     EDQUOT, EROFS) are wrapped so errors.Is(err, ErrDiskFull) holds,
//     letting the job layer stop accepting work instead of burning retries.
//   - Every fallible step carries a faultinject point (fsio.write,
//     fsio.sync, fsio.rename, fsio.syncdir, fsio.write.torn), so the chaos
//     harness can fail or tear writes at exact, seeded moments. Disarmed,
//     each point is a single atomic load.
package fsio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
)

// ErrDiskFull marks write errors whose cause is a full (ENOSPC, EDQUOT) or
// read-only (EROFS) filesystem — conditions retries cannot fix. Callers use
// errors.Is(err, ErrDiskFull) to switch from retrying to refusing work.
var ErrDiskFull = errors.New("fsio: filesystem full or read-only")

// classify wraps err with ErrDiskFull when the underlying cause is a
// full/read-only filesystem, and returns err unchanged otherwise.
func classify(err error) error {
	if err != nil && isDiskUnwritable(err) && !errors.Is(err, ErrDiskFull) {
		return fmt.Errorf("%w: %w", ErrDiskFull, err)
	}
	return err
}

// SyncDir fsyncs the directory at dir, making previously performed renames
// and creates within it durable. Filesystems that do not support fsync on
// directories (some network and FUSE mounts return EINVAL/ENOTSUP) are
// treated as best-effort: the error is suppressed, matching what databases
// and archivers do on such mounts.
func SyncDir(dir string) error {
	if err := faultinject.Err(faultinject.FsioSyncDir); err != nil {
		return fmt.Errorf("fsio: sync dir %s: %w", dir, classify(err))
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsio: sync dir: %w", classify(err))
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if isSyncUnsupported(err) {
			return nil
		}
		return fmt.Errorf("fsio: sync dir %s: %w", dir, classify(err))
	}
	return nil
}

// WriteFileAtomic replaces path with data durably: the bytes land in a
// temporary file in the same directory, are fsynced, take the target name
// with a rename, and the directory entry is fsynced. A crash at any point
// leaves either the old file or the new one, complete.
//
// Injected torn writes (faultinject.FsioWriteTorn) report success but leave
// a truncated file behind — the bit-rot case downstream CRC framing and
// quarantine recovery exist for.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	if err := faultinject.Err(faultinject.FsioWrite); err != nil {
		return fmt.Errorf("fsio: write %s: %w", path, classify(err))
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("fsio: write %s: %w", path, classify(err))
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("fsio: write %s: %w", path, classify(err))
	}
	if err := injectSyncFault(); err != nil {
		tmp.Close()
		return fmt.Errorf("fsio: write %s: %w", path, classify(err))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("fsio: write %s: %w", path, classify(err))
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return fmt.Errorf("fsio: write %s: %w", path, classify(err))
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fsio: write %s: %w", path, classify(err))
	}
	if err := faultinject.Err(faultinject.FsioRename); err != nil {
		return fmt.Errorf("fsio: write %s: %w", path, classify(err))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("fsio: write %s: %w", path, classify(err))
	}
	if err := SyncDir(dir); err != nil {
		return err
	}
	// Torn-write injection happens after the write has genuinely succeeded:
	// the caller sees nil, but the published file is truncated to Frac of
	// its bytes — simulating a write the kernel acknowledged and the media
	// then lost part of.
	if f := faultinject.Check(faultinject.FsioWriteTorn); f != nil {
		keep := int64(f.Frac * float64(len(data)))
		if err := os.Truncate(path, keep); err != nil {
			return fmt.Errorf("fsio: write %s: torn-write injection: %w", path, err)
		}
	}
	return nil
}

// ErrExists is returned by CreateExclusive when the target path already
// exists — the "lost the race" outcome, distinct from real I/O failures.
var ErrExists = errors.New("fsio: file already exists")

// CreateExclusive durably creates path with data, failing with ErrExists if
// the file is already there. This is the mutual-exclusion primitive the
// lease layer's claim files and the dedupe index are built on: of N racing
// creators exactly one wins, and the losers learn they lost.
//
// The bytes land in a fsynced temporary file first, which then takes the
// target name with a hard link. link(2) fails if the name exists, so the
// create is exclusive, and readers never see the file without its content
// (O_CREATE|O_EXCL followed by a write would expose an empty file, which a
// racing reader takes for a torn record). Rename cannot serve: it is
// last-writer-wins, the opposite of what a claim needs. Media faults can
// still leave a torn file behind, so callers frame the content (CRC) and
// treat an undecodable claim as present-but-expired.
func CreateExclusive(path string, data []byte, perm os.FileMode) error {
	if err := faultinject.Err(faultinject.FsioWrite); err != nil {
		return fmt.Errorf("fsio: create %s: %w", path, classify(err))
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("fsio: create %s: %w", path, classify(err))
	}
	defer os.Remove(tmp.Name()) // the target name, if linked, keeps the data
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("fsio: create %s: %w", path, classify(err))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("fsio: create %s: %w", path, classify(err))
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return fmt.Errorf("fsio: create %s: %w", path, classify(err))
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fsio: create %s: %w", path, classify(err))
	}
	if err := os.Link(tmp.Name(), path); err != nil {
		if os.IsExist(err) {
			return fmt.Errorf("%w: %s", ErrExists, path)
		}
		return fmt.Errorf("fsio: create %s: %w", path, classify(err))
	}
	return SyncDir(dir)
}

// AppendLine durably appends one framed record to path, creating the file
// if needed: O_APPEND write of the whole record in a single syscall, then
// fsync. This is the primitive behind append-only observability files (span
// records): unlike WriteFileAtomic it never replaces existing content, so N
// processes can interleave whole records into one file — each O_APPEND
// write lands at the end atomically on local filesystems — and a crash can
// tear at most the final record, which the CRC framing downstream detects
// and skips.
//
// data should be one complete newline-terminated record; callers frame it
// (magic + CRC + length) so a torn tail is detected rather than trusted.
func AppendLine(path string, data []byte, perm os.FileMode) error {
	if err := faultinject.Err(faultinject.FsioAppend); err != nil {
		return fmt.Errorf("fsio: append %s: %w", path, classify(err))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, perm)
	if err != nil {
		return fmt.Errorf("fsio: append %s: %w", path, classify(err))
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("fsio: append %s: %w", path, classify(err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("fsio: append %s: %w", path, classify(err))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fsio: append %s: %w", path, classify(err))
	}
	return nil
}

// injectSyncFault keeps the fsync injection point out of the happy-path
// error chain above.
func injectSyncFault() error {
	return faultinject.Err(faultinject.FsioSync)
}
