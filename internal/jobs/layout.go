package jobs

// The store's on-disk layout. Every directory walk over a store, and every
// name in it, lives in this file; the store, retention GC, the lease layer,
// the dedupe index, internal/obs and internal/scrub all read the tree
// through the walkers below, and set damage aside through its one
// quarantine:
//
//	<root>/
//	    j000001/                       one directory per job, named by ID
//	        spec.json  journal.twj  spans.tws
//	        checkpoint.ck  placement.tw  result.json
//	        claims/t00000001 ... hb     fencing claim chain + lease heartbeat
//	    .tmp-j*                        a job under construction (or GC debris)
//	    nodes/<id>.twl                 node liveness heartbeats
//	    index/idem/k<hash>.twk         idempotency key → job
//	    index/digest/<hex>/g000001.twd digest generation chain
//
// Anything set aside gets a ".quarantined.N" suffix, which no pattern here
// matches, so walkers never see it again.

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/frame"
	"repro/internal/fsio"
)

// File and directory names.
const (
	specFile       = "spec.json"
	journalFile    = "journal.twj"
	checkpointFile = "checkpoint.ck"
	resultFile     = "result.json"
	placementFile  = "placement.tw"
	spansFile      = "spans.tws"
	// tmpJobPrefix marks an under-construction job directory awaiting its
	// atomic rename-publish; scans skip it, Open removes stale ones.
	tmpJobPrefix  = ".tmp-j"
	claimsDir     = "claims" // <job>/claims/t%08d + hb
	heartbeatFile = "hb"     // holder-refreshed expiry extension
	nodesDirName  = "nodes"  // <root>/nodes/<id>.twl node heartbeats
	indexDirName  = "index"
	idemDirName   = "idem"
	digestDirName = "digest"
)

var (
	// jobDirRe matches job directory names ("j" + six or more digits).
	jobDirRe = regexp.MustCompile(`^j(\d{6,})$`)
	// claimFileRe matches claim file names ("t" + eight or more digits, the
	// zero-padded fencing token).
	claimFileRe     = regexp.MustCompile(`^t(\d{8,})$`)
	nodeHeartbeatRe = regexp.MustCompile(`^(.+)\.twl$`)
	idemFileRe      = regexp.MustCompile(`^k[0-9a-f]{64}\.twk$`)
	digestGenRe     = regexp.MustCompile(`^g(\d{6,})\.twd$`)
	digestDirRe     = regexp.MustCompile(`^[0-9a-f]{64}$`)
)

// JournalPath returns the journal file path inside a job directory.
func JournalPath(dir string) string { return filepath.Join(dir, journalFile) }

// SpanFilePath returns the span file path inside a job directory.
func SpanFilePath(dir string) string { return filepath.Join(dir, spansFile) }

// SpecFilePath returns the spec file path inside a job directory.
func SpecFilePath(dir string) string { return filepath.Join(dir, specFile) }

// CheckpointFilePath returns the checkpoint file path inside a job directory.
func CheckpointFilePath(dir string) string { return filepath.Join(dir, checkpointFile) }

// ClaimsDirPath returns the claim-chain directory inside a job directory.
func ClaimsDirPath(dir string) string { return filepath.Join(dir, claimsDir) }

// claimPath returns the claim file of a fencing token.
func claimPath(dir string, token uint64) string {
	return filepath.Join(dir, claimsDir, fmt.Sprintf("t%08d", token))
}

// leaseHeartbeatPath returns a job directory's lease heartbeat file.
func leaseHeartbeatPath(dir string) string { return filepath.Join(dir, claimsDir, heartbeatFile) }

// IdemDir and DigestIndexDir return a store root's index directories.
func IdemDir(root string) string        { return filepath.Join(root, indexDirName, idemDirName) }
func DigestIndexDir(root string) string { return filepath.Join(root, indexDirName, digestDirName) }

// IdemFileName returns the index file name for a tenant-scoped idempotency
// key: keys are client-chosen strings, so the name is a hash and the raw
// key lives inside the entry for verification.
func IdemFileName(tenant, key string) string {
	h := sha256.New()
	h.Write([]byte(canonTenant(tenant)))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return "k" + hex.EncodeToString(h.Sum(nil)) + ".twk"
}

// digestGenPath returns the file of generation gen in a digest directory.
func digestGenPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("g%06d.twd", gen))
}

// CompareJobIDs orders job IDs by sequence number. IDs are "j%06d", so a
// longer ID is a larger number and equal lengths compare bytewise; plain
// string order would put j1000000 before j999999.
func CompareJobIDs(a, b string) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

// jobSeq returns the sequence number of a listed job ID.
func jobSeq(id string) int {
	n, _ := strconv.Atoi(id[1:])
	return n
}

// listRoot walks a store root's top level: the published job IDs in ID
// order, and the create-temp (and GC-temp) directories.
func listRoot(root string) (ids []string, temps []os.DirEntry, err error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		switch {
		case !e.IsDir():
		case jobDirRe.MatchString(e.Name()):
			ids = append(ids, e.Name())
		case strings.HasPrefix(e.Name(), tmpJobPrefix):
			temps = append(temps, e)
		}
	}
	slices.SortFunc(ids, CompareJobIDs)
	return ids, temps, nil
}

// ListJobDirs returns the published job directories under a store root in
// ID (creation) order, joined with root. Offline readers (internal/obs,
// internal/scrub) walk stores through it without opening a Store.
func ListJobDirs(root string) ([]string, error) {
	ids, _, err := listRoot(root)
	if err != nil {
		return nil, err
	}
	dirs := make([]string, len(ids))
	for i, id := range ids {
		dirs[i] = filepath.Join(root, id)
	}
	return dirs, nil
}

// ReadSpecDir reads and validates the spec stored in a job directory.
func ReadSpecDir(dir string) (Spec, error) {
	data, err := os.ReadFile(SpecFilePath(dir))
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

// ReadJournalDir decodes a job directory's journal. A missing journal is an
// empty result, not an error (the directory may have been torn mid-create).
// A decode defect returns the valid prefix with the error; a journal that
// cannot be opened returns the *fs.PathError from the open.
func ReadJournalDir(dir string) ([]Record, error) {
	f, err := os.Open(JournalPath(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	return DecodeJournal(f)
}

// journalOpenFailed reports whether a ReadJournalDir error came from opening
// the file rather than from decoding it.
func journalOpenFailed(err error) bool {
	var pe *fs.PathError
	return errors.As(err, &pe) && pe.Op == "open"
}

// RepairJournal sets a job directory's damaged journal aside and rewrites
// its valid record prefix in place, so every reader agrees on the job's
// last known good state again. setAside reports whether the damaged file
// was quarantined; the prefix is only written once it has been.
func RepairJournal(dir string, recs []Record) (setAside bool, err error) {
	path := JournalPath(dir)
	if _, err := Quarantine(path); err != nil {
		return false, err
	}
	data, err := EncodeJournal(recs)
	if err == nil {
		err = fsio.WriteFileAtomic(path, data, 0o644)
	}
	return true, err
}

// Quarantine renames path aside to the first free "<path>.quarantined.N",
// counting N from 0, and syncs the parent directory (best-effort). It
// returns the new name.
func Quarantine(path string) (string, error) {
	for i := 0; ; i++ {
		dst := fmt.Sprintf("%s.quarantined.%d", path, i)
		if _, err := os.Lstat(dst); err == nil {
			continue
		}
		if err := os.Rename(path, dst); err != nil {
			return "", err
		}
		_ = fsio.SyncDir(filepath.Dir(path))
		return dst, nil
	}
}

// writeArtifact is the one verified write of a job's final artifacts
// (placement.tw, result.json): fenced, atomic and durable, then read back
// and byte-compared, so a torn write surfaces as a retryable error here and
// never as corrupt bytes served to a client later. It returns the
// CRC-32/Castagnoli of the bytes, which the succeeded record journals.
func (j *Job) writeArtifact(name string, data []byte) (uint32, error) {
	if err := j.GuardWrite(); err != nil {
		return 0, err
	}
	path := filepath.Join(j.dir, name)
	werr := fsio.WriteFileAtomic(path, data, 0o644)
	j.store.noteWrite(werr)
	if werr != nil {
		return 0, werr
	}
	got, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("jobs: %s %s: read-back: %w", name, j.ID, err)
	}
	if !bytes.Equal(got, data) {
		return 0, fmt.Errorf("jobs: %s %s: read-back mismatch: wrote %d bytes, file has %d",
			name, j.ID, len(data), len(got))
	}
	return frame.Checksum(data), nil
}

// ArtifactFault is one succeeded-job artifact that failed CheckArtifacts.
type ArtifactFault struct {
	// Kind is "placement" or "result".
	Kind string
	Path string
	Err  error
	// Rot is set when the bytes were read but are wrong (CRC mismatch, or
	// an unparsable pre-CRC result); unset when the file was unreadable.
	Rot bool
}

// CheckArtifacts checks a succeeded job's placement and result bytes
// against the CRCs its success record last journaled. Records written
// before checksums existed (both CRCs zero) fall back to a parse check of
// result.json. It returns how many artifacts it checked and the failures.
func CheckArtifacts(dir string, last Record) (checked int, faults []ArtifactFault) {
	rpath := filepath.Join(dir, resultFile)
	if last.PlacementCRC == 0 && last.ResultCRC == 0 {
		data, err := os.ReadFile(rpath)
		if err != nil {
			faults = append(faults, ArtifactFault{Kind: "result", Path: rpath, Err: err})
		} else if err := json.Unmarshal(data, &ResultInfo{}); err != nil {
			faults = append(faults, ArtifactFault{Kind: "result", Path: rpath, Rot: true,
				Err: fmt.Errorf("result is not valid JSON: %w", err)})
		}
		return 1, faults
	}
	check := func(kind, path string, want uint32) {
		data, err := os.ReadFile(path)
		if err != nil {
			faults = append(faults, ArtifactFault{Kind: kind, Path: path, Err: err})
		} else if got := frame.Checksum(data); got != want {
			faults = append(faults, ArtifactFault{Kind: kind, Path: path, Rot: true,
				Err: fmt.Errorf("CRC %08x, journal success record says %08x", got, want)})
		}
	}
	check("placement", filepath.Join(dir, placementFile), last.PlacementCRC)
	check("result", rpath, last.ResultCRC)
	return 2, faults
}

// leaseFile is one decoded lease record file (claim, lease heartbeat or
// node heartbeat); Err is the read or decode failure, if any.
type leaseFile struct {
	Path string
	Rec  LeaseRecord
	Err  error
}

// stale reports whether the record has been dead (expired or released)
// for longer than retention. A missing file is not stale; an undecodable
// one is aged by its mtime.
func (f leaseFile) stale(now time.Time, retention time.Duration) bool {
	if f.Err != nil {
		fi, err := os.Stat(f.Path)
		return err == nil && now.Sub(fi.ModTime()) > retention
	}
	return now.Sub(f.Rec.Expires) > retention
}

func readLeaseFile(path string) leaseFile {
	f := leaseFile{Path: path}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Err = err
		return f
	}
	f.Rec, f.Err = DecodeLeaseRecord(data)
	return f
}

// ClaimFile is one file of a job's fencing claim chain.
type ClaimFile struct {
	Token uint64
	Path  string
	// Record is the decoded claim; zero-valued when Torn.
	Record LeaseRecord
	// Torn marks a claim file that is unreadable, undecodable, or whose
	// record names another token. Its token still counts: the writer may
	// believe it holds the lease.
	Torn bool
}

// ReadClaimChain reads a job directory's claim chain in token order. A
// missing claims directory is an empty chain (the job never ran under a
// lease).
func ReadClaimChain(dir string) ([]ClaimFile, error) {
	cdir := ClaimsDirPath(dir)
	entries, err := os.ReadDir(cdir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var chain []ClaimFile
	for _, e := range entries {
		m := claimFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		tok, perr := strconv.ParseUint(m[1], 10, 64)
		if perr != nil || tok == 0 {
			continue
		}
		c := ClaimFile{Token: tok, Path: filepath.Join(cdir, e.Name()), Torn: true}
		if f := readLeaseFile(c.Path); f.Err == nil && f.Rec.Token == tok {
			c.Record, c.Torn = f.Rec, false
		}
		chain = append(chain, c)
	}
	slices.SortFunc(chain, func(a, b ClaimFile) int { return cmp.Compare(a.Token, b.Token) })
	return chain, nil
}

// ReadHeartbeat decodes a job directory's lease heartbeat file, if present
// and intact (ok reports whether it was).
func ReadHeartbeat(dir string) (LeaseRecord, bool) {
	f := readLeaseFile(leaseHeartbeatPath(dir))
	return f.Rec, f.Err == nil
}

// nodeHeartbeat is one node liveness file; Node is the ID its name gives.
type nodeHeartbeat struct {
	Node string
	leaseFile
}

// readNodeHeartbeats reads every node liveness file under a store root.
func readNodeHeartbeats(root string) []nodeHeartbeat {
	dir := filepath.Join(root, nodesDirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []nodeHeartbeat
	for _, e := range entries {
		if m := nodeHeartbeatRe.FindStringSubmatch(e.Name()); m != nil {
			out = append(out, nodeHeartbeat{Node: m[1], leaseFile: readLeaseFile(filepath.Join(dir, e.Name()))})
		}
	}
	return out
}

// nodeHeartbeatPath returns a node's liveness file under a store root.
func nodeHeartbeatPath(root, node string) string {
	return filepath.Join(root, nodesDirName, node+".twl")
}

// IndexFile is one dedupe index entry file, not yet decoded.
type IndexFile struct {
	Path string
	// Gen is a digest generation's number; zero for idempotency entries.
	Gen int
}

// DigestDir is one digest's generation chain.
type DigestDir struct {
	Dir string
	// Digest is the "sha256:<hex>" the directory is named for.
	Digest string
	// Gens holds the generation files in generation order.
	Gens []IndexFile
}

// IndexListing is one walk of a store root's dedupe index.
type IndexListing struct {
	// Idem holds the idempotency entries in name order.
	Idem []IndexFile
	// Digests holds the digest directories in name order.
	Digests []DigestDir
}

// ReadIndex walks a store root's dedupe index. It decodes nothing: callers
// decide which entries to read (ReadIndexEntryFile) and what to do with
// damage. Missing or unreadable directories are empty.
func ReadIndex(root string) IndexListing {
	var ls IndexListing
	idir := IdemDir(root)
	if entries, err := os.ReadDir(idir); err == nil {
		for _, e := range entries {
			if idemFileRe.MatchString(e.Name()) {
				ls.Idem = append(ls.Idem, IndexFile{Path: filepath.Join(idir, e.Name())})
			}
		}
	}
	entries, err := os.ReadDir(DigestIndexDir(root))
	if err != nil {
		return ls
	}
	for _, e := range entries {
		if !e.IsDir() || !digestDirRe.MatchString(e.Name()) {
			continue
		}
		dir := filepath.Join(DigestIndexDir(root), e.Name())
		gens, err := readDigestDir(dir)
		if err != nil {
			continue
		}
		ls.Digests = append(ls.Digests, DigestDir{Dir: dir, Digest: DigestPrefix + e.Name(), Gens: gens})
	}
	return ls
}

// readDigestDir lists one digest directory's generation files in
// generation order, decoding none of them (the submit path reads only the
// top one).
func readDigestDir(dir string) ([]IndexFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []IndexFile
	for _, e := range entries {
		if m := digestGenRe.FindStringSubmatch(e.Name()); m != nil {
			g, _ := strconv.Atoi(m[1])
			gens = append(gens, IndexFile{Path: filepath.Join(dir, e.Name()), Gen: g})
		}
	}
	slices.SortFunc(gens, func(a, b IndexFile) int { return cmp.Compare(a.Gen, b.Gen) })
	return gens, nil
}

// ReadIndexEntryFile reads and decodes one index entry file.
func ReadIndexEntryFile(path string) (IndexEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return IndexEntry{}, err
	}
	return DecodeIndexEntry(data)
}
