package jobs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/frame"
)

// State is a job lifecycle state. Transitions:
//
//	queued ──▶ running ──▶ succeeded
//	  ▲  │        │  │
//	  │  │(dedupe)│  └────▶ failed
//	  │  └──▶ dedup
//	  │ (interrupt│
//	  └───────────┘
//	queued/running ──▶ canceled
//
// An interrupted running job (drain, crash, shutdown) returns to queued —
// either explicitly journaled by a draining worker, or implicitly: a
// journal whose last record says running means the process died mid-run,
// and recovery treats the job as queued, resuming from its checkpoint.
//
// dedup is the terminal state of an alias: a submission whose content
// digest matched an existing job, registered without ever entering the
// queue. Its record's Source names the executing job whose result the alias
// fans out (DESIGN.md §16). An alias never runs, so dedup follows only
// queued — a dedup record after running would mean an executing job was
// retroactively aliased, which is corruption.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
	StateDedup     State = "dedup"
)

// Terminal reports whether no further transitions can follow s.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled || s == StateDedup
}

// knownState rejects anything a decoder should not trust.
func knownState(s State) bool {
	switch s {
	case StateQueued, StateRunning, StateSucceeded, StateFailed, StateCanceled, StateDedup:
		return true
	}
	return false
}

// ValidTransition reports whether a journal may record to directly after
// from. The empty State stands for "no record yet".
//
// The rule is looser than the nominal lifecycle diagram because journaling
// is itself fallible: an append can fail after an earlier one already
// landed (crash, torn write, injected fault), leaving the previous state
// stale, and the manager records retry bookkeeping between attempts. Chaos
// runs show queued→queued, running→running, and queued→failed (retry budget
// exhausted after an "attempt failed" record) are all legitimate on disk.
// What the recovery machinery actually depends on is narrower:
//
//   - from terminal → nothing may follow, ever
//   - to succeeded → only from running: a success is journaled by the same
//     process, in the same attempt, that journaled the run — a success out
//     of nowhere means corruption
//   - to dedup → only from queued: an alias is journaled dedup immediately
//     after its submission record, before any node could claim it; a dedup
//     record on a job that ever ran means corruption
//   - everything else (queued/running/canceled/failed from any non-terminal
//     state) → allowed
func ValidTransition(from, to State) bool {
	if from.Terminal() {
		return false
	}
	switch to {
	case StateQueued, StateRunning, StateCanceled, StateFailed:
		return true
	case StateSucceeded:
		return from == StateRunning
	case StateDedup:
		return from == StateQueued
	}
	return false
}

// CheckJournal verifies the whole-journal properties recovery depends on:
// strictly consecutive sequence numbers from 1, every adjacent pair a
// ValidTransition, nothing after a terminal record, and non-decreasing
// fencing tokens (over records that carry one — single-node records with
// token 0 are exempt). It is the invariant site behind jobs.transition and
// the chaos verifier's journal check.
func CheckJournal(recs []Record) error {
	prev := State("")
	var maxToken uint64
	for i, rec := range recs {
		if rec.Seq != i+1 {
			return fmt.Errorf("jobs: journal record %d has sequence %d, want %d", i, rec.Seq, i+1)
		}
		if !knownState(rec.State) {
			return fmt.Errorf("jobs: journal record %d has unknown state %q", i, rec.State)
		}
		if prev.Terminal() {
			return fmt.Errorf("jobs: journal record %d: record after terminal state %q", i, prev)
		}
		if !ValidTransition(prev, rec.State) {
			return fmt.Errorf("jobs: journal record %d: invalid transition %q → %q", i, prev, rec.State)
		}
		if rec.Token > 0 {
			if rec.Token < maxToken {
				return fmt.Errorf("jobs: journal record %d: fencing token went backwards (%d after %d) — stale write",
					i, rec.Token, maxToken)
			}
			maxToken = rec.Token
		}
		prev = rec.State
	}
	return nil
}

// Record is one journal entry: a state transition with its sequence number
// (1-based, strictly consecutive), wall time, execution attempt, and a
// human-readable detail. In fleet mode (DESIGN.md §13) each record also
// carries the writing node and its fencing token; both are zero/absent for
// single-node stores, so the format needs no version bump.
type Record struct {
	Seq     int       `json:"seq"`
	Time    time.Time `json:"time"`
	State   State     `json:"state"`
	Attempt int       `json:"attempt,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	// Node identifies the fleet node that journaled this record.
	Node string `json:"node,omitempty"`
	// Token is the fencing token the writer held. Non-zero tokens must be
	// non-decreasing along a journal: a later record with a smaller token is
	// the signature of a stale zombie's write landing after a takeover.
	Token uint64 `json:"token,omitempty"`
	// Source, on a dedup record, names the executing job whose result this
	// alias fans out (machine-readable; Detail carries the human form).
	Source string `json:"source,omitempty"`
	// PlacementCRC/ResultCRC, on a succeeded record, are CRC-32/Castagnoli
	// checksums of the job's placement.tw and result.json bytes as written.
	// Neither artifact carries internal framing, so these are what lets the
	// dedupe cache verify a source before fanning it out and lets twfsck
	// detect bit rot in result artifacts at rest (DESIGN.md §16).
	PlacementCRC uint32 `json:"placement_crc,omitempty"`
	ResultCRC    uint32 `json:"result_crc,omitempty"`
}

// journalFormat frames every journal line (internal/frame). The version is
// bumped on any incompatible format change; maxJournalLine bounds one
// record's JSON payload, so a corrupted length field cannot make the
// decoder allocate without limit.
const (
	JournalVersion = 1
	maxJournalLine = 1 << 20
)

var journalFormat = frame.Format{Magic: "twjob", Version: JournalVersion, Max: maxJournalLine}

// AppendRecord writes one journal line for rec to w:
//
//	twjob VERSION CRC32C PAYLOADLEN PAYLOADJSON\n
//
// The CRC (CRC-32/Castagnoli over the payload bytes) and explicit length
// let the decoder reject torn or bit-rotted lines individually.
func AppendRecord(w io.Writer, rec Record) error {
	line, err := journalFormat.Append(nil, rec)
	if err != nil {
		return fmt.Errorf("jobs: encode journal record: %w", err)
	}
	_, err = w.Write(line)
	return err
}

// EncodeJournal writes the complete journal for recs.
func EncodeJournal(recs []Record) ([]byte, error) {
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = journalFormat.Append(buf, rec); err != nil {
			return nil, fmt.Errorf("jobs: encode journal record: %w", err)
		}
	}
	return buf, nil
}

// DecodeJournal reads journal records from r, validating each line's
// header, length, checksum, JSON payload, state, and sequence continuity.
// It never panics on malformed input. On a defect it returns the valid
// prefix together with a descriptive error, so a caller can quarantine the
// file yet keep the job's last known good state.
func DecodeJournal(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxJournalLine+256)
	var recs []Record
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(bytes.TrimSpace(text)) == 0 {
			continue
		}
		rec, err := decodeLine(text)
		if err != nil {
			return recs, fmt.Errorf("jobs: journal line %d: %w", line, err)
		}
		if want := len(recs) + 1; rec.Seq != want {
			return recs, fmt.Errorf("jobs: journal line %d: sequence %d, want %d", line, rec.Seq, want)
		}
		prev := State("")
		if len(recs) > 0 {
			prev = recs[len(recs)-1].State
		}
		if prev.Terminal() {
			return recs, fmt.Errorf("jobs: journal line %d: record after terminal state %q", line, prev)
		}
		if !ValidTransition(prev, rec.State) {
			return recs, fmt.Errorf("jobs: journal line %d: invalid transition %q → %q",
				line, prev, rec.State)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("jobs: journal: %w", err)
	}
	return recs, nil
}

// decodeLine parses and verifies one journal line (without its newline).
func decodeLine(text []byte) (Record, error) {
	var rec Record
	if err := journalFormat.Decode(text, &rec); err != nil {
		return rec, err
	}
	if !knownState(rec.State) {
		return rec, fmt.Errorf("unknown state %q", rec.State)
	}
	if rec.Seq <= 0 {
		return rec, fmt.Errorf("sequence %d out of range", rec.Seq)
	}
	if rec.Attempt < 0 {
		return rec, fmt.Errorf("attempt %d out of range", rec.Attempt)
	}
	if rec.Source != "" && !jobDirRe.MatchString(rec.Source) {
		return rec, fmt.Errorf("bad source job %.40q", rec.Source)
	}
	if rec.State == StateDedup && rec.Source == "" {
		return rec, fmt.Errorf("dedup record without a source job")
	}
	return rec, nil
}
