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

// checkRecord is the one definition of the journal's record rules: rec,
// appended after recs, must carry sequence len(recs)+1 and a known state,
// must not follow a terminal record, and must be a ValidTransition from the
// last record's state. DecodeJournal applies it to every decoded line,
// CheckJournal to a whole slice, and the jobs.transition invariant to every
// record Job.AppendOpts is about to write.
func checkRecord(recs []Record, rec Record) error {
	prev := State("")
	if n := len(recs); n > 0 {
		prev = recs[n-1].State
	}
	switch {
	case rec.Seq <= 0:
		return fmt.Errorf("sequence %d out of range", rec.Seq)
	case rec.Seq != len(recs)+1:
		return fmt.Errorf("sequence %d, want %d", rec.Seq, len(recs)+1)
	case !knownState(rec.State):
		return fmt.Errorf("unknown state %q", rec.State)
	case prev.Terminal():
		return fmt.Errorf("record after terminal state %q", prev)
	case !ValidTransition(prev, rec.State):
		return fmt.Errorf("invalid transition %q → %q", prev, rec.State)
	}
	return nil
}

// TokenOrder is the one definition of the fencing rule: non-zero tokens
// never go backwards in append order (token 0, a single-node write, is
// exempt). Feed it every write's token in append order. CheckJournal, the
// jobs.lease.fence invariant, and twobs's token-regression (journal) and
// zombie-write (span file) findings all run on it.
type TokenOrder struct{ max uint64 }

// Next admits token t as the next write. It returns the highest token
// admitted before t and whether t keeps the order; a token that breaks the
// order does not move the high-water mark.
func (o *TokenOrder) Next(t uint64) (prev uint64, ok bool) {
	prev = o.max
	if t != 0 && t < prev {
		return prev, false
	}
	o.max = max(prev, t)
	return prev, true
}

// CheckJournal verifies the whole-journal properties recovery depends on:
// every record passes checkRecord against the ones before it, and fencing
// tokens follow TokenOrder. It is the invariant site behind jobs.journal.
func CheckJournal(recs []Record) error {
	var order TokenOrder
	for i, rec := range recs {
		if err := checkRecord(recs[:i], rec); err != nil {
			return fmt.Errorf("jobs: journal record %d: %w", i, err)
		}
		if high, ok := order.Next(rec.Token); !ok {
			return fmt.Errorf("jobs: journal record %d: fencing token went backwards (%d after %d) — stale write",
				i, rec.Token, high)
		}
	}
	return nil
}

// JournalError is DecodeJournal's error for a defective line: the journal's
// valid prefix ends before Line. Invalid tells a rule break from damage: an
// Invalid line decoded cleanly but fails checkRecord (sequence gap, unknown
// state, record after a terminal state, invalid transition); any other
// defect is in the line's framing or payload (torn tail, bit rot, checksum
// mismatch, a malformed field).
type JournalError struct {
	Line    int
	Invalid bool
	Err     error
}

func (e *JournalError) Error() string {
	return fmt.Sprintf("jobs: journal line %d: %v", e.Line, e.Err)
}

func (e *JournalError) Unwrap() error { return e.Err }

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

// EncodeJournal writes the complete journal for recs, one line per record:
//
//	twjob VERSION CRC32C PAYLOADLEN PAYLOADJSON\n
//
// The CRC (CRC-32/Castagnoli over the payload bytes) and explicit length
// let the decoder reject torn or bit-rotted lines individually.
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
// header, length, checksum and JSON payload, then checkRecord against the
// records before it. It never panics on malformed input. On a defect it
// returns the valid prefix together with the error (a *JournalError for a
// defective line), so a caller can quarantine the file yet keep the job's
// last known good state.
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
			return recs, &JournalError{Line: line, Err: err}
		}
		if err := checkRecord(recs, rec); err != nil {
			return recs, &JournalError{Line: line, Invalid: true, Err: err}
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("jobs: journal: %w", err)
	}
	return recs, nil
}

// decodeLine parses one journal line (without its newline) and checks the
// fields no neighbouring record bears on.
func decodeLine(text []byte) (Record, error) {
	var rec Record
	if err := journalFormat.Decode(text, &rec); err != nil {
		return rec, err
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
