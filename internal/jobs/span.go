package jobs

// Job lifecycle span emission (DESIGN.md §14). Every job directory carries
// an append-only span file next to its journal: one CRC-framed
// telemetry.Span per lifecycle edge (submit, claim/takeover, attempt,
// checkpoint, fenced abort, terminal) plus the anneal-phase child spans the
// manager tees out of the run's trace events. Spans are observability, not
// state: every write is best-effort (logged, never failed through to the
// caller), and fleet-mode writes are fenced like any other durable artifact
// so a superseded node cannot leave zombie records — the single exception
// is the "fenced" abort marker itself, which deliberately documents the
// fencing loss and is exempt from twobs's zombie-write rule.

import (
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/fsio"
	"repro/internal/telemetry"
)

// spansFile is the append-only span file inside a job directory.
const spansFile = "spans.tws"

// SpanPath returns the job's span file path.
func (j *Job) SpanPath() string { return filepath.Join(j.dir, spansFile) }

// ReadSpans decodes the job's span file (empty when absent). Malformed
// lines — a torn tail from a crash mid-append — are counted, not fatal.
func (j *Job) ReadSpans() ([]telemetry.Span, telemetry.SpanDecodeStats, error) {
	return ReadSpanFile(j.SpanPath())
}

// ReadSpanFile decodes one span file; a missing file is an empty result.
func ReadSpanFile(path string) ([]telemetry.Span, telemetry.SpanDecodeStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, telemetry.SpanDecodeStats{}, nil
	}
	defer f.Close()
	return telemetry.DecodeSpans(f)
}

// appendSpan writes sp into the job's span file, best-effort: span loss
// must never fail the operation being observed. The caller is responsible
// for write authority (journal appends are already fenced; manager-side
// emission goes through guardedSpan).
func (j *Job) appendSpan(sp telemetry.Span) {
	sp.Job = j.ID
	// Surface the job's tenant on every span so twobs timelines and span
	// queries can slice a fleet's history per tenant. Jobs without an
	// explicit tenant (pre-tenancy stores, direct Create calls) keep their
	// spans byte-identical to before.
	if t := j.Spec.Tenant; t != "" {
		if sp.Attrs == nil {
			sp.Attrs = map[string]string{"tenant": t}
		} else if _, ok := sp.Attrs["tenant"]; !ok {
			sp.Attrs["tenant"] = t
		}
	}
	data, err := telemetry.EncodeSpan(sp)
	if err != nil {
		j.logf("jobs: %s: span: %v", j.ID, err)
		return
	}
	werr := fsio.AppendLine(j.SpanPath(), data, 0o644)
	j.store.noteWrite(werr)
	if werr != nil {
		j.logf("jobs: %s: span: %v", j.ID, werr)
	}
}

// guardedSpan stamps sp with this process's node and lease token and
// appends it — unless the lease was superseded, in which case the span is
// dropped silently: the job (and its span file) belong to the reclaiming
// node now, and a stale append would be exactly the zombie write twobs
// hunts for. Used for every manager-side span emitted outside the journal
// lock (claim, attempt, anneal-phase children).
func (j *Job) guardedSpan(sp telemetry.Span) {
	j.mu.Lock()
	l := j.lease
	j.mu.Unlock()
	if l != nil {
		if err := l.Validate(); err != nil {
			return
		}
		sp.Token = l.Token
	}
	sp.Node = j.store.NodeID()
	j.appendSpan(sp)
}

// recordSpan mirrors one freshly journaled record as a point span, called
// from Append with the journal write already durable and the lease validated
// again after it. The span carries the record's sequence number so readers
// can join the two files exactly.
func (j *Job) recordSpan(rec Record) {
	attrs := map[string]string{"seq": strconv.Itoa(rec.Seq)}
	if rec.Detail != "" {
		attrs["detail"] = rec.Detail
	}
	if rec.Attempt > 0 {
		attrs["attempt"] = strconv.Itoa(rec.Attempt)
	}
	j.appendSpan(telemetry.Span{
		ID:    "rec." + strconv.Itoa(rec.Seq),
		Name:  "state:" + string(rec.State),
		Node:  rec.Node,
		Token: rec.Token,
		Start: rec.Time,
		End:   rec.Time,
		Attrs: attrs,
	})
}

// logf logs through the owning store (silent for bare test Jobs).
func (j *Job) logf(format string, args ...any) {
	if j.store != nil && j.store.logf != nil {
		j.store.logf(format, args...)
	}
}
