package telemetry

// Job lifecycle spans (DESIGN.md §14): a versioned, CRC-framed record of one
// operation's wall-clock interval, written append-only into the job's
// directory. Spans are the fleet-level complement to the per-process trace
// stream: every lifecycle edge (submit, claim, attempt, checkpoint, fenced
// abort, terminal) and every anneal phase (stage1 rungs, refine passes,
// route) leaves one durable record that cmd/twobs can merge across N nodes
// into a causally-ordered timeline.
//
// The span type and codec live here — not in internal/jobs — because the
// annealing layers (place, refine, route, core) emit the phase spans through
// their existing *Tracer without importing the job store, and the job store
// stamps identity (job ID, node, fencing token) on the way to disk.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/frame"
)

const (
	// SpanVersion is bumped on any incompatible span-record change.
	SpanVersion = 1
	// maxSpanLine bounds one span record's JSON payload.
	maxSpanLine = 1 << 16
)

// spanFormat frames span records in internal/frame's line record format,
// alongside the journal ("twjob") and lease ("twlease") records.
var spanFormat = frame.Format{Magic: "twspan", Version: SpanVersion, Max: maxSpanLine}

// Span is one span record: a named wall-clock interval attributed to a job,
// a node, and a fencing token, optionally parented to another span. Point
// events (a journal transition, a checkpoint write) carry End == Start.
type Span struct {
	// V is the schema version (SpanVersion at encode time).
	V int `json:"v"`
	// ID identifies the span within its job's span file; Parent refers to
	// another span's ID ("" for a root span). A parent may be written after
	// its children — readers build the index before resolving references.
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// Job is the job ID; Node the emitting fleet node ("" single-node);
	// Token the fencing token the emitter held (0 when unleased).
	Job   string `json:"job,omitempty"`
	Node  string `json:"node,omitempty"`
	Token uint64 `json:"token,omitempty"`
	// Name says what happened: "state:running", "claim", "attempt",
	// "fenced", "phase:stage1.r2", "checkpoint", ...
	Name string `json:"name"`
	// Start and End bound the operation's wall-clock interval.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Attrs carries free-form context (journal detail, outcome, step).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// EncodeSpan renders sp as one framed line:
//
//	twspan VERSION CRC32C PAYLOADLEN PAYLOADJSON\n
//
// internal/frame's line record format, shared with the job journal and the
// lease records, so a torn append is detected rather than trusted.
func EncodeSpan(sp Span) ([]byte, error) {
	sp.V = SpanVersion
	data, err := spanFormat.Append(nil, sp)
	if err != nil {
		return nil, fmt.Errorf("telemetry: encode span: %w", err)
	}
	return data, nil
}

// DecodeSpan parses and verifies one framed span line. It never panics on
// malformed input.
func DecodeSpan(data []byte) (Span, error) {
	var sp Span
	if err := spanFormat.Decode(data, &sp); err != nil {
		return sp, fmt.Errorf("telemetry: span record: %w", err)
	}
	if sp.ID == "" || sp.Name == "" {
		return sp, fmt.Errorf("telemetry: span record: empty id or name")
	}
	return sp, nil
}

// SpanDecodeStats reports what DecodeSpans saw.
type SpanDecodeStats struct {
	Spans int
	// Skipped counts malformed lines — a torn tail from a crash mid-append,
	// corruption, unsupported versions. They are dropped, never fatal.
	Skipped int
}

// DecodeSpans reads a span file, returning every well-formed span in file
// (append) order. Malformed lines are counted and skipped; blank lines are
// ignored. Only reader failures and an over-long line are errors, and even
// then the spans decoded so far are returned.
func DecodeSpans(r io.Reader) ([]Span, SpanDecodeStats, error) {
	var (
		spans []Span
		stats SpanDecodeStats
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxSpanLine+256)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		sp, err := DecodeSpan(line)
		if err != nil {
			stats.Skipped++
			continue
		}
		spans = append(spans, sp)
		stats.Spans++
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			err = fmt.Errorf("telemetry: span line exceeds %d bytes", maxSpanLine)
		}
		return spans, stats, err
	}
	return spans, stats, nil
}

// multiSink fans one event out to several sinks in order.
type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Fan returns a tracer that forwards events to extra in addition to t's own
// sink, sharing t's registry, progress sink, and start time. A nil extra
// returns t unchanged; a nil t yields a tracer with only extra attached.
// The job manager uses this to tee one attempt's run events into a span
// recorder without touching the caller's telemetry configuration.
func (t *Tracer) Fan(extra Sink) *Tracer {
	if extra == nil {
		return t
	}
	if t == nil {
		return New(extra, nil, nil)
	}
	sink := extra
	if t.sink != nil {
		sink = multiSink{t.sink, extra}
	}
	return &Tracer{sink: sink, reg: t.reg, prog: t.prog, start: t.start}
}

// RunSpans converts a run's trace events into anneal-phase spans: run-start
// opens a phase, run-end closes it (one span per stage1 run, per tempering
// replica rung, per refine pass), a route event becomes a span reaching
// back over the routing pass's duration, and checkpoint events become point
// spans. It implements Sink, so producers need no new plumbing — the
// manager tees it into the attempt's tracer with Fan, and the nil-tracer
// zero-alloc fast path is untouched because a run without spans never
// constructs one.
//
// Emission is observe-only and wall-clock-stamped at receipt; the emit
// callback (the job store's fenced span appender) owns durability and
// identity stamping. Safe for concurrent Emit (tempering replicas emit from
// worker goroutines).
type RunSpans struct {
	parent string
	emit   func(Span)

	mu   sync.Mutex
	open map[string]time.Time
	seq  int
}

// NewRunSpans returns a RunSpans emitting spans parented to parent through
// emit. emit must be non-nil.
func NewRunSpans(parent string, emit func(Span)) *RunSpans {
	return &RunSpans{parent: parent, emit: emit, open: map[string]time.Time{}}
}

// Emit consumes one trace event, possibly emitting a span.
func (r *RunSpans) Emit(ev Event) {
	now := time.Now().UTC()
	switch ev.Type {
	case TypeRunStart:
		r.mu.Lock()
		r.open[ev.Run] = now
		r.mu.Unlock()
	case TypeResume:
		r.mu.Lock()
		if _, ok := r.open[ev.Run]; !ok {
			r.open[ev.Run] = now
		}
		id := r.nextIDLocked("resume", ev.Run)
		r.mu.Unlock()
		r.emit(Span{
			ID: id, Parent: r.parent, Name: "resume:" + ev.Run,
			Start: now, End: now,
			Attrs: map[string]string{"step": strconv.Itoa(ev.Step)},
		})
	case TypeRunEnd:
		r.mu.Lock()
		start, ok := r.open[ev.Run]
		delete(r.open, ev.Run)
		id := r.nextIDLocked("phase", ev.Run)
		r.mu.Unlock()
		if !ok {
			start = now
		}
		r.emit(Span{
			ID: id, Parent: r.parent, Name: "phase:" + ev.Run,
			Start: start, End: now,
			Attrs: map[string]string{
				"steps": strconv.Itoa(ev.Step),
				"cost":  strconv.FormatFloat(ev.Cost, 'g', -1, 64),
			},
		})
	case TypeRoute:
		r.mu.Lock()
		id := r.nextIDLocked("route", ev.Run)
		r.mu.Unlock()
		// The route event arrives as the pass ends and carries its
		// duration, so the span reaches back over the pass.
		start := now.Add(-time.Duration(ev.DurMS * float64(time.Millisecond)))
		r.emit(Span{
			ID: id, Parent: r.parent, Name: "phase:" + ev.Run,
			Start: start, End: now,
			Attrs: map[string]string{
				"len":    strconv.FormatInt(ev.Length, 10),
				"excess": strconv.Itoa(ev.Excess),
			},
		})
	case TypeCheckpoint:
		r.mu.Lock()
		id := r.nextIDLocked("ck", ev.Run)
		r.mu.Unlock()
		r.emit(Span{
			ID: id, Parent: r.parent, Name: "checkpoint",
			Start: now, End: now,
			Attrs: map[string]string{
				"run":   ev.Run,
				"step":  strconv.Itoa(ev.Step),
				"bytes": strconv.FormatInt(ev.Bytes, 10),
			},
		})
	}
}

// nextIDLocked builds a span ID unique within this recorder; callers hold
// r.mu.
func (r *RunSpans) nextIDLocked(kind, run string) string {
	r.seq++
	return fmt.Sprintf("%s/%s.%s.%d", r.parent, kind, run, r.seq)
}
