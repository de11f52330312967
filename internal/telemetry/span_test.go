package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func testSpan() Span {
	return Span{
		ID:     "a1",
		Parent: "",
		Job:    "j000001",
		Node:   "n1",
		Token:  3,
		Name:   "attempt",
		Start:  time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC),
		End:    time.Date(2026, 8, 1, 10, 0, 5, 0, time.UTC),
		Attrs:  map[string]string{"outcome": "succeeded"},
	}
}

func TestSpanRoundTrip(t *testing.T) {
	sp := testSpan()
	data, err := EncodeSpan(sp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.HasPrefix(data, []byte("twspan 1 ")) {
		t.Fatalf("frame prefix = %.20q", data)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("record not newline-terminated")
	}
	got, err := DecodeSpan(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ID != sp.ID || got.Name != sp.Name || got.Token != sp.Token ||
		got.Node != sp.Node || got.Job != sp.Job {
		t.Fatalf("round trip mismatch: %+v != %+v", got, sp)
	}
	if !got.Start.Equal(sp.Start) || !got.End.Equal(sp.End) {
		t.Fatalf("time mismatch: %v/%v", got.Start, got.End)
	}
	if got.Attrs["outcome"] != "succeeded" {
		t.Fatalf("attrs lost: %v", got.Attrs)
	}
	if got.V != SpanVersion {
		t.Fatalf("version = %d, want %d", got.V, SpanVersion)
	}
}

func TestSpanDecodeRejectsCorruption(t *testing.T) {
	sp := testSpan()
	data, err := EncodeSpan(sp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := map[string][]byte{
		"bit flip":       bytes.Replace(data, []byte(`"attempt"`), []byte(`"attEmpt"`), 1),
		"bad magic":      append([]byte("twspam"), data[6:]...),
		"bad version":    bytes.Replace(data, []byte("twspan 1 "), []byte("twspan 9 "), 1),
		"truncated":      data[:len(data)-8],
		"empty":          []byte(""),
		"not a record":   []byte("hello world\n"),
		"missing fields": []byte("twspan 1 00000000\n"),
	}
	for name, bad := range cases {
		if _, err := DecodeSpan(bad); err == nil {
			t.Errorf("%s: decode accepted corrupt record", name)
		}
	}
}

func TestSpanDecodeRequiresIDAndName(t *testing.T) {
	if _, err := EncodeSpan(Span{Name: "x"}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	data, _ := EncodeSpan(Span{Name: "x"})
	if _, err := DecodeSpan(data); err == nil {
		t.Fatalf("decode accepted span without ID")
	}
}

func TestDecodeSpansSkipsTornTail(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"a1", "a2", "a3"} {
		sp := testSpan()
		sp.ID = id
		data, err := EncodeSpan(sp)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		buf.Write(data)
	}
	// Simulate a crash mid-append: the final record loses its tail.
	torn := buf.Bytes()[:buf.Len()-10]
	spans, stats, err := DecodeSpans(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(spans) != 2 || stats.Spans != 2 || stats.Skipped != 1 {
		t.Fatalf("spans=%d stats=%+v, want 2 good / 1 skipped", len(spans), stats)
	}
	if spans[0].ID != "a1" || spans[1].ID != "a2" {
		t.Fatalf("wrong surviving spans: %v", spans)
	}
}

func TestDecodeSpansIgnoresBlankAndGarbageLines(t *testing.T) {
	sp := testSpan()
	data, _ := EncodeSpan(sp)
	input := "\n\ngarbage\n" + string(data) + "# comment\n"
	spans, stats, err := DecodeSpans(strings.NewReader(input))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(spans) != 1 || stats.Skipped != 2 {
		t.Fatalf("spans=%d skipped=%d, want 1/2", len(spans), stats.Skipped)
	}
}

func TestTracerFan(t *testing.T) {
	var a, b []Event
	base := New(sinkFunc(func(ev Event) { a = append(a, ev) }), nil, nil)
	fanned := base.Fan(sinkFunc(func(ev Event) { b = append(b, ev) }))
	fanned.Emit(Event{Type: TypeNote, Label: "x"})
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("fan delivered a=%d b=%d, want 1/1", len(a), len(b))
	}

	// nil extra returns the tracer unchanged.
	if got := base.Fan(nil); got != base {
		t.Fatalf("Fan(nil) rebuilt the tracer")
	}

	// nil tracer with an extra sink still delivers.
	var c []Event
	var nilT *Tracer
	nilT.Fan(sinkFunc(func(ev Event) { c = append(c, ev) })).Emit(Event{Type: TypeNote})
	if len(c) != 1 {
		t.Fatalf("nil-tracer fan delivered %d, want 1", len(c))
	}

	// nil tracer and nil extra stays the nil fast path.
	if got := nilT.Fan(nil); got != nil {
		t.Fatalf("nil.Fan(nil) = %v, want nil", got)
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Emit(ev Event) { f(ev) }

func TestRunSpansPhases(t *testing.T) {
	var got []Span
	rs := NewRunSpans("a1", func(sp Span) { got = append(got, sp) })

	rs.Emit(Event{Type: TypeRunStart, Run: "stage1"})
	rs.Emit(Event{Type: TypeStep, Run: "stage1", Step: 1}) // ignored
	rs.Emit(Event{Type: TypeCheckpoint, Run: "stage1", Step: 1, Bytes: 128})
	rs.Emit(Event{Type: TypeRunEnd, Run: "stage1", Step: 8, Cost: 42.5})
	rs.Emit(Event{Type: TypeRoute, Run: "route", Length: 100, Excess: 2})

	if len(got) != 3 {
		t.Fatalf("emitted %d spans, want 3: %+v", len(got), got)
	}
	ck, phase, route := got[0], got[1], got[2]
	if ck.Name != "checkpoint" || ck.Attrs["bytes"] != "128" || ck.Parent != "a1" {
		t.Fatalf("checkpoint span: %+v", ck)
	}
	if phase.Name != "phase:stage1" || phase.Attrs["steps"] != "8" || phase.Attrs["cost"] != "42.5" {
		t.Fatalf("phase span: %+v", phase)
	}
	if phase.End.Before(phase.Start) {
		t.Fatalf("phase interval inverted: %+v", phase)
	}
	if route.Name != "phase:route" || route.Attrs["len"] != "100" || route.Attrs["excess"] != "2" {
		t.Fatalf("route span: %+v", route)
	}
	// IDs are unique and parented.
	seen := map[string]bool{}
	for _, sp := range got {
		if sp.ID == "" || seen[sp.ID] {
			t.Fatalf("duplicate or empty span ID %q", sp.ID)
		}
		seen[sp.ID] = true
		if sp.Parent != "a1" {
			t.Fatalf("span %q parent %q, want a1", sp.ID, sp.Parent)
		}
	}
}

// TestRunSpansRouteDuration pins the route span's interval: the route
// event arrives as the pass ends, so the span ends at receipt and starts
// DurMS earlier; an event without a duration stays a point span.
func TestRunSpansRouteDuration(t *testing.T) {
	var got []Span
	rs := NewRunSpans("a1", func(sp Span) { got = append(got, sp) })
	before := time.Now()
	rs.Emit(Event{Type: TypeRoute, Run: "refine1.route", DurMS: 1500})
	after := time.Now()
	rs.Emit(Event{Type: TypeRoute, Run: "refine2.route"})
	if len(got) != 2 {
		t.Fatalf("emitted %d spans, want 2", len(got))
	}
	sp := got[0]
	if d := sp.End.Sub(sp.Start); d != 1500*time.Millisecond {
		t.Fatalf("route span lasts %v, want 1.5s", d)
	}
	if sp.End.Before(before) || sp.End.After(after) {
		t.Fatalf("route span ends at %v, want receipt time in [%v, %v]", sp.End, before, after)
	}
	if pt := got[1]; !pt.End.Equal(pt.Start) {
		t.Fatalf("route span without a duration: %v..%v, want a point", pt.Start, pt.End)
	}
}

func TestRunSpansResume(t *testing.T) {
	var got []Span
	rs := NewRunSpans("a2", func(sp Span) { got = append(got, sp) })
	rs.Emit(Event{Type: TypeResume, Run: "stage1", Step: 5})
	rs.Emit(Event{Type: TypeRunEnd, Run: "stage1", Step: 8})
	if len(got) != 2 {
		t.Fatalf("emitted %d spans, want 2", len(got))
	}
	if got[0].Name != "resume:stage1" || got[0].Attrs["step"] != "5" {
		t.Fatalf("resume span: %+v", got[0])
	}
	if got[1].Name != "phase:stage1" {
		t.Fatalf("phase span after resume: %+v", got[1])
	}
}
