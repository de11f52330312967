package jobs

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// spanNames extracts the Name sequence for quick shape assertions.
func spanNames(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

func hasSpan(spans []telemetry.Span, name string) bool {
	for _, sp := range spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// TestSpanLifecycleSingleNode runs one fast job to completion and checks the
// span file tells the whole story: every journal transition mirrored, one
// attempt span, and anneal-phase children parented to it.
func TestSpanLifecycleSingleNode(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)

	j, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateSucceeded)
	// The attempt span lands after the terminal journal record; draining
	// waits for the worker to write it.
	drain(t, m)

	spans, stats, err := ReadSpanFile(j.SpanPath())
	if err != nil {
		t.Fatalf("read spans: %v", err)
	}
	if stats.Skipped != 0 {
		t.Fatalf("%d malformed span lines on a clean run", stats.Skipped)
	}

	// Journal-mirror spans: one per record, same seq, same order.
	recs := j.History()
	var recSpans []telemetry.Span
	for _, sp := range spans {
		if sp.ID == "rec."+sp.Attrs["seq"] {
			recSpans = append(recSpans, sp)
		}
	}
	if len(recSpans) != len(recs) {
		t.Fatalf("%d record spans for %d journal records\nspans: %v",
			len(recSpans), len(recs), spanNames(spans))
	}
	for i, rec := range recs {
		sp := recSpans[i]
		if want := "state:" + string(rec.State); sp.Name != want {
			t.Fatalf("record span %d name %q, want %q", i, sp.Name, want)
		}
		if sp.Attrs["seq"] != strconv.Itoa(rec.Seq) {
			t.Fatalf("record span %d seq %q, want %d", i, sp.Attrs["seq"], rec.Seq)
		}
	}

	// One attempt span, outcome succeeded, interval sane.
	var attempt *telemetry.Span
	for i := range spans {
		if spans[i].Name == "attempt" {
			if attempt != nil {
				t.Fatalf("multiple attempt spans on a clean run")
			}
			attempt = &spans[i]
		}
	}
	if attempt == nil {
		t.Fatalf("no attempt span; got %v", spanNames(spans))
	}
	if attempt.Attrs["outcome"] != string(StateSucceeded) {
		t.Fatalf("attempt outcome %q", attempt.Attrs["outcome"])
	}
	if attempt.End.Before(attempt.Start) {
		t.Fatalf("attempt interval inverted: %+v", attempt)
	}

	// Anneal-phase children parented to the attempt span.
	foundPhase := false
	for _, sp := range spans {
		if sp.Parent == attempt.ID && sp.Name == "phase:stage1" {
			foundPhase = true
		}
	}
	if !foundPhase {
		t.Fatalf("no phase:stage1 span parented to %q; got %v", attempt.ID, spanNames(spans))
	}

	// Every span carries the job ID (the submit-time record predates the
	// published ID and may be blank).
	for _, sp := range spans {
		if sp.Job != "" && sp.Job != j.ID {
			t.Fatalf("span %q job %q, want %q", sp.ID, sp.Job, j.ID)
		}
	}
}

// TestSpanFleetClaimAndTokens runs a fleet-mode job and checks claim spans
// carry the fencing token and every span's token is consistent with the
// journal.
func TestSpanFleetClaimAndTokens(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{
		Workers: 1, NodeID: "n1",
		LeaseTTL: time.Minute, ScanEvery: 10 * time.Millisecond,
	})
	m.Start()
	defer drain(t, m)

	j, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateSucceeded)
	// The attempt span lands after the terminal journal record; draining
	// waits for the worker to write it.
	drain(t, m)

	spans, _, err := ReadSpanFile(j.SpanPath())
	if err != nil {
		t.Fatalf("read spans: %v", err)
	}
	var claims []telemetry.Span
	for _, sp := range spans {
		if sp.Name == "claim" {
			claims = append(claims, sp)
		}
	}
	if len(claims) == 0 {
		t.Fatalf("no claim span; got %v", spanNames(spans))
	}
	for _, cl := range claims {
		if cl.Token == 0 || cl.Node != "n1" {
			t.Fatalf("claim span missing identity: %+v", cl)
		}
		if cl.Attrs["takeover"] == "true" {
			t.Fatalf("single-node run recorded a takeover: %+v", cl)
		}
	}
	// Tokens in append order never regress on a healthy single-owner run.
	last := uint64(0)
	for _, sp := range spans {
		if sp.Token == 0 {
			continue
		}
		if sp.Token < last {
			t.Fatalf("token regression in span file: %d after %d (%q)", sp.Token, last, sp.ID)
		}
		last = sp.Token
	}
	if !hasSpan(spans, "attempt") {
		t.Fatalf("no attempt span; got %v", spanNames(spans))
	}
}

// TestSpanAppendFailureIsNotFatal arms the append fault point and checks a
// job still completes: spans are observability, not state.
func TestSpanAppendFailureIsNotFatal(t *testing.T) {
	pl := faultinject.NewPlane(1, faultinject.Rule{
		Point: faultinject.FsioAppend, Times: faultinject.Unlimited,
	})
	if err := pl.Arm(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disarm)
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)

	j, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rec := waitTerminal(t, j); rec.State != StateSucceeded {
		t.Fatalf("job failed under span faults: %+v", rec)
	}
	spans, _, err := ReadSpanFile(j.SpanPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Fatalf("spans written despite armed fault: %v", spanNames(spans))
	}
}
