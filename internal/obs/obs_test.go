package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Fixture builders: handcrafted stores with fixed timestamps, so the text
// rendering is byte-stable and golden-comparable.

var t0 = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func mkJobDir(t *testing.T, root, id string) string {
	t.Helper()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(filepath.Join(dir, "claims"), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

func writeSpec(t *testing.T, dir string, spec jobs.Spec) {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeJournal(t *testing.T, dir string, recs []jobs.Record) {
	t.Helper()
	data, err := jobs.EncodeJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobs.JournalPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeClaim(t *testing.T, dir string, rec jobs.LeaseRecord) {
	t.Helper()
	data, err := jobs.EncodeLeaseRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "claims", fmt.Sprintf("t%08d", rec.Token))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendSpans(t *testing.T, dir string, spans ...telemetry.Span) {
	t.Helper()
	f, err := os.OpenFile(jobs.SpanFilePath(dir), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, sp := range spans {
		data, err := telemetry.EncodeSpan(sp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
	}
}

// cleanFleetRoot builds a two-job fixture: j000001 runs cleanly on n1;
// j000002 is taken over by n2 after n1 dies mid-run.
func cleanFleetRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()

	d1 := mkJobDir(t, root, "j000001")
	writeSpec(t, d1, jobs.Spec{Preset: "i1", Tenant: "acme"})
	writeJournal(t, d1, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
		{Seq: 2, Time: at(2), State: jobs.StateRunning, Attempt: 1, Detail: "executing", Node: "n1", Token: 1},
		{Seq: 3, Time: at(5), State: jobs.StateSucceeded, Attempt: 1, Detail: "placed", Node: "n1", Token: 1},
	})
	writeClaim(t, d1, jobs.LeaseRecord{Token: 1, Node: "n1", Time: at(1), Expires: at(61)})
	appendSpans(t, d1,
		telemetry.Span{ID: "rec.1", Name: "state:queued", Start: at(0), End: at(0), Job: "j000001",
			Attrs: map[string]string{"seq": "1", "detail": "submitted"}},
		telemetry.Span{ID: "claim.t1", Name: "claim", Node: "n1", Token: 1, Start: at(1), End: at(1), Job: "j000001",
			Attrs: map[string]string{"token": "1"}},
		telemetry.Span{ID: "rec.2", Name: "state:running", Node: "n1", Token: 1, Start: at(2), End: at(2), Job: "j000001",
			Attrs: map[string]string{"seq": "2", "attempt": "1"}},
		telemetry.Span{ID: "a1/phase.stage1.1", Parent: "a1", Name: "phase:stage1", Node: "n1", Token: 1,
			Start: at(2), End: at(4), Job: "j000001", Attrs: map[string]string{"steps": "8", "cost": "42"}},
		telemetry.Span{ID: "rec.3", Name: "state:succeeded", Node: "n1", Token: 1, Start: at(5), End: at(5), Job: "j000001",
			Attrs: map[string]string{"seq": "3", "attempt": "1"}},
		telemetry.Span{ID: "a1", Name: "attempt", Node: "n1", Token: 1, Start: at(2), End: at(5), Job: "j000001",
			Attrs: map[string]string{"attempt": "1", "outcome": "succeeded"}},
	)

	// j000002's spec predates tenancy (no tenant field): the timeline must
	// report the canonical default tenant, not an empty one.
	d2 := mkJobDir(t, root, "j000002")
	writeSpec(t, d2, jobs.Spec{Preset: "i1"})
	writeJournal(t, d2, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
		{Seq: 2, Time: at(3), State: jobs.StateRunning, Attempt: 1, Detail: "executing", Node: "n1", Token: 1},
		{Seq: 3, Time: at(10), State: jobs.StateQueued, Attempt: 1,
			Detail: "lease takeover from n1 (token 1 expired)", Node: "n2", Token: 2},
		{Seq: 4, Time: at(11), State: jobs.StateRunning, Attempt: 2, Detail: "executing", Node: "n2", Token: 2},
		{Seq: 5, Time: at(14), State: jobs.StateSucceeded, Attempt: 2, Detail: "placed", Node: "n2", Token: 2},
	})
	writeClaim(t, d2, jobs.LeaseRecord{Token: 1, Node: "n1", Time: at(2), Expires: at(8)})
	writeClaim(t, d2, jobs.LeaseRecord{Token: 2, Node: "n2", Time: at(10), Expires: at(70)})
	appendSpans(t, d2,
		telemetry.Span{ID: "rec.1", Name: "state:queued", Start: at(0), End: at(0), Job: "j000002",
			Attrs: map[string]string{"seq": "1", "detail": "submitted"}},
		telemetry.Span{ID: "claim.t1", Name: "claim", Node: "n1", Token: 1, Start: at(2), End: at(2), Job: "j000002",
			Attrs: map[string]string{"token": "1"}},
		telemetry.Span{ID: "rec.2", Name: "state:running", Node: "n1", Token: 1, Start: at(3), End: at(3), Job: "j000002",
			Attrs: map[string]string{"seq": "2", "attempt": "1"}},
		telemetry.Span{ID: "rec.3", Name: "state:queued", Node: "n2", Token: 2, Start: at(10), End: at(10), Job: "j000002",
			Attrs: map[string]string{"seq": "3", "detail": "lease takeover from n1 (token 1 expired)"}},
		telemetry.Span{ID: "claim.t2", Name: "claim", Node: "n2", Token: 2, Start: at(10), End: at(10), Job: "j000002",
			Attrs: map[string]string{"token": "2", "prev_node": "n1", "prev_token": "1", "prev_lease": "expired", "takeover": "true"}},
		telemetry.Span{ID: "rec.4", Name: "state:running", Node: "n2", Token: 2, Start: at(11), End: at(11), Job: "j000002",
			Attrs: map[string]string{"seq": "4", "attempt": "2"}},
		telemetry.Span{ID: "rec.5", Name: "state:succeeded", Node: "n2", Token: 2, Start: at(14), End: at(14), Job: "j000002",
			Attrs: map[string]string{"seq": "5", "attempt": "2"}},
		telemetry.Span{ID: "a2", Name: "attempt", Node: "n2", Token: 2, Start: at(11), End: at(14), Job: "j000002",
			Attrs: map[string]string{"attempt": "2", "outcome": "succeeded"}},
	)
	return root
}

// TestGoldenCleanFleet pins the full text rendering of a healthy two-node
// story — including a takeover — against testdata/clean_fleet.golden.
func TestGoldenCleanFleet(t *testing.T) {
	root := cleanFleetRoot(t)
	rep, err := Analyze([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Warnings != 0 {
		t.Fatalf("clean fixture produced findings: %+v", rep.Findings())
	}
	// The temp root path varies; pin it for the golden comparison.
	rep.Roots = []string{"STORE"}

	var out bytes.Buffer
	if err := rep.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "clean_fleet.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from %s (regenerate with -update if the change is intended)\n--- got ---\n%s",
			golden, out.String())
	}
}

func TestCleanFleetSummary(t *testing.T) {
	rep, err := Analyze([]string{cleanFleetRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobCount != 2 {
		t.Fatalf("JobCount = %d", rep.JobCount)
	}
	// Tenants recovered from the durable specs: an explicit one verbatim,
	// a pre-tenancy spec canonicalized to the default tenant.
	if got := rep.Jobs[0].Tenant; got != "acme" {
		t.Fatalf("j000001 tenant = %q, want acme", got)
	}
	if got := rep.Jobs[1].Tenant; got != jobs.DefaultTenant {
		t.Fatalf("j000002 tenant = %q, want %q", got, jobs.DefaultTenant)
	}
	byNode := map[string]NodeSummary{}
	for _, ns := range rep.Nodes {
		byNode[ns.Node] = ns
	}
	if n1 := byNode["n1"]; n1.Claims != 2 || n1.Takeovers != 0 || n1.Terminal != 1 || n1.Succeeded != 1 {
		t.Fatalf("n1 summary: %+v", n1)
	}
	if n2 := byNode["n2"]; n2.Claims != 1 || n2.Takeovers != 1 || n2.Terminal != 1 || n2.Succeeded != 1 {
		t.Fatalf("n2 summary: %+v", n2)
	}
	// Latencies: j000001 5s, j000002 14s → p50 5s, p95 14s.
	if rep.P50 != 5*time.Second || rep.P95 != 14*time.Second {
		t.Fatalf("latency p50=%v p95=%v", rep.P50, rep.P95)
	}
}

func TestCausalOrderBeatsClockSkew(t *testing.T) {
	root := t.TempDir()
	dir := mkJobDir(t, root, "j000001")
	writeJournal(t, dir, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
		// n2's clock runs 30s behind: its token-2 records timestamp BEFORE
		// n1's token-1 records.
		{Seq: 2, Time: at(40), State: jobs.StateRunning, Attempt: 1, Node: "n1", Token: 1},
		{Seq: 3, Time: at(5), State: jobs.StateQueued, Attempt: 1,
			Detail: "lease takeover from n1 (token 1 expired)", Node: "n2", Token: 2},
		{Seq: 4, Time: at(6), State: jobs.StateRunning, Attempt: 2, Node: "n2", Token: 2},
		{Seq: 5, Time: at(9), State: jobs.StateSucceeded, Attempt: 2, Node: "n2", Token: 2},
	})
	writeClaim(t, dir, jobs.LeaseRecord{Token: 1, Node: "n1", Time: at(39), Expires: at(45)})
	writeClaim(t, dir, jobs.LeaseRecord{Token: 2, Node: "n2", Time: at(4), Expires: at(64)})
	rep, err := Analyze([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("skewed clocks flagged as errors: %+v", rep.Findings())
	}
	evs := rep.Jobs[0].Events
	// Token order must dominate: every token-1 event precedes every token-2
	// event despite the inverted wall clock.
	lastT1, firstT2 := -1, -1
	for i, ev := range evs {
		if ev.Token == 1 {
			lastT1 = i
		}
		if ev.Token == 2 && firstT2 == -1 {
			firstT2 = i
		}
	}
	if lastT1 == -1 || firstT2 == -1 || lastT1 > firstT2 {
		t.Fatalf("causal order violated: lastT1=%d firstT2=%d events=%+v", lastT1, firstT2, evs)
	}
}

func TestZombieWriteDetection(t *testing.T) {
	root := t.TempDir()
	dir := mkJobDir(t, root, "j000001")
	writeJournal(t, dir, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
	})
	appendSpans(t, dir,
		telemetry.Span{ID: "claim.t2", Name: "claim", Node: "n2", Token: 2, Start: at(1), End: at(1)},
		// A stale node's span lands after the takeover: token regression.
		telemetry.Span{ID: "a1", Name: "attempt", Node: "n1", Token: 1, Start: at(2), End: at(2)},
	)
	rep, err := Analyze([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, "zombie-write") {
		t.Fatalf("zombie write not detected: %+v", rep.Findings())
	}

	// The deliberate "fenced" abort marker is exempt.
	root2 := t.TempDir()
	dir2 := mkJobDir(t, root2, "j000001")
	writeJournal(t, dir2, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
	})
	appendSpans(t, dir2,
		telemetry.Span{ID: "claim.t2", Name: "claim", Node: "n2", Token: 2, Start: at(1), End: at(1)},
		telemetry.Span{ID: "fenced.a1", Name: "fenced", Node: "n1", Token: 1, Start: at(2), End: at(2)},
	)
	rep2, err := Analyze([]string{root2})
	if err != nil {
		t.Fatal(err)
	}
	if hasFinding(rep2, "zombie-write") {
		t.Fatalf("fenced marker misflagged as zombie: %+v", rep2.Findings())
	}
}

func TestTakeoverMismatchDetection(t *testing.T) {
	root := t.TempDir()
	dir := mkJobDir(t, root, "j000001")
	writeJournal(t, dir, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
	})
	appendSpans(t, dir,
		telemetry.Span{ID: "claim.t2", Name: "claim", Node: "n2", Token: 2, Start: at(1), End: at(1),
			Attrs: map[string]string{"takeover": "true"}},
	)
	rep, err := Analyze([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, "takeover-mismatch") {
		t.Fatalf("takeover mismatch not detected: %+v", rep.Findings())
	}
}

// TestTakeoverUnjournaledDetection: a running record directly after a
// running record of another owner means a takeover ran without its
// journaled record; the same owner back to back is a legal retry.
func TestTakeoverUnjournaledDetection(t *testing.T) {
	build := func(node2 string, token2 uint64) *Report {
		root := t.TempDir()
		dir := mkJobDir(t, root, "j000001")
		writeJournal(t, dir, []jobs.Record{
			{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
			{Seq: 2, Time: at(1), State: jobs.StateRunning, Attempt: 1, Node: "n1", Token: 1},
			{Seq: 3, Time: at(5), State: jobs.StateRunning, Attempt: 2, Node: node2, Token: token2},
			{Seq: 4, Time: at(9), State: jobs.StateSucceeded, Attempt: 2, Node: node2, Token: token2},
		})
		writeClaim(t, dir, jobs.LeaseRecord{Token: 1, Node: "n1", Time: at(1), Expires: at(3)})
		if token2 != 1 {
			writeClaim(t, dir, jobs.LeaseRecord{Token: token2, Node: node2, Time: at(4), Expires: at(64)})
		}
		rep, err := Analyze([]string{root})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, c := range []struct {
		node  string
		token uint64
	}{{"n2", 2}, {"n1", 2}} {
		rep := build(c.node, c.token)
		if !hasFinding(rep, "takeover-unjournaled") {
			t.Errorf("running n1/t1 → running %s/t%d not flagged: %+v", c.node, c.token, rep.Findings())
		}
		if rep.Errors != 1 {
			t.Errorf("running n1/t1 → running %s/t%d: %d errors, want exactly the takeover finding: %+v",
				c.node, c.token, rep.Errors, rep.Findings())
		}
	}
	if rep := build("n1", 1); rep.Errors != 0 {
		t.Fatalf("same-owner retry flagged: %+v", rep.Findings())
	}
}

func TestJournalDefectFindings(t *testing.T) {
	root := t.TempDir()

	// Invalid transition: queued → succeeded (decodes fine, breaks the
	// state machine).
	d1 := mkJobDir(t, root, "j000001")
	writeJournal(t, d1, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
		{Seq: 2, Time: at(1), State: jobs.StateSucceeded, Detail: "impossible"},
	})

	// Token regression in the journal itself.
	d2 := mkJobDir(t, root, "j000002")
	writeJournal(t, d2, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
		{Seq: 2, Time: at(1), State: jobs.StateRunning, Attempt: 1, Node: "n2", Token: 2},
		{Seq: 3, Time: at(2), State: jobs.StateQueued, Attempt: 1, Node: "n1", Token: 1, Detail: "stale write"},
	})

	// Torn journal tail: valid prefix then garbage.
	d3 := mkJobDir(t, root, "j000003")
	writeJournal(t, d3, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
	})
	f, err := os.OpenFile(jobs.JournalPath(d3), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("twjob 1 deadbeef 99 {torn")
	f.Close()

	rep, err := Analyze([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"journal-invalid", "token-regression", "journal-corrupt"} {
		if !hasFinding(rep, want) {
			t.Errorf("missing finding %q: %+v", want, rep.Findings())
		}
	}
}

// TestTokenRegressionEveryDefect pins the fencing-token findings on both
// sides: every regression in the journal and in the span file is reported,
// not only the first, a regression does not lower the high-water mark, and
// the "fenced" span is exempt.
func TestTokenRegressionEveryDefect(t *testing.T) {
	root := t.TempDir()
	dir := mkJobDir(t, root, "j000001")
	writeJournal(t, dir, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
		{Seq: 2, Time: at(1), State: jobs.StateRunning, Attempt: 1, Node: "n2", Token: 3},
		{Seq: 3, Time: at(2), State: jobs.StateQueued, Attempt: 1, Node: "n1", Token: 1, Detail: "stale write"},
		{Seq: 4, Time: at(3), State: jobs.StateRunning, Attempt: 2, Node: "n1", Token: 2},
	})
	appendSpans(t, dir,
		telemetry.Span{ID: "s1", Name: "attempt", Node: "n2", Token: 2, Start: at(1), End: at(1)},
		telemetry.Span{ID: "s2", Name: "attempt", Node: "n1", Token: 1, Start: at(2), End: at(2)},
		telemetry.Span{ID: "s3", Name: "fenced", Node: "n1", Token: 1, Start: at(3), End: at(3)},
		telemetry.Span{ID: "s4", Name: "attempt", Node: "n3", Token: 3, Start: at(4), End: at(4)},
		telemetry.Span{ID: "s5", Name: "attempt", Node: "n2", Token: 2, Start: at(5), End: at(5)},
		telemetry.Span{ID: "s6", Name: "attempt", Node: "n1", Token: 1, Start: at(6), End: at(6)},
	)
	rep, err := Analyze([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.Findings() {
		if f.Kind == "token-regression" || f.Kind == "zombie-write" {
			got = append(got, f.Kind+": "+f.Detail)
		}
	}
	want := []string{
		"zombie-write: span s2 appended under token 1 after token 2",
		"zombie-write: span s5 appended under token 2 after token 3",
		"zombie-write: span s6 appended under token 1 after token 3",
		"token-regression: record 2: token 1 after 3 — stale write after takeover",
		"token-regression: record 3: token 2 after 3 — stale write after takeover",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("token findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestTornSpanTailIsWarning(t *testing.T) {
	root := t.TempDir()
	dir := mkJobDir(t, root, "j000001")
	writeJournal(t, dir, []jobs.Record{
		{Seq: 1, Time: at(0), State: jobs.StateQueued, Detail: "submitted"},
	})
	appendSpans(t, dir,
		telemetry.Span{ID: "rec.1", Name: "state:queued", Start: at(0), End: at(0)},
	)
	f, err := os.OpenFile(jobs.SpanFilePath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("twspan 1 0000")
	f.Close()

	rep, err := Analyze([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("torn span tail counted as error: %+v", rep.Findings())
	}
	if rep.Warnings == 0 || !hasFinding(rep, "torn-span-tail") {
		t.Fatalf("torn span tail not reported: %+v", rep.Findings())
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Analyze([]string{cleanFleetRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.JobCount != rep.JobCount || len(back.Jobs) != len(rep.Jobs) {
		t.Fatalf("JSON round trip lost jobs: %d/%d", back.JobCount, len(back.Jobs))
	}
	if !strings.Contains(string(data), `"zombie-write"`) && rep.Errors > 0 {
		t.Fatalf("unexpected errors in clean fixture")
	}
}

func hasFinding(rep *Report, kind string) bool {
	for _, f := range rep.Findings() {
		if f.Kind == kind {
			return true
		}
	}
	return false
}
