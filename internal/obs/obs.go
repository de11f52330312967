// Package obs reconstructs fleet timelines from durable observability
// artifacts (DESIGN.md §14): it merges each job's status journal, claim
// chain, lease heartbeat, and span records — across every store root it is
// given — into one causally-ordered per-job timeline, and cross-checks the
// files against the fleet protocol. Violations surface as findings:
//
//   - journal-corrupt:    the journal's valid prefix ends in a framing
//     defect (torn tail, bit rot, checksum mismatch)
//   - journal-invalid:    the record sequence breaks the state machine
//     (gap, unknown state, record after terminal, bad transition) — whether
//     the defect is caught while decoding the file or in the decoded records
//   - token-regression:   a journal record carries a smaller fencing token
//     than an earlier one — a stale node's write landed after a takeover
//   - takeover-unjournaled: a running record directly follows a running
//     record under a different node or token — the owner changed without
//     the reclaimer journaling its takeover before it ran
//   - zombie-write:       a span record (other than the deliberate "fenced"
//     abort marker) appended under a token older than one already present
//   - takeover-mismatch:  a claim span claims a takeover but the journal
//     holds no matching takeover record for that token
//   - lease-audit:        the claim chain contradicts the journal
//     (jobs.AuditLease)
//   - torn-claim:         a claim file exists but its record is undecodable
//   - torn-span-tail:     the span file ends in a torn or corrupt record
//
// The first seven are protocol errors; the torn-* pair is expected debris on
// crash runs and is reported at warning severity. A green (fault-free) run
// must produce zero findings of any severity.
package obs

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// Event is one entry in a job's merged timeline.
type Event struct {
	Time  time.Time `json:"time"`
	Kind  string    `json:"kind"` // "journal" | "claim" | "heartbeat" | "span"
	Node  string    `json:"node,omitempty"`
	Token uint64    `json:"token,omitempty"`
	// Name is the journal state, "claim"/"heartbeat", or the span name.
	Name   string            `json:"name"`
	Detail string            `json:"detail,omitempty"`
	Seq    int               `json:"seq,omitempty"`     // journal events
	SpanID string            `json:"span_id,omitempty"` // span events
	Parent string            `json:"parent,omitempty"`
	Dur    time.Duration     `json:"dur,omitempty"` // End-Start for duration spans
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Finding is one detected protocol violation or artifact defect.
type Finding struct {
	Job      string `json:"job"`
	Kind     string `json:"kind"`
	Severity string `json:"severity"` // "error" | "warn"
	Detail   string `json:"detail"`
}

// JobTimeline is the reconstructed history of one job.
type JobTimeline struct {
	Job string `json:"job"`
	// Tenant is the job's traffic class, recovered from the durable spec
	// (canonicalized: an untenanted spec reports the default tenant).
	// Empty only when no spec survived under any root.
	Tenant   string    `json:"tenant,omitempty"`
	Events   []Event   `json:"events"`
	Findings []Finding `json:"findings,omitempty"`
	// Submitted/Finished bound the job's journaled life; Finished is zero
	// while the job is still live. Latency = Finished - Submitted.
	Submitted time.Time     `json:"submitted"`
	Finished  time.Time     `json:"finished"`
	State     string        `json:"state"`
	Latency   time.Duration `json:"latency,omitempty"`
	Nodes     []string      `json:"nodes,omitempty"` // every node that touched the job
}

// NodeSummary aggregates one node's fleet activity.
type NodeSummary struct {
	Node      string `json:"node"`
	Claims    int    `json:"claims"`
	Takeovers int    `json:"takeovers"` // claims that took over a peer's running job
	Terminal  int    `json:"terminal"`  // jobs this node drove to a terminal state
	Succeeded int    `json:"succeeded"`
}

// Report is the full reconstruction over a set of store roots.
type Report struct {
	Roots    []string       `json:"roots"`
	Jobs     []*JobTimeline `json:"jobs,omitempty"`
	JobCount int            `json:"job_count"`
	Nodes    []NodeSummary  `json:"nodes,omitempty"`
	Errors   int            `json:"errors"`
	Warnings int            `json:"warnings"`
	// P50/P95 are submit→terminal latency percentiles over finished jobs.
	P50 time.Duration `json:"latency_p50,omitempty"`
	P95 time.Duration `json:"latency_p95,omitempty"`
}

// Findings flattens every job's findings (errors first, then warnings,
// stable within each job).
func (r *Report) Findings() []Finding {
	var out []Finding
	for _, sev := range []string{"error", "warn"} {
		for _, jt := range r.Jobs {
			for _, f := range jt.Findings {
				if f.Severity == sev {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// Analyze reconstructs the timeline of every job found under the given
// store roots. The same job ID appearing under several roots is merged into
// one timeline (nodes sharing one store see this trivially; split stores
// merge here). Analysis itself never fails on damaged artifacts — damage
// becomes findings — so the only errors are unreadable roots.
func Analyze(roots []string) (*Report, error) {
	rep := &Report{Roots: roots}
	byJob := map[string][]string{}
	var order []string
	for _, root := range roots {
		dirs, err := jobs.ListJobDirs(root)
		if err != nil {
			return nil, fmt.Errorf("obs: %s: %w", root, err)
		}
		for _, dir := range dirs {
			id := filepath.Base(dir)
			if _, seen := byJob[id]; !seen {
				order = append(order, id)
			}
			byJob[id] = append(byJob[id], dir)
		}
	}
	sort.Strings(order)
	for _, id := range order {
		rep.Jobs = append(rep.Jobs, analyzeJob(id, byJob[id]))
	}
	rep.summarize()
	return rep, nil
}

// analyzeJob merges one job's artifacts from every directory it appears in.
func analyzeJob(id string, dirs []string) *JobTimeline {
	jt := &JobTimeline{Job: id}
	var (
		events []Event
		recs   []jobs.Record
	)
	for _, dir := range dirs {
		if jt.Tenant == "" {
			if spec, err := jobs.ReadSpecDir(dir); err == nil {
				jt.Tenant = spec.Tenant
				if jt.Tenant == "" {
					jt.Tenant = jobs.DefaultTenant
				}
			}
		}
		dirRecs, err := jobs.ReadJournalDir(dir)
		if err != nil {
			jt.finding(classifyJournalErr(err), "error", err.Error())
		}
		// Roots sharing a store carry the same journal; keep the longest
		// valid prefix seen.
		if len(dirRecs) > len(recs) {
			recs = dirRecs
		}
		claims, err := jobs.ClaimChain(dir)
		if err != nil {
			jt.finding("lease-audit", "error", fmt.Sprintf("claim chain: %v", err))
		}
		for _, cl := range claims {
			if cl.Node == "" {
				jt.finding("torn-claim", "warn",
					fmt.Sprintf("claim t%08d is present but undecodable", cl.Token))
			}
			events = append(events, Event{
				Time: cl.Time, Kind: "claim", Node: cl.Node, Token: cl.Token,
				Name: "claim", Detail: claimDetail(cl),
			})
		}
		if hb, ok := jobs.ReadHeartbeat(dir); ok {
			events = append(events, Event{
				Time: hb.Time, Kind: "heartbeat", Node: hb.Node, Token: hb.Token,
				Name: "heartbeat", Detail: claimDetail(hb),
			})
		}
		if err := jobs.AuditLease(dir, recsOrRead(dirRecs, recs)); err != nil {
			jt.finding("lease-audit", "error", err.Error())
		}
		spans, stats, err := jobs.ReadSpanFile(jobs.SpanFilePath(dir))
		if err != nil {
			jt.finding("torn-span-tail", "warn", err.Error())
		}
		if stats.Skipped > 0 {
			jt.finding("torn-span-tail", "warn",
				fmt.Sprintf("%d undecodable span record(s) skipped", stats.Skipped))
		}
		events = append(events, spanEvents(jt, recs, spans)...)
	}
	events = append(events, journalEvents(jt, recs)...)
	jt.Events = orderEvents(events)
	jt.summarizeJournal(recs)
	return jt
}

// recsOrRead prefers this directory's own records for the lease audit,
// falling back to the merged view when the local journal was unreadable.
func recsOrRead(local, merged []jobs.Record) []jobs.Record {
	if len(local) > 0 {
		return local
	}
	return merged
}

// classifyJournalErr maps a journal decode error to a finding kind.
// jobs.DecodeJournal enforces the state machine itself, so a semantic break
// (gap, unknown state, record after a terminal, bad transition) surfaces as
// a decode error just like bit rot does; tell the two apart by message so
// the taxonomy stays honest — framing defects are journal-corrupt, state
// machine breaks are journal-invalid.
func classifyJournalErr(err error) string {
	msg := err.Error()
	for _, semantic := range []string{
		"invalid transition", "after terminal state", "unknown state", "sequence",
	} {
		if strings.Contains(msg, semantic) {
			return "journal-invalid"
		}
	}
	return "journal-corrupt"
}

// journalEvents converts journal records to events and checks the state
// machine (jobs.CheckJournal rules, reported per defect rather than
// first-error-only) and the takeover rule.
func journalEvents(jt *JobTimeline, recs []jobs.Record) []Event {
	events := make([]Event, 0, len(recs))
	prev := jobs.State("")
	var maxToken uint64
	for i, rec := range recs {
		events = append(events, Event{
			Time: rec.Time, Kind: "journal", Node: rec.Node, Token: rec.Token,
			Name: string(rec.State), Detail: rec.Detail, Seq: rec.Seq,
		})
		if rec.Seq != i+1 {
			jt.finding("journal-invalid", "error",
				fmt.Sprintf("record %d has sequence %d, want %d (gap)", i, rec.Seq, i+1))
		}
		if prev.Terminal() {
			jt.finding("journal-invalid", "error",
				fmt.Sprintf("record %d (%s) after terminal state %q", i, rec.State, prev))
		} else if !jobs.ValidTransition(prev, rec.State) {
			jt.finding("journal-invalid", "error",
				fmt.Sprintf("record %d: invalid transition %q → %q", i, prev, rec.State))
		}
		// A change of executing owner must be journaled: the reclaimer
		// appends a takeover record (queued) before it runs. Same node and
		// token back to back is the in-process retry whose bookkeeping
		// append was lost — no ownership change.
		if rec.State == jobs.StateRunning && prev == jobs.StateRunning &&
			(rec.Node != recs[i-1].Node || rec.Token != recs[i-1].Token) {
			jt.finding("takeover-unjournaled", "error",
				fmt.Sprintf("record %d: running (%s token %d) directly after running (%s token %d)",
					i, rec.Node, rec.Token, recs[i-1].Node, recs[i-1].Token))
		}
		if rec.Token > 0 {
			if rec.Token < maxToken {
				jt.finding("token-regression", "error",
					fmt.Sprintf("record %d: token %d after %d — stale write after takeover",
						i, rec.Token, maxToken))
			} else {
				maxToken = rec.Token
			}
		}
		prev = rec.State
	}
	return events
}

// spanEvents converts span records to events and runs the span-side checks:
// zombie writes (token regression in append order, "fenced" markers exempt)
// and takeover spans without a matching journal record.
func spanEvents(jt *JobTimeline, recs []jobs.Record, spans []telemetry.Span) []Event {
	events := make([]Event, 0, len(spans))
	var maxToken uint64
	for _, sp := range spans {
		ev := Event{
			Time: sp.Start, Kind: "span", Node: sp.Node, Token: sp.Token,
			Name: sp.Name, SpanID: sp.ID, Parent: sp.Parent, Attrs: sp.Attrs,
		}
		if sp.End.After(sp.Start) {
			ev.Dur = sp.End.Sub(sp.Start)
		}
		events = append(events, ev)
		if sp.Name == "fenced" {
			// The deliberate stale-identity abort marker: exempt.
			continue
		}
		if sp.Token > 0 {
			if sp.Token < maxToken {
				jt.finding("zombie-write", "error",
					fmt.Sprintf("span %s appended under token %d after token %d", sp.ID, sp.Token, maxToken))
			} else {
				maxToken = sp.Token
			}
		}
		if sp.Name == "claim" && sp.Attrs["takeover"] == "true" {
			if !takeoverJournaled(recs, sp.Token) {
				jt.finding("takeover-mismatch", "error",
					fmt.Sprintf("claim span t%d records a takeover but the journal has no matching takeover record", sp.Token))
			}
		}
	}
	return events
}

// takeoverJournaled reports whether the journal carries a takeover record
// written under the given token.
func takeoverJournaled(recs []jobs.Record, token uint64) bool {
	for _, rec := range recs {
		if rec.Token == token && strings.HasPrefix(rec.Detail, "lease takeover from ") {
			return true
		}
	}
	return false
}

// orderEvents sorts a job's merged events causally: the fencing token is
// the causal clock (a claim with token N happens-before every write under
// token N+1 regardless of wall-clock skew between nodes), wall time orders
// events within one token era, and kind/sequence break remaining ties
// deterministically.
func orderEvents(events []Event) []Event {
	kindRank := func(k string) int {
		switch k {
		case "claim":
			return 0
		case "heartbeat":
			return 1
		case "journal":
			return 2
		default:
			return 3
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.Token != eb.Token {
			return ea.Token < eb.Token
		}
		if !ea.Time.Equal(eb.Time) {
			return ea.Time.Before(eb.Time)
		}
		if ra, rb := kindRank(ea.Kind), kindRank(eb.Kind); ra != rb {
			return ra < rb
		}
		if ea.Seq != eb.Seq {
			return ea.Seq < eb.Seq
		}
		return ea.SpanID < eb.SpanID
	})
	return events
}

// summarizeJournal fills the timeline's journal-derived summary fields.
func (jt *JobTimeline) summarizeJournal(recs []jobs.Record) {
	nodes := map[string]bool{}
	for _, ev := range jt.Events {
		if ev.Node != "" {
			nodes[ev.Node] = true
		}
	}
	for n := range nodes {
		jt.Nodes = append(jt.Nodes, n)
	}
	sort.Strings(jt.Nodes)
	if len(recs) == 0 {
		jt.State = "(no journal)"
		return
	}
	jt.Submitted = recs[0].Time
	last := recs[len(recs)-1]
	jt.State = string(last.State)
	if last.State.Terminal() {
		jt.Finished = last.Time
		jt.Latency = last.Time.Sub(jt.Submitted)
	}
}

func (jt *JobTimeline) finding(kind, severity, detail string) {
	jt.Findings = append(jt.Findings, Finding{Job: jt.Job, Kind: kind, Severity: severity, Detail: detail})
}

func claimDetail(rec jobs.LeaseRecord) string {
	switch {
	case rec.Node == "":
		return "(torn record)"
	case rec.Released:
		return "released"
	default:
		return "expires " + rec.Expires.UTC().Format(timeFmt)
	}
}

// summarize computes the fleet summary: per-node activity and latency
// percentiles over finished jobs.
func (r *Report) summarize() {
	r.JobCount = len(r.Jobs)
	byNode := map[string]*NodeSummary{}
	node := func(n string) *NodeSummary {
		ns, ok := byNode[n]
		if !ok {
			ns = &NodeSummary{Node: n}
			byNode[n] = ns
		}
		return ns
	}
	var latencies []time.Duration
	for _, jt := range r.Jobs {
		for _, f := range jt.Findings {
			if f.Severity == "error" {
				r.Errors++
			} else {
				r.Warnings++
			}
		}
		var lastNode string
		for _, ev := range jt.Events {
			switch ev.Kind {
			case "claim":
				if ev.Node != "" {
					node(ev.Node).Claims++
				}
			case "journal":
				if strings.HasPrefix(ev.Detail, "lease takeover from ") && ev.Node != "" {
					node(ev.Node).Takeovers++
				}
				if ev.Node != "" {
					lastNode = ev.Node
				}
			}
		}
		if !jt.Finished.IsZero() {
			latencies = append(latencies, jt.Latency)
			if lastNode != "" {
				ns := node(lastNode)
				ns.Terminal++
				if jt.State == string(jobs.StateSucceeded) {
					ns.Succeeded++
				}
			}
		}
	}
	for _, ns := range byNode {
		r.Nodes = append(r.Nodes, *ns)
	}
	sort.Slice(r.Nodes, func(a, b int) bool { return r.Nodes[a].Node < r.Nodes[b].Node })
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		r.P50 = percentile(latencies, 50)
		r.P95 = percentile(latencies, 95)
	}
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

const timeFmt = "15:04:05.000"

// WriteText renders the report for humans: one block per job with its
// causally-ordered timeline and findings, then the fleet summary.
func (r *Report) WriteText(w io.Writer) error {
	sevCount := func() string {
		if r.Errors == 0 && r.Warnings == 0 {
			return "clean"
		}
		return fmt.Sprintf("%d error(s), %d warning(s)", r.Errors, r.Warnings)
	}
	if _, err := fmt.Fprintf(w, "twobs: %d job(s) across %d root(s): %s\n",
		r.JobCount, len(r.Roots), sevCount()); err != nil {
		return err
	}
	for _, jt := range r.Jobs {
		header := fmt.Sprintf("\njob %s: %s", jt.Job, jt.State)
		if jt.Tenant != "" {
			header += " tenant=" + jt.Tenant
		}
		if !jt.Finished.IsZero() {
			header += fmt.Sprintf(" in %v", jt.Latency)
		}
		if len(jt.Nodes) > 0 {
			header += " nodes=" + strings.Join(jt.Nodes, ",")
		}
		if _, err := fmt.Fprintln(w, header); err != nil {
			return err
		}
		for _, ev := range jt.Events {
			if err := writeEvent(w, ev); err != nil {
				return err
			}
		}
		for _, f := range jt.Findings {
			if _, err := fmt.Fprintf(w, "  !! %s %s: %s\n", f.Severity, f.Kind, f.Detail); err != nil {
				return err
			}
		}
	}
	if len(r.Nodes) > 0 {
		if _, err := fmt.Fprintf(w, "\nfleet summary:\n"); err != nil {
			return err
		}
		for _, ns := range r.Nodes {
			if _, err := fmt.Fprintf(w, "  node %-12s claims=%d takeovers=%d terminal=%d succeeded=%d\n",
				ns.Node, ns.Claims, ns.Takeovers, ns.Terminal, ns.Succeeded); err != nil {
				return err
			}
		}
		if r.P50 > 0 || r.P95 > 0 {
			if _, err := fmt.Fprintf(w, "  latency p50=%v p95=%v\n", r.P50, r.P95); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeEvent renders one timeline line.
func writeEvent(w io.Writer, ev Event) error {
	var b strings.Builder
	fmt.Fprintf(&b, "  %s  %-9s", ev.Time.UTC().Format(timeFmt), ev.Kind)
	if ev.Token > 0 {
		fmt.Fprintf(&b, " t%d", ev.Token)
	}
	if ev.Node != "" {
		fmt.Fprintf(&b, " %s", ev.Node)
	}
	fmt.Fprintf(&b, " %s", ev.Name)
	if ev.Seq > 0 {
		fmt.Fprintf(&b, " seq=%d", ev.Seq)
	}
	if ev.Dur > 0 {
		fmt.Fprintf(&b, " (%v)", ev.Dur)
	}
	if ev.Detail != "" {
		fmt.Fprintf(&b, ": %s", ev.Detail)
	}
	_, err := fmt.Fprintln(w, b.String())
	return err
}
