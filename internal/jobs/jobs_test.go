package jobs

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// fastSpec is a placement job that completes in tens of milliseconds: a
// truncated anneal on the small i1 preset. Truncated runs stop mid-anneal
// with residual overlaps, so the DRC gate is skipped.
func fastSpec() Spec {
	return Spec{
		Preset: "i1", Seed: 1, Ac: 8, MaxSteps: 8,
		SkipStage2: true, SkipDRC: true,
	}
}

// slowSpec runs long enough (hundreds of milliseconds) to be observed
// running and interrupted.
func slowSpec() Spec {
	return Spec{
		Preset: "i3", Seed: 1, Ac: 40, MaxSteps: 400,
		SkipStage2: true, SkipDRC: true,
	}
}

// fastBackoff keeps test retries snappy but deterministic.
var fastBackoff = par.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}

func newTestManager(t *testing.T, root string, cfg Config) (*Store, *Manager) {
	t.Helper()
	st, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Backoff == (par.Backoff{}) {
		cfg.Backoff = fastBackoff
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1
	}
	cfg.Logf = t.Logf
	return st, NewManager(st, cfg)
}

// waitState polls until the job's last state equals want.
func waitState(t *testing.T, j *Job, want State) Record {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if rec := j.Last(); rec.State == want {
			return rec
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %q, want %q", j.ID, j.Last().State, want)
	return Record{}
}

// waitTerminal polls until the job reaches any terminal state.
func waitTerminal(t *testing.T, j *Job) Record {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if rec := j.Last(); rec.State.Terminal() {
			return rec
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %q, want a terminal state", j.ID, j.Last().State)
	return Record{}
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitRunSucceed(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)

	j, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	rec := waitTerminal(t, j)
	if rec.State != StateSucceeded {
		t.Fatalf("job ended %q (%s), want succeeded", rec.State, rec.Detail)
	}
	info, err := j.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Succeeded || info.Circuit == "" || info.Area <= 0 {
		t.Fatalf("bad result info: %+v", info)
	}
	if _, err := os.Stat(j.PlacementPath()); err != nil {
		t.Fatalf("no placement file: %v", err)
	}
	// The journal tells the whole story, in order.
	var states []State
	for _, r := range j.History() {
		states = append(states, r.State)
	}
	want := []State{StateQueued, StateRunning, StateSucceeded}
	if len(states) != len(want) {
		t.Fatalf("journal states %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("journal states %v, want %v", states, want)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	cases := []Spec{
		{},                                     // no circuit
		{Preset: "i1", Netlist: "circuit x"},   // both sources
		{Preset: "no-such-preset"},             // unknown preset
		{Netlist: "not a netlist"},             // syntax error
		{Preset: "i1", Ac: -1},                 // bad knob
		{Preset: "i1", Deadline: Duration(-1)}, // bad deadline
		{Preset: "i1", Retries: -2},            // bad retries
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	if got := len(m.store.List()); got != 0 {
		t.Fatalf("%d jobs persisted from invalid submissions", got)
	}
}

func TestBackpressure(t *testing.T) {
	// No Start(): nothing drains the queue, so the bound is exact.
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 2, QueueDepth: 3})
	// Distinct seeds: identical specs would dedupe into one execution
	// instead of filling the queue.
	for i := 0; i < 3; i++ {
		spec := fastSpec()
		spec.Seed = uint64(i + 1)
		if _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	over := fastSpec()
	over.Seed = 99
	_, err := m.Submit(over)
	var full *ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("submit over capacity: %v, want *ErrQueueFull", err)
	}
	if full.Depth != 3 || full.RetryAfter < time.Second {
		t.Fatalf("bad backpressure hint: %+v", full)
	}
	// The rejected job left nothing on disk.
	if got := len(m.store.List()); got != 3 {
		t.Fatalf("%d jobs persisted, want 3", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	j, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := m.Cancel(j.ID)
	if err != nil || !ok {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	if rec := j.Last(); rec.State != StateCanceled {
		t.Fatalf("state %q, want canceled", rec.State)
	}
	// Start after cancel: the worker must skip the canceled job.
	m.Start()
	defer drain(t, m)
	time.Sleep(20 * time.Millisecond)
	if rec := j.Last(); rec.State != StateCanceled {
		t.Fatalf("state %q after start, want canceled", rec.State)
	}
	// Cancelling a terminal job reports false, not an error.
	ok, err = m.Cancel(j.ID)
	if err != nil || ok {
		t.Fatalf("cancel terminal: ok=%v err=%v", ok, err)
	}
	if _, err := m.Cancel("j999999"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)
	j, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	ok, err := m.Cancel(j.ID)
	if err != nil || !ok {
		t.Fatalf("cancel running: ok=%v err=%v", ok, err)
	}
	rec := waitTerminal(t, j)
	if rec.State != StateCanceled {
		t.Fatalf("job ended %q, want canceled", rec.State)
	}
}

func TestDeadlineFailsJob(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)
	spec := slowSpec()
	spec.Deadline = Duration(30 * time.Millisecond)
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := waitTerminal(t, j)
	if rec.State != StateFailed || !strings.Contains(rec.Detail, "deadline") {
		t.Fatalf("job ended %q (%s), want deadline failure", rec.State, rec.Detail)
	}
}

func TestDRCGateFailsBadPlacement(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)
	spec := fastSpec() // truncated anneal: residual overlaps guaranteed
	spec.SkipDRC = false
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := waitTerminal(t, j)
	if rec.State != StateFailed || !strings.Contains(rec.Detail, "DRC") {
		t.Fatalf("job ended %q (%s), want DRC failure", rec.State, rec.Detail)
	}
	info, err := j.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	if info.Succeeded || info.DRCErrors == 0 || len(info.DRCViolations) == 0 {
		t.Fatalf("DRC diagnostics missing from result: %+v", info)
	}
	if _, err := os.Stat(j.PlacementPath()); !os.IsNotExist(err) {
		t.Fatal("DRC-failed job still published a placement file")
	}
}

func TestDRCGatePassesFullAnneal(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	defer drain(t, m)
	// A full-criteria anneal on i1 converges to a legal placement.
	j, err := m.Submit(Spec{Preset: "i1", Seed: 1, Ac: 40, SkipStage2: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := waitTerminal(t, j)
	if rec.State != StateSucceeded {
		t.Fatalf("job ended %q (%s), want succeeded", rec.State, rec.Detail)
	}
	info, err := j.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Succeeded || info.DRCErrors != 0 {
		t.Fatalf("result info: %+v", info)
	}
}

func TestDrainRejectsSubmissions(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	m.Start()
	drain(t, m)
	if _, err := m.Submit(fastSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
}

func TestDrainInterruptsRunningJob(t *testing.T) {
	root := t.TempDir()
	_, m := newTestManager(t, root, Config{Workers: 1})
	m.Start()
	j, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	// Let the run reach its first checkpoint before draining.
	waitForFile(t, j.CheckpointPath())
	drain(t, m)
	rec := j.Last()
	if rec.State != StateQueued || !strings.Contains(rec.Detail, "drain") {
		t.Fatalf("after drain job is %q (%s), want queued/interrupted", rec.State, rec.Detail)
	}
	if _, err := os.Stat(j.CheckpointPath()); err != nil {
		t.Fatalf("no checkpoint after drain: %v", err)
	}
}

func waitForFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("file %s never appeared", path)
}

func TestMetricsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := telemetry.New(nil, reg, nil)
	root := t.TempDir()
	st, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(st, Config{Workers: 1, Backoff: fastBackoff, Tel: tel, Logf: t.Logf})
	m.Start()
	defer drain(t, m)
	j, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if got := reg.Counter("jobs.submitted").Value(); got != 1 {
		t.Fatalf("jobs.submitted = %d, want 1", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Gauge("jobs.state.succeeded").Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := reg.Gauge("jobs.state.succeeded").Value(); got != 1 {
		t.Fatalf("jobs.state.succeeded = %v, want 1", got)
	}
}

func TestStoreListOrderAndGet(t *testing.T) {
	_, m := newTestManager(t, t.TempDir(), Config{Workers: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m.Submit(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	list := m.store.List()
	if len(list) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list))
	}
	for i, j := range list {
		if j.ID != ids[i] {
			t.Fatalf("list order %v, want %v", list, ids)
		}
	}
	if _, ok := m.store.Get(ids[1]); !ok {
		t.Fatalf("Get(%s) missed", ids[1])
	}
	if _, ok := m.store.Get("j424242"); ok {
		t.Fatal("Get of unknown id succeeded")
	}
}

// TestCreateRacingRescanKeepsOneJob pins Store.create's publish step: a
// fleet scan that lists a job directory the moment it is published must
// find the job already registered, not load a second Job for the same ID.
// A second copy is what a manager's claim loop would pick up and run,
// while the handle Create returned stays queued until the run ends.
func TestCreateRacingRescanKeepsOneJob(t *testing.T) {
	st, err := Open(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	stop, loaded := make(chan struct{}), make(chan []string)
	go func() {
		var ids []string
		for {
			select {
			case <-stop:
				loaded <- ids
				return
			default:
				for _, j := range st.Rescan() {
					ids = append(ids, j.ID)
				}
			}
		}
	}()
	// finish stops the scanner and returns the IDs it loaded; it runs on
	// every path, so the scanning goroutine never outlives the test.
	finish := func() []string {
		close(stop)
		return <-loaded
	}
	for i := 0; i < 100; i++ {
		if _, err := st.Create(Spec{Preset: "i1", Seed: uint64(i), SkipStage2: true}); err != nil {
			finish()
			t.Fatal(err)
		}
	}
	if ids := finish(); len(ids) > 0 {
		t.Fatalf("a rescan loaded second copies of %d job(s) this store created: %v", len(ids), ids)
	}
}
