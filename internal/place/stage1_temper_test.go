package place

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// safeCountdownCtx is countdownCtx for concurrent pollers: the tempered
// inner loops run on several goroutines, each polling Err(). The trip point
// is still bounded (total polls across replicas), which is all the resume
// tests need — the checkpoint records the last completed boundary wherever
// the interrupt lands.
type safeCountdownCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
}

func newSafeCountdownCtx(calls int) *safeCountdownCtx {
	return &safeCountdownCtx{Context: context.Background(), remaining: calls}
}

func (c *safeCountdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remaining--
	if c.remaining <= 0 {
		return context.Canceled
	}
	return nil
}

// temperedBytes serializes the final placement of a tempered run, the
// byte-level identity the -replicas contract promises.
func temperedBytes(t *testing.T, c *netlist.Circuit, opt Options, replicas, workers int) ([]byte, Result) {
	t.Helper()
	p, res, err := RunStage1TemperedCtx(context.Background(), c, opt, replicas, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlacement(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestTemperedWorkerCountIndependence is the tempering determinism
// contract: for a fixed seed and replica count, the serialized final
// placement and the run metrics are byte-identical whatever the worker
// count.
func TestTemperedWorkerCountIndependence(t *testing.T) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 3, Ac: 8, MaxSteps: 8}
	ref, resRef := temperedBytes(t, c, opt, 3, 1)
	for _, workers := range []int{2, 4, 0} {
		got, resGot := temperedBytes(t, c, opt, 3, workers)
		if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: serialized placement differs from workers=1", workers)
		}
		if !reflect.DeepEqual(resGot, resRef) {
			t.Fatalf("workers=%d: results differ:\n got %+v\nwant %+v", workers, resGot, resRef)
		}
	}
}

// TestTemperedSingleReplicaMatchesPlain pins the degenerate case: replicas
// <= 1 must be the classic anneal, bit for bit, so enabling the feature
// flag without raising the count changes nothing.
func TestTemperedSingleReplicaMatchesPlain(t *testing.T) {
	c, err := gen.Preset("p1", 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 9, Ac: 8, MaxSteps: 8}
	pRef, resRef := RunStage1(c, opt)
	for _, replicas := range []int{0, 1} {
		p, res, err := RunStage1TemperedCtx(context.Background(), c, opt, replicas, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalOutcome(t, "replicas<=1", pRef, resRef, p, res)
	}
}

// TestTemperedDiffersFromPlain guards against the ladder silently
// degenerating into K copies of the same trajectory: with exchanges
// happening, the tempered winner should not be the plain run.
func TestTemperedDiffersFromPlain(t *testing.T) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 3, Ac: 8, MaxSteps: 8}
	pPlain, _ := RunStage1(c, opt)
	p, res, err := RunStage1TemperedCtx(context.Background(), c, opt, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("tempered run reports zero steps")
	}
	if reflect.DeepEqual(statesOf(p), statesOf(pPlain)) {
		t.Fatal("tempered run produced exactly the plain-run placement; ladder appears inert")
	}
}

// TestTemperedInterruptResumeBitIdentical is the tempering analogue of
// TestInterruptResumeBitIdentical: interrupt a replicated run mid-flight,
// resume from the ladder-wide checkpoint (at several worker counts), and
// require the exact outcome of the uninterrupted run.
func TestTemperedInterruptResumeBitIdentical(t *testing.T) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 5, Ac: 8, MaxSteps: 10}
	pRef, resRef, err := RunStage1TemperedCtx(context.Background(), c, opt, 3, 2)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt.CheckpointPath = path
	opt.CheckpointEvery = 1
	_, _, err = RunStage1TemperedCtx(newSafeCountdownCtx(40), c, opt, 3, 2)
	if err == nil {
		t.Fatal("countdown run completed uninterrupted; lower the countdown")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt error %v does not wrap context.Canceled", err)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("no tempering checkpoint after interrupt: %v", err)
	}
	if ck.Temper.Reps[0].Ctl.Step >= resRef.Steps {
		t.Fatalf("checkpoint at step %d leaves nothing to resume (run had %d steps)",
			ck.Temper.Reps[0].Ctl.Step, resRef.Steps)
	}
	for _, workers := range []int{1, 3} {
		pRes, resRes, err := Resume(context.Background(), c, ck, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalOutcome(t, "tempered resume", pRef, resRef, pRes, resRes)
	}
}

// TestTemperedDoubleInterruptResume chains two interruptions through the
// ladder checkpoint; the final outcome must still match the uninterrupted
// run bit for bit.
func TestTemperedDoubleInterruptResume(t *testing.T) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 7, Ac: 8, MaxSteps: 10}
	pRef, resRef, err := RunStage1TemperedCtx(context.Background(), c, opt, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt.CheckpointPath = path
	opt.CheckpointEvery = 1
	if _, _, err := RunStage1TemperedCtx(newSafeCountdownCtx(30), c, opt, 2, 2); err == nil {
		t.Fatal("first countdown run completed; lower the countdown")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Resume(newSafeCountdownCtx(30), c, ck,
		Options{CheckpointPath: path, CheckpointEvery: 1}, 2)
	if err == nil {
		t.Fatal("second leg completed; lower the countdown to re-interrupt")
	}
	ck, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	pRes, resRes, err := Resume(context.Background(), c, ck, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalOutcome(t, "tempered double interrupt", pRef, resRef, pRes, resRes)
}

// TestTemperCheckpointRoundTrip exercises the framed encoding and the
// magic-sniffing loader on a checkpoint taken from a live run.
func TestTemperCheckpointRoundTrip(t *testing.T) {
	c, err := gen.Preset("p1", 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	opt := Options{Seed: 3, Ac: 8, MaxSteps: 6, CheckpointPath: path, CheckpointEvery: 2}
	if _, _, err := RunStage1TemperedCtx(context.Background(), c, opt, 2, 1); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Temper == nil || ck.Single != nil {
		t.Fatalf("LoadCheckpoint misclassified a tempering checkpoint: %+v", ck)
	}
	if err := ck.Validate(c); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ck) {
		t.Fatal("decode(encode(ck)) differs from ck")
	}

	// The one decoder must dispatch the single-run kind by magic too.
	singlePath := filepath.Join(dir, "single.ckpt")
	interruptOnce(t, c, Options{Seed: 3, Ac: 8, MaxSteps: 8, CheckpointPath: singlePath}, 8)
	ck, err = LoadCheckpoint(singlePath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Single == nil || ck.Temper != nil {
		t.Fatalf("LoadCheckpoint misclassified a single-run checkpoint: %+v", ck)
	}
}

// TestTemperCheckpointValidateRejectsMismatches covers the ladder-specific
// validation failures.
func TestTemperCheckpointValidateRejectsMismatches(t *testing.T) {
	c, err := gen.Preset("p1", 11)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt := Options{Seed: 3, Ac: 8, MaxSteps: 6, CheckpointPath: path, CheckpointEvery: 2}
	if _, _, err := RunStage1TemperedCtx(context.Background(), c, opt, 2, 1); err != nil {
		t.Fatal(err)
	}
	load := func() *TemperCheckpoint {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		return ck.Temper
	}
	for _, tc := range []struct {
		name   string
		mutate func(*TemperCheckpoint)
	}{
		{"version", func(ck *TemperCheckpoint) { ck.Version = 99 }},
		{"circuit", func(ck *TemperCheckpoint) { ck.Circuit = "other" }},
		{"replicas", func(ck *TemperCheckpoint) { ck.Replicas = 3 }},
		{"scale", func(ck *TemperCheckpoint) { ck.ST = -1 }},
		{"states", func(ck *TemperCheckpoint) { ck.Reps[1].States = ck.Reps[1].States[:1] }},
	} {
		ck := load()
		tc.mutate(ck)
		if err := ck.validate(c); err == nil {
			t.Errorf("%s: Validate accepted a corrupted checkpoint", tc.name)
		}
	}
}
