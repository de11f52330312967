package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/place"
	"repro/internal/telemetry"
)

// TestTelemetryBitIdentity is the observe-only contract of the telemetry
// layer: running the full flow (Stage 1 anneal + Stage 2 refinement) with
// every sink enabled — trace, metrics registry, progress — produces a
// placement byte-identical to the run with telemetry disabled. Telemetry
// never draws from the run's RNG streams and never feeds back into a
// decision, so the trajectories cannot diverge.
func TestTelemetryBitIdentity(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		run := func(tel *telemetry.Tracer) []byte {
			c := testCircuit(t)
			res, err := PlaceCtx(context.Background(), c, Options{
				Seed: seed, Ac: 6, MaxSteps: 6, Iterations: 2, M: 4, Tel: tel,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var buf bytes.Buffer
			if err := place.WritePlacement(&buf, res.Placement); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}

		baseline := run(nil)

		var trace bytes.Buffer
		sink := telemetry.NewJSONLSink(&trace)
		reg := telemetry.NewRegistry()
		var progLines atomic.Int64
		// The full fleet-mode stack: trace + metrics + progress, fanned
		// through a RunSpans adapter exactly like the job manager's span tee
		// (PR 8) — the span path must be observe-only too.
		var spans []telemetry.Span
		var spanMu sync.Mutex
		tel := telemetry.New(sink, reg, func(format string, args ...any) {
			progLines.Add(1)
		}).Fan(telemetry.NewRunSpans("a1", func(sp telemetry.Span) {
			spanMu.Lock()
			spans = append(spans, sp)
			spanMu.Unlock()
		}))
		instrumented := run(tel)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(baseline, instrumented) {
			t.Fatalf("seed %d: placement differs with telemetry enabled", seed)
		}

		// The sinks actually observed the run: a vacuous pass (telemetry
		// silently disabled) must not count as bit-identity.
		events, stats, err := telemetry.DecodeString(trace.String())
		if err != nil || stats.Skipped != 0 {
			t.Fatalf("seed %d: trace decode: %v %+v", seed, err, stats)
		}
		var steps, runStarts int
		for _, ev := range events {
			switch ev.Type {
			case telemetry.TypeStep:
				steps++
			case telemetry.TypeRunStart:
				runStarts++
			}
		}
		if runStarts < 3 || steps == 0 {
			// stage1 + 2 refine passes at minimum.
			t.Fatalf("seed %d: trace too thin: %d run-starts, %d steps", seed, runStarts, steps)
		}
		if progLines.Load() == 0 {
			t.Fatalf("seed %d: progress sink never fired", seed)
		}
		counters, gauges, _ := reg.Names()
		if len(counters) == 0 || len(gauges) == 0 {
			t.Fatalf("seed %d: metrics registry empty: %v %v", seed, counters, gauges)
		}
		spanMu.Lock()
		phaseSpans := 0
		for _, sp := range spans {
			if strings.HasPrefix(sp.Name, "phase:") {
				phaseSpans++
			}
		}
		nspans := len(spans)
		spanMu.Unlock()
		if nspans == 0 || phaseSpans == 0 {
			t.Fatalf("seed %d: span tee silent: %d spans, %d phase spans", seed, nspans, phaseSpans)
		}
	}
}

// TestResumeTelemetry checks checkpoint-write and resume instrumentation:
// an interrupted checkpointed run records checkpoint events with sizes, and
// resuming emits a resume event plus counter — while the resumed result
// still matches the uninterrupted baseline (telemetry stays observe-only
// across the interrupt/resume cycle).
func TestResumeTelemetry(t *testing.T) {
	ckPath := t.TempDir() + "/ck.bin"
	c := testCircuit(t)
	opt := Options{Seed: 5, Ac: 6, MaxSteps: 8, SkipStage2: true,
		CheckpointPath: ckPath, CheckpointEvery: 2}

	// Baseline: uninterrupted, no telemetry.
	base, err := PlaceCtx(context.Background(), testCircuit(t), c2opt(opt, ""))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt after the run has made some progress, with telemetry on.
	var trace bytes.Buffer
	sink := telemetry.NewJSONLSink(&trace)
	reg := telemetry.NewRegistry()
	tel := telemetry.New(sink, reg, nil)
	opt.Tel = tel
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = PlaceCtx(ctx, c, opt)
	}()
	cancel()
	<-done

	ck, err := place.LoadCheckpoint(ckPath)
	if err != nil {
		// The run may have finished before cancellation won the race; the
		// checkpoint-instrumentation assertions below need an actual resume.
		t.Skipf("no checkpoint written before completion: %v", err)
	}
	res, err := Run(context.Background(), testCircuit(t), Start{Checkpoint: ck}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var b1, b2 bytes.Buffer
	if err := place.WritePlacement(&b1, base.Placement); err != nil {
		t.Fatal(err)
	}
	if err := place.WritePlacement(&b2, res.Placement); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("resumed placement differs from uninterrupted baseline")
	}

	events, _, err := telemetry.DecodeString(trace.String())
	if err != nil {
		t.Fatal(err)
	}
	var ckEvents, resumeEvents int
	for _, ev := range events {
		switch ev.Type {
		case telemetry.TypeCheckpoint:
			ckEvents++
			if ev.Bytes <= 0 {
				t.Fatalf("checkpoint event missing size: %+v", ev)
			}
		case telemetry.TypeResume:
			resumeEvents++
		}
	}
	if ckEvents == 0 {
		t.Fatal("no checkpoint events recorded")
	}
	if resumeEvents != 1 {
		t.Fatalf("got %d resume events, want 1", resumeEvents)
	}
	if reg.Counter("stage1.checkpoint.writes").Value() != int64(ckEvents) {
		t.Fatalf("checkpoint.writes counter %d != %d events",
			reg.Counter("stage1.checkpoint.writes").Value(), ckEvents)
	}
	if reg.Counter("stage1.checkpoint.bytes").Value() <= 0 {
		t.Fatal("checkpoint.bytes counter empty")
	}
	if reg.Counter("stage1.checkpoint.resumes").Value() != 1 {
		t.Fatal("checkpoint.resumes counter != 1")
	}
}

// c2opt strips checkpointing (and telemetry) from opt for a clean baseline.
func c2opt(opt Options, ckPath string) Options {
	opt.CheckpointPath = ckPath
	opt.Tel = nil
	return opt
}
