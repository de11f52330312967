package place

import (
	"testing"

	"repro/internal/anneal"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// newBenchStage1 builds a ready-to-move Stage 1 harness over the standard
// 25-cell test circuit, mirroring RunStage1Ctx's setup, so benchmarks and
// allocation tests can drive the inner loop directly.
func newBenchStage1(tb testing.TB, tel *telemetry.Tracer, seed uint64) *annealRun {
	tb.Helper()
	p := newTestPlacement(tb, 25, true)
	src := rng.New(seed)
	Randomize(p, src)
	p.P2 = CalibrateP2(p, 0.5, src, 5)
	opt := Options{Seed: seed, Tel: tel}
	opt.fill()
	st := scaleFactor(p)
	ctl := anneal.NewController(stage1Config(opt, st, p.Core, len(p.Circuit.Cells)), src.Split())
	if !ctl.Next() {
		tb.Fatal("controller refused to start")
	}
	s := &annealRun{
		p: p, ctl: ctl, src: src, opt: opt, moves: stage1Moves, st: st,
		movable: p.MovableCells(), resumeInner: -1,
	}
	s.initTelemetry()
	return s
}

// stage1OneMove performs one inner-loop iteration: the unit the ≤2%
// telemetry-overhead guard is stated over.
func stage1OneMove(s *annealRun) {
	s.attempts++
	s.moves.generate(s)
}

// stage1BatchAllocs returns the allocations per batch of 100 inner-loop
// moves, measured after a warm-up that grows the spatial-index bins and
// state buffers to working capacity. AllocsPerRun truncates its average,
// so measuring single moves would read 0 for anything that allocates on
// fewer than every move (say only on custom-cell pin moves).
func stage1BatchAllocs(s *annealRun) float64 {
	for k := 0; k < 2000; k++ {
		stage1OneMove(s)
	}
	return testing.AllocsPerRun(50, func() {
		for k := 0; k < 100; k++ {
			stage1OneMove(s)
		}
	})
}

// BenchmarkStage1Inner measures the Stage 1 inner loop with telemetry
// disabled (the nil-tracer fast path — the guard is that this stays within
// 2% of the uninstrumented loop and adds zero allocations) and enabled
// (metrics registry attached; per-move cost is two atomic adds and a
// histogram observe).
func BenchmarkStage1Inner(b *testing.B) {
	b.Run("telemetry=off", func(b *testing.B) {
		s := newBenchStage1(b, nil, 42)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stage1OneMove(s)
		}
	})
	b.Run("telemetry=on", func(b *testing.B) {
		s := newBenchStage1(b, telemetry.New(nil, telemetry.NewRegistry(), nil), 42)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stage1OneMove(s)
		}
	})
}

// TestTelemetryZeroExtraAllocsPerMove drives two identical inner loops —
// same circuit, same seed, hence the same move and accept sequence — one
// with telemetry disabled and one with a live metrics registry, and checks
// the instrumented loop allocates no more than the disabled one: the
// alloc half of the hot-path overhead guard.
func TestTelemetryZeroExtraAllocsPerMove(t *testing.T) {
	measure := func(tel *telemetry.Tracer) float64 {
		return stage1BatchAllocs(newBenchStage1(t, tel, 99))
	}
	off := measure(nil)
	on := measure(telemetry.New(nil, telemetry.NewRegistry(), nil))
	if on > off {
		t.Fatalf("telemetry-enabled inner loop allocates more: on=%v off=%v allocs per 100 moves", on, off)
	}
}

// TestSpanZeroExtraAllocsPerMove extends the guard to the PR 8 span path:
// with the full fleet-mode telemetry stack attached — metrics registry (so
// the annealing-health gauges are live) fanned through a RunSpans adapter
// (the manager's span tee) — the inner loop still allocates nothing extra
// per move. Spans are emitted at phase edges and step boundaries only; the
// per-move path must not see them.
func TestSpanZeroExtraAllocsPerMove(t *testing.T) {
	measure := func(tel *telemetry.Tracer) float64 {
		return stage1BatchAllocs(newBenchStage1(t, tel, 123))
	}
	off := measure(nil)
	spans := 0
	fleet := telemetry.New(nil, telemetry.NewRegistry(), nil).
		Fan(telemetry.NewRunSpans("a1", func(telemetry.Span) { spans++ }))
	on := measure(fleet)
	if on > off {
		t.Fatalf("span-instrumented inner loop allocates more: on=%v off=%v allocs per 100 moves", on, off)
	}
}
