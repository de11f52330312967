package route_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/channel"
	"repro/internal/gen"
	"repro/internal/place"
	"repro/internal/refine"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// presetRouting returns the channel graph of a preset circuit placed by a
// short Stage 1, and all of its nets.
func presetRouting(tb testing.TB, name string) (*route.Graph, []route.Net) {
	tb.Helper()
	c, err := gen.Preset(name, 17)
	if err != nil {
		tb.Fatal(err)
	}
	p, _, err := place.RunStage1Ctx(context.Background(), c, place.Options{Seed: 5, Ac: 4, MaxSteps: 6})
	if err != nil {
		tb.Fatal(err)
	}
	cg, err := channel.Build(p)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := refine.RouterGraph(cg)
	if err != nil {
		tb.Fatal(err)
	}
	return g, refine.RouterNets(p, cg)
}

// phaseOneCounters are the per-pass phase-one work counters.
var phaseOneCounters = []string{"yen_calls", "yen_skipped", "spur_searches", "heap_pops"}

// TestRouteMatchesOraclePresets routes the channel graph of every preset,
// built after a short Stage 1, with the production router at 1, 2 and 8
// workers and with the oracle (oracle_test.go), and requires deeply equal
// Results. The phase-one counters must not depend on the worker count, and
// on i3 at M=20 the beam bound must skip Yen calls.
func TestRouteMatchesOraclePresets(t *testing.T) {
	for _, name := range gen.PresetNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, nets := presetRouting(t, name)
			// Every preset's full channel graph, but at most about 160 of
			// its nets (an evenly spaced subset): the oracle needs about a
			// minute for all of l1's nets, and the graph, not the net
			// count, is what the presets add over the fuzzed cases.
			if stride := (len(nets) + 159) / 160; stride > 1 {
				sub := nets[:0:0]
				for i := 0; i < len(nets); i += stride {
					sub = append(sub, nets[i])
				}
				nets = sub
			}
			// M=4 keeps the oracle quick; i3, the smallest preset, runs
			// at the production M=20, where Yen goes many iterations deep.
			opt := route.Options{M: 4, Seed: 9}
			if name == "i3" {
				opt.M = 20
			}
			want, wantErr := route.OracleRoute(g, nets, opt)
			var counts []int64
			for _, w := range []int{1, 2, 8} {
				reg := telemetry.NewRegistry()
				opt.Workers, opt.Tel = w, telemetry.New(nil, reg, nil)
				got, err := route.Route(g, nets, opt)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("workers=%d: err = %v, oracle err = %v", w, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: Result differs from the oracle's (L %d/%d, X %d/%d, attempts %d/%d)",
						w, got.Length, want.Length, got.Excess, want.Excess, got.Attempts, want.Attempts)
				}
				if err != nil {
					continue // phase one failed: no counters were set
				}
				var c []int64
				for _, n := range phaseOneCounters {
					c = append(c, reg.Counter("route."+n).Value())
				}
				if counts == nil {
					counts = c
				} else if !slices.Equal(c, counts) {
					t.Fatalf("workers=%d: %v = %v, at 1 worker %v", w, phaseOneCounters, c, counts)
				}
			}
			if name == "i3" && (counts == nil || counts[1] == 0) {
				t.Fatalf("%v = %v: the beam bound skipped no Yen call", phaseOneCounters, counts)
			}
		})
	}
}

// BenchmarkRouteNetsI3 is phase one over every net of the i3 channel graph
// at the production M=20, on one worker: the beam growth, Yen calls and
// spur searches of a routing pass without its phase two.
func BenchmarkRouteNetsI3(b *testing.B) {
	g, nets := presetRouting(b, "i3")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.PhaseOne(g, nets, 20); err != nil {
			b.Fatal(err)
		}
	}
}
