package route_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/gen"
	"repro/internal/place"
	"repro/internal/refine"
	"repro/internal/route"
)

// TestRouteMatchesOraclePresets routes the channel graph of every preset,
// built after a short Stage 1, with the production router at 1, 2 and 8
// workers and with the oracle (oracle_test.go), and requires deeply equal
// Results.
func TestRouteMatchesOraclePresets(t *testing.T) {
	for _, name := range gen.PresetNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := gen.Preset(name, 17)
			if err != nil {
				t.Fatal(err)
			}
			p, _, err := place.RunStage1Ctx(context.Background(), c, place.Options{Seed: 5, Ac: 4, MaxSteps: 6})
			if err != nil {
				t.Fatal(err)
			}
			cg, err := channel.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			g, err := refine.RouterGraph(cg)
			if err != nil {
				t.Fatal(err)
			}
			// Every preset's full channel graph, but at most about 160 of
			// its nets (an evenly spaced subset): the oracle needs about a
			// minute for all of l1's nets, and the graph, not the net
			// count, is what the presets add over the fuzzed cases.
			nets := refine.RouterNets(p, cg)
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
			for _, w := range []int{1, 2, 8} {
				opt.Workers = w
				got, err := route.Route(g, nets, opt)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("workers=%d: err = %v, oracle err = %v", w, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: Result differs from the oracle's (L %d/%d, X %d/%d, attempts %d/%d)",
						w, got.Length, want.Length, got.Excess, want.Excess, got.Attempts, want.Attempts)
				}
			}
		})
	}
}
