package refine

import (
	"context"
	"testing"

	"repro/internal/channel"
	"repro/internal/detail"
	"repro/internal/route"
)

func TestExtractChannelProblems(t *testing.T) {
	p := stage1Placement(t)
	g, err := channel.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := RouterGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	nets := RouterNets(p, g)
	routing, err := route.Route(rg, nets, route.Options{M: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	probs := ExtractChannelProblems(p, g, routing)
	if len(probs) == 0 {
		t.Fatal("no channel problems extracted")
	}
	for _, ci := range probs {
		if ci.Region < 0 || ci.Region >= len(g.Regions) {
			t.Fatalf("bad region %d", ci.Region)
		}
		// Each extracted problem must be a valid channel instance:
		// routable or a reported error, never a panic, and verifiable
		// when routed.
		res, err := detail.Route(&ci.Problem)
		if err != nil {
			continue
		}
		if err := detail.Verify(&ci.Problem, res); err != nil {
			t.Fatalf("region %d: invalid detailed routing: %v", ci.Region, err)
		}
	}
}

func TestValidateEqn22(t *testing.T) {
	p := stage1Placement(t)
	res, err := RunCtx(context.Background(), p, Options{Seed: 9, Ac: 20, M: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := ValidateEqn22(p, res.Graph, res.Routing)
	if st.Channels == 0 {
		t.Fatal("no channels")
	}
	if st.Routed == 0 {
		t.Fatal("no channels routed")
	}
	// Eqn 22's premise: the vast majority of channels route in d+1
	// tracks or fewer.
	frac := float64(st.WithinD1) / float64(st.Routed)
	if frac < 0.7 {
		t.Fatalf("only %.0f%% of channels within d+1 (%+v)", frac*100, st)
	}
	t.Logf("Eqn 22 validation: %d/%d channels within d+1; avg t=%.2f avg d=%.2f",
		st.WithinD1, st.Routed,
		float64(st.SumTracks)/float64(st.Routed),
		float64(st.SumDensity)/float64(st.Routed))
}
