// Package refine implements Stage 2 of TimberWolfMC (§4): several executions
// of the placement-refinement algorithm, each consisting of (1) a channel
// definition step, (2) a global routing step, and (3) a low-temperature
// simulated-annealing placement-refinement step driven by the measured
// channel densities. Three executions suffice for the final TEIL and chip
// area to converge.
package refine

import (
	"context"
	"fmt"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// Options configures the Stage 2 loop.
type Options struct {
	Seed uint64
	// Iterations is the number of refinement executions; the paper uses 3.
	Iterations int
	// Ac is the attempts-per-cell inner-loop criterion of the refinement
	// annealer.
	Ac int
	// Rho is the range-limiter shrink rate.
	Rho float64
	// M is the number of alternative routes per net (§4.2.1).
	M int
	// MaxSteps bounds each refinement pass (0 = paper criterion).
	MaxSteps int
	// Workers bounds the goroutines of the router's phase one
	// (0 = GOMAXPROCS); results are identical for every value.
	Workers int
	// Tel, when non-nil, receives trace events, metrics, and progress lines
	// from every step of the loop: the router emits per-iteration route
	// summaries and the refinement annealer per-temperature step events,
	// labeled "refine1".."refineN". Observe-only.
	Tel *telemetry.Tracer
}

func (o *Options) fill() {
	if o.Iterations <= 0 {
		o.Iterations = 3
	}
	if o.M <= 0 {
		o.M = 20
	}
}

// IterationStat records one execution of the refinement algorithm.
type IterationStat struct {
	// Regions and GraphEdges describe the channel graph.
	Regions, GraphEdges int
	// RouteLength is L after phase two; Excess is X.
	RouteLength int64
	Excess      int
	// TEIL and ChipArea are measured after the placement-refinement step.
	TEIL     float64
	ChipArea int64
	// Overlap is the residual C2 after refinement.
	Overlap int64
}

// Result is the outcome of Stage 2.
type Result struct {
	Iterations []IterationStat
	// Graph and Routing are from the final iteration.
	Graph   *channel.Graph
	Routing *route.Result
	// TEIL is the final total estimated interconnect length.
	TEIL float64
	// Chip is the final chip extent (expanded placement bounds).
	Chip geom.Rect
}

// ChipArea returns the final chip area.
func (r *Result) ChipArea() int64 { return r.Chip.Area() }

// RouterNets converts the circuit's nets into router nets on the channel
// graph: each connection's candidate node set is the set of regions its
// equivalent pins attach to.
func RouterNets(p *place.Placement, g *channel.Graph) []route.Net {
	nets := make([]route.Net, len(p.Circuit.Nets))
	for ni := range p.Circuit.Nets {
		n := &p.Circuit.Nets[ni]
		rn := route.Net{Name: n.Name}
		for _, conn := range n.Conns {
			var cands []int
			seen := map[int]bool{}
			for _, pi := range conn.Pins {
				r := g.Pins[pi].Region
				if r >= 0 && !seen[r] {
					seen[r] = true
					cands = append(cands, r)
				}
			}
			if len(cands) > 0 {
				rn.Conns = append(rn.Conns, cands)
			}
		}
		nets[ni] = rn
	}
	return nets
}

// RouterGraph converts a channel graph into the router's graph form.
func RouterGraph(g *channel.Graph) (*route.Graph, error) {
	edges := make([]route.Edge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = route.Edge{U: e.U, V: e.V, Length: e.Length, Capacity: e.Capacity}
	}
	return route.NewGraph(len(g.Regions), edges)
}

// RegionDensity derives each region's channel density from the routing:
// the maximum number of nets crossing any of its incident channel-graph
// edges.
func RegionDensity(g *channel.Graph, r *route.Result) []int {
	out := make([]int, len(g.Regions))
	for u := range g.Regions {
		d := 0
		for _, ei := range g.Adj[u] {
			if ei < len(r.EdgeDensity) && r.EdgeDensity[ei] > d {
				d = r.EdgeDensity[ei]
			}
		}
		out[u] = d
	}
	return out
}

// RunCtx executes the Stage 2 loop on a placement produced by Stage 1. The
// context is checked between executions and threaded through the router
// and the refinement annealer, so a long Stage 2 stops within one
// inner-loop stride of cancellation. The returned Result reflects the
// completed executions; the placement keeps the refinement applied so far
// (an interrupted pass hands back its best step-boundary placement). Every
// intermediate state of Stage 2 is a valid placement, so there is no
// checkpoint: rerunning Stage 2 on the saved Stage 1 placement is cheap and
// deterministic.
func RunCtx(ctx context.Context, p *place.Placement, opt Options) (*Result, error) {
	opt.fill()
	res := &Result{}
	// The current placement always yields a meaningful TEIL/chip extent,
	// even when the loop stops early.
	defer func() {
		res.TEIL = p.TEIL()
		res.Chip = p.ExpandedBounds()
	}()
	for iter := 0; iter < opt.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("refine: interrupted before iteration %d: %w", iter+1, err)
		}
		stat, err := runOnce(ctx, p, opt, iter, res)
		if err != nil {
			return res, fmt.Errorf("refine: iteration %d: %w", iter+1, err)
		}
		res.Iterations = append(res.Iterations, stat)
	}
	return res, nil
}

func runOnce(ctx context.Context, p *place.Placement, opt Options, iter int, res *Result) (IterationStat, error) {
	var stat IterationStat
	label := fmt.Sprintf("refine%d", iter+1)

	// Step 1: channel definition.
	g, err := channel.Build(p)
	if err != nil {
		return stat, err
	}
	stat.Regions = len(g.Regions)
	stat.GraphEdges = len(g.Edges)
	opt.Tel.Progressf("%s: channel graph: %d regions, %d edges",
		label, stat.Regions, stat.GraphEdges)

	// Step 2: global routing.
	rg, err := RouterGraph(g)
	if err != nil {
		return stat, err
	}
	nets := RouterNets(p, g)
	routing, err := route.RouteCtx(ctx, rg, nets, route.Options{
		M:       opt.M,
		Seed:    opt.Seed + uint64(iter)*7919,
		Tel:     opt.Tel,
		Label:   label + ".route",
		Workers: opt.Workers,
	})
	if err != nil {
		return stat, err
	}
	stat.RouteLength = routing.Length
	stat.Excess = routing.Excess
	res.Graph = g
	res.Routing = routing

	// Step 3: placement refinement with channel-density-derived widths.
	// The density of a channel is the number of nets crossing it (the
	// classical congestion metric), which is the largest flow over any
	// incident channel-graph edge — not the count of nets merely touching
	// the region, which overstates long busy channels.
	widths := g.DensityWidths(p, RegionDensity(g, routing), 0)
	rr, err := place.RunRefineCtx(ctx, p, widths, place.RefineOptions{
		Seed:       opt.Seed + uint64(iter)*104729,
		Ac:         opt.Ac,
		Rho:        opt.Rho,
		StableStop: iter == opt.Iterations-1,
		MaxSteps:   opt.MaxSteps,
		Tel:        opt.Tel,
		Label:      label,
	})
	stat.TEIL = rr.TEIL
	stat.Overlap = rr.Overlap
	stat.ChipArea = p.ExpandedBounds().Area()
	return stat, err
}
