package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/refine"
	"repro/internal/route"
)

// A flow-route op is the full flow — Stage 1, then three executions of
// channel definition, global routing and refinement — on an 18-cell i3
// circuit, where routing is most of the time.
const (
	flowPreset = "i3"
	flowAc     = 50
	flowM      = 20
	// stage2Iterations is refine's default, which core uses.
	stage2Iterations = 3
)

// flowOptions are the core.Options of the op with anneal seed seed.
func flowOptions(seed uint64) core.Options {
	return core.Options{Seed: seed, Ac: flowAc, M: flowM}
}

const (
	// circuitPool is the number of distinct circuits a run cycles through,
	// so a run's median spans many netlists, not one.
	circuitPool = 16
	// setupReps is how often the set-up is timed; setup_s is the median.
	setupReps = 15
	// setupMinTime is the shortest set-up timing: generating the pool takes
	// about a millisecond, too short to time on its own, so a timing repeats
	// the generation until it lasts this long and reports the time per
	// generation.
	setupMinTime = 20 * time.Millisecond
)

// genCircuits is the set-up: synthesize the run's circuit pool from the
// workload seed. It is timed setupReps times.
func genCircuits(cfg config, rep *report) ([]*netlist.Circuit, error) {
	var pool []*netlist.Circuit
	for r := 0; r < setupReps; r++ {
		runtime.GC() // no repetition pays for the garbage of the one before
		t0 := time.Now()
		n := 0
		for n == 0 || time.Since(t0) < setupMinTime {
			pool = pool[:0]
			for k := 0; k < circuitPool; k++ {
				c, err := gen.Preset(flowPreset, splitmix(cfg.seed, 1_000_000+k))
				if err != nil {
					return nil, err
				}
				pool = append(pool, c)
			}
			n++
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds()/float64(n))
	}
	rep.layerFixed["gen.s"] = median(rep.setup)
	runtime.GC()
	return pool, nil
}

func runFlowRoute(cfg config, rep *report) error {
	pool, err := genCircuits(cfg, rep)
	if err != nil {
		return err
	}
	drcErrors := 0
	loop(cfg, func(i int) {
		c := pool[i%len(pool)]
		opt := flowOptions(splitmix(cfg.seed, i))
		rep.attempted++
		if cfg.trace {
			tracedFlowOp(rep, i+1, c, opt)
			return
		}
		w := begin(false)
		out, err := runCore(c, opt)
		s := w.end("flow")
		if err == nil {
			err = checkRoundTrip(c, out)
		}
		if err != nil {
			rep.fail("%s seed %d: %v", c.Name, opt.Seed, err)
			return
		}
		fmt.Fprintf(os.Stderr, "perfbench: op %d: %s seed %d: %.3fs wall, %.3fs cpu, TEIL %.0f, %d DRC errors\n",
			i+1, c.Name, opt.Seed, s.wall, s.cpu, out.res.TEIL, out.drc.Errors())
		rep.op(s)
		rep.result("flow", out.res.TEIL, out.res.ChipArea())
		drcErrors += out.drc.Errors()
	})
	if !cfg.trace {
		fmt.Fprintf(os.Stderr, "perfbench: flow-route: %d ops, %d DRC errors in total (reported, not failures)\n",
			rep.ops(), drcErrors)
	}
	return nil
}

// flowOut is what a flow op hands to a user: the result, its sign-off
// check, and the serialized placement.
type flowOut struct {
	res       *core.Result
	drc       *drc.Result
	placement []byte
}

// runCore is the untraced op: core.PlaceCtx, the DRC sign-off, and the
// placement write.
func runCore(c *netlist.Circuit, opt core.Options) (flowOut, error) {
	res, err := core.PlaceCtx(context.Background(), c, opt)
	if err != nil {
		return flowOut{}, err
	}
	d := res.DRC()
	var buf bytes.Buffer
	if err := place.WritePlacement(&buf, res.Placement); err != nil {
		return flowOut{}, err
	}
	return flowOut{res: res, drc: d, placement: buf.Bytes()}, nil
}

// checkRoundTrip asserts that the written placement reloads to the same
// TEIL and cell extent as the placement it was written from.
func checkRoundTrip(c *netlist.Circuit, out flowOut) error {
	p := place.New(c, geom.R(0, 0, 1, 1), nil)
	if err := place.ReadPlacement(bytes.NewReader(out.placement), p); err != nil {
		return fmt.Errorf("placement round trip: %w", err)
	}
	if got, want := p.TEIL(), out.res.Placement.TEIL(); got != want {
		return fmt.Errorf("placement round trip: TEIL %v, want %v", got, want)
	}
	if got, want := p.CellBounds().Area(), out.res.Placement.CellBounds().Area(); got != want {
		return fmt.Errorf("placement round trip: cell area %d, want %d", got, want)
	}
	return nil
}

// tracedFlowOp runs one traced op. It first runs the untraced op through
// core.PlaceCtx as the reference, then replays the same flow from outside —
// each layer's public function in a span, with the seeds core and refine
// derive — and requires the replica's placement bytes to equal the
// reference's. Phase one of routing is then timed on its own, over the same
// graphs and nets, outside the op span.
func tracedFlowOp(rep *report, op int, c *netlist.Circuit, opt core.Options) {
	l := rep.spans
	w := begin(false)
	ci := l.start(op, "core.place")
	res, err := core.PlaceCtx(context.Background(), c, opt)
	corePlace := l.finish(ci)
	if err != nil {
		rep.fail("%s seed %d: core: %v", c.Name, opt.Seed, err)
		return
	}
	ref := flowOut{res: res, drc: res.DRC()}
	var buf bytes.Buffer
	if err := place.WritePlacement(&buf, res.Placement); err != nil {
		rep.fail("%s seed %d: write: %v", c.Name, opt.Seed, err)
		return
	}
	ref.placement = buf.Bytes()
	untraced := w.end("flow")
	if err := checkRoundTrip(c, ref); err != nil {
		rep.fail("%s seed %d: %v", c.Name, opt.Seed, err)
		return
	}

	from := len(l.spans)
	m := &replicaMetrics{}
	root := l.start(op, "bench.op")
	replica, err := replicaFlow(l, op, c, opt, m)
	traced := l.finish(root)
	to := len(l.spans)
	if err != nil {
		rep.fail("%s seed %d: replica: %v", c.Name, opt.Seed, err)
		return
	}
	if !bytes.Equal(replica.placement, ref.placement) ||
		replica.drc.Errors() != ref.drc.Errors() || replica.drc.Warnings() != ref.drc.Warnings() {
		rep.fail("%s seed %d: the outside-in replica's placement differs from core.PlaceCtx's", c.Name, opt.Seed)
		return
	}

	// Phase one alone: RouteNet over every net of every routing pass.
	p1 := 0.0
	for k, rg := range m.graphs {
		p1 += l.timed(op, "route.p1", func() {
			for _, n := range m.nets[k] {
				rg.RouteNet(n, opt.M)
			}
		})
	}

	rep.op(untraced)
	rep.result("flow", res.TEIL, res.ChipArea())
	rep.observeSelf(l.spans[from:to])
	rep.observe("core.place_s", corePlace)
	rep.observe("trace.op_s", traced)
	rep.observe("trace.untraced_op_s", untraced.wall)
	rep.observe("trace.overhead_s", traced-untraced.wall)
	rep.observe("route.p1_s", p1)
	rep.observe("route.p2_s", l.sumByName(from, "route.route")-p1)
	rep.observe("route.alloc_mb", m.routeAlloc/1e6)
	rep.observe("route.alternatives", m.alternatives)
	rep.observe("route.p2_attempts", m.p2Attempts)
	rep.observe("route.length", m.length)
	rep.observe("route.excess", m.excess)
	stage1 := l.sumByName(from, "place.stage1")
	rep.observe("place.stage1_s", stage1)
	rep.observe("place.stage1_attempts", float64(m.stage1.Attempts))
	rep.observe("place.stage1_accept_rate", m.stage1.AcceptRate)
	rep.observe("place.stage1_ns_per_attempt", stage1*1e9/float64(m.stage1.Attempts))
	rep.observe("place.stage1_alloc_mb", m.stage1Alloc/1e6)
	rep.observe("place.refine_s", l.sumByName(from, "place.refine"))
	rep.observe("place.refine_steps", m.refineSteps)
	rep.observe("place.refine_accept_rate", m.refineAccept/stage2Iterations)
	rep.observe("refine.netconv_s", l.sumByName(from, "refine.netconv"))
	rep.observe("channel.build_s", l.sumByName(from, "channel.build"))
	rep.observe("channel.regions", m.regions)
	rep.observe("channel.edges", m.edges)
	rep.observe("drc.check_s", l.sumByName(from, "drc.check"))
	rep.observe("drc.errors", float64(replica.drc.Errors()))
	rep.observe("drc.warnings", float64(replica.drc.Warnings()))
	rep.observe("write.s", l.sumByName(from, "place.write"))
	rep.observe("write.bytes", float64(len(replica.placement)))
}

// replicaMetrics are the counts the replica reads off each layer's results.
type replicaMetrics struct {
	stage1       place.Result
	stage1Alloc  float64
	routeAlloc   float64
	alternatives float64
	p2Attempts   float64
	length       float64 // final pass
	excess       float64 // final pass
	regions      float64
	edges        float64
	refineSteps  float64
	refineAccept float64 // summed over the passes
	// graphs and nets of every routing pass, for the phase-one timing.
	graphs []*route.Graph
	nets   [][]route.Net
}

// replicaFlow drives the flow from outside, one layer call per span, exactly
// as core.PlaceCtx and refine.RunCtx do: Stage 1, then three executions of
// channel definition, net conversion, global routing, density-derived
// channel widths and refinement, then DRC and the write.
func replicaFlow(l *spanLog, op int, c *netlist.Circuit, opt core.Options, m *replicaMetrics) (flowOut, error) {
	ctx := context.Background()
	var (
		p   *place.Placement
		err error
	)
	a0 := allocBytes()
	l.timed(op, "place.stage1", func() {
		p, m.stage1, err = place.RunStage1Ctx(ctx, c, place.Options{Seed: opt.Seed, Ac: opt.Ac})
	})
	m.stage1Alloc = allocBytes() - a0
	if err != nil {
		return flowOut{}, err
	}
	var (
		g  *channel.Graph
		rt *route.Result
	)
	s2seed := opt.Seed + 0x5eed // as core derives the Stage 2 seed
	for iter := 0; iter < stage2Iterations; iter++ {
		l.timed(op, "channel.build", func() { g, err = channel.Build(p) })
		if err != nil {
			return flowOut{}, err
		}
		m.regions += float64(len(g.Regions))
		m.edges += float64(len(g.Edges))
		var (
			rg   *route.Graph
			nets []route.Net
		)
		l.timed(op, "refine.netconv", func() {
			rg, err = refine.RouterGraph(g)
			nets = refine.RouterNets(p, g)
		})
		if err != nil {
			return flowOut{}, err
		}
		a0 := allocBytes()
		l.timed(op, "route.route", func() {
			rt, err = route.RouteCtx(ctx, rg, nets, route.Options{M: opt.M, Seed: s2seed + uint64(iter)*7919})
		})
		m.routeAlloc += allocBytes() - a0
		if err != nil {
			return flowOut{}, err
		}
		m.graphs = append(m.graphs, rg)
		m.nets = append(m.nets, nets)
		for _, alts := range rt.Alternatives {
			m.alternatives += float64(len(alts))
		}
		m.p2Attempts += float64(rt.Attempts)
		m.length, m.excess = float64(rt.Length), float64(rt.Excess)
		var widths [][4]int
		l.timed(op, "refine.density", func() {
			widths = g.DensityWidths(p, refine.RegionDensity(g, rt), 0)
		})
		var rr place.RefineResult
		l.timed(op, "place.refine", func() {
			rr, err = place.RunRefineCtx(ctx, p, widths, place.RefineOptions{
				Seed:       s2seed + uint64(iter)*104729,
				Ac:         opt.Ac,
				StableStop: iter == stage2Iterations-1,
			})
		})
		if err != nil {
			return flowOut{}, err
		}
		m.refineSteps += float64(rr.Steps)
		m.refineAccept += rr.AcceptRate
	}
	var out flowOut
	l.timed(op, "drc.check", func() { out.drc = drc.Check(p, g, rt) })
	var buf bytes.Buffer
	l.timed(op, "place.write", func() { err = place.WritePlacement(&buf, p) })
	out.placement = buf.Bytes()
	return out, err
}
