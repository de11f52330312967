package route

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// routeCtxStride bounds how many phase-two attempts run between
// cancellation checks.
const routeCtxStride = 256

// Options configures the router.
type Options struct {
	// M is the number of alternative routes stored per net (§4.2.1:
	// "typically on the order of 20 or more").
	M int
	// Seed drives the phase-two random interchange.
	Seed uint64
	// StallFactor scales the phase-two stopping criterion: the algorithm
	// stops after M·N·StallFactor attempts without a change in L or X
	// (criterion 2 of §4.2.2). Defaults to 1.
	StallFactor float64
	// Tel, when non-nil, receives a routing summary event and metrics.
	// Observe-only: routing results are identical with or without it.
	Tel *telemetry.Tracer
	// Label names the pass in trace events and metric names; defaults to
	// "route".
	Label string
	// Workers bounds the goroutines that route nets in phase one
	// (0 = GOMAXPROCS). Results are identical for every worker count.
	Workers int
}

func (o *Options) fill() {
	if o.M <= 0 {
		o.M = 20
	}
	if o.StallFactor <= 0 {
		o.StallFactor = 1
	}
}

// Result is the outcome of global routing.
type Result struct {
	// Alternatives holds the stored routes per net, shortest first.
	Alternatives [][]Tree
	// Choice is the selected alternative index per net.
	Choice []int
	// Length is the total routing length L (Eqn 23).
	Length int64
	// Excess is the total number of excess tracks X (Eqn 24).
	Excess int
	// EdgeDensity is the number of nets using each graph edge.
	EdgeDensity []int
	// NodeDensity is the number of nets touching each graph node; the
	// refinement step derives required channel widths from it.
	NodeDensity []int
	// Attempts counts phase-two new-state attempts.
	Attempts int
	// Unrouted lists nets for which phase one found no route.
	Unrouted []int
}

// Chosen returns the selected tree for net i.
func (r *Result) Chosen(i int) Tree {
	return r.Alternatives[i][r.Choice[i]]
}

// Route runs both phases of the global router.
func Route(g *Graph, nets []Net, opt Options) (*Result, error) {
	return RouteCtx(context.Background(), g, nets, opt)
}

// RouteCtx is Route with cancellation: phase-one workers check the context
// before each net and phase two every routeCtxStride interchange attempts.
// Cancelled in phase two, it returns the routing as improved so far (valid
// Choice, Length, Excess, densities) together with an error wrapping
// ctx.Err(); cancelled in phase one, only the error is meaningful.
func RouteCtx(ctx context.Context, g *Graph, nets []Net, opt Options) (*Result, error) {
	opt.fill()
	res := &Result{
		Alternatives: make([][]Tree, len(nets)),
		Choice:       make([]int, len(nets)),
	}
	// Phase one: generate and store up to M alternatives per net.
	t0 := time.Now()
	stats, err := phaseOne(ctx, g, nets, opt, res)
	if err != nil {
		return res, err
	}
	if len(res.Unrouted) > 0 {
		return res, fmt.Errorf("route: %d nets unroutable on the channel graph", len(res.Unrouted))
	}
	t1 := time.Now()
	cancelled := phaseTwo(ctx, g, opt, res)
	t2 := time.Now()

	if opt.Tel != nil {
		label := opt.Label
		if label == "" {
			label = "route"
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		reg := opt.Tel.Registry()
		reg.Counter(label + ".attempts").Add(int64(res.Attempts))
		reg.Gauge(label + ".length").Set(float64(res.Length))
		reg.Gauge(label + ".excess").Set(float64(res.Excess))
		reg.Gauge(label + ".p1_ms").Set(ms(t1.Sub(t0)))
		reg.Counter(label + ".yen_calls").Add(stats.yenCalls)
		reg.Counter(label + ".yen_skipped").Add(stats.yenSkipped)
		reg.Counter(label + ".spur_searches").Add(stats.spurSearches)
		reg.Counter(label + ".heap_pops").Add(stats.heapPops)
		reg.Gauge(label + ".p2_ms").Set(ms(t2.Sub(t1)))
		opt.Tel.Emit(telemetry.Event{
			Type: telemetry.TypeRoute, Run: label,
			Length: res.Length, Excess: res.Excess,
			Attempts: int64(res.Attempts), Cells: len(nets),
			DurMS: ms(t2.Sub(t0)),
		})
		opt.Tel.Progressf("%s: %d nets L=%d X=%d after %d attempts",
			label, len(nets), res.Length, res.Excess, res.Attempts)
	}
	return res, cancelled
}

// phaseOne fills res.Alternatives and res.Unrouted. Nets are routed in
// parallel: each worker owns one searcher and claims nets by index, and a
// net's alternatives depend only on the net and the shared, immutable
// graph, so every worker count stores the same trees. Unrouted is collected
// afterwards in net order. The returned work counts are summed over the
// workers' searchers.
func phaseOne(ctx context.Context, g *Graph, nets []Net, opt Options, res *Result) (phaseOneStats, error) {
	var next atomic.Int64
	routed := make([]bool, len(nets))
	w := min(par.Workers(opt.Workers), len(nets))
	perWorker := make([]phaseOneStats, w)
	par.ForEach(w, w, func(worker int) {
		s := newSearcher(g)
		defer func() { perWorker[worker] = s.stats }()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(nets) || ctx.Err() != nil {
				return
			}
			res.Alternatives[i] = s.routeNet(nets[i], opt.M)
			routed[i] = true
		}
	})
	var stats phaseOneStats
	for _, st := range perWorker {
		stats.add(st)
	}
	for i, net := range nets {
		if !routed[i] {
			return stats, fmt.Errorf("route: phase one interrupted at net %d of %d: %w",
				i, len(nets), ctx.Err())
		}
		if len(res.Alternatives[i]) == 0 {
			if len(net.Conns) > 0 {
				res.Unrouted = append(res.Unrouted, i)
			}
			res.Alternatives[i] = []Tree{{}} // degenerate empty route
		}
	}
	return stats, nil
}

// interchange is phase two's incremental state: edge densities, the nets
// whose chosen tree uses each edge, and the over-capacity edges. Both lists
// are kept in ascending order because random draws index into them.
type interchange struct {
	g       *Graph
	density []int
	users   [][]int // per edge: nets using it, ascending
	over    []int   // edges with density > capacity, ascending
}

// apply adds (sign +1) or removes (sign -1) net i's use of tree t.
func (x *interchange) apply(i int, t Tree, sign int) {
	for _, e := range t.Edges {
		c := x.g.Edges[e].Capacity
		wasOver := x.density[e] > c
		x.density[e] += sign
		if sign > 0 {
			k, _ := slices.BinarySearch(x.users[e], i)
			x.users[e] = slices.Insert(x.users[e], k, i)
		} else {
			k, _ := slices.BinarySearch(x.users[e], i)
			x.users[e] = slices.Delete(x.users[e], k, k+1)
		}
		if isOver := x.density[e] > c; isOver != wasOver {
			k, _ := slices.BinarySearch(x.over, e)
			if isOver {
				x.over = slices.Insert(x.over, k, e)
			} else {
				x.over = slices.Delete(x.over, k, k+1)
			}
		}
	}
}

// deltaX is the change in total excess if a net switched from tree edges
// cur to tree edges next; both lists are sorted, so one merge pass visits
// every edge whose density would change.
func (x *interchange) deltaX(cur, next []int) int {
	d := 0
	i, j := 0, 0
	for i < len(cur) || j < len(next) {
		var e, dd int
		switch {
		case j == len(next) || (i < len(cur) && cur[i] < next[j]):
			e, dd = cur[i], -1
			i++
		case i == len(cur) || next[j] < cur[i]:
			e, dd = next[j], +1
			j++
		default: // on both trees: density unchanged
			i, j = i+1, j+1
			continue
		}
		before := x.density[e]
		c := x.g.Edges[e].Capacity
		d += excessOf(before+dd, c) - excessOf(before, c)
	}
	return d
}

// phaseTwo is the random interchange (§4.2.2): starting from every net's
// shortest alternative, it repeatedly picks a random over-capacity edge, a
// random net on it and a random alternative of that net that does not raise
// the excess X, and accepts the switch if it lowers X, or keeps X and does
// not lengthen L. It fills Choice, Length, Excess, the densities and
// Attempts, and returns a non-nil error only on cancellation.
func phaseTwo(ctx context.Context, g *Graph, opt Options, res *Result) error {
	nets := len(res.Alternatives)
	x := &interchange{g: g, density: make([]int, len(g.Edges)), users: make([][]int, len(g.Edges))}
	var length int64
	for i := 0; i < nets; i++ {
		res.Choice[i] = 0
		for _, e := range res.Alternatives[i][0].Edges {
			x.density[e]++
			x.users[e] = append(x.users[e], i)
		}
		length += int64(res.Alternatives[i][0].Length)
	}
	excess := 0
	for e, d := range x.density {
		if over := d - g.Edges[e].Capacity; over > 0 {
			excess += over
			x.over = append(x.over, e)
		}
	}

	src := rng.New(opt.Seed)
	stall := 0
	limit := int(float64(opt.M*nets)*opt.StallFactor) + 1
	var cand, candDX []int
	var cancelled error
	for excess > 0 && stall < limit {
		if res.Attempts%routeCtxStride == 0 && ctx.Err() != nil {
			cancelled = fmt.Errorf("route: phase two interrupted after %d attempts: %w",
				res.Attempts, ctx.Err())
			break
		}
		res.Attempts++
		stall++
		// Random over-capacity edge, then a random net using it.
		if len(x.over) == 0 {
			break
		}
		e := x.over[src.Intn(len(x.over))]
		users := x.users[e]
		if len(users) == 0 {
			break
		}
		i := users[src.Intn(len(users))]
		// Alternatives with ΔX <= 0.
		cur := res.Chosen(i)
		cand, candDX = cand[:0], candDX[:0]
		for k, alt := range res.Alternatives[i] {
			if k == res.Choice[i] {
				continue
			}
			if dx := x.deltaX(cur.Edges, alt.Edges); dx <= 0 {
				cand = append(cand, k)
				candDX = append(candDX, dx)
			}
		}
		if len(cand) == 0 {
			continue
		}
		pick := src.Intn(len(cand))
		k, dx := cand[pick], candDX[pick]
		dl := res.Alternatives[i][k].Length - cur.Length
		// Accept if ΔX<0, or ΔX=0 and ΔL<=0.
		if dx < 0 || (dx == 0 && dl <= 0) {
			if dx < 0 || dl < 0 {
				stall = 0 // L or X changed
			}
			x.apply(i, cur, -1)
			res.Choice[i] = k
			x.apply(i, res.Alternatives[i][k], +1)
			length += int64(dl)
			excess += dx
		}
	}

	res.Length = length
	res.Excess = excess
	res.EdgeDensity = x.density
	res.NodeDensity = make([]int, g.NumNodes)
	for i := 0; i < nets; i++ {
		for _, u := range res.Chosen(i).Nodes { // sorted and unique
			res.NodeDensity[u]++
		}
	}
	return cancelled
}

func excessOf(d, c int) int {
	if d > c {
		return d - c
	}
	return 0
}
