package route

// The differential oracle: the global router exactly as it stood before the
// per-worker searcher kernel (container/heap Dijkstra with per-call scratch,
// a NewGraph copy per multi-source k-shortest call, map-based tree growth
// and the O(nets × edges) phase-two user scan). It is kept verbatim, under
// oracle-prefixed names, so the differential tests can demand that the
// production router returns deeply equal Results on every input.

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/rng"
)

// oracleGraph is the routing graph.
type oracleGraph struct {
	NumNodes int
	Edges    []Edge
	adj      [][]int // incident edge ids per node
}

// newOracleGraph builds a routing graph with the given node count and edges.
func newOracleGraph(numNodes int, edges []Edge) (*oracleGraph, error) {
	g := &oracleGraph{NumNodes: numNodes, Edges: append([]Edge(nil), edges...)}
	g.adj = make([][]int, numNodes)
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= numNodes || e.V < 0 || e.V >= numNodes {
			return nil, fmt.Errorf("route: edge %d endpoints out of range", i)
		}
		if e.Length < 0 {
			return nil, fmt.Errorf("route: edge %d has negative length", i)
		}
		g.adj[e.U] = append(g.adj[e.U], i)
		g.adj[e.V] = append(g.adj[e.V], i)
	}
	return g, nil
}

// Adj returns the incident edge ids of node u.
func (g *oracleGraph) Adj(u int) []int { return g.adj[u] }

// Other returns the endpoint of edge e opposite u.
func (g *oracleGraph) Other(e, u int) int {
	if g.Edges[e].U == u {
		return g.Edges[e].V
	}
	return g.Edges[e].U
}

type oracleItem struct {
	node int
	dist int
}

type oraclePQ []oracleItem

func (q oraclePQ) Len() int           { return len(q) }
func (q oraclePQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q oraclePQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *oraclePQ) Push(x any)        { *q = append(*q, x.(oracleItem)) }
func (q *oraclePQ) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// shortestPath finds a shortest path from any node in srcs (entered at cost
// 0) to any node satisfying isDst, avoiding banned nodes and edges. It
// returns ok=false if no path exists.
func (g *oracleGraph) shortestPath(srcs []int, isDst func(int) bool,
	bannedNode []bool, bannedEdge map[int]bool) (Path, bool) {

	dist := make([]int, g.NumNodes)
	prevEdge := make([]int, g.NumNodes)
	for i := range dist {
		dist[i] = inf
		prevEdge[i] = -1
	}
	var q oraclePQ
	for _, s := range srcs {
		if bannedNode != nil && bannedNode[s] {
			continue
		}
		if dist[s] == 0 {
			continue
		}
		dist[s] = 0
		heap.Push(&q, oracleItem{s, 0})
	}
	for q.Len() > 0 {
		it := heap.Pop(&q).(oracleItem)
		u := it.node
		if it.dist > dist[u] {
			continue
		}
		if isDst(u) {
			return g.tracePath(u, prevEdge, dist), true
		}
		for _, ei := range g.adj[u] {
			if bannedEdge != nil && bannedEdge[ei] {
				continue
			}
			v := g.Other(ei, u)
			if bannedNode != nil && bannedNode[v] {
				continue
			}
			nd := dist[u] + g.Edges[ei].Length
			if nd < dist[v] {
				dist[v] = nd
				prevEdge[v] = ei
				heap.Push(&q, oracleItem{v, nd})
			}
		}
	}
	return Path{}, false
}

// tracePath reconstructs the path ending at node u.
func (g *oracleGraph) tracePath(u int, prevEdge, dist []int) Path {
	var nodes, edges []int
	nodes = append(nodes, u)
	for prevEdge[u] != -1 {
		e := prevEdge[u]
		u = g.Other(e, u)
		edges = append(edges, e)
		nodes = append(nodes, u)
	}
	oracleReverse(nodes)
	oracleReverse(edges)
	return Path{Nodes: nodes, Edges: edges, Length: dist[nodes[len(nodes)-1]]}
}

func oracleReverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Distances runs Dijkstra from the source set and returns the distance to
// every node (inf-like large value when unreachable).
func (g *oracleGraph) Distances(srcs []int) []int {
	dist := make([]int, g.NumNodes)
	for i := range dist {
		dist[i] = inf
	}
	var q oraclePQ
	for _, s := range srcs {
		dist[s] = 0
		heap.Push(&q, oracleItem{s, 0})
	}
	for q.Len() > 0 {
		it := heap.Pop(&q).(oracleItem)
		u := it.node
		if it.dist > dist[u] {
			continue
		}
		for _, ei := range g.adj[u] {
			v := g.Other(ei, u)
			nd := dist[u] + g.Edges[ei].Length
			if nd < dist[v] {
				dist[v] = nd
				heap.Push(&q, oracleItem{v, nd})
			}
		}
	}
	return dist
}

// KShortestPaths returns up to k shortest loopless paths from the source set
// to the target set, in nondecreasing length order, using Yen's deviation
// scheme, with a spur search at every node of the last accepted path.
// Multi-source/multi-target handles electrically-equivalent pins and
// route-tree growth; a multi-node source set routes through a virtual
// super-source so that deviations can switch the starting node (plain Yen
// can only deviate within the first path's source).
func (g *oracleGraph) KShortestPaths(srcs, dsts []int, k int) []Path {
	uniq := oracleUniqueInts(srcs)
	if len(uniq) > 1 {
		return g.kShortestMultiSource(uniq, dsts, k)
	}
	return g.kShortestYen(uniq, dsts, k)
}

func oracleUniqueInts(s []int) []int {
	seen := make(map[int]bool, len(s))
	out := make([]int, 0, len(s))
	for _, v := range s {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// kShortestMultiSource augments the graph with a zero-length super-source
// fanned out to every source node, runs Yen from it, and strips the virtual
// hop from the results.
func (g *oracleGraph) kShortestMultiSource(srcs, dsts []int, k int) []Path {
	super := g.NumNodes
	edges := make([]Edge, len(g.Edges), len(g.Edges)+len(srcs))
	copy(edges, g.Edges)
	for _, s := range srcs {
		edges = append(edges, Edge{U: super, V: s, Length: 0})
	}
	ag, err := newOracleGraph(g.NumNodes+1, edges)
	if err != nil {
		return nil
	}
	paths := ag.kShortestYen([]int{super}, dsts, k)
	out := make([]Path, 0, len(paths))
	seen := map[string]bool{}
	for _, p := range paths {
		if len(p.Nodes) < 2 {
			continue
		}
		sp := Path{Nodes: p.Nodes[1:], Edges: p.Edges[1:], Length: p.Length}
		// Distinct augmented paths can collapse to the same real path
		// only if they differ in the virtual hop, which is impossible;
		// still, dedup defensively.
		key := oraclePathKey(sp)
		if !seen[key] {
			seen[key] = true
			out = append(out, sp)
		}
	}
	return out
}

// kShortestYen is Yen's algorithm from a single source node (or set that has
// been reduced to one).
func (g *oracleGraph) kShortestYen(srcs, dsts []int, k int) []Path {
	if k <= 0 {
		return nil
	}
	dstSet := make(map[int]bool, len(dsts))
	for _, d := range dsts {
		dstSet[d] = true
	}
	isDst := func(u int) bool { return dstSet[u] }

	first, ok := g.shortestPath(srcs, isDst, nil, nil)
	if !ok {
		return nil
	}
	paths := []Path{first}
	seen := map[string]bool{oraclePathKey(first): true}
	var candidates []Path

	for len(paths) < k {
		last := paths[len(paths)-1]
		// Deviate at each node of the last path (Lawler: deviations
		// before the previous deviation point are already covered, but
		// recomputing is correct; we keep the dedup set authoritative).
		for spur := 0; spur < len(last.Nodes)-1; spur++ {
			spurNode := last.Nodes[spur]
			rootNodes := last.Nodes[:spur+1]
			rootEdges := last.Edges[:spur]
			rootLen := 0
			for _, ei := range rootEdges {
				rootLen += g.Edges[ei].Length
			}
			// Ban edges used by any accepted path sharing this root.
			bannedEdge := map[int]bool{}
			for _, p := range paths {
				if oracleSharesRoot(p, rootNodes) && spur < len(p.Edges) {
					bannedEdge[p.Edges[spur]] = true
				}
			}
			// Ban root nodes (except the spur node) for looplessness.
			bannedNode := make([]bool, g.NumNodes)
			for _, u := range rootNodes[:len(rootNodes)-1] {
				bannedNode[u] = true
			}
			// A root that already passed through a source other than
			// its own start would not be simple w.r.t. multi-source;
			// handled implicitly by node bans.
			tail, ok := g.shortestPath([]int{spurNode}, isDst, bannedNode, bannedEdge)
			if !ok {
				continue
			}
			full := Path{
				Nodes:  append(append([]int(nil), rootNodes...), tail.Nodes[1:]...),
				Edges:  append(append([]int(nil), rootEdges...), tail.Edges...),
				Length: rootLen + tail.Length,
			}
			key := oraclePathKey(full)
			if !seen[key] {
				seen[key] = true
				candidates = append(candidates, full)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool {
			return candidates[i].Length < candidates[j].Length
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func oracleSharesRoot(p Path, rootNodes []int) bool {
	if len(p.Nodes) < len(rootNodes) {
		return false
	}
	for i, u := range rootNodes {
		if p.Nodes[i] != u {
			return false
		}
	}
	return true
}

func oraclePathKey(p Path) string {
	b := make([]byte, 0, 4*len(p.Nodes))
	for _, u := range p.Nodes {
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return string(b)
}

func oracleHasNode(t Tree, u int) bool {
	i := sort.SearchInts(t.Nodes, u)
	return i < len(t.Nodes) && t.Nodes[i] == u
}

func oracleTreeKey(edges []int) string {
	b := make([]byte, 0, 4*len(edges))
	for _, e := range edges {
		b = append(b, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	return string(b)
}

// extend returns the tree grown by a path; duplicate edges contribute no
// extra length.
func (g *oracleGraph) extend(t Tree, p Path) Tree {
	edgeSet := map[int]bool{}
	for _, e := range t.Edges {
		edgeSet[e] = true
	}
	nodeSet := map[int]bool{}
	for _, u := range t.Nodes {
		nodeSet[u] = true
	}
	for _, e := range p.Edges {
		edgeSet[e] = true
	}
	for _, u := range p.Nodes {
		nodeSet[u] = true
	}
	out := Tree{
		Edges: make([]int, 0, len(edgeSet)),
		Nodes: make([]int, 0, len(nodeSet)),
	}
	for e := range edgeSet {
		out.Edges = append(out.Edges, e)
		out.Length += g.Edges[e].Length
	}
	for u := range nodeSet {
		out.Nodes = append(out.Nodes, u)
	}
	sort.Ints(out.Edges)
	sort.Ints(out.Nodes)
	return out
}

// RouteNet generates up to m alternative route trees for the net, shortest
// first (phase one, §4.2.1). The connection order follows Prim's algorithm
// on shortest-path distances from the already-interconnected pins; at every
// step the M-shortest paths from the partial tree's nodes to the next
// connection's candidate set are generated, and the best m partial trees are
// retained (the paper's recursive enumeration, beam-limited).
//
// The paper's footnote 27 mentions a further generalization that also
// branches over the next-pin choice (the k nearest unconnected pins instead
// of only the nearest); route diversity here comes from the path beam alone,
// which the paper reports already finds the minimal Steiner route for nearly
// all nets under 20 pins.
func (g *oracleGraph) RouteNet(net Net, m int) []Tree {
	if m <= 0 {
		m = 1
	}
	if len(net.Conns) == 0 {
		return nil
	}
	// Start from the first connection (the paper selects the starting pin
	// arbitrarily). Seed trees: one single-node tree per candidate.
	start := net.Conns[0]
	beam := make([]Tree, 0, len(start))
	seedSeen := map[int]bool{}
	for _, u := range start {
		if !seedSeen[u] {
			seedSeen[u] = true
			beam = append(beam, Tree{Nodes: []int{u}})
		}
	}
	if len(beam) == 0 {
		return nil
	}

	remaining := make([]int, 0, len(net.Conns)-1)
	for ci := 1; ci < len(net.Conns); ci++ {
		remaining = append(remaining, ci)
	}

	for len(remaining) > 0 {
		// Prim step: pick the remaining connection nearest to the best
		// partial tree.
		best := beam[0]
		dist := g.Distances(best.Nodes)
		nearest, nearestIdx, nd := -1, -1, inf+1
		for idx, ci := range remaining {
			d := inf
			for _, u := range net.Conns[ci] {
				if dist[u] < d {
					d = dist[u]
				}
			}
			if d < nd {
				nearest, nearestIdx, nd = ci, idx, d
			}
		}
		if nearest < 0 {
			return nil // disconnected graph
		}
		remaining = append(remaining[:nearestIdx], remaining[nearestIdx+1:]...)

		// Grow every tree in the beam toward the chosen connection with
		// its M-shortest attachments.
		targets := net.Conns[nearest]
		var next []Tree
		seen := map[string]bool{}
		for _, t := range beam {
			// Already connected through an equivalent pin?
			connected := false
			for _, u := range targets {
				if oracleHasNode(t, u) {
					connected = true
					break
				}
			}
			if connected {
				k := oracleTreeKey(t.Edges)
				if !seen[k] {
					seen[k] = true
					next = append(next, t)
				}
				continue
			}
			for _, p := range g.KShortestPaths(t.Nodes, targets, m) {
				nt := g.extend(t, p)
				k := oracleTreeKey(nt.Edges)
				if !seen[k] {
					seen[k] = true
					next = append(next, nt)
				}
			}
		}
		if len(next) == 0 {
			return nil // unroutable
		}
		sort.Slice(next, func(i, j int) bool {
			if next[i].Length != next[j].Length {
				return next[i].Length < next[j].Length
			}
			return oracleTreeKey(next[i].Edges) < oracleTreeKey(next[j].Edges)
		})
		if len(next) > m {
			next = next[:m]
		}
		beam = next
	}
	return beam
}

// oracleRoute is the router's two phases as they stood before the searcher
// kernel, without cancellation and telemetry (neither affects results).
func oracleRoute(g *oracleGraph, nets []Net, opt Options) (*Result, error) {
	opt.fill()
	res := &Result{
		Alternatives: make([][]Tree, len(nets)),
		Choice:       make([]int, len(nets)),
	}
	// Phase one: generate and store up to M alternatives per net.
	for i, net := range nets {
		alts := g.RouteNet(net, opt.M)
		if len(alts) == 0 {
			if len(net.Conns) > 0 {
				res.Unrouted = append(res.Unrouted, i)
			}
			alts = []Tree{{}} // degenerate empty route
		}
		res.Alternatives[i] = alts
	}
	if len(res.Unrouted) > 0 {
		return res, fmt.Errorf("route: %d nets unroutable on the channel graph", len(res.Unrouted))
	}

	// Phase two: random interchange (§4.2.2).
	density := make([]int, len(g.Edges))
	apply := func(i, k, sign int) {
		for _, e := range res.Alternatives[i][k].Edges {
			density[e] += sign
		}
	}
	var length int64
	for i := range nets {
		res.Choice[i] = 0
		apply(i, 0, +1)
		length += int64(res.Alternatives[i][0].Length)
	}
	excess := 0
	for ei, d := range density {
		if over := d - g.Edges[ei].Capacity; over > 0 {
			excess += over
		}
	}

	src := rng.New(opt.Seed)
	stall := 0
	limit := opt.M*len(nets) + 1
	// Nets using each edge, maintained lazily: recomputed per pick from
	// the density structures (N is small enough to scan).
	netsOnEdge := func(e int) []int {
		var out []int
		for i := range nets {
			for _, te := range res.Chosen(i).Edges {
				if te == e {
					out = append(out, i)
					break
				}
			}
		}
		return out
	}
	deltaX := func(i, k int) int {
		// Change in total excess if net i switches to alternative k.
		cur := res.Chosen(i).Edges
		next := res.Alternatives[i][k].Edges
		d := 0
		// Remove current, add next, over the union of affected edges.
		affected := map[int]int{}
		for _, e := range cur {
			affected[e]--
		}
		for _, e := range next {
			affected[e]++
		}
		for e, dd := range affected {
			if dd == 0 {
				continue
			}
			before := density[e]
			after := before + dd
			c := g.Edges[e].Capacity
			d += oracleExcessOf(after, c) - oracleExcessOf(before, c)
		}
		return d
	}

	for excess > 0 && stall < limit {
		res.Attempts++
		stall++
		// Random over-capacity edge.
		var overfull []int
		for ei, d := range density {
			if d > g.Edges[ei].Capacity {
				overfull = append(overfull, ei)
			}
		}
		if len(overfull) == 0 {
			break
		}
		e := overfull[src.Intn(len(overfull))]
		users := netsOnEdge(e)
		if len(users) == 0 {
			break
		}
		i := users[src.Intn(len(users))]
		// Alternatives with ΔX <= 0.
		var cand []int
		for k := range res.Alternatives[i] {
			if k == res.Choice[i] {
				continue
			}
			if deltaX(i, k) <= 0 {
				cand = append(cand, k)
			}
		}
		if len(cand) == 0 {
			continue
		}
		k := cand[src.Intn(len(cand))]
		dx := deltaX(i, k)
		dl := res.Alternatives[i][k].Length - res.Chosen(i).Length
		// Accept if ΔX<0, or ΔX=0 and ΔL<=0.
		if dx < 0 || (dx == 0 && dl <= 0) {
			if dx < 0 || dl < 0 {
				stall = 0 // L or X changed
			}
			apply(i, res.Choice[i], -1)
			res.Choice[i] = k
			apply(i, k, +1)
			length += int64(dl)
			excess += dx
		}
	}

	res.Length = length
	res.Excess = excess
	res.EdgeDensity = density
	return res, nil
}

func oracleExcessOf(d, c int) int {
	if d > c {
		return d - c
	}
	return 0
}

// OracleRoute routes nets on g with the oracle router. Exported for the
// external differential test, which needs packages that import route.
func OracleRoute(g *Graph, nets []Net, opt Options) (*Result, error) {
	og, err := newOracleGraph(g.NumNodes, g.Edges)
	if err != nil {
		return nil, err
	}
	return oracleRoute(og, nets, opt)
}
