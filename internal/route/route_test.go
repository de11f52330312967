package route

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
)

// gridGraph builds a w×h grid with the given uniform edge length and
// capacity; node (x,y) has id y*w+x.
func gridGraph(t testing.TB, w, h, length, capacity int) *Graph {
	t.Helper()
	var edges []Edge
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, Edge{U: id(x, y), V: id(x+1, y), Length: length, Capacity: capacity})
			}
			if y+1 < h {
				edges = append(edges, Edge{U: id(x, y), V: id(x, y+1), Length: length, Capacity: capacity})
			}
		}
	}
	g, err := NewGraph(w*h, edges)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	return g
}

// searchPath runs one unbanned searcher search from src to dst.
func searchPath(g *Graph, src, dst int) (Path, bool) {
	s := newSearcher(g)
	s.setDsts([]int{dst})
	s.newBans()
	end, ok := s.shortestPath(src)
	if !ok {
		return Path{}, false
	}
	s.trace(end)
	return Path{Nodes: s.tailNodes, Edges: s.tailEdges, Length: s.node[end].dist}, true
}

func TestShortestPathGrid(t *testing.T) {
	g := gridGraph(t, 4, 4, 1, 10)
	p, ok := searchPath(g, 0, 15)
	if !ok {
		t.Fatal("no path")
	}
	if p.Length != 6 {
		t.Fatalf("path length = %d want 6", p.Length)
	}
	if len(p.Nodes) != 7 || len(p.Edges) != 6 {
		t.Fatalf("path shape wrong: %d nodes %d edges", len(p.Nodes), len(p.Edges))
	}
	if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 15 {
		t.Fatalf("path endpoints wrong: %v", p.Nodes)
	}
}

func TestShortestPathSourceIsTarget(t *testing.T) {
	g := gridGraph(t, 3, 3, 1, 10)
	p, ok := searchPath(g, 4, 4)
	if !ok || p.Length != 0 || len(p.Nodes) != 1 {
		t.Fatalf("degenerate path wrong: %+v ok=%v", p, ok)
	}
}

func TestDistances(t *testing.T) {
	g := gridGraph(t, 4, 1, 3, 10)
	d := g.Distances([]int{0})
	want := []int{0, 3, 6, 9}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("dist[%d] = %d want %d", i, d[i], w)
		}
	}
	// Disconnected node.
	g2, _ := NewGraph(3, []Edge{{U: 0, V: 1, Length: 1, Capacity: 1}})
	d2 := g2.Distances([]int{0})
	if d2[2] != Unreachable {
		t.Fatalf("unreachable distance = %d", d2[2])
	}
}

// bruteSimplePaths enumerates all simple paths between src and dst.
func bruteSimplePaths(g *Graph, src, dst int) []Path {
	var out []Path
	visited := make([]bool, g.NumNodes)
	var nodes, edges []int
	length := 0
	var dfs func(u int)
	dfs = func(u int) {
		visited[u] = true
		nodes = append(nodes, u)
		if u == dst {
			out = append(out, Path{
				Nodes:  append([]int(nil), nodes...),
				Edges:  append([]int(nil), edges...),
				Length: length,
			})
		} else {
			for _, ei := range g.Adj(u) {
				v := g.Other(ei, u)
				if visited[v] {
					continue
				}
				edges = append(edges, ei)
				length += g.Edges[ei].Length
				dfs(v)
				length -= g.Edges[ei].Length
				edges = edges[:len(edges)-1]
			}
		}
		nodes = nodes[:len(nodes)-1]
		visited[u] = false
	}
	dfs(src)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Length < out[j].Length })
	return out
}

func TestKShortestMatchesBruteForce(t *testing.T) {
	// Random small graphs: the k shortest loopless path lengths must
	// match exhaustive enumeration.
	src := rng.New(77)
	for trial := 0; trial < 25; trial++ {
		n := 5 + src.Intn(4)
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if src.Bool(0.5) {
					edges = append(edges, Edge{U: u, V: v, Length: 1 + src.Intn(9), Capacity: 9})
				}
			}
		}
		g, err := NewGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteSimplePaths(g, 0, n-1)
		const k = 6
		got := g.KShortestPaths([]int{0}, []int{n - 1}, k)
		wantK := len(want)
		if wantK > k {
			wantK = k
		}
		if len(got) != wantK {
			t.Fatalf("trial %d: got %d paths want %d", trial, len(got), wantK)
		}
		for i := range got {
			if got[i].Length != want[i].Length {
				t.Fatalf("trial %d path %d: length %d want %d",
					trial, i, got[i].Length, want[i].Length)
			}
		}
	}
}

func TestKShortestLoopless(t *testing.T) {
	g := gridGraph(t, 4, 4, 1, 10)
	paths := g.KShortestPaths([]int{0}, []int{15}, 25)
	if len(paths) < 10 {
		t.Fatalf("only %d paths", len(paths))
	}
	prev := 0
	for _, p := range paths {
		if p.Length < prev {
			t.Fatal("paths not sorted by length")
		}
		prev = p.Length
		seen := map[int]bool{}
		for _, u := range p.Nodes {
			if seen[u] {
				t.Fatalf("path revisits node %d: %v", u, p.Nodes)
			}
			seen[u] = true
		}
		// Consecutive nodes must be joined by the listed edges.
		for i, ei := range p.Edges {
			e := g.Edges[ei]
			a, b := p.Nodes[i], p.Nodes[i+1]
			if !((e.U == a && e.V == b) || (e.U == b && e.V == a)) {
				t.Fatalf("edge %d does not join %d-%d", ei, a, b)
			}
		}
	}
	// All distinct.
	keys := map[string]bool{}
	for _, p := range paths {
		k := fmt.Sprint(p.Nodes)
		if keys[k] {
			t.Fatal("duplicate path returned")
		}
		keys[k] = true
	}
}

func TestKShortestMultiSourceTarget(t *testing.T) {
	// Line 0-1-2-3-4-5: sources {0,4}, targets {5}: best path is 4-5.
	g := gridGraph(t, 6, 1, 2, 10)
	paths := g.KShortestPaths([]int{0, 4}, []int{5}, 3)
	if len(paths) != 2 {
		t.Fatalf("got %d paths want 2 (one per source): %+v", len(paths), paths)
	}
	if paths[0].Length != 2 || paths[0].Nodes[0] != 4 {
		t.Fatalf("best path %+v, want start at 4 with length 2", paths[0])
	}
	// The alternative from the other source must be enumerated too (the
	// super-source construction; plain Yen would miss it).
	if paths[1].Length != 10 || paths[1].Nodes[0] != 0 {
		t.Fatalf("second path %+v, want start at 0 with length 10", paths[1])
	}
}

func TestKShortestMultiSourceBruteForce(t *testing.T) {
	// Multi-source k-shortest must equal the merged brute-force
	// enumeration over all sources.
	src := rng.New(123)
	for trial := 0; trial < 15; trial++ {
		n := 6 + src.Intn(3)
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if src.Bool(0.55) {
					edges = append(edges, Edge{U: u, V: v, Length: 1 + src.Intn(9), Capacity: 9})
				}
			}
		}
		g, err := NewGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		want := append(bruteSimplePaths(g, 0, n-1), bruteSimplePaths(g, 1, n-1)...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Length < want[j].Length })
		const k = 5
		got := g.KShortestPaths([]int{0, 1}, []int{n - 1}, k)
		wantK := len(want)
		if wantK > k {
			wantK = k
		}
		if len(got) != wantK {
			t.Fatalf("trial %d: got %d paths want %d", trial, len(got), wantK)
		}
		for i := range got {
			if got[i].Length != want[i].Length {
				t.Fatalf("trial %d path %d: length %d want %d",
					trial, i, got[i].Length, want[i].Length)
			}
		}
	}
}

func TestRouteNetTwoPin(t *testing.T) {
	g := gridGraph(t, 5, 5, 1, 10)
	net := Net{Name: "n", Conns: [][]int{{0}, {24}}}
	trees := g.RouteNet(net, 5)
	if len(trees) == 0 {
		t.Fatal("no trees")
	}
	if trees[0].Length != 8 {
		t.Fatalf("best tree length = %d want 8", trees[0].Length)
	}
	for i := 1; i < len(trees); i++ {
		if trees[i].Length < trees[i-1].Length {
			t.Fatal("trees not sorted")
		}
	}
}

func TestRouteNetEquivalentPins(t *testing.T) {
	// Equivalent targets {20 (far), 4 (near)} from source 0 on a 5x5 grid:
	// the route must use the nearer equivalent.
	g := gridGraph(t, 5, 5, 1, 10)
	net := Net{Name: "n", Conns: [][]int{{0}, {24, 4}}}
	trees := g.RouteNet(net, 3)
	if len(trees) == 0 {
		t.Fatal("no trees")
	}
	if trees[0].Length != 4 {
		t.Fatalf("equivalent-pin route length = %d want 4 (via node 4)", trees[0].Length)
	}
	if !trees[0].hasNode(4) {
		t.Fatal("route skipped the near equivalent pin")
	}
}

func TestRouteNetSteinerQuality(t *testing.T) {
	// 3 pins at the corners of an L on a 5x5 unit grid: nodes 0 (0,0),
	// 4 (4,0), 20 (0,4). The minimal Steiner tree uses the two arms of
	// the L: length 8.
	g := gridGraph(t, 5, 5, 1, 10)
	net := Net{Name: "n", Conns: [][]int{{0}, {4}, {20}}}
	trees := g.RouteNet(net, 10)
	if len(trees) == 0 {
		t.Fatal("no trees")
	}
	if trees[0].Length != 8 {
		t.Fatalf("Steiner length = %d want 8", trees[0].Length)
	}
	// 4 pins at the grid corners: minimal Steiner length on the grid is
	// 12 (an H or U shape).
	net4 := Net{Name: "n4", Conns: [][]int{{0}, {4}, {20}, {24}}}
	trees4 := g.RouteNet(net4, 10)
	if trees4[0].Length != 12 {
		t.Fatalf("4-corner Steiner length = %d want 12", trees4[0].Length)
	}
}

func TestRouteNetAlternativesDistinct(t *testing.T) {
	g := gridGraph(t, 4, 4, 1, 10)
	net := Net{Name: "n", Conns: [][]int{{0}, {15}}}
	trees := g.RouteNet(net, 8)
	seen := map[string]bool{}
	for _, tr := range trees {
		k := fmt.Sprint(tr.Edges)
		if seen[k] {
			t.Fatal("duplicate alternative")
		}
		seen[k] = true
	}
	if len(trees) != 8 {
		t.Fatalf("got %d alternatives want 8", len(trees))
	}
}

func TestRoutePhase2ResolvesCongestion(t *testing.T) {
	// Two parallel corridors between s and t. Corridor A is shorter but
	// has capacity 1; corridor B longer with capacity 1. Two identical
	// nets: one must divert to B.
	//
	//    s(0) --1-- 1 --1-- t(2)     (corridor A, cap 1 per edge)
	//     \--2-- 3 --2--/            (corridor B, cap 1 per edge)
	edges := []Edge{
		{U: 0, V: 1, Length: 1, Capacity: 1},
		{U: 1, V: 2, Length: 1, Capacity: 1},
		{U: 0, V: 3, Length: 2, Capacity: 1},
		{U: 3, V: 2, Length: 2, Capacity: 1},
	}
	g, err := NewGraph(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	nets := []Net{
		{Name: "a", Conns: [][]int{{0}, {2}}},
		{Name: "b", Conns: [][]int{{0}, {2}}},
	}
	res, err := Route(g, nets, Options{M: 4, Seed: 1})
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if res.Excess != 0 {
		t.Fatalf("excess = %d want 0", res.Excess)
	}
	// One net on each corridor: total length 2 + 4 = 6.
	if res.Length != 6 {
		t.Fatalf("total length = %d want 6", res.Length)
	}
	for ei, d := range res.EdgeDensity {
		if d > g.Edges[ei].Capacity {
			t.Fatalf("edge %d over capacity: %d > %d", ei, d, g.Edges[ei].Capacity)
		}
	}
}

func TestRouteNoCongestionKeepsShortest(t *testing.T) {
	g := gridGraph(t, 4, 4, 1, 100)
	nets := []Net{
		{Name: "a", Conns: [][]int{{0}, {15}}},
		{Name: "b", Conns: [][]int{{3}, {12}}},
	}
	res, err := Route(g, nets, Options{M: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With ample capacity every net keeps its k=1 (shortest) route and
	// phase two exits immediately (§4.2.2 stopping criterion 1).
	if res.Choice[0] != 0 || res.Choice[1] != 0 {
		t.Fatalf("choices = %v want all 0", res.Choice)
	}
	if res.Attempts != 0 {
		t.Fatalf("attempts = %d want 0", res.Attempts)
	}
	if res.Length != 12 {
		t.Fatalf("length = %d want 12", res.Length)
	}
}

func TestRouteInfeasibleStops(t *testing.T) {
	// One edge of capacity 1 is the only link; two nets need it: X cannot
	// reach 0 and the stall criterion must end the run.
	g, _ := NewGraph(2, []Edge{{U: 0, V: 1, Length: 1, Capacity: 1}})
	nets := []Net{
		{Name: "a", Conns: [][]int{{0}, {1}}},
		{Name: "b", Conns: [][]int{{0}, {1}}},
	}
	res, err := Route(g, nets, Options{M: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Excess != 1 {
		t.Fatalf("excess = %d want 1", res.Excess)
	}
}

func TestRouteUnroutableNet(t *testing.T) {
	g, _ := NewGraph(4, []Edge{{U: 0, V: 1, Length: 1, Capacity: 1}})
	nets := []Net{{Name: "a", Conns: [][]int{{0}, {3}}}}
	_, err := Route(g, nets, Options{M: 2, Seed: 4})
	if err == nil {
		t.Fatal("unroutable net not reported")
	}
}

func TestRouteDeterministic(t *testing.T) {
	g := gridGraph(t, 5, 5, 1, 1)
	nets := []Net{
		{Name: "a", Conns: [][]int{{0}, {24}}},
		{Name: "b", Conns: [][]int{{4}, {20}}},
		{Name: "c", Conns: [][]int{{2}, {22}}},
	}
	r1, err1 := Route(g, nets, Options{M: 8, Seed: 9})
	r2, err2 := Route(g, nets, Options{M: 8, Seed: 9})
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if r1.Length != r2.Length || r1.Excess != r2.Excess {
		t.Fatal("routing not deterministic")
	}
	for i := range r1.Choice {
		if r1.Choice[i] != r2.Choice[i] {
			t.Fatal("choices differ across identical runs")
		}
	}
}

// TestFigure10FivePinNet reproduces the §4.2.1 walkthrough: a five-pin net
// with four distinct pin groups (P3A and P3B electrically equivalent) on a
// grid-like channel graph. The router must exploit the equivalent pair and
// find the minimal Steiner route among its M alternatives.
func TestFigure10FivePinNet(t *testing.T) {
	// A 6x4 grid (24 nodes) standing in for Figure 10's channel graph.
	g := gridGraph(t, 6, 4, 1, 10)
	id := func(x, y int) int { return y*6 + x }
	p2 := id(0, 0)  // starting pin (paper: P2 selected first)
	p1 := id(0, 3)  // nearest next pin
	p3a := id(3, 0) // equivalent pair: one near the bottom...
	p3b := id(3, 3) // ...one near the top
	p4 := id(5, 1)
	net := Net{Name: "fig10", Conns: [][]int{{p2}, {p1}, {p3a, p3b}, {p4}}}
	trees := g.RouteNet(net, 20)
	if len(trees) == 0 {
		t.Fatal("no routes")
	}
	best := trees[0]
	// Minimal tree: P2-P1 along x=0 (3), P2-P3A along y=0 (3), P3A-P4
	// (2 right + 1 up = 3): total 9, using P3A and skipping P3B.
	if best.Length != 9 {
		t.Fatalf("best route length = %d want 9 (tree %+v)", best.Length, best)
	}
	if !best.hasNode(p3a) {
		t.Fatal("route did not use the near equivalent pin P3A")
	}
	// All alternatives connect every pin group.
	for _, tr := range trees {
		for ci, conn := range net.Conns {
			ok := false
			for _, u := range conn {
				if tr.hasNode(u) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("alternative misses conn %d", ci)
			}
		}
	}
}
