package route

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// diffCase is one fuzzed routing instance: a multigraph, possibly
// disconnected, with many equal-length ties (lengths 0–3) and tight
// capacities, and nets whose connections have several equivalent
// candidates.
type diffCase struct {
	numNodes int
	edges    []Edge
	nets     []Net
	m        int
}

func newDiffCase(seed uint64, size, netCount, m uint8) diffCase {
	src := rng.New(seed)
	n := 2 + int(size%40)
	var edges []Edge
	for u := 1; u < n; u++ {
		if src.Bool(0.95) { // occasionally leave a node cut off
			edges = append(edges, Edge{U: src.Intn(u), V: u, Length: src.Intn(4), Capacity: src.Intn(4)})
		}
	}
	for k := src.Intn(2 * n); k > 0; k-- {
		// Chords, parallel edges and the odd self-loop.
		edges = append(edges, Edge{U: src.Intn(n), V: src.Intn(n), Length: src.Intn(4), Capacity: src.Intn(4)})
	}
	c := diffCase{numNodes: n, edges: edges, m: 1 + int(m%8)}
	for i := 0; i < 1+int(netCount%12); i++ {
		net := Net{Name: fmt.Sprintf("n%d", i)}
		for j := src.Intn(6); j > 0; j-- {
			conn := []int{src.Intn(n)}
			for src.Bool(0.4) {
				conn = append(conn, src.Intn(n)) // equivalent pins, repeats allowed
			}
			net.Conns = append(net.Conns, conn)
		}
		c.nets = append(c.nets, net)
	}
	return c
}

// checkAgainstOracle compares the production router with the oracle on one
// case: Route at 1, 2 and 8 workers, RouteNet and KShortestPaths per net,
// and Distances.
func checkAgainstOracle(t *testing.T, c diffCase, seed uint64) {
	t.Helper()
	g, err := NewGraph(c.numNodes, c.edges)
	if err != nil {
		t.Fatal(err)
	}
	og, err := newOracleGraph(c.numNodes, c.edges)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{M: c.m, Seed: seed}
	want, wantErr := oracleRoute(og, c.nets, opt)
	for _, w := range []int{1, 2, 8} {
		opt.Workers = w
		got, err := Route(g, c.nets, opt)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("workers=%d: err = %v, oracle err = %v", w, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Result differs from the oracle's\n got %+v\nwant %+v", w, got, want)
		}
	}
	for i, net := range c.nets {
		if got, want := g.RouteNet(net, c.m), og.RouteNet(net, c.m); !reflect.DeepEqual(got, want) {
			t.Fatalf("net %d: RouteNet = %v, oracle %v", i, got, want)
		}
		if len(net.Conns) < 2 {
			continue
		}
		got := g.KShortestPaths(net.Conns[0], net.Conns[1], c.m)
		want := og.KShortestPaths(net.Conns[0], net.Conns[1], c.m)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("net %d: KShortestPaths = %v, oracle %v", i, got, want)
		}
		if got, want := g.Distances(net.Conns[0]), og.Distances(net.Conns[0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("net %d: Distances = %v, oracle %v", i, got, want)
		}
	}
}

func TestRouteMatchesOracleFuzzedGraphs(t *testing.T) {
	src := rng.New(20240)
	for k := 0; k < 300; k++ {
		seed := src.Uint64()
		c := newDiffCase(seed, uint8(src.Intn(256)), uint8(src.Intn(256)), uint8(src.Intn(256)))
		checkAgainstOracle(t, c, seed)
	}
}

// TestRouteMatchesOracleGrid covers the tie-heavy case of a uniform grid,
// where many equal-length paths compete and only the heap's exact pop
// order decides between them.
func TestRouteMatchesOracleGrid(t *testing.T) {
	var edges []Edge
	const w, h = 7, 6
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, Edge{U: id(x, y), V: id(x+1, y), Length: 1, Capacity: 1})
			}
			if y+1 < h {
				edges = append(edges, Edge{U: id(x, y), V: id(x, y+1), Length: 1, Capacity: 1})
			}
		}
	}
	c := diffCase{numNodes: w * h, edges: edges, m: 10}
	src := rng.New(7)
	for i := 0; i < 14; i++ {
		var net Net
		for j := 0; j < 2+src.Intn(4); j++ {
			net.Conns = append(net.Conns, []int{src.Intn(w * h), src.Intn(w * h)})
		}
		c.nets = append(c.nets, net)
	}
	checkAgainstOracle(t, c, 3)
}

func FuzzRouteOracle(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(4), uint8(3))
	f.Add(uint64(42), uint8(39), uint8(11), uint8(7))
	f.Add(uint64(7), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, size, nets, m uint8) {
		checkAgainstOracle(t, newDiffCase(seed, size, nets, m), seed)
	})
}

// TestShortestPathZeroAllocs pins the kernel's allocation-free contract: a
// warmed searcher runs a banned spur search and traces its path without
// allocating.
func TestShortestPathZeroAllocs(t *testing.T) {
	g := gridGraph(t, 12, 12, 1, 4)
	s := newSearcher(g)
	s.setDsts([]int{143, 131})
	spur := func() {
		s.newBans()
		s.ban(0)
		s.ban(1)
		s.banEdge[g.arcs[g.off[13]].edge] = s.banEpoch
		end, ok := s.shortestPath(13)
		if !ok {
			t.Fatal("no path")
		}
		s.trace(end)
	}
	spur() // warm the heap and trace buffers
	if allocs := testing.AllocsPerRun(100, spur); allocs != 0 {
		t.Fatalf("spur search allocates %.1f times per run, want 0", allocs)
	}
}

// TestSearcherEpochWrap runs k-shortest searches while every epoch counter
// wraps around: stale stamps must be cleared, never mistaken for live ones.
func TestSearcherEpochWrap(t *testing.T) {
	g := gridGraph(t, 6, 6, 1, 2)
	og, err := newOracleGraph(g.NumNodes, g.Edges)
	if err != nil {
		t.Fatal(err)
	}
	s := newSearcher(g)
	const near = ^uint32(0) - 3
	s.epoch, s.banEpoch, s.dstEpoch = near, near, near
	for i := 0; i < 12; i++ {
		srcs, dsts := []int{i, i + 1}, []int{35 - i}
		s.setDsts(dsts)
		got := s.kShortestFrom(srcs, 4)
		want := og.KShortestPaths(srcs, dsts, 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("search %d (epochs %d/%d/%d): %v, oracle %v",
				i, s.epoch, s.banEpoch, s.dstEpoch, got, want)
		}
	}
	if s.epoch > near || s.banEpoch > near || s.dstEpoch > near {
		t.Fatalf("epochs %d/%d/%d did not wrap", s.epoch, s.banEpoch, s.dstEpoch)
	}
}
