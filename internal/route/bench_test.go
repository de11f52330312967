package route

import "testing"

func benchGrid(b *testing.B, w, h int) *Graph {
	b.Helper()
	var edges []Edge
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, Edge{U: id(x, y), V: id(x+1, y), Length: 1, Capacity: 4})
			}
			if y+1 < h {
				edges = append(edges, Edge{U: id(x, y), V: id(x, y+1), Length: 1, Capacity: 4})
			}
		}
	}
	g, err := NewGraph(w*h, edges)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkDijkstra(b *testing.B) {
	g := benchGrid(b, 20, 20)
	for i := 0; i < b.N; i++ {
		_ = g.Distances([]int{0})
	}
}

// BenchmarkSpurSearch is one Yen spur search on a warmed searcher: a
// Dijkstra with node and edge bans, stopped at the first destination, plus
// the path trace. It must stay allocation-free.
func BenchmarkSpurSearch(b *testing.B) {
	g := benchGrid(b, 20, 20)
	s := newSearcher(g)
	s.setDsts([]int{399, 380})
	spur := func() {
		s.newBans()
		s.ban(0)
		s.ban(1)
		s.banEdge[g.arcs[g.off[21]].edge] = s.banEpoch
		end, ok := s.shortestPath(21)
		if !ok {
			b.Fatal("no path")
		}
		s.trace(end)
	}
	spur() // warm the heap and trace buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spur()
	}
}

func BenchmarkKShortest10(b *testing.B) {
	g := benchGrid(b, 12, 12)
	for i := 0; i < b.N; i++ {
		_ = g.KShortestPaths([]int{0}, []int{143}, 10)
	}
}

func BenchmarkRouteNet4Pin(b *testing.B) {
	g := benchGrid(b, 12, 12)
	net := Net{Name: "b", Conns: [][]int{{0}, {11}, {132}, {143}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.RouteNet(net, 10)
	}
}

func BenchmarkRoutePhase2(b *testing.B) {
	g := benchGrid(b, 10, 10)
	var nets []Net
	for k := 0; k < 20; k++ {
		nets = append(nets, Net{
			Name:  "n",
			Conns: [][]int{{k % 10}, {90 + k%10}},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One worker: the allocation count must not depend on the CPU count.
		if _, err := Route(g, nets, Options{M: 6, Seed: uint64(i), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
