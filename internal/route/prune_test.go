package route

import (
	"reflect"
	"testing"
)

// TestBeamSkipIsStrict pins the tie case of the beam bound. The start
// connection has two candidates, so the first Prim step grows two seed
// trees toward c. Seed a1 (bound 1) grows first and yields {e1} (length 1)
// and {e2, e3} (length 2), so the 2nd best length is 2. Seed a2's bound is
// exactly 2, and its only tree {e0} ties {e2, e3} on length and wins on
// treeKeyLess. Skipping a tree whose bound merely equals the m-th best
// length would keep {e2, e3} instead.
func TestBeamSkipIsStrict(t *testing.T) {
	const a1, a2, c, x = 0, 1, 2, 3
	edges := []Edge{
		{U: a2, V: c, Length: 2}, // e0
		{U: a1, V: c, Length: 1}, // e1
		{U: a1, V: x, Length: 1}, // e2
		{U: x, V: c, Length: 1},  // e3
	}
	g, err := NewGraph(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	og, err := newOracleGraph(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	net := Net{Conns: [][]int{{a1, a2}, {c}}}
	s := newSearcher(g)
	got := s.routeNet(net, 2)
	want := []Tree{
		{Edges: []int{1}, Nodes: []int{a1, c}, Length: 1},
		{Edges: []int{0}, Nodes: []int{a2, c}, Length: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("routeNet = %v, want %v", got, want)
	}
	if o := og.RouteNet(net, 2); !reflect.DeepEqual(got, o) {
		t.Fatalf("routeNet = %v, oracle %v", got, o)
	}
	if s.stats.yenCalls != 2 || s.stats.yenSkipped != 0 {
		t.Fatalf("yen calls %d, skipped %d; want both seeds grown",
			s.stats.yenCalls, s.stats.yenSkipped)
	}
}

// TestYenPathReentersTree pins a Yen path that re-enters its partial tree.
// The first Prim step (4 to 1) keeps three trees; the third, t = {e0, e1,
// e2, e3} of length 11, grows toward 5 in the second step. Its third Yen
// path 2-6-0-1-5 (length 6) leaves t at 2 and re-enters it at 0, then runs
// along t's edge e0, which the grown tree does not count again: the tree
// is 16 long, not L(t) + 6 = 17. It ties {e0, e2, e3, e4, e5, e6, e7} on
// length and wins on treeKeyLess, so it is the 4th of the m = 4 kept
// trees, shorter than the 17 a per-path bound L(t) + p_j.Length would give
// it. By the time that path comes up, the trees of lengths 12, 13, 14 and
// 16 are all known, so a cut on that bound would lose it.
func TestYenPathReentersTree(t *testing.T) {
	edges := []Edge{
		{U: 0, V: 1, Length: 1}, // e0
		{U: 0, V: 2, Length: 4}, // e1
		{U: 2, V: 3, Length: 4}, // e2
		{U: 3, V: 4, Length: 2}, // e3
		{U: 1, V: 5, Length: 3}, // e4
		{U: 2, V: 6, Length: 1}, // e5
		{U: 1, V: 2, Length: 4}, // e6
		{U: 6, V: 0, Length: 1}, // e7
	}
	g, err := NewGraph(7, edges)
	if err != nil {
		t.Fatal(err)
	}
	og, err := newOracleGraph(7, edges)
	if err != nil {
		t.Fatal(err)
	}
	const m = 4
	net := Net{Conns: [][]int{{4}, {1}, {5}}}
	got := g.RouteNet(net, m)
	want := []Tree{
		{Edges: []int{0, 2, 3, 4, 5, 7}, Nodes: []int{0, 1, 2, 3, 4, 5, 6}, Length: 12},
		{Edges: []int{2, 3, 4, 6}, Nodes: []int{1, 2, 3, 4, 5}, Length: 13},
		{Edges: []int{0, 1, 2, 3, 4}, Nodes: []int{0, 1, 2, 3, 4, 5}, Length: 14},
		{Edges: []int{0, 1, 2, 3, 4, 5, 7}, Nodes: []int{0, 1, 2, 3, 4, 5, 6}, Length: 16},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RouteNet = %v, want %v", got, want)
	}
	if o := og.RouteNet(net, m); !reflect.DeepEqual(got, o) {
		t.Fatalf("RouteNet = %v, oracle %v", got, o)
	}

	// The path and the tree it grows, as the second step sees them.
	tr := Tree{Edges: []int{0, 1, 2, 3}, Nodes: []int{0, 1, 2, 3, 4}, Length: 11}
	s := newSearcher(g)
	s.setDsts([]int{5})
	s.treeSet.reset()
	paths := s.kShortestFrom(tr.Nodes, m)
	if len(paths) < 3 || !reflect.DeepEqual(paths[2].Nodes, []int{2, 6, 0, 1, 5}) {
		t.Fatalf("Yen paths from t = %v, want 2-6-0-1-5 third", paths)
	}
	grown, ok := s.extend(tr, paths[2])
	if !ok || !reflect.DeepEqual(grown, want[m-1]) {
		t.Fatalf("t grown by 2-6-0-1-5 = %v, want the kept %v", grown, want[m-1])
	}
	if naive := tr.Length + paths[2].Length; naive <= grown.Length {
		t.Fatalf("L(t) + path length = %d: does not overestimate the %d-long kept tree", naive, grown.Length)
	}
}
