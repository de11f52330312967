package route

import (
	"cmp"
	"math/bits"
	"slices"
)

// Net is one net to route: each connection is a set of electrically-
// equivalent candidate nodes, any one of which satisfies the connection
// (Figure 10: pins P3A and P3B form one group).
type Net struct {
	Name  string
	Conns [][]int
}

// Tree is one alternative route for a net: a set of graph edges connecting
// at least one candidate node of every connection.
type Tree struct {
	Edges  []int // sorted, unique
	Nodes  []int // sorted, unique: all nodes touched
	Length int
}

func (t Tree) hasNode(u int) bool {
	_, ok := slices.BinarySearch(t.Nodes, u)
	return ok
}

// treeKeyLess orders edge lists as their tree keys compare: each id encoded
// as 4 little-endian bytes and the concatenations compared as byte strings.
// It breaks ties between equal-length beam trees, so it decides which
// routes are kept; it must stay a byte-string order, not a numeric one —
// edge 256 (00 01 00 00) sorts before edge 1 (01 00 00 00).
func treeKeyLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if x, y := uint32(a[i]), uint32(b[i]); x != y {
			return bits.ReverseBytes32(x) < bits.ReverseBytes32(y)
		}
	}
	return len(a) < len(b)
}

// treeCmp is the beam order: length, then treeKeyLess. It is a strict total
// order over distinct edge sets.
func treeCmp(a, b Tree) int {
	if c := cmp.Compare(a.Length, b.Length); c != 0 {
		return c
	}
	switch {
	case treeKeyLess(a.Edges, b.Edges):
		return -1
	case treeKeyLess(b.Edges, a.Edges):
		return 1
	}
	return 0
}

// beamBound is a beam tree's lower bound on the length of every tree grown
// from it in one Prim step; tree indexes the beam, and grow is false when
// the tree already reaches the step's connection.
type beamBound struct {
	bound, tree int
	grow        bool
}

// keepSmallest adds l to best, the ascending list of the at most m smallest
// lengths seen so far.
func keepSmallest(best []int, m, l int) []int {
	if len(best) == m {
		if l >= best[m-1] {
			return best
		}
		best = best[:m-1]
	}
	i, _ := slices.BinarySearch(best, l)
	return slices.Insert(best, i, l)
}

// mergeUnion writes the sorted union of the sorted, duplicate-free lists a
// and b into dst[:0] and returns it.
func mergeUnion(dst, a, b []int) []int {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// extend grows tree t by path p unless the grown tree's edge set is already
// in treeSet; duplicate edges contribute no extra length. The new tree is
// added to treeSet.
func (s *searcher) extend(t Tree, p Path) (Tree, bool) {
	s.pathEdges = append(s.pathEdges[:0], p.Edges...)
	slices.Sort(s.pathEdges)
	s.mergeEdges = mergeUnion(s.mergeEdges, t.Edges, s.pathEdges)
	h, dup := s.treeSet.has(s.mergeEdges)
	if dup {
		return Tree{}, false
	}
	s.pathNodes = append(s.pathNodes[:0], p.Nodes...)
	slices.Sort(s.pathNodes)
	// One allocation holds both lists: edges first, then nodes.
	buf := make([]int, len(s.mergeEdges), len(s.mergeEdges)+len(t.Nodes)+len(s.pathNodes))
	copy(buf, s.mergeEdges)
	nodes := mergeUnion(buf[len(buf):], t.Nodes, s.pathNodes)
	out := Tree{Edges: buf[:len(buf):len(buf)], Nodes: nodes[:len(nodes):len(nodes)]}
	for _, e := range out.Edges {
		out.Length += s.g.Edges[e].Length
	}
	s.treeSet.insert(h, out.Edges)
	return out, true
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
func (g *Graph) RouteNet(net Net, m int) []Tree {
	return newSearcher(g).routeNet(net, m)
}

func (s *searcher) routeNet(net Net, m int) []Tree {
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
	for _, u := range start {
		if !slices.ContainsFunc(beam, func(t Tree) bool { return t.Nodes[0] == u }) {
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
		s.distances(beam[0].Nodes)
		nearest, nearestIdx, nd := -1, -1, inf+1
		for idx, ci := range remaining {
			d := inf
			for _, u := range net.Conns[ci] {
				if du := s.distTo(u); du < d {
					d = du
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
		// its M-shortest attachments, skipping the trees that cannot make
		// the cut (DESIGN.md §7). A tree grown from t is t plus a path
		// whose suffix after its last tree node has no edge of t and is at
		// least d(t, targets) long, so it is never shorter than
		// L(t) + d(t, targets). Trees are grown in ascending bound, ties
		// in beam order; once a bound is strictly above the m-th smallest
		// length found, no later tree can yield one of the m best (an
		// equal bound can still win its tie on treeKeyLess). The kept
		// trees are the m first distinct edge sets under treeCmp, a total
		// order, so they do not depend on the growth order.
		targets := net.Conns[nearest]
		s.setDsts(targets)
		s.treeSet.reset()
		order := s.order[:0]
		for i, t := range beam {
			grow := !slices.ContainsFunc(targets, t.hasNode)
			d := 0
			switch {
			case i == 0:
				d = nd // the Prim search above started from beam[0]
			case grow:
				d = s.distFrom(t.Nodes)
			}
			if d == inf {
				continue // no attachment: Yen would find no path
			}
			order = append(order, beamBound{bound: t.Length + d, tree: i, grow: grow})
		}
		slices.SortFunc(order, func(a, b beamBound) int {
			return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.tree, b.tree))
		})
		s.order = order
		var next []Tree
		best := s.best[:0]
		for j, o := range order {
			if len(best) == m && o.bound > best[m-1] {
				for _, rest := range order[j:] {
					if rest.grow {
						s.stats.yenSkipped++
					}
				}
				break
			}
			t := beam[o.tree]
			if !o.grow {
				if h, dup := s.treeSet.has(t.Edges); !dup {
					s.treeSet.insert(h, t.Edges)
					next = append(next, t)
					best = keepSmallest(best, m, t.Length)
				}
				continue
			}
			s.stats.yenCalls++
			for _, p := range s.kShortestFrom(t.Nodes, m) {
				if nt, ok := s.extend(t, p); ok {
					next = append(next, nt)
					best = keepSmallest(best, m, nt.Length)
				}
			}
		}
		s.best = best
		if len(next) == 0 {
			return nil // unroutable
		}
		slices.SortFunc(next, treeCmp)
		if len(next) > m {
			next = next[:m]
		}
		beam = next
	}
	return beam
}
