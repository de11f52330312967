// Package route implements the paper's new general-purpose global router
// (§4.2). The router is independent of the layout style: its only inputs are
// a net list and a channel graph. Phase one generates and stores M
// alternative routes per net — k-shortest loopless paths (Yen's deviation
// scheme) for two-pin nets, and a Prim-ordered recursive generalization for
// multi-pin nets, with full use of electrically-equivalent pins. Phase two
// selects one alternative per net by random interchange, minimizing total
// routing length subject to the channel-edge capacity constraints, which
// avoids the classical net-routing-order dependence problem.
package route

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is a weighted, capacitated channel-graph edge.
type Edge struct {
	U, V     int
	Length   int
	Capacity int
}

// Graph is the routing graph. It is immutable once built, so any number of
// goroutines may route on it at once; all search state lives in a
// per-goroutine searcher.
type Graph struct {
	NumNodes int
	Edges    []Edge
	// off and arcs are the adjacency in compressed-row form: node u's
	// incident edges are arcs[off[u]:off[u+1]], in edge-id order.
	off  []int
	arcs []arc
}

// arc is one incident edge as seen from a node: the edge id, the opposite
// endpoint and the edge length.
type arc struct {
	edge, to int32
	length   int
}

// NewGraph builds a routing graph with the given node count and edges.
func NewGraph(numNodes int, edges []Edge) (*Graph, error) {
	g := &Graph{NumNodes: numNodes, Edges: append([]Edge(nil), edges...)}
	g.off = make([]int, numNodes+1)
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= numNodes || e.V < 0 || e.V >= numNodes {
			return nil, fmt.Errorf("route: edge %d endpoints out of range", i)
		}
		if e.Length < 0 {
			return nil, fmt.Errorf("route: edge %d has negative length", i)
		}
		g.off[e.U+1]++
		g.off[e.V+1]++
	}
	for u := 0; u < numNodes; u++ {
		g.off[u+1] += g.off[u]
	}
	g.arcs = make([]arc, 2*len(g.Edges))
	fill := append([]int(nil), g.off[:numNodes]...)
	for i, e := range g.Edges {
		g.arcs[fill[e.U]] = arc{edge: int32(i), to: int32(e.V), length: e.Length}
		fill[e.U]++
		g.arcs[fill[e.V]] = arc{edge: int32(i), to: int32(e.U), length: e.Length}
		fill[e.V]++
	}
	return g, nil
}

// Adj returns the incident edge ids of node u.
func (g *Graph) Adj(u int) []int {
	as := g.arcs[g.off[u]:g.off[u+1]]
	out := make([]int, len(as))
	for i, a := range as {
		out[i] = int(a.edge)
	}
	return out
}

// Other returns the endpoint of edge e opposite u.
func (g *Graph) Other(e, u int) int {
	if g.Edges[e].U == u {
		return g.Edges[e].V
	}
	return g.Edges[e].U
}

// Path is a simple path: the visited nodes and the edges between them
// (len(Edges) == len(Nodes)-1).
type Path struct {
	Nodes  []int
	Edges  []int
	Length int
}

const inf = int(^uint(0) >> 2)

// Unreachable is the sentinel distance returned by Distances for nodes that
// cannot be reached.
const Unreachable = inf

type pqItem struct {
	node int
	dist int
}

// searcher owns all mutable state of the router kernel, so that a Graph can
// be shared by concurrent phase-one workers. All per-node and per-edge state
// is epoch-stamped: a value counts only when its stamp equals the current
// epoch, so starting a new search, ban set or destination set costs one
// increment instead of an O(nodes) reset.
//
// The searcher also emulates a virtual super-source at node NumNodes for
// multi-source searches (see source). Once warmed up, a search allocates
// nothing.
type searcher struct {
	g     *Graph
	super int // the virtual super-source's node id (== g.NumNodes)
	// superSrcs are the super-source's neighbours, in order; virtual edge
	// len(g.Edges)+j joins it to superSrcs[j] with length 0. Nil when no
	// multi-source search is in progress.
	superSrcs []int

	// node holds the per-node state, one record per node so a relaxation
	// touches one cache line; the epochs below say which stamps are live.
	node []nodeState
	q    []pqItem
	// epoch stamps the Dijkstra state of the current search, banEpoch the
	// node and edge bans of the current spur search, and dstEpoch the
	// destination marks of the current k-shortest call.
	epoch, banEpoch, dstEpoch uint32
	banEdge                   []uint32

	// Yen scratch: the traced tail and the assembled full path, the set of
	// paths seen so far, the set of spur searches run so far (spurSig
	// assembles one's signature), and the accepted and candidate path
	// lists.
	tailNodes, tailEdges []int
	fullNodes, fullEdges []int
	pathSet              seqSet
	spurSet              seqSet
	spurSig              []int
	paths, cands, out    []Path
	// arena backs the Nodes and Edges of the paths kShortest returns, and
	// the spur signatures.
	arena []int
	used  int

	// Tree-growth scratch (steiner.go): the seen-tree set, merge buffers,
	// the beam trees in bound order, and the smallest tree lengths of the
	// current Prim step.
	treeSet              seqSet
	pathNodes, pathEdges []int
	mergeEdges           []int
	order                []beamBound
	best                 []int

	// stats counts the work of this searcher's phase-one nets.
	stats phaseOneStats
}

// phaseOneStats counts phase-one work for the observe-only per-pass
// counters: Yen calls made and skipped by the beam bound, spur searches
// run, and heap pops of every search.
type phaseOneStats struct {
	yenCalls, yenSkipped, spurSearches, heapPops int64
}

func (a *phaseOneStats) add(b phaseOneStats) {
	a.yenCalls += b.yenCalls
	a.yenSkipped += b.yenSkipped
	a.spurSearches += b.spurSearches
	a.heapPops += b.heapPops
}

// nodeState is one node's searcher state. dist and prev (the edge into the
// node on its shortest path, -1 at a source) are valid only when seen is the
// current epoch; the node is banned when ban is the current ban epoch and a
// destination when dst is the current destination epoch.
type nodeState struct {
	dist           int
	prev           int32
	seen, ban, dst uint32
}

func newSearcher(g *Graph) *searcher {
	return &searcher{
		g:       g,
		super:   g.NumNodes,
		node:    make([]nodeState, g.NumNodes+1), // +1: the super-source
		banEdge: make([]uint32, len(g.Edges)),
	}
}

// bump advances an epoch counter and reports whether it wrapped around, in
// which case the caller must zero the stamps it guards.
func bump(epoch *uint32) (wrapped bool) {
	*epoch++
	if *epoch == 0 {
		*epoch = 1
		return true
	}
	return false
}

// newBans starts an empty ban set.
func (s *searcher) newBans() {
	if bump(&s.banEpoch) {
		for i := range s.node {
			s.node[i].ban = 0
		}
		clear(s.banEdge)
	}
}

// ban bans node u in the current ban set.
func (s *searcher) ban(u int) { s.node[u].ban = s.banEpoch }

// setDsts makes dsts the destination set of subsequent searches.
func (s *searcher) setDsts(dsts []int) {
	if bump(&s.dstEpoch) {
		for i := range s.node {
			s.node[i].dst = 0
		}
	}
	for _, d := range dsts {
		if d >= 0 && d < s.g.NumNodes {
			s.node[d].dst = s.dstEpoch
		}
	}
}

// edgeLen and other extend Edges[e].Length and Graph.Other to the
// super-source's virtual edges.
func (s *searcher) edgeLen(e int) int {
	if e >= len(s.g.Edges) {
		return 0
	}
	return s.g.Edges[e].Length
}

func (s *searcher) other(e, u int) int {
	if e >= len(s.g.Edges) {
		if u == s.super {
			return s.superSrcs[e-len(s.g.Edges)]
		}
		return s.super
	}
	return s.g.Other(e, u)
}

// push and pop are container/heap's Push and Pop on a []pqItem ordered by
// dist, with up and down copied line for line: the pop order among equal
// distances — and with it which of several equal-length paths a search
// returns — is exactly the one container/heap produces.
func (s *searcher) push(it pqItem) {
	s.q = append(s.q, it)
	q := s.q
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (s *searcher) pop() pqItem {
	s.stats.heapPops++
	q := s.q
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2 // = 2*i + 2  // right child
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	s.q = q[:n]
	return it
}

// start begins a search: a fresh epoch and an empty heap.
func (s *searcher) start() {
	if bump(&s.epoch) {
		for i := range s.node {
			s.node[i].seen = 0
		}
	}
	s.q = s.q[:0]
}

// seed enters u as a source at distance 0.
func (s *searcher) seed(u int) {
	s.node[u] = nodeState{dist: 0, prev: -1, seen: s.epoch, ban: s.node[u].ban, dst: s.node[u].dst}
	s.push(pqItem{u, 0})
}

// distTo is u's distance in the last search (inf when never reached).
func (s *searcher) distTo(u int) int {
	if n := &s.node[u]; n.seen == s.epoch {
		return n.dist
	}
	return inf
}

// relax offers node v the distance nd through edge e.
func (s *searcher) relax(v int, e int32, nd int) {
	if n := &s.node[v]; n.seen != s.epoch || nd < n.dist {
		n.seen, n.dist, n.prev = s.epoch, nd, e
		s.push(pqItem{v, nd})
	}
}

// shortestPath runs Dijkstra from src, avoiding banned nodes and edges, and
// stops at the first destination popped, which it returns; ok is false if no
// destination is reachable. src may be the super-source.
//
// The super-source's virtual edges are only ever relaxed from the
// super-source itself. Seen from a real node, a virtual edge leads back to
// the super-source, which either is this search's source (distance 0, which
// a non-negative path cannot improve) or a banned root node of a spur
// search; so skipping them changes nothing.
func (s *searcher) shortestPath(src int) (end int, ok bool) {
	s.start()
	if s.node[src].ban == s.banEpoch {
		return 0, false
	}
	s.seed(src)
	// The hot loop works on locals: the relaxation below is relax inlined.
	arcs, off, nodes, banEdge := s.g.arcs, s.g.off, s.node, s.banEdge
	ep, banEp := s.epoch, s.banEpoch
	for len(s.q) > 0 {
		it := s.pop()
		u := it.node
		if n := &nodes[u]; it.dist > n.dist {
			continue
		} else if n.dst == s.dstEpoch {
			return u, true
		}
		if u == s.super {
			for j, v := range s.superSrcs {
				e := len(s.g.Edges) + j
				if banEdge[e] == banEp || nodes[v].ban == banEp {
					continue
				}
				s.relax(v, int32(e), it.dist)
			}
			continue
		}
		for _, a := range arcs[off[u]:off[u+1]] {
			if banEdge[a.edge] == banEp {
				continue
			}
			n := &nodes[a.to]
			if n.ban == banEp {
				continue
			}
			if nd := it.dist + a.length; n.seen != ep || nd < n.dist {
				n.seen, n.dist, n.prev = ep, nd, a.edge
				s.push(pqItem{int(a.to), nd})
			}
		}
	}
	return 0, false
}

// trace fills tailNodes and tailEdges with the path the last search found
// to end, in order from its source.
func (s *searcher) trace(end int) {
	nodes, edges := s.tailNodes[:0], s.tailEdges[:0]
	u := end
	nodes = append(nodes, u)
	for s.node[u].prev != -1 {
		e := int(s.node[u].prev)
		u = s.other(e, u)
		edges = append(edges, e)
		nodes = append(nodes, u)
	}
	slices.Reverse(nodes)
	slices.Reverse(edges)
	s.tailNodes, s.tailEdges = nodes, edges
}

// distances runs a full Dijkstra from the source set with no bans or
// destinations; read the result with distTo.
func (s *searcher) distances(srcs []int) {
	s.start()
	for _, u := range srcs {
		s.seed(u)
	}
	arcs, off := s.g.arcs, s.g.off
	for len(s.q) > 0 {
		it := s.pop()
		u := it.node
		if it.dist > s.node[u].dist {
			continue
		}
		for _, a := range arcs[off[u]:off[u+1]] {
			s.relax(int(a.to), a.edge, it.dist+a.length)
		}
	}
}

// Distances runs Dijkstra from the source set and returns the distance to
// every node (inf-like large value when unreachable).
func (g *Graph) Distances(srcs []int) []int {
	s := newSearcher(g)
	s.distances(srcs)
	dist := make([]int, g.NumNodes)
	for u := range dist {
		dist[u] = s.distTo(u)
	}
	return dist
}

// KShortestPaths returns up to k shortest loopless paths from the source set
// to the target set, in nondecreasing length order, using Yen's deviation
// scheme. Every deviation re-runs a spur search at each node of the last
// accepted path (no Lawler restriction to the suffix after the previous
// deviation point); the set of seen paths keeps the candidates distinct.
// Multi-source/multi-target handles electrically-equivalent pins and
// route-tree growth; a multi-node source set routes through a virtual
// super-source so that deviations can switch the starting node (plain Yen
// can only deviate within the first path's source).
func (g *Graph) KShortestPaths(srcs, dsts []int, k int) []Path {
	s := newSearcher(g)
	s.setDsts(dsts)
	return s.kShortestFrom(srcs, k)
}

// kShortestFrom is KShortestPaths to the destinations set by setDsts. The
// returned paths live in the searcher's arena and stay valid until the next
// call.
func (s *searcher) kShortestFrom(srcs []int, k int) []Path {
	src, ok := s.source(srcs)
	if !ok {
		return nil
	}
	if s.superSrcs == nil {
		return s.kShortest(src, k)
	}
	// Yen from the virtual super-source: strip the virtual hop from the
	// results. Yen's paths have distinct node sequences and every one
	// starts at the super-source, so the stripped paths are distinct too.
	paths := s.kShortest(src, k)
	s.superSrcs = nil
	s.out = s.out[:0]
	for _, p := range paths {
		s.out = append(s.out, Path{Nodes: p.Nodes[1:], Edges: p.Edges[1:], Length: p.Length})
	}
	return s.out
}

// distFrom is the length of the shortest path from the node set srcs to the
// destinations set by setDsts, or inf when none is reachable. It runs the
// same search as the first one of kShortestFrom(srcs, k).
func (s *searcher) distFrom(srcs []int) int {
	src, ok := s.source(srcs)
	if !ok {
		return inf
	}
	s.newBans()
	end, found := s.shortestPath(src)
	s.superSrcs = nil
	if !found {
		return inf
	}
	return s.node[end].dist
}

// source returns the node a search from the set srcs starts at. A single
// distinct source is searched from directly. Several go through the virtual
// super-source, fanned out to every source node at length 0: source sets
// superSrcs, which the caller clears when its search is done. ok is false
// when there is no source, or when a multi-node set names a node outside
// the graph.
func (s *searcher) source(srcs []int) (src int, ok bool) {
	uniq := uniqueInts(srcs)
	switch len(uniq) {
	case 0:
		return 0, false
	case 1:
		return uniq[0], true
	}
	for _, u := range uniq {
		if u < 0 || u >= s.g.NumNodes {
			return 0, false
		}
	}
	s.superSrcs = uniq
	if need := len(s.g.Edges) + len(uniq); len(s.banEdge) < need {
		s.banEdge = append(s.banEdge, make([]uint32, need-len(s.banEdge))...)
	}
	return s.super, true
}

// uniqueInts drops repeats, keeping first occurrences in order. Strictly
// ascending input (a tree's node list) is returned as is.
func uniqueInts(s []int) []int {
	ascending := true
	for i := 1; i < len(s) && ascending; i++ {
		ascending = s[i-1] < s[i]
	}
	if ascending {
		return s
	}
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

// alloc hands out n ints from the arena. A full arena is replaced by a
// larger one rather than grown, so slices handed out earlier never move.
func (s *searcher) alloc(n int) []int {
	if n == 0 {
		return nil // an edgeless path's Edges is nil, not empty
	}
	if s.used+n > len(s.arena) {
		size := max(2*len(s.arena), 1024)
		for size < n {
			size *= 2
		}
		s.arena = make([]int, size)
		s.used = 0
	}
	out := s.arena[s.used : s.used+n : s.used+n]
	s.used += n
	return out
}

// keepFull records the path in fullNodes/fullEdges unless an equal node
// sequence was seen before in this call, returning the stored copy.
func (s *searcher) keepFull(length int) (Path, bool) {
	h, dup := s.pathSet.has(s.fullNodes)
	if dup {
		return Path{}, false
	}
	nodes := s.alloc(len(s.fullNodes))
	edges := s.alloc(len(s.fullEdges))
	copy(nodes, s.fullNodes)
	copy(edges, s.fullEdges)
	s.pathSet.insert(h, nodes)
	return Path{Nodes: nodes, Edges: edges, Length: length}, true
}

// kShortest is Yen's algorithm from the single node src to the marked
// destinations.
func (s *searcher) kShortest(src, k int) []Path {
	if k <= 0 {
		return nil
	}
	s.used = 0
	s.pathSet.reset()
	s.spurSet.reset()
	s.newBans()
	end, ok := s.shortestPath(src)
	if !ok {
		return nil
	}
	s.trace(end)
	s.fullNodes = append(s.fullNodes[:0], s.tailNodes...)
	s.fullEdges = append(s.fullEdges[:0], s.tailEdges...)
	first, _ := s.keepFull(s.node[end].dist)
	paths := append(s.paths[:0], first)
	// candidates is the live candidate list; taking the shortest advances
	// head instead of reslicing, so the backing array is reused next call.
	all, head := s.cands[:0], 0

	for len(paths) < k {
		last := paths[len(paths)-1]
		// Deviate at each node of the last path.
		for spur := 0; spur < len(last.Nodes)-1; spur++ {
			spurNode := last.Nodes[spur]
			rootNodes := last.Nodes[:spur+1]
			rootEdges := last.Edges[:spur]
			rootLen := 0
			for _, ei := range rootEdges {
				rootLen += s.edgeLen(ei)
			}
			s.newBans()
			// Ban edges used by any accepted path sharing this root. The
			// root and the banned edges determine the spur search, so
			// they make its signature: the spur index (the root's length
			// in edges), the index of the first accepted path that starts
			// with the root and goes on past it (paths only grow, so the
			// two indices name the root for the whole call), then the
			// banned edges in ascending order.
			sig := append(s.spurSig[:0], spur, -1)
			for j, p := range paths {
				if sharesRoot(p, rootNodes) && spur < len(p.Edges) {
					if sig[1] < 0 {
						sig[1] = j
					}
					if e := p.Edges[spur]; s.banEdge[e] != s.banEpoch {
						s.banEdge[e] = s.banEpoch
						sig = append(sig, e)
					}
				}
			}
			slices.Sort(sig[2:])
			s.spurSig = sig
			// A search run before in this call found a path that is
			// already in pathSet (or found none), so running it again
			// cannot add a candidate; skipping it leaves the candidate
			// list exactly as it was. Such repeats are common: spur nodes
			// the last path shares with the path it deviated from often
			// see the same root and bans again.
			h, repeat := s.spurSet.has(sig)
			if repeat {
				continue
			}
			kept := s.alloc(len(sig))
			copy(kept, sig)
			s.spurSet.insert(h, kept)
			// Ban root nodes (except the spur node) for looplessness.
			for _, u := range rootNodes[:len(rootNodes)-1] {
				s.ban(u)
			}
			s.stats.spurSearches++
			end, ok := s.shortestPath(spurNode)
			if !ok {
				continue
			}
			s.trace(end)
			s.fullNodes = append(append(s.fullNodes[:0], rootNodes...), s.tailNodes[1:]...)
			s.fullEdges = append(append(s.fullEdges[:0], rootEdges...), s.tailEdges...)
			if full, ok := s.keepFull(rootLen + s.node[end].dist); ok {
				all = append(all, full)
			}
		}
		candidates := all[head:]
		if len(candidates) == 0 {
			break
		}
		slices.SortFunc(candidates, func(a, b Path) int {
			return cmp.Compare(a.Length, b.Length)
		})
		paths = append(paths, candidates[0])
		head++
	}
	s.paths, s.cands = paths, all
	return paths
}

func sharesRoot(p Path, rootNodes []int) bool {
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

// seqSet is a set of int sequences — path node lists, tree edge lists —
// keyed by a hash over the elements with a full comparison on collision. It
// stores references, not copies: a member must not change while in the set.
type seqSet struct {
	head map[uint64]int32 // hash → 1 + index of the newest member with it
	next []int32          // 1 + index of the previous member with the same hash
	seqs [][]int
}

func (t *seqSet) reset() {
	if t.head == nil {
		t.head = make(map[uint64]int32)
	} else {
		clear(t.head)
	}
	t.next, t.seqs = t.next[:0], t.seqs[:0]
}

// has reports whether seq is a member, and returns its hash for insert.
func (t *seqSet) has(seq []int) (uint64, bool) {
	h := uint64(14695981039346656037) ^ uint64(len(seq))
	for _, v := range seq {
		h = (h ^ uint64(v)) * 1099511628211
	}
	for i := t.head[h]; i > 0; i = t.next[i-1] {
		if slices.Equal(t.seqs[i-1], seq) {
			return h, true
		}
	}
	return h, false
}

// insert adds seq, which must not be a member, under its hash h.
func (t *seqSet) insert(h uint64, seq []int) {
	t.seqs = append(t.seqs, seq)
	t.next = append(t.next, t.head[h])
	t.head[h] = int32(len(t.seqs))
}
