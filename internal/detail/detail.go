// Package detail implements a classic two-layer channel router in the
// tradition the paper's Eqn 22 relies on: "channel routers are currently
// available which routinely route a channel in a number of tracks t such
// that t ≤ (d+1)", where d is the channel density. TimberWolfMC itself stops
// at global routing; this router is the downstream consumer that validates
// the w = (d+2)·t_s channel-width model on the channels the placement
// defines.
//
// The algorithm is constrained left-edge with restricted doglegs
// (Hashimoto–Stevens / Deutsch): horizontal net segments on one layer,
// vertical pin connections on the other, a vertical constraint graph (VCG)
// ordering nets that share a column, dogleg splitting at internal pin
// columns to break long chains, and unrestricted doglegs at columns with
// room for their extra wire to break the cycles that remain.
package detail

import (
	"fmt"
	"sort"
)

// Pin is a terminal on the top or bottom edge of the channel.
type Pin struct {
	// X is the column position.
	X int
	// Net identifies the net (>= 0). Net -1 marks an unused column.
	Net int
	// Top is true for pins on the top edge.
	Top bool
}

// Exit marks a net leaving the channel through its left or right end
// (needed when embedding channels in a chip-level routing).
type Exit struct {
	Net  int
	Left bool // exits through the left end; otherwise the right end
}

// Problem is one channel-routing instance.
type Problem struct {
	Pins  []Pin
	Exits []Exit
}

// Segment is a routed horizontal wire: net occupies track Track over
// [XLo, XHi] inclusive.
type Segment struct {
	Net      int
	Track    int
	XLo, XHi int
	// SubNet distinguishes the pieces of a doglegged net.
	SubNet int
}

// Result is a routed channel.
type Result struct {
	Segments []Segment
	// Tracks is the number of tracks used (t in the paper's inequality).
	Tracks int
	// Density is the channel density d (the lower bound).
	Density int
	// Doglegs counts the nets that were split.
	Doglegs int
}

// Density computes the channel density: the maximum number of distinct nets
// whose horizontal spans cover a common column.
func (p *Problem) Density() int {
	spans := p.spans()
	type ev struct {
		x     int
		delta int
	}
	var evs []ev
	for _, s := range spans {
		evs = append(evs, ev{s[0], +1}, ev{s[1] + 1, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].x != evs[j].x {
			return evs[i].x < evs[j].x
		}
		return evs[i].delta < evs[j].delta // process leaves before enters
	})
	d, cur := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > d {
			d = cur
		}
	}
	return d
}

// spans returns each net's horizontal interval [lo,hi] including exits.
func (p *Problem) spans() map[int][2]int {
	lo := map[int]int{}
	hi := map[int]int{}
	seen := map[int]bool{}
	xmin, xmax := 1<<30, -(1 << 30)
	for _, pin := range p.Pins {
		if pin.Net < 0 {
			continue
		}
		if pin.X < xmin {
			xmin = pin.X
		}
		if pin.X > xmax {
			xmax = pin.X
		}
		if !seen[pin.Net] || pin.X < lo[pin.Net] {
			lo[pin.Net] = pin.X
		}
		if !seen[pin.Net] || pin.X > hi[pin.Net] {
			hi[pin.Net] = pin.X
		}
		seen[pin.Net] = true
	}
	for _, e := range p.Exits {
		if !seen[e.Net] {
			// An exit-only net spans the whole channel.
			lo[e.Net] = xmin
			hi[e.Net] = xmax
			seen[e.Net] = true
			continue
		}
		if e.Left && xmin < lo[e.Net] {
			lo[e.Net] = xmin
		}
		if !e.Left && xmax > hi[e.Net] {
			hi[e.Net] = xmax
		}
	}
	out := make(map[int][2]int, len(lo))
	for n := range lo {
		out[n] = [2]int{lo[n], hi[n]}
	}
	return out
}

// subnet is a routable unit: a net or a dogleg piece of one.
type subnet struct {
	net    int
	idx    int // dogleg piece index
	lo, hi int
	// topAt and botAt record the columns where this piece's net reaches
	// the top or bottom edge through one of the piece's endpoints: the
	// net's vertical wire there spans from that edge to the piece's track.
	topAt, botAt map[int]bool
}

// Route routes the channel and returns the track assignment.
//
// The vertical constraint graph (VCG) is made acyclic before any track is
// assigned: each cycle is broken by an unrestricted dogleg that splits one
// of its pieces at a column where the extra vertical wire cannot touch any
// other net's. Tracks are then filled by the constrained left-edge rule.
func Route(p *Problem) (*Result, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	density := p.Density()
	subs := buildSubnets(p)
	doglegs := 0
	netPieces := map[int]int{}
	for _, s := range subs {
		netPieces[s.net]++
	}
	for _, k := range netPieces {
		if k > 1 {
			doglegs++
		}
	}

	// Pin columns per edge, for placing unrestricted doglegs.
	top, bot := map[int]bool{}, map[int]bool{}
	for _, pin := range p.Pins {
		if pin.Net >= 0 {
			if pin.Top {
				top[pin.X] = true
			} else {
				bot[pin.X] = true
			}
		}
	}
	// Every split uses up a column, so this terminates.
	for cycle := findCycle(constraints(subs)); cycle != nil; cycle = findCycle(constraints(subs)) {
		if !splitCycle(&subs, cycle, top, bot) {
			return nil, fmt.Errorf("detail: unbreakable vertical constraint cycle")
		}
	}
	below := constraints(subs)
	above := make([][]int, len(subs)) // above[b]: every a that must lie above b
	for a, bs := range below {
		for _, b := range bs {
			above[b] = append(above[b], a)
		}
	}
	// Fill from the top edge down and from the bottom edge up; keep the
	// one with fewer tracks (top-down on a tie).
	track, tracks := leftEdge(subs, above)
	if up, n := leftEdge(subs, below); n < tracks {
		track, tracks = up, n
		for i := range track {
			track[i] = n - 1 - track[i]
		}
	}

	res := &Result{Tracks: tracks, Density: density, Doglegs: doglegs}
	for si, s := range subs {
		res.Segments = append(res.Segments, Segment{
			Net:    s.net,
			SubNet: s.idx,
			Track:  track[si],
			XLo:    s.lo,
			XHi:    s.hi,
		})
	}
	sort.Slice(res.Segments, func(i, j int) bool {
		a, b := res.Segments[i], res.Segments[j]
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.XLo < b.XLo
	})
	return res, nil
}

// leftEdge assigns tracks by the constrained left-edge rule, numbering
// them from the edge it fills first. A piece may take the current track
// once every piece in first[piece] sits on an earlier one; pieces of one
// net may abut.
func leftEdge(subs []subnet, first [][]int) ([]int, int) {
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := subs[order[a]], subs[order[b]]
		if sa.lo != sb.lo {
			return sa.lo < sb.lo
		}
		return sa.hi < sb.hi
	})
	track := make([]int, len(subs))
	for i := range track {
		track[i] = -1
	}
	tracks := 0
	for placed := 0; placed < len(subs); tracks++ {
		lastHi, lastNet := -1<<30, -1
		for _, si := range order {
			s := subs[si]
			if track[si] != -1 || s.lo < lastHi || (s.lo == lastHi && s.net != lastNet) {
				continue
			}
			ready := true
			for _, a := range first[si] {
				if track[a] == -1 || track[a] == tracks {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			track[si] = tracks
			lastHi, lastNet = s.hi, s.net
			placed++
		}
	}
	return track, tracks
}

func validate(p *Problem) error {
	cols := map[int][2]int{} // x -> (topNet+1, botNet+1)
	for _, pin := range p.Pins {
		if pin.Net < 0 {
			continue
		}
		c := cols[pin.X]
		if pin.Top {
			if c[0] != 0 {
				return fmt.Errorf("detail: two top pins share column %d", pin.X)
			}
			c[0] = pin.Net + 1
		} else {
			if c[1] != 0 {
				return fmt.Errorf("detail: two bottom pins share column %d", pin.X)
			}
			c[1] = pin.Net + 1
		}
		cols[pin.X] = c
	}
	return nil
}

// buildSubnets splits multi-pin nets at interior pin columns (restricted
// doglegs), producing one subnet per adjacent pin pair; two-pin nets and
// exit spans stay whole.
func buildSubnets(p *Problem) []subnet {
	spans := p.spans()
	pinCols := map[int][]Pin{}
	for _, pin := range p.Pins {
		if pin.Net >= 0 {
			pinCols[pin.Net] = append(pinCols[pin.Net], pin)
		}
	}
	exitsL := map[int]bool{}
	exitsR := map[int]bool{}
	for _, e := range p.Exits {
		if e.Left {
			exitsL[e.Net] = true
		} else {
			exitsR[e.Net] = true
		}
	}
	nets := make([]int, 0, len(spans))
	for n := range spans {
		nets = append(nets, n)
	}
	sort.Ints(nets)

	var subs []subnet
	for _, n := range nets {
		pins := pinCols[n]
		sort.Slice(pins, func(i, j int) bool { return pins[i].X < pins[j].X })
		span := spans[n]
		// Break points: interior pin columns (classic restricted dogleg).
		type point struct {
			x        int
			top, bot bool
		}
		var pts []point
		if exitsL[n] {
			pts = append(pts, point{x: span[0]})
		}
		for _, pin := range pins {
			if len(pts) > 0 && pts[len(pts)-1].x == pin.X {
				if pin.Top {
					pts[len(pts)-1].top = true
				} else {
					pts[len(pts)-1].bot = true
				}
				continue
			}
			pts = append(pts, point{x: pin.X, top: pin.Top, bot: !pin.Top})
		}
		if exitsR[n] {
			if len(pts) == 0 || pts[len(pts)-1].x != span[1] {
				pts = append(pts, point{x: span[1]})
			}
		}
		if len(pts) < 2 {
			// Single-column net (or exit-only): a degenerate segment.
			s := subnet{net: n, idx: 0, lo: span[0], hi: span[1],
				topAt: map[int]bool{}, botAt: map[int]bool{}}
			for _, pt := range pts {
				if pt.top {
					s.topAt[pt.x] = true
				}
				if pt.bot {
					s.botAt[pt.x] = true
				}
			}
			subs = append(subs, s)
			continue
		}
		for k := 0; k+1 < len(pts); k++ {
			s := subnet{
				net: n, idx: k,
				lo: pts[k].x, hi: pts[k+1].x,
				topAt: map[int]bool{},
				botAt: map[int]bool{},
			}
			// Both pieces meeting at a pin column carry its vertical
			// connection: the net's vertical wire there runs from the edge
			// through both pieces' tracks.
			for _, pt := range pts[k : k+2] {
				if pt.top {
					s.topAt[pt.x] = true
				}
				if pt.bot {
					s.botAt[pt.x] = true
				}
			}
			subs = append(subs, s)
		}
	}
	return subs
}

// constraints returns the VCG as adjacency lists: below[a] lists every
// piece b that must lie strictly below a, because at some column a's net
// reaches the top edge through a and b's net the bottom edge through b.
// Pieces of one net never constrain each other.
func constraints(subs []subnet) [][]int {
	below := make([][]int, len(subs))
	for a := range subs {
		for b := range subs {
			if subs[a].net == subs[b].net {
				continue
			}
			for x := range subs[a].topAt {
				if subs[b].botAt[x] {
					below[a] = append(below[a], b)
					break
				}
			}
		}
	}
	return below
}

// findCycle returns the pieces of one VCG cycle in edge order, or nil when
// the graph is acyclic.
func findCycle(below [][]int) []int {
	state := make([]int, len(below)) // 0 new, 1 on the DFS stack, 2 done
	var stack []int
	var visit func(a int) []int
	visit = func(a int) []int {
		state[a] = 1
		stack = append(stack, a)
		for _, b := range below[a] {
			switch state[b] {
			case 1:
				for i := len(stack) - 1; ; i-- {
					if stack[i] == b {
						return append([]int(nil), stack[i:]...)
					}
				}
			case 0:
				if c := visit(b); c != nil {
					return c
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[a] = 2
		return nil
	}
	for a := range below {
		if state[a] == 0 {
			if c := visit(a); c != nil {
				return c
			}
		}
	}
	return nil
}

// splitCycle breaks a VCG cycle with an unrestricted dogleg: it splits one
// of the cycle's pieces at an interior column, so the constraint that
// enters the piece and the one that leaves it land on different halves.
// The column must leave the new vertical wire room: at most one pin and no
// earlier dogleg. Columns nearest the middle are tried first. It reports
// whether it split anything, and marks the dogleg column used in top and
// bot.
func splitCycle(subs *[]subnet, cycle []int, top, bot map[int]bool) bool {
	for k, si := range cycle {
		s := (*subs)[si]
		// The piece's constraint columns on the cycle: in from its
		// predecessor (a bottom connection), out to its successor (a top
		// connection).
		pred, succ := (*subs)[cycle[(k+len(cycle)-1)%len(cycle)]], (*subs)[cycle[(k+1)%len(cycle)]]
		in, out := sharedCol(pred.topAt, s.botAt), sharedCol(s.topAt, succ.botAt)
		if in == out {
			continue
		}
		lo, hi := min(in, out), max(in, out)
		mid := (lo + hi) / 2
		for d := 0; d <= hi-lo; d++ {
			for _, x := range []int{mid - d, mid + d} {
				if x <= lo || x >= hi || (top[x] && bot[x]) {
					continue
				}
				left := subnet{net: s.net, idx: s.idx, lo: s.lo, hi: x, topAt: map[int]bool{}, botAt: map[int]bool{}}
				right := subnet{net: s.net, idx: s.idx + 1000, lo: x, hi: s.hi, topAt: map[int]bool{}, botAt: map[int]bool{}}
				for c := range s.topAt {
					if c < x {
						left.topAt[c] = true
					} else {
						right.topAt[c] = true
					}
				}
				for c := range s.botAt {
					if c < x {
						left.botAt[c] = true
					} else {
						right.botAt[c] = true
					}
				}
				// A pin on one edge: the dogleg's wire must clear the pin's,
				// as if both halves reached the other edge there.
				switch {
				case top[x]:
					left.botAt[x], right.botAt[x] = true, true
				case bot[x]:
					left.topAt[x], right.topAt[x] = true, true
				}
				top[x], bot[x] = true, true
				(*subs)[si] = left
				*subs = append(*subs, right)
				return true
			}
		}
	}
	return false
}

// sharedCol returns the smallest column in both sets (-1 if none).
func sharedCol(a, b map[int]bool) int {
	best := -1
	for x := range a {
		if b[x] && (best == -1 || x < best) {
			best = x
		}
	}
	return best
}

// Verify checks a routing result for the two correctness conditions: no two
// segments of different nets overlap on a track, and no two nets' vertical
// wires touch in any column. Every pin must be covered by a segment of its
// net.
func Verify(p *Problem, r *Result) error {
	// Horizontal overlaps.
	byTrack := map[int][]Segment{}
	for _, s := range r.Segments {
		byTrack[s.Track] = append(byTrack[s.Track], s)
	}
	for t, segs := range byTrack {
		sort.Slice(segs, func(i, j int) bool { return segs[i].XLo < segs[j].XLo })
		for i := 1; i < len(segs); i++ {
			if segs[i].XLo < segs[i-1].XHi ||
				(segs[i].XLo == segs[i-1].XHi && segs[i].Net != segs[i-1].Net) {
				if segs[i].Net != segs[i-1].Net {
					return fmt.Errorf("detail: track %d overlap between nets %d and %d",
						t, segs[i-1].Net, segs[i].Net)
				}
			}
		}
	}
	// Vertical wires: in each column a net's wire joins every point it
	// must reach there — the top edge (-1) for a top pin, the bottom edge
	// (Tracks) for a bottom pin, and the track of each of its segments that
	// ends in the column. Two nets' wires in one column must not touch.
	type colNet struct{ x, net int }
	wires := map[colNet][2]int{} // lowest and highest point joined
	join := func(x, net, t int) {
		k := colNet{x, net}
		w, ok := wires[k]
		if !ok {
			w = [2]int{t, t}
		}
		wires[k] = [2]int{min(w[0], t), max(w[1], t)}
	}
	for _, s := range r.Segments {
		join(s.XLo, s.Net, s.Track)
		join(s.XHi, s.Net, s.Track)
	}
	for _, pin := range p.Pins {
		if pin.Net < 0 {
			continue
		}
		// The pin's wire reaches at least its net's nearest segment over
		// the column.
		t, covered := 0, false
		for _, s := range r.Segments {
			if s.Net == pin.Net && s.XLo <= pin.X && pin.X <= s.XHi &&
				(!covered || (pin.Top && s.Track < t) || (!pin.Top && s.Track > t)) {
				t, covered = s.Track, true
			}
		}
		if !covered {
			return fmt.Errorf("detail: pin (%d, net %d) not covered", pin.X, pin.Net)
		}
		edge := r.Tracks
		if pin.Top {
			edge = -1
		}
		join(pin.X, pin.Net, edge)
		join(pin.X, pin.Net, t)
	}
	type wire struct{ net, lo, hi int }
	byCol := map[int][]wire{}
	for k, w := range wires {
		if w[0] < w[1] {
			byCol[k.x] = append(byCol[k.x], wire{k.net, w[0], w[1]})
		}
	}
	for x, ws := range byCol {
		for i := range ws {
			for _, o := range ws[i+1:] {
				if ws[i].lo <= o.hi && o.lo <= ws[i].hi {
					return fmt.Errorf("detail: vertical conflict at column %d: net %d (tracks %d..%d) touches net %d (tracks %d..%d)",
						x, ws[i].net, ws[i].lo, ws[i].hi, o.net, o.lo, o.hi)
				}
			}
		}
	}
	return nil
}
