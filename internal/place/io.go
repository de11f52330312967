package place

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// WritePlacement serializes the placement state (positions, orientations,
// instance and aspect selections, pin-site assignments, and the core) in a
// line-oriented text format, so a finished run can be stored, inspected, or
// reloaded for incremental work.
//
// Format:
//
//	placement CIRCUITNAME
//	core XLO YLO XHI YHI
//	cell NAME X Y ORIENT INSTANCE ASPECT
//	  unit EDGE SITE            # one per uncommitted pin unit
func WritePlacement(w io.Writer, p *Placement) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "placement %s\n", p.Circuit.Name)
	fmt.Fprintf(bw, "core %d %d %d %d\n", p.Core.XLo, p.Core.YLo, p.Core.XHi, p.Core.YHi)
	for i := range p.Circuit.Cells {
		st := p.State(i)
		fmt.Fprintf(bw, "cell %s %d %d %s %d %g\n",
			p.Circuit.Cells[i].Name, st.Pos.X, st.Pos.Y, st.Orient, st.Instance, st.Aspect)
		for _, u := range st.Units {
			fmt.Fprintf(bw, "  unit %d %d\n", u.Edge, u.Site)
		}
	}
	return bw.Flush()
}

// ReadPlacement applies a stored placement to p. The file must describe the
// same circuit (matched by name and cell names); unknown cells are an error.
// A file may name only some cells; the others keep their state. Each cell
// state read passes checkCellState, the check checkpoints use, before it is
// applied; its errors name the cell's line.
func ReadPlacement(r io.Reader, p *Placement) error {
	sc := bufio.NewScanner(r)
	line, cellLine := 0, 0
	cur := -1
	var st CellState
	var unitIdx int
	flush := func() error {
		if cur < 0 {
			return nil
		}
		if err := checkCellState(p.Circuit, cur, &st); err != nil {
			return fmt.Errorf("place: line %d: cell %q: %w", cellLine, p.Circuit.Cells[cur].Name, err)
		}
		p.SetState(cur, st)
		cur = -1
		return nil
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		f := strings.Fields(text)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "placement":
			if len(f) != 2 {
				return fmt.Errorf("place: line %d: placement takes a name", line)
			}
			if f[1] != p.Circuit.Name {
				return fmt.Errorf("place: line %d: placement is for circuit %q, not %q",
					line, f[1], p.Circuit.Name)
			}
		case "core":
			if len(f) != 5 {
				return fmt.Errorf("place: line %d: core takes 4 coordinates", line)
			}
			var v [4]int
			for k := 0; k < 4; k++ {
				x, err := strconv.Atoi(f[k+1])
				if err != nil {
					return fmt.Errorf("place: line %d: bad coordinate %q", line, f[k+1])
				}
				v[k] = x
			}
			if err := flush(); err != nil {
				return err
			}
			p.setCore(geom.R(v[0], v[1], v[2], v[3]))
		case "cell":
			if len(f) != 7 {
				return fmt.Errorf("place: line %d: cell takes NAME X Y ORIENT INSTANCE ASPECT", line)
			}
			if err := flush(); err != nil {
				return err
			}
			ci := p.Circuit.CellByName(f[1])
			if ci < 0 {
				return fmt.Errorf("place: line %d: no cell %q in circuit", line, f[1])
			}
			x, err1 := strconv.Atoi(f[2])
			y, err2 := strconv.Atoi(f[3])
			o, err3 := geom.ParseOrient(f[4])
			inst, err4 := strconv.Atoi(f[5])
			asp, err5 := strconv.ParseFloat(f[6], 64)
			if err1 != nil || err2 != nil || err4 != nil || err5 != nil {
				return fmt.Errorf("place: line %d: bad cell state", line)
			}
			if err3 != nil {
				return fmt.Errorf("place: line %d: %v", line, err3)
			}
			cur, cellLine = ci, line
			st = p.State(ci)
			st.Pos = geom.Point{X: x, Y: y}
			st.Orient = o
			st.Instance = inst
			st.Aspect = asp
			unitIdx = 0
		case "unit":
			if cur < 0 {
				return fmt.Errorf("place: line %d: unit outside a cell", line)
			}
			if len(f) != 3 {
				return fmt.Errorf("place: line %d: unit takes EDGE SITE", line)
			}
			e, err1 := strconv.Atoi(f[1])
			s, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("place: line %d: bad unit assignment", line)
			}
			if unitIdx >= len(st.Units) {
				return fmt.Errorf("place: line %d: too many units for cell %q",
					line, p.Circuit.Cells[cur].Name)
			}
			st.Units[unitIdx] = UnitAssign{Edge: e, Site: s}
			unitIdx++
		default:
			return fmt.Errorf("place: line %d: unknown directive %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}
