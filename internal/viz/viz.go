// Package viz renders placements, channel graphs, and global routings as
// SVG for inspection — the visual counterpart of the paper's Figures 8–12.
package viz

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/place"
	"repro/internal/route"
)

// WriteSVG renders the placement to w, scaled to about 800 px wide: the
// core, the cells with their interconnect-expanded outlines, and the pins,
// plus the channels and the chosen route trees when g and r are given.
func WriteSVG(w io.Writer, p *place.Placement, g *channel.Graph, r *route.Result) error {
	box := p.Core.Union(p.ExpandedBounds()).InflateUniform(4)
	scale := 800 / float64(max(1, box.W()))
	width := float64(box.W()) * scale
	height := float64(box.H()) * scale
	// SVG y grows downward; flip so chip y grows upward.
	tx := func(x geom.Coord) float64 { return float64(x-box.XLo) * scale }
	ty := func(y geom.Coord) float64 { return float64(box.YHi-y) * scale }
	rect := func(rt geom.Rect, style string) {
		fmt.Fprintf(w, `  <rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" %s/>`+"\n",
			tx(rt.XLo), ty(rt.YHi), float64(rt.W())*scale, float64(rt.H())*scale, style)
	}

	if _, err := fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height); err != nil {
		return err
	}
	fmt.Fprintf(w, `  <rect width="100%%" height="100%%" fill="#ffffff"/>`+"\n")

	// Core boundary.
	rect(p.Core, `fill="none" stroke="#888888" stroke-width="1" stroke-dasharray="6 3"`)

	// Channels under the cells.
	if g != nil {
		for _, reg := range g.Regions {
			fill := "#dce9f7"
			if !reg.Vertical {
				fill = "#f7eddc"
			}
			rect(reg.Rect, fmt.Sprintf(`fill="%s" fill-opacity="0.5" stroke="none"`, fill))
		}
	}

	// Expanded outlines behind the raw cells.
	for i := range p.Circuit.Cells {
		for _, t := range p.Tiles(i).Tiles() {
			rect(t, `fill="none" stroke="#c0c0c0" stroke-width="0.8"`)
		}
	}

	// Cells.
	palette := []string{"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948", "#b07aa1", "#9c755f"}
	for i := range p.Circuit.Cells {
		color := palette[i%len(palette)]
		for _, t := range p.RawTiles(i).Tiles() {
			rect(t, fmt.Sprintf(`fill="%s" fill-opacity="0.75" stroke="#333333" stroke-width="1"`, color))
		}
		b := p.RawTiles(i).Bounds()
		fmt.Fprintf(w, `  <text x="%.1f" y="%.1f" font-size="%.1f" text-anchor="middle" fill="#111111">%s</text>`+"\n",
			tx((b.XLo+b.XHi)/2), ty((b.YLo+b.YHi)/2), 10.0, p.Circuit.Cells[i].Name)
	}

	// Pins.
	for pi := range p.Circuit.Pins {
		pt := p.PinPos(pi)
		fmt.Fprintf(w, `  <circle cx="%.1f" cy="%.1f" r="1.6" fill="#d62728"/>`+"\n",
			tx(pt.X), ty(pt.Y))
	}

	// Routes: polylines through region centers.
	if g != nil && r != nil {
		for ni := range r.Choice {
			tree := r.Chosen(ni)
			for _, ei := range tree.Edges {
				e := g.Edges[ei]
				a := g.Regions[e.U].Center()
				bb := g.Regions[e.V].Center()
				fmt.Fprintf(w, `  <line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#2a6fba" stroke-width="0.8" stroke-opacity="0.6"/>`+"\n",
					tx(a.X), ty(a.Y), tx(bb.X), ty(bb.Y))
			}
		}
	}

	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}
