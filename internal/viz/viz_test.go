package viz

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestWriteSVG(t *testing.T) {
	c, err := gen.Generate(gen.Spec{
		Name: "viz", Cells: 6, Nets: 10, Pins: 30,
		DimX: 200, DimY: 200,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Place(c, core.Options{Seed: 1, Ac: 10, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err = WriteSVG(&sb, res.Placement, res.Stage2.Graph, res.Stage2.Routing)
	if err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	// Every cell drawn and labeled.
	for i := range c.Cells {
		if !strings.Contains(svg, ">"+c.Cells[i].Name+"<") {
			t.Errorf("cell %s label missing", c.Cells[i].Name)
		}
	}
	if strings.Count(svg, "<rect") < len(c.Cells) {
		t.Error("too few rectangles")
	}
	if !strings.Contains(svg, "<line") {
		t.Error("no route lines")
	}
	if !strings.Contains(svg, "<circle") {
		t.Error("no pin markers")
	}
}

func TestWriteSVGMinimal(t *testing.T) {
	c, err := gen.Generate(gen.Spec{
		Name: "viz2", Cells: 3, Nets: 3, Pins: 8, DimX: 100, DimY: 100,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Place(c, core.Options{Seed: 2, Ac: 5, SkipStage2: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	// No graph/routing: placement only.
	if err := WriteSVG(&sb, res.Placement, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<svg") {
		t.Fatal("no svg output")
	}
}
