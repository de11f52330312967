package route

import "context"

// PhaseOne runs phase one alone, on one worker, and returns the stored
// alternatives per net.
func PhaseOne(g *Graph, nets []Net, m int) ([][]Tree, error) {
	res := &Result{Alternatives: make([][]Tree, len(nets))}
	_, err := phaseOne(context.Background(), g, nets, Options{M: m, Workers: 1}, res)
	return res.Alternatives, err
}
