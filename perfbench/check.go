package main

import (
	"fmt"

	"repro/internal/graph"
)

// answer is one shortest-path reply as the benchmark saw it, whichever
// entry point produced it.
type answer struct {
	s, t  int64
	found bool
	dist  int64
	path  []int64
}

// checkPath verifies that path runs from s to t over edges of g and
// returns its length there.
func checkPath(g *graph.Graph, a answer) (int64, error) {
	if len(a.path) == 0 || a.path[0] != a.s || a.path[len(a.path)-1] != a.t {
		return 0, fmt.Errorf("pair (%d,%d): path %v does not run from source to target", a.s, a.t, a.path)
	}
	n, ok := g.PathLength(a.path)
	if !ok {
		return 0, fmt.Errorf("pair (%d,%d): path %v uses a missing edge", a.s, a.t, a.path)
	}
	return n, nil
}

// checkExact is the correctness gate of the in-process workloads and the
// quiesced pass: the answer must report the in-memory Dijkstra distance
// (want, from graph.MDJ on g) and a path of exactly that length in g.
func checkExact(g *graph.Graph, a answer, want graph.PathResult) error {
	if a.found != want.Found {
		return fmt.Errorf("pair (%d,%d): found=%v, MDJ says %v", a.s, a.t, a.found, want.Found)
	}
	if !want.Found {
		return nil
	}
	if a.dist != want.Distance {
		return fmt.Errorf("pair (%d,%d): distance %d, MDJ says %d", a.s, a.t, a.dist, want.Distance)
	}
	n, err := checkPath(g, a)
	if err != nil {
		return err
	}
	if n != a.dist {
		return fmt.Errorf("pair (%d,%d): path length %d != reported distance %d", a.s, a.t, n, a.dist)
	}
	return nil
}

// checkBracket is the gate for answers given while writes run beside the
// reads. Each write only raises a listed edge or restores it, so the graph
// the server answered on lies between lo (every listed edge at its
// original weight) and hi (every listed edge raised): the distance must lie
// between the MDJ distances on the two, and the returned path, a real path
// of the answering graph, must cost no less than its length in lo and no
// more than its length in hi.
func checkBracket(lo, hi *graph.Graph, a answer, wantLo, wantHi graph.PathResult) error {
	if !a.found || !wantLo.Found {
		if a.found != wantLo.Found {
			return fmt.Errorf("pair (%d,%d): found=%v, MDJ says %v", a.s, a.t, a.found, wantLo.Found)
		}
		return nil
	}
	if a.dist < wantLo.Distance || a.dist > wantHi.Distance {
		return fmt.Errorf("pair (%d,%d): distance %d outside MDJ bracket [%d, %d]", a.s, a.t, a.dist, wantLo.Distance, wantHi.Distance)
	}
	nLo, err := checkPath(lo, a)
	if err != nil {
		return err
	}
	nHi, _ := hi.PathLength(a.path) // same topology as lo: only weights differ
	if a.dist < nLo || a.dist > nHi {
		return fmt.Errorf("pair (%d,%d): distance %d outside its path's bracket [%d, %d]", a.s, a.t, a.dist, nLo, nHi)
	}
	return nil
}
