package graph

import "github.com/nectar-repro/nectar/internal/ids"

// CSRView is an immutable compressed-sparse-row snapshot of the adjacency:
// the neighbors of v are Adj[Off[v]:Off[v+1]], sorted ascending. One flat
// allocation holds every neighbor list, so traversal-heavy consumers
// iterate contiguous memory instead of chasing n separate slice headers.
// The snapshot does not track later mutations of g.
type CSRView struct {
	Off []int32
	Adj []ids.NodeID
}

// CSRView returns a CSR snapshot of the graph's current adjacency.
func (g *Graph) CSRView() CSRView {
	off := make([]int32, g.n+1)
	for v := 0; v < g.n; v++ {
		off[v+1] = off[v] + int32(len(g.nbr[v]))
	}
	adj := make([]ids.NodeID, off[g.n])
	for v := 0; v < g.n; v++ {
		copy(adj[off[v]:off[v+1]], g.nbr[v])
	}
	return CSRView{Off: off, Adj: adj}
}

// Neighbors returns the sorted neighbor list of v, aliasing the view.
func (c CSRView) Neighbors(v ids.NodeID) []ids.NodeID {
	return c.Adj[c.Off[v]:c.Off[v+1]]
}

// N returns the number of vertices in the view.
func (c CSRView) N() int { return len(c.Off) - 1 }
