package nectar

import (
	"github.com/nectar-repro/nectar/internal/ids"
)

// literalOrder is the equivalence oracle for Deliver's duplicate-first
// order: it wraps a Node and runs Alg. 1 l. 14 as the pseudocode reads —
// full decode and signature verification first, then the duplicate
// check. Views and decisions must match the wrapped Node's own order
// exactly. Only the bookkeeping of a malformed duplicate differs (counted
// Rejected here, Duplicates there), and LazyDiscards stays 0.
type literalOrder struct{ *Node }

// Deliver implements rounds.Protocol with the literal check order.
func (p literalOrder) Deliver(round int, from ids.NodeID, data []byte) {
	nd := p.Node
	m, hops, err := decodeEdgeMsgInto(data, nd.cfg.Verifier.SigSize(), nd.cfg.N, nd.hopScratch)
	nd.hopScratch = hops
	if err != nil {
		nd.stats.Rejected++
		nd.traceReject(round, from, 0, err)
		return
	}
	if err := nd.scr.check(nd.ver, m, from, round); err != nil {
		nd.stats.Rejected++
		nd.traceReject(round, from, len(m.Chain), err)
		return
	}
	if nd.view.HasEdge(m.Proof.Edge.U, m.Proof.Edge.V) {
		nd.stats.Duplicates++
		return
	}
	nd.accept(round, m.Proof.Edge, len(m.Chain), from, data)
}
