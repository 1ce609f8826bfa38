package adversary

import (
	"fmt"
	"sort"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// NECTAR-specific Byzantine behaviours (§IV "Impact of Byzantine
// deviations" and §V-D).

// NectarCoalition describes one NECTAR run's Byzantine coalition for
// WrapNectar.
type NectarCoalition struct {
	// Graph is the communication graph of the run (or epoch).
	Graph *graph.Graph
	// Scheme holds every node's signing capability; colluding members
	// forge fake edges with each other's signers.
	Scheme sig.Scheme
	// Behavior names each member's deviation: crash, splitbrain,
	// fakeedges, garbage, stale, equivocate, omitown, adaptive or phased.
	// Every key is a member, so fake-edge partners and hidden edges range
	// over all of them.
	Behavior map[ids.NodeID]string
	// Blocked lists, per split-brain member, the destinations it
	// stonewalls.
	Blocked map[ids.NodeID]ids.Set
	// Seed seeds the garbage flooders: member b draws from Seed^b.
	Seed int64
	// Horizon is the round horizon the phased schedule keys on.
	Horizon int
}

// WrapNectar replaces protos[b], for every coalition member b not in
// skip, with b's deviation wrapped around the correct node nodes[b].
// Members are wrapped in ascending ID order, and the adaptive and phased
// members all join one fresh Coordinator. Input validation is the
// caller's; an unknown behaviour name is the only error.
func WrapNectar(c NectarCoalition, nodes []*nectar.Node, protos []rounds.Protocol, skip ids.Set) error {
	members := make([]ids.NodeID, 0, len(c.Behavior))
	for b := range c.Behavior {
		members = append(members, b)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	sigSize := c.Scheme.Verifier().SigSize()
	var coord *Coordinator
	for _, b := range members {
		if skip.Has(b) {
			continue
		}
		inner := nodes[b]
		nbrs := c.Graph.Neighbors(b)
		switch beh := c.Behavior[b]; beh {
		case "crash":
			protos[b] = Silent{}
		case "splitbrain":
			protos[b] = SplitBrain(inner, c.Blocked[b])
		case "fakeedges":
			var partners []sig.Signer
			for _, other := range members {
				if other != b {
					partners = append(partners, c.Scheme.SignerFor(other))
				}
			}
			protos[b] = NewNectarFakeEdges(inner, c.Scheme.SignerFor(b), partners, sigSize, nbrs)
		case "garbage":
			protos[b] = NewGarbage(nbrs, c.Seed^int64(b), 200)
		case "stale":
			protos[b] = NewNectarStaleReplay(inner)
		case "equivocate":
			protos[b] = NectarEquivocate(inner)
		case "omitown":
			hide := make(map[graph.Edge]bool)
			for _, other := range members {
				if other != b && c.Graph.HasEdge(b, other) {
					hide[graph.NewEdge(b, other)] = true
				}
			}
			protos[b] = NectarOmitOwn(inner, sigSize, hide)
		case "adaptive", "phased":
			if coord == nil {
				coord = NewCoordinator()
			}
			sched := AlwaysEquivocate()
			if beh == "phased" {
				sched = StaleThenEquivocate(PhasedSwitchRound(c.Horizon))
			}
			protos[b] = coord.Join(inner, b, nbrs, sched)
		default:
			return fmt.Errorf("adversary: unknown NECTAR behaviour %q for node %v", beh, b)
		}
	}
	return nil
}

// NectarOmitOwn behaves like a correct NECTAR node but never announces the
// edges in hide in round 1 (it still relays other nodes' messages
// faithfully). This is the "Byzantine nodes cannot be compelled to share
// their own neighborhood" deviation: hidden Byzantine-Byzantine edges may
// push the perceived connectivity below t, turning NOT_PARTITIONABLE into
// a (safe) PARTITIONABLE.
func NectarOmitOwn(inner *nectar.Node, sigSize int, hide map[graph.Edge]bool) rounds.Protocol {
	return &OutFilter{
		Inner: inner,
		Keep: func(round int, s rounds.Send) bool {
			if round != 1 {
				return true
			}
			m, err := nectar.DecodeEdgeMsg(s.Data, sigSize, int(^uint32(0)>>1))
			if err != nil {
				return true
			}
			return !hide[m.Proof.Edge]
		},
	}
}

// NectarEquivocate announces each of its own edges to only half of its
// neighbors (those with even IDs), creating knowledge disparities that the
// relay phase of correct nodes must iron out.
func NectarEquivocate(inner *nectar.Node) rounds.Protocol {
	return &OutFilter{
		Inner: inner,
		Keep: func(round int, s rounds.Send) bool {
			return round != 1 || s.To%2 == 0
		},
	}
}

// NectarFakeEdges wraps a correct NECTAR node and additionally announces
// fictitious edges between the local node and each colluding partner in
// round 1. Both endpoints are Byzantine, so the proofs verify (§II allows
// forging proofs between Byzantine processes); correct nodes accept and
// propagate these non-existent edges.
type NectarFakeEdges struct {
	inner    *nectar.Node
	self     sig.Signer
	partners []sig.Signer
	sigSize  int
	nbrs     []ids.NodeID
}

var _ rounds.Protocol = (*NectarFakeEdges)(nil)

// NewNectarFakeEdges builds the colluding announcer. partners are the
// signing capabilities of fellow Byzantine nodes (collusion); nbrs is the
// local neighborhood the announcements are sent to.
func NewNectarFakeEdges(inner *nectar.Node, self sig.Signer, partners []sig.Signer, sigSize int, nbrs []ids.NodeID) *NectarFakeEdges {
	return &NectarFakeEdges{
		inner:    inner,
		self:     self,
		partners: partners,
		sigSize:  sigSize,
		nbrs:     append([]ids.NodeID(nil), nbrs...),
	}
}

// Emit implements rounds.Protocol.
func (a *NectarFakeEdges) Emit(round int) []rounds.Send {
	out := a.inner.Emit(round)
	if round != 1 {
		return out
	}
	for _, partner := range a.partners {
		if partner.ID() == a.self.ID() {
			continue
		}
		msg := nectar.ForgeEdgeMsg(a.self, partner)
		data := msg.Encode(a.sigSize)
		for _, to := range a.nbrs {
			out = append(out, rounds.Send{To: to, Data: data})
		}
	}
	return out
}

// Deliver implements rounds.Protocol.
func (a *NectarFakeEdges) Deliver(round int, from ids.NodeID, data []byte) {
	a.inner.Deliver(round, from, data)
}

// Quiescent implements rounds.Quiescer: the forged announcements ride on
// round 1 only, so quiescence reduces to the inner node's (which is never
// quiescent before its round-1 emission).
func (a *NectarFakeEdges) Quiescent() bool { return a.inner.Quiescent() }

// NectarStaleReplay delays every protocol message by one round, so each
// chain it sends has length r-1 in round r — violating the
// lengthSign(msg) = R rule. Correct nodes must reject every such stale
// message for an edge they do not already know (Alg. 1 l. 14 prevents
// Byzantine nodes from transmitting late messages); already-known edges
// are discarded as duplicates.
type NectarStaleReplay struct {
	inner *nectar.Node
	prev  []rounds.Send
}

var _ rounds.Protocol = (*NectarStaleReplay)(nil)

// NewNectarStaleReplay wraps inner with the delay-by-one-round behaviour.
func NewNectarStaleReplay(inner *nectar.Node) *NectarStaleReplay {
	return &NectarStaleReplay{inner: inner}
}

// Emit implements rounds.Protocol.
func (a *NectarStaleReplay) Emit(round int) []rounds.Send {
	out := a.prev
	// Held across a round boundary: copy, since the inner node's encode
	// arena is reused at its next Emit (rounds.Protocol buffer contract).
	a.prev = copySends(a.inner.Emit(round))
	return out
}

// Deliver implements rounds.Protocol.
func (a *NectarStaleReplay) Deliver(round int, from ids.NodeID, data []byte) {
	a.inner.Deliver(round, from, data)
}

// Quiescent implements rounds.Quiescer: the delay buffer is in-flight
// output — the wrapper is quiescent only once the inner node has nothing
// queued AND the held-back batch has been flushed.
func (a *NectarStaleReplay) Quiescent() bool {
	return len(a.prev) == 0 && a.inner.Quiescent()
}
