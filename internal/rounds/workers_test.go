package rounds

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

// logged is one delivery as a node observed it.
type logged struct {
	Round int
	From  ids.NodeID
	Data  []byte
}

// chaosNode is a seeded random protocol exercising every routing path:
// unicasts, broadcasts sharing one payload slice, back-to-back repeats of
// a send, and sends to non-neighbours, to itself and past the last node.
// It echoes payloads it received, so a delivery-order difference would
// change its later traffic, and it logs every delivery.
type chaosNode struct {
	id   ids.NodeID
	n    int
	topo TopologyProvider
	rng  *rand.Rand
	last []byte // most recent delivery, echoed on some rounds
	log  []logged
}

func newChaosNode(id ids.NodeID, n int, topo TopologyProvider, seed int64) *chaosNode {
	return &chaosNode{id: id, n: n, topo: topo, rng: rand.New(rand.NewSource(seed ^ int64(id)<<8))}
}

func (c *chaosNode) Emit(round int) []Send {
	nbrs := c.topo.GraphFor(round).Neighbors(c.id)
	var out []Send
	for j, sends := 0, c.rng.Intn(5); j < sends; j++ {
		payload := []byte(fmt.Sprintf("%d/%d/%d/%d", c.id, round, j, c.rng.Intn(1000)))
		if c.last != nil && c.rng.Intn(3) == 0 {
			payload = append(payload, c.last...)
		}
		switch c.rng.Intn(4) {
		case 0: // unicast to a neighbour
			if len(nbrs) > 0 {
				out = append(out, Send{To: nbrs[c.rng.Intn(len(nbrs))], Data: payload})
			}
		case 1: // broadcast: one slice shared by every send
			for _, nb := range nbrs {
				out = append(out, Send{To: nb, Data: payload})
			}
		case 2: // the same send twice in a row
			to := ids.NodeID(c.rng.Intn(c.n))
			out = append(out, Send{To: to, Data: payload}, Send{To: to, Data: payload})
		case 3: // any id, including self, non-neighbours and one past n
			out = append(out, Send{To: ids.NodeID(c.rng.Intn(c.n + 1)), Data: payload})
		}
	}
	return out
}

func (c *chaosNode) Deliver(round int, from ids.NodeID, data []byte) {
	c.last = append(c.last[:0], data...)
	c.log = append(c.log, logged{Round: round, From: from, Data: append([]byte(nil), data...)})
}

// TestRunBitForBitAcrossWorkers pins delivery logs and Metrics
// byte-identical for worker counts 1, 2 and 4, under message loss and a
// mid-run topology swap: sender-striped routing merged in stripe order
// must reproduce the single-worker run exactly.
func TestRunBitForBitAcrossWorkers(t *testing.T) {
	const n, horizon = 24, 10
	rng := rand.New(rand.NewSource(3))
	topo := &phasedTopology{phases: map[int]*graph.Graph{
		1: topology.ErdosRenyi(n, 0.2, rng),
		5: topology.ErdosRenyi(n, 0.3, rng),
	}}
	for _, seed := range []int64{1, 2, 3} {
		var ref []byte
		for _, workers := range []int{1, 2, 4} {
			nodes := make([]*chaosNode, n)
			protos := make([]Protocol, n)
			for i := range nodes {
				nodes[i] = newChaosNode(ids.NodeID(i), n, topo, seed)
				protos[i] = nodes[i]
			}
			m, err := Run(Config{Topology: topo, Rounds: horizon, Seed: seed, LossRate: 0.2, Workers: workers}, protos)
			if err != nil {
				t.Fatal(err)
			}
			logs := make([][]logged, n)
			for i, nd := range nodes {
				logs[i] = nd.log
			}
			got, err := json.Marshal(struct {
				Logs    [][]logged
				Metrics *Metrics
			}{logs, m})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				if m.DroppedLoss == 0 || m.DroppedNonEdge == 0 {
					t.Fatalf("seed %d: loss and non-edge drops must both fire (loss %d, non-edge %d)",
						seed, m.DroppedLoss, m.DroppedNonEdge)
				}
				continue
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("seed %d workers %d: delivery logs or metrics differ from workers 1", seed, workers)
			}
		}
	}
}
