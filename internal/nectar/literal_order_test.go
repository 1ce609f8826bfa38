package nectar_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/adversary"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// runAttacked runs NECTAR on g with the Byzantine behaviour beh at the
// given nodes and returns the correct nodes' outcomes, the traffic
// metrics and the verify-cache hit count as one JSON document. literal
// drives every correct node through the literal-order oracle; cached
// shares one verify cache across the trial.
func runAttacked(t *testing.T, g *graph.Graph, seed int64, beh string, byz []ids.NodeID, literal, cached bool) ([]byte, int64) {
	t.Helper()
	n := g.N()
	scheme := sig.NewHMAC(n, seed)
	var opts []nectar.BuildOption
	var vcache *sig.VerifyCache
	if cached {
		vcache = sig.NewVerifyCache()
		opts = append(opts, nectar.WithVerifyCache(vcache))
	}
	nodes, err := nectar.BuildNodes(g, 2, scheme, 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]rounds.Protocol, n)
	for i, nd := range nodes {
		protos[i] = nd
		if literal {
			protos[i] = nectar.LiteralOrder(nd)
		}
	}
	behavior := make(map[ids.NodeID]string, len(byz))
	for _, b := range byz {
		behavior[b] = beh
	}
	c := adversary.NectarCoalition{Graph: g, Scheme: scheme, Behavior: behavior, Seed: seed, Horizon: n - 1}
	if err := adversary.WrapNectar(c, nodes, protos, nil); err != nil {
		t.Fatal(err)
	}
	m, err := rounds.Run(rounds.Config{Graph: g, Rounds: n - 1, Seed: seed}, protos)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make(map[ids.NodeID]nectar.Outcome)
	for i, nd := range nodes {
		if _, bad := behavior[ids.NodeID(i)]; !bad {
			outcomes[ids.NodeID(i)] = nd.Decide()
		}
	}
	doc, err := json.Marshal(struct {
		Outcomes map[ids.NodeID]nectar.Outcome
		Metrics  *rounds.Metrics
	}{outcomes, m})
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := vcache.Stats()
	return doc, hits
}

// TestLiteralOrderEquivalenceProperty: under the Byzantine deviations
// that reach Deliver's reject and duplicate branches, the literal Alg. 1
// l. 14 order, with the verify cache on and off, must decide and meter
// byte-identically to the production path (duplicate-first, cached) —
// DESIGN.md §2, §9.
func TestLiteralOrderEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		scatter, _, err := topology.Drone(14, 0, 1.8, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := topology.TreeOfCliques(3, 6, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range []struct {
			name string
			g    *graph.Graph
		}{{"ring", topology.Ring(12)}, {"scatter", scatter}, {"tree", tree}} {
			n := topo.g.N()
			for _, tc := range []struct {
				beh string
				byz []ids.NodeID
			}{
				{"garbage", []ids.NodeID{0}},
				{"fakeedges", []ids.NodeID{0, ids.NodeID(n / 2)}},
				{"stale", []ids.NodeID{0}},
				{"equivocate", []ids.NodeID{0}},
			} {
				label := fmt.Sprintf("seed %d %s/%s", seed, topo.name, tc.beh)
				ref, hits := runAttacked(t, topo.g, seed, tc.beh, tc.byz, false, true)
				if hits == 0 {
					t.Errorf("%s: verify cache never hit", label)
				}
				for _, cached := range []bool{true, false} {
					got, hits := runAttacked(t, topo.g, seed, tc.beh, tc.byz, true, cached)
					if string(got) != string(ref) {
						t.Errorf("%s literal cached=%v: outcomes or traffic differ from the production path", label, cached)
					}
					if (hits > 0) != cached {
						t.Errorf("%s literal cached=%v: %d verify-cache hits", label, cached, hits)
					}
				}
			}
		}
	}
}
