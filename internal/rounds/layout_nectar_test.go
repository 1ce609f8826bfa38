package rounds_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// TestLayoutsByteIdenticalNectar runs NECTAR under both staging layouts
// on a connected tree and on a partitioned scatter: every node's decision
// and the traffic metrics must match byte for byte.
func TestLayoutsByteIdenticalNectar(t *testing.T) {
	tree, err := topology.KaryTree(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	scatter, _, err := topology.Drone(30, 4, 1.2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		g           *graph.Graph
		partitioned bool
	}{{"tree", tree, false}, {"scatter", scatter, true}} {
		run := func(soa bool) []byte {
			scheme := sig.NewHMAC(tc.g.N(), 9)
			nodes, err := nectar.BuildNodes(tc.g, 1, scheme, 0, nectar.WithVerifyCache(sig.NewVerifyCache()))
			if err != nil {
				t.Fatal(err)
			}
			protos := make([]rounds.Protocol, len(nodes))
			for i, nd := range nodes {
				protos[i] = nd
			}
			m, err := rounds.RunLayout(rounds.Config{Graph: tc.g, Rounds: tc.g.N() - 1, Seed: 9, Workers: 2}, protos, soa)
			if err != nil {
				t.Fatal(err)
			}
			outcomes := make([]nectar.Outcome, len(nodes))
			for i, nd := range nodes {
				outcomes[i] = nd.Decide()
				if outcomes[i].Confirmed != tc.partitioned {
					t.Fatalf("%s: node %d confirmed=%v, want %v", tc.name, i, outcomes[i].Confirmed, tc.partitioned)
				}
			}
			b, err := json.Marshal(struct {
				Outcomes []nectar.Outcome
				Metrics  *rounds.Metrics
			}{outcomes, m})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if aos, soa := run(false), run(true); string(aos) != string(soa) {
			t.Errorf("%s: decisions or traffic differ between staging layouts", tc.name)
		}
	}
}
