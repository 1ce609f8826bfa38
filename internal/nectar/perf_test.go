package nectar

// Hot-path micro-benchmarks and allocation-regression pins (DESIGN.md §9).
// The testing.AllocsPerRun assertions are tests, not benchmarks, so CI
// fails if the zero/low-allocation properties of the fast path regress.

import (
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// relayEmitAllocBudget is the pinned per-relay allocation ceiling: the
// measured cost is the chain extension (signing input + hop slice + HMAC
// internals), currently ~16 objects; the ceiling leaves headroom for Go
// runtime drift while still catching a per-destination encode regression
// (which multiplies allocations by the neighborhood degree).
const relayEmitAllocBudget = 24

// deliverFixture builds node 0 of a complete graph plus one valid relay
// message for a remote edge, delivered in round 2.
type deliverFixture struct {
	node  *Node
	from  ids.NodeID
	relay []byte // valid 2-hop message for edge {2,3}, delivered by 1
	dup   []byte // second copy of the same edge via another path
}

func newDeliverFixture(tb testing.TB, opts ...BuildOption) *deliverFixture {
	tb.Helper()
	g := topology.Complete(6)
	scheme := sig.NewHMAC(6, 1)
	nodes, err := BuildNodes(g, 1, scheme, 0, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	encode := func(initiator, other, relayer ids.NodeID) []byte {
		m := ForgeEdgeMsg(scheme.SignerFor(initiator), scheme.SignerFor(other))
		m.Chain = sig.AppendHop(scheme.SignerFor(relayer), proofStatement(m.Proof.Edge), m.Chain)
		return m.Encode(scheme.Verifier().SigSize())
	}
	return &deliverFixture{
		node:  nodes[0],
		from:  1,
		relay: encode(2, 3, 1),
		dup:   encode(3, 2, 1),
	}
}

// TestDeliverDuplicateIsAllocationFree pins the lazy-discard fast path:
// once an edge is known, every further delivery of it must complete
// without a single heap allocation — no chain decode, no hop slice, no
// signature copies (DESIGN.md §9).
func TestDeliverDuplicateIsAllocationFree(t *testing.T) {
	fx := newDeliverFixture(t)
	fx.node.Deliver(2, fx.from, fx.relay)
	if st := fx.node.Stats(); st.Accepted != 1 {
		t.Fatalf("fixture message not accepted: %+v", st)
	}
	allocs := testing.AllocsPerRun(200, func() {
		fx.node.Deliver(2, fx.from, fx.dup)
	})
	if allocs != 0 {
		t.Errorf("duplicate delivery allocates %.1f objects/op, want 0", allocs)
	}
	st := fx.node.Stats()
	if st.Duplicates == 0 || st.LazyDiscards != st.Duplicates {
		t.Errorf("duplicates not lazily discarded: %+v", st)
	}
}

// TestDeliverGarbageRejectionIsAllocationFree pins the header-reject path:
// structurally hopeless input (a garbage flood) must be discarded from the
// 8-byte header without allocating.
func TestDeliverGarbageRejectionIsAllocationFree(t *testing.T) {
	fx := newDeliverFixture(t)
	garbage := make([]byte, 200)
	for i := range garbage {
		garbage[i] = 0xA7 // header decodes to a non-canonical edge
	}
	allocs := testing.AllocsPerRun(200, func() {
		fx.node.Deliver(2, fx.from, garbage)
	})
	if allocs != 0 {
		t.Errorf("garbage rejection allocates %.1f objects/op, want 0", allocs)
	}
	if st := fx.node.Stats(); st.Rejected == 0 {
		t.Error("garbage was not rejected")
	}
}

// TestQuiescentRoundIsAllocationFree pins the steady state of a node
// after discovery: delivering a duplicate and emitting an empty round —
// what every node does for most of the horizon — must not allocate at
// all, thanks to the lazy discard plus arena/send-header reuse.
func TestQuiescentRoundIsAllocationFree(t *testing.T) {
	fx := newDeliverFixture(t)
	fx.node.Emit(1)
	fx.node.Deliver(2, fx.from, fx.relay)
	fx.node.Emit(3) // drains the queue and sizes the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		fx.node.Deliver(2, fx.from, fx.relay) // now a duplicate
		fx.node.Emit(3)
	})
	if allocs != 0 {
		t.Errorf("quiescent deliver+emit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRelayEmitAllocBudget bounds the allocations of re-emitting a queued
// relay. The chain extension is irreducible (hop slice, signing input,
// signature — the HMAC itself allocates), but encode buffers and send
// headers are reused, so the budget stays small and flat in the fan-out
// degree; per-destination encoding would blow well past it.
func TestRelayEmitAllocBudget(t *testing.T) {
	fx := newDeliverFixture(t)
	fx.node.Emit(1)
	fx.node.Deliver(2, fx.from, fx.relay)
	fx.node.Emit(3) // sizes the arena; queue keeps its backing item
	allocs := testing.AllocsPerRun(100, func() {
		fx.node.queue = fx.node.queue[:1] // resurrect the drained item
		fx.node.Emit(3)
	})
	if allocs > relayEmitAllocBudget {
		t.Errorf("relay emit allocates %.1f objects/op, want <= %d", allocs, relayEmitAllocBudget)
	}
}

// BenchmarkDeliver measures the deliver path per message: the dominant
// duplicate case (lazy header discard), the garbage-reject case, and the
// full first-seen verify path (cached and uncached) for scale.
func BenchmarkDeliver(b *testing.B) {
	b.Run("duplicate-lazy", func(b *testing.B) {
		fx := newDeliverFixture(b)
		fx.node.Deliver(2, fx.from, fx.relay)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fx.node.Deliver(2, fx.from, fx.dup)
		}
	})
	b.Run("duplicate-paranoid", func(b *testing.B) {
		fx := newDeliverFixture(b)
		oracle := literalOrder{fx.node}
		oracle.Deliver(2, fx.from, fx.relay)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			oracle.Deliver(2, fx.from, fx.dup)
		}
	})
	b.Run("garbage-reject", func(b *testing.B) {
		fx := newDeliverFixture(b)
		garbage := make([]byte, 200)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fx.node.Deliver(2, fx.from, garbage)
		}
	})
	for _, mode := range []struct {
		name string
		opts []BuildOption
	}{
		{"first-seen-cached", []BuildOption{WithVerifyCache(sig.NewVerifyCache())}},
		{"first-seen-uncached", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			// Fresh node per batch: first-seen acceptance mutates the view,
			// so the same node cannot re-accept. Rebuilding dominates; the
			// per-message cost is the per-iteration delta.
			fxs := make([]*deliverFixture, b.N)
			for i := range fxs {
				fxs[i] = newDeliverFixture(b, mode.opts...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fxs[i].node.Deliver(2, fxs[i].from, fxs[i].relay)
			}
		})
	}
}

// BenchmarkEmitRelay measures the emit path: one queued relay fanned out
// to the neighborhood, arena-reused.
func BenchmarkEmitRelay(b *testing.B) {
	fx := newDeliverFixture(b)
	fx.node.Emit(1)
	fx.node.Deliver(2, fx.from, fx.relay)
	fx.node.Emit(3) // drain once; the backing item survives truncation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.node.queue = fx.node.queue[:1] // resurrect the drained item
		fx.node.Emit(3)
	}
}

// BenchmarkAblationDuplicateDiscard quantifies the verification-skipping
// optimization (DESIGN.md §2) on a whole flood: "fast" is Deliver's
// duplicate-first order, "paranoid" the literal-order oracle, which
// verifies every copy of every edge before discarding it.
func BenchmarkAblationDuplicateDiscard(b *testing.B) {
	g, err := topology.Harary(10, 40)
	if err != nil {
		b.Fatal(err)
	}
	scheme := sig.NewHMAC(40, 1)
	for _, mode := range []struct {
		name    string
		literal bool
	}{{"fast", false}, {"paranoid", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nodes, err := BuildNodes(g, 1, scheme, 0)
				if err != nil {
					b.Fatal(err)
				}
				protos := make([]rounds.Protocol, len(nodes))
				for k, nd := range nodes {
					protos[k] = nd
					if mode.literal {
						protos[k] = literalOrder{nd}
					}
				}
				if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: nodes[0].Rounds(), Seed: 1}, protos); err != nil {
					b.Fatal(err)
				}
				for k, nd := range nodes {
					if o := nd.Decide(); o.Decision != NotPartitionable {
						b.Fatalf("node %d decided %v", k, o.Decision)
					}
				}
			}
		})
	}
}
