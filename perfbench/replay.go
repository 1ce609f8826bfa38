package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"github.com/nectar-repro/nectar/internal/adversary"
	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/mtg"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// A harness unit builds its trial stack internally, so the traced run
// replays static units from the same public constructors — the spec's
// scenario function, sig.ByName, nectar.BuildNodes, mtg.NewNode(V2), the
// adversary constructors, rounds.Run and Node.DecideShared — with spans
// around each, and checks every replayed record against the record the
// harness produced for the same unit.

// nodeDecision is one correct node's scored decision.
type nodeDecision struct {
	detected, confirmed bool
	key                 string
}

// stack is one replayed trial's wiring.
type stack struct {
	protos []rounds.Protocol
	finish func(l *layers) ([]nodeDecision, obs.FastPath)
}

// replayStatic runs unit seed of spec with engineWorkers engine workers
// and returns its record and spans.
func replayStatic(spec *harness.Spec, seed int64, engineWorkers int) (harness.Trial, layers, error) {
	var l layers
	t0 := time.Now()
	sc, err := spec.Scenario(rand.New(rand.NewSource(seed)))
	l[lTopoNS] = since(t0)
	if err != nil {
		return harness.Trial{}, l, err
	}
	n := sc.Graph.N()

	tb := time.Now()
	base := sig.ByName(spec.SchemeName, n, seed^0x5F5F5F5F)
	l[lKeygenNS] = since(tb)
	if base == nil {
		return harness.Trial{}, l, fmt.Errorf("unknown scheme %q", spec.SchemeName)
	}
	ts := newTracedScheme(base, n)
	st, err := buildStack(spec, sc, ts, base, seed, &l)
	if err != nil {
		return harness.Trial{}, l, err
	}
	// Signing during the build is proof signing (NECTAR) or key setup
	// (MtGv2): count it under sig, not under the stack wiring.
	var buildSig int64
	for i := range ts.nodes {
		buildSig += ts.nodes[i].signNS + ts.nodes[i].verifyNS
	}
	l[lBuildNS] = since(tb) - l[lKeygenNS] - l[lNectarBuildNS]
	if spec.Protocol == harness.ProtoNectar {
		l[lNectarBuildNS] -= buildSig
	} else {
		l[lBuildNS] -= buildSig
	}

	horizon := spec.Rounds
	if horizon == 0 {
		horizon = n - 1
	}
	m, err := ts.runEngine(rounds.Config{
		Graph:       sc.Graph,
		Rounds:      horizon,
		Seed:        seed,
		Workers:     engineWorkers,
		FullHorizon: spec.FullHorizon,
		LossRate:    spec.LossRate,
	}, st.protos, &l)
	if err != nil {
		return harness.Trial{}, l, err
	}
	decisions, pc := st.finish(&l)
	ts.sigTotals(&l)

	t1 := time.Now()
	trial := scoreTrial(spec, sc, decisions, pc, m, &l)
	l[lScoreNS] = since(t1) - l[lTruthNS]
	return trial, l, nil
}

// buildStack wires one protocol stack per vertex, as the harness does.
func buildStack(spec *harness.Spec, sc *harness.Scenario, ts *tracedScheme, base sig.Scheme, seed int64, l *layers) (*stack, error) {
	switch spec.Protocol {
	case harness.ProtoNectar:
		return buildNectar(spec, sc, ts, base, seed, l)
	case harness.ProtoMtG, harness.ProtoMtGv2:
		return buildMtG(spec, sc, ts, seed)
	}
	return nil, fmt.Errorf("unknown protocol %q", spec.Protocol)
}

func buildNectar(spec *harness.Spec, sc *harness.Scenario, ts *tracedScheme, base sig.Scheme, seed int64, l *layers) (*stack, error) {
	g := sc.Graph
	var opts []nectar.BuildOption
	var vcache *sig.VerifyCache
	if !spec.NoVerifyCache {
		vcache = sig.NewVerifyCache()
		opts = append(opts, nectar.WithVerifyCache(vcache))
	}
	t0 := time.Now()
	nodes, err := nectar.BuildNodes(g, spec.T, ts, spec.Rounds, opts...)
	l[lNectarBuildNS] = since(t0)
	if err != nil {
		return nil, err
	}
	if ts.verifiers != g.N() {
		return nil, fmt.Errorf("BuildNodes asked for %d verifiers, want one per node (%d)", ts.verifiers, g.N())
	}
	protos := make([]rounds.Protocol, g.N())
	for i, nd := range nodes {
		protos[i] = nd
	}
	sigSize := base.Verifier().SigSize()
	horizon := spec.Rounds
	if horizon == 0 {
		horizon = g.N() - 1
	}
	var coord *adversary.Coordinator
	if spec.Attack == harness.AttackAdaptive || spec.Attack == harness.AttackPhased {
		coord = adversary.NewCoordinator()
	}
	for _, b := range sc.Byz.Sorted() {
		inner := nodes[b]
		nbrs := g.Neighbors(b)
		if spec.Attack != harness.AttackNone && spec.Attack != "" {
			ts.nodes[b].kind = kindAdversary
		}
		switch spec.Attack {
		case harness.AttackNone, "":
		case harness.AttackCrash:
			protos[b] = adversary.Silent{}
		case harness.AttackSplitBrain:
			protos[b] = adversary.SplitBrain(inner, sc.Blocked[b])
		case harness.AttackFakeEdges:
			var partners []sig.Signer
			for _, other := range sc.Byz.Sorted() {
				if other != b {
					partners = append(partners, ts.SignerFor(other))
				}
			}
			protos[b] = adversary.NewNectarFakeEdges(inner, ts.SignerFor(b), partners, sigSize, nbrs)
		case harness.AttackGarbage:
			protos[b] = adversary.NewGarbage(nbrs, seed^int64(b), 200)
		case harness.AttackStale:
			protos[b] = adversary.NewNectarStaleReplay(inner)
		case harness.AttackEquivocate:
			protos[b] = adversary.NectarEquivocate(inner)
		case harness.AttackOmitOwn:
			hide := make(map[graph.Edge]bool)
			for other := range sc.Byz {
				if other != b && g.HasEdge(b, other) {
					hide[graph.NewEdge(b, other)] = true
				}
			}
			protos[b] = adversary.NectarOmitOwn(inner, sigSize, hide)
		case harness.AttackAdaptive:
			protos[b] = coord.Join(inner, b, nbrs, adversary.AlwaysEquivocate())
		case harness.AttackPhased:
			protos[b] = coord.Join(inner, b, nbrs, adversary.StaleThenEquivocate(adversary.PhasedSwitchRound(horizon)))
		default:
			return nil, fmt.Errorf("attack %q not defined for NECTAR", spec.Attack)
		}
	}
	finish := func(l *layers) ([]nodeDecision, obs.FastPath) {
		dc := nectar.NewDecideCache()
		out := make([]nodeDecision, g.N())
		var pc obs.FastPath
		for i, nd := range nodes {
			if sc.Byz.Has(ids.NodeID(i)) {
				continue
			}
			t0 := time.Now()
			o := nd.DecideShared(dc)
			l[lDecideNS] += since(t0)
			l[lDecides]++
			out[i] = nodeDecision{
				detected:  o.Decision == nectar.Partitionable,
				key:       o.Decision.String(),
				confirmed: o.Confirmed,
			}
			st := nd.Stats()
			pc.LazyDiscards += int64(st.LazyDiscards)
			l[lAccepted] += int64(st.Accepted)
			l[lDuplicates] += int64(st.Duplicates)
			l[lRejected] += int64(st.Rejected)
		}
		pc.VerifyCacheHits, pc.VerifyCacheMisses = vcache.Stats()
		pc.DecideCacheHits = dc.Hits()
		l[lDecideHits] += dc.Hits()
		l[lCacheHits] += pc.VerifyCacheHits
		l[lCacheMisses] += pc.VerifyCacheMisses
		return out, pc
	}
	return &stack{protos: protos, finish: finish}, nil
}

// buildMtG wires MtG (v2 when the spec says so) with its Byzantine
// behaviours.
func buildMtG(spec *harness.Spec, sc *harness.Scenario, ts *tracedScheme, seed int64) (*stack, error) {
	g := sc.Graph
	n := g.N()
	protos := make([]rounds.Protocol, n)
	decide := make([]func() bool, n)
	v2 := spec.Protocol == harness.ProtoMtGv2
	for i := range protos {
		me := ids.NodeID(i)
		ts.nodes[i].kind = kindMtg
		nbrs := append([]ids.NodeID(nil), g.Neighbors(me)...)
		if v2 {
			nd, err := mtg.NewNodeV2(mtg.ConfigV2{
				N: n, Me: me, Neighbors: nbrs,
				Signer: ts.SignerFor(me), Verifier: ts.Verifier(),
				Fanout: spec.Fanout, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			protos[i], decide[i] = nd, func() bool { return nd.Decide().Partitioned }
			continue
		}
		nd, err := mtg.NewNode(mtg.Config{N: n, Me: me, Neighbors: nbrs, Fanout: spec.Fanout, Seed: seed})
		if err != nil {
			return nil, err
		}
		protos[i], decide[i] = nd, func() bool { return nd.Decide().Partitioned }
	}
	for b := range sc.Byz {
		nbrs := g.Neighbors(b)
		if spec.Attack != harness.AttackNone && spec.Attack != "" {
			ts.nodes[b].kind = kindAdversary
		}
		switch spec.Attack {
		case harness.AttackNone, "":
		case harness.AttackCrash:
			protos[b] = adversary.Silent{}
		case harness.AttackSplitBrain:
			protos[b] = adversary.SplitBrain(protos[b], sc.Blocked[b])
		case harness.AttackPoison:
			if v2 {
				return nil, fmt.Errorf("attack %q not defined for MtGv2", spec.Attack)
			}
			protos[b] = adversary.NewBloomPoison(nbrs, mtg.DefaultFilterBits, mtg.DefaultFilterHashes)
		case harness.AttackGarbage:
			size := mtg.DefaultFilterBits / 8
			if v2 {
				size = 128
			}
			protos[b] = adversary.NewGarbage(nbrs, seed^int64(b), size)
		default:
			return nil, fmt.Errorf("attack %q not defined for %s", spec.Attack, spec.Protocol)
		}
	}
	finish := func(l *layers) ([]nodeDecision, obs.FastPath) {
		t0 := time.Now()
		out := make([]nodeDecision, n)
		for i := range out {
			if sc.Byz.Has(ids.NodeID(i)) {
				continue
			}
			p := decide[i]()
			out[i] = nodeDecision{detected: p, key: fmt.Sprintf("partitioned=%v", p)}
		}
		l[lMtgNS] += since(t0)
		return out, obs.FastPath{}
	}
	return &stack{protos: protos, finish: finish}, nil
}

// scoreTrial scores a replayed trial over its correct nodes, as the
// harness does; the ground-truth connectivity checks are their own span.
func scoreTrial(spec *harness.Spec, sc *harness.Scenario, decisions []nodeDecision, pc obs.FastPath, m *rounds.Metrics, l *layers) harness.Trial {
	g := sc.Graph
	t0 := time.Now()
	truth := harness.Truth{
		GraphPartitioned:   g.IsPartitioned(),
		CorrectPartitioned: !g.InducedSubgraphConnected(sc.Byz),
		TByzPartitionable:  g.IsTByzPartitionable(spec.T),
		TwoTConnected:      spec.T > 0 && g.ConnectivityAtLeast(2*spec.T),
	}
	l[lTruthNS] += since(t0)
	for b := range sc.Byz {
		enclave := true
		for _, nb := range g.Neighbors(b) {
			if !sc.Byz.Has(nb) {
				enclave = false
				break
			}
		}
		if enclave {
			truth.ByzEnclave = true
			break
		}
	}
	expected := truth.CorrectPartitioned
	if spec.Protocol == harness.ProtoNectar {
		expected = truth.TByzPartitionable
	}
	t := harness.Trial{Truth: truth, Agreement: true, Rounds: m.Rounds, ActiveRounds: m.ActiveRounds, FastPath: pc}
	var correct, detected, confirmed, accurate int
	var bytesSum, bytesMax, bcastSum int64
	firstKey := ""
	for i, d := range decisions {
		if sc.Byz.Has(ids.NodeID(i)) {
			continue
		}
		correct++
		if d.detected {
			detected++
		}
		if d.confirmed {
			confirmed++
		}
		if d.detected == expected {
			accurate++
		}
		if firstKey == "" {
			firstKey = d.key
		} else if d.key != firstKey {
			t.Agreement = false
		}
		b := m.BytesSent[i]
		bytesSum += b
		bcastSum += m.BytesBroadcast[i]
		if b > bytesMax {
			bytesMax = b
		}
	}
	if correct > 0 {
		t.Accuracy = float64(accurate) / float64(correct)
		t.DetectRate = float64(detected) / float64(correct)
		t.ConfirmRate = float64(confirmed) / float64(correct)
		t.MeanBytesPerNode = float64(bytesSum) / float64(correct)
		t.MeanBroadcastBytes = float64(bcastSum) / float64(correct)
	}
	t.MaxBytesPerNode = float64(bytesMax)
	return t
}

// sameTrial compares two records after a JSON round trip (the form the
// scheduler stores), with the verify-cache split folded into its sum.
func sameTrial(a, b harness.Trial) bool {
	ja, errA := json.Marshal(normalizeTrial(a))
	jb, errB := json.Marshal(normalizeTrial(b))
	if errA != nil || errB != nil {
		return false
	}
	var ra, rb harness.Trial
	if json.Unmarshal(ja, &ra) != nil || json.Unmarshal(jb, &rb) != nil {
		return false
	}
	ja, _ = json.Marshal(ra)
	jb, _ = json.Marshal(rb)
	return string(ja) == string(jb)
}

// replayRunner is a traced exp.TrialRunner: it delegates the plan-facing
// methods to the harness runner and replaces Run with a traced replay
// (static units) or a timed call of the harness runner (dynamic units).
type replayRunner struct {
	exp.TrialRunner
	spec *harness.Spec   // nil for units that are not replayed
	ref  []harness.Trial // the harness records of an untraced pass
	tr   *tracer
}

func (r *replayRunner) Run(i, engineWorkers int) (any, error) {
	t0 := time.Now()
	if r.spec == nil {
		rec, err := r.TrialRunner.Run(i, engineWorkers)
		wall := time.Since(t0)
		var l layers
		l[lDynamicNS] = int64(wall) * int64(engineWorkers)
		l.finishUnit(l[lDynamicNS])
		r.tr.unit(&l, wall, false)
		return rec, err
	}
	trial, l, err := replayStatic(r.spec, r.UnitSeed(i), engineWorkers)
	wall := time.Since(t0)
	l.finishUnit(int64(wall) * int64(engineWorkers))
	r.tr.unit(&l, wall, err == nil && !sameTrial(trial, r.ref[i]))
	return trial, err
}

// wrapPlan returns plan with every runner traced. ref is an untraced
// pass over the same plan: it supplies each static spec (with its
// scenario function) and the harness records to check replays against.
func wrapPlan(plan *exp.Plan, ref *exp.Results, tr *tracer) (*exp.Plan, error) {
	out := &exp.Plan{}
	for i, sp := range plan.Specs {
		rr := &replayRunner{TrialRunner: sp.Runner, tr: tr}
		if agg, ok := ref.Specs[i].Aggregate.(*harness.Result); ok {
			spec := agg.Spec
			rr.spec, rr.ref = &spec, agg.Trials
		}
		if err := out.Add(sp.Key, rr); err != nil {
			return nil, err
		}
	}
	return out, nil
}
