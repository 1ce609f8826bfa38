package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/report"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// A traced run first makes one untraced pass, whose records are what the
// replays must reproduce, then repeats traced passes until the window is
// full, then makes one more untraced pass: the base of the tracing
// overhead, measured warm like the traced passes.

// tracedPasses repeats plan until the window is full; every pass's
// outputs must equal the untraced pass's.
func (r *result) tracedPasses(cfg config, plan *exp.Plan, opts exp.Options, ref outcome) (passes int, walls time.Duration, err error) {
	for passes == 0 || walls.Seconds() < cfg.seconds {
		p, err := execute(plan, opts)
		if err != nil {
			return 0, 0, err
		}
		passes++
		r.check(summarize(plan, p.res), ref, passes)
		walls += p.wall
	}
	return passes, walls, nil
}

// untracedPass runs an untraced pass and counts it; its outputs must
// equal ref's when ref is given.
func (r *result) untracedPass(plan *exp.Plan, opts exp.Options, ref *outcome) (pass, outcome, error) {
	p, err := execute(plan, opts)
	if err != nil {
		return p, outcome{}, err
	}
	o := summarize(plan, p.res)
	if ref == nil {
		ref = &o
	}
	r.check(o, *ref, 0)
	return p, o, nil
}

// traceSweep is the traced run of a local sweep workload.
func traceSweep(def sweepDef, cfg config) (*result, error) {
	r := &result{}
	plan, err := def.plan(planSeed(cfg.seed, 0))
	if err != nil {
		return nil, err
	}
	opts := exp.Options{Jobs: cfg.jobs}
	ref, refOut, err := r.untracedPass(plan, opts, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	wrapped, err := wrapPlan(plan, ref.res, tr)
	if err != nil {
		return nil, err
	}
	passes, walls, err := r.tracedPasses(cfg, wrapped, opts, refOut)
	if err != nil {
		return nil, err
	}
	base, _, err := r.untracedPass(plan, opts, &refOut)
	if err != nil {
		return nil, err
	}
	r.perLayer(tr, cfg.jobs, walls, passes, base.wall, nil)
	return r, nil
}

// traceFleet is the traced run of the fleet workload: the worker builds
// traced plans, and its listener counts the tcpnet traffic.
func traceFleet(cfg config) (*result, error) {
	r := &result{}
	tr := &tracer{}
	var mu sync.Mutex
	var refRes *exp.Results // set once the untraced pass is done
	build := func(blob []byte) (*exp.Plan, error) {
		plan, err := report.BuildPlanFromBlob(blob)
		mu.Lock()
		ref := refRes
		mu.Unlock()
		if err != nil || ref == nil {
			return plan, err
		}
		return wrapPlan(plan, ref, tr)
	}
	cl := &countingListener{}
	f, err := startFleet(cfg, build, func(ln net.Listener) net.Listener {
		cl.Listener = ln
		return cl
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	plan := f.plans[0]
	opts := exp.Options{Backend: f.coords[0]}
	ref, refOut, err := r.untracedPass(plan, opts, nil)
	if err != nil {
		return nil, err
	}
	mu.Lock()
	refRes = ref.res
	mu.Unlock()
	tcp0 := cl.snapshot()
	passes, walls, err := r.tracedPasses(cfg, plan, opts, refOut)
	if err != nil {
		return nil, err
	}
	tcp := cl.snapshot()
	tcp.frames -= tcp0.frames
	tcp.bytes -= tcp0.bytes
	tcp.readNS -= tcp0.readNS
	tcp.writeNS -= tcp0.writeNS
	mu.Lock()
	refRes = nil
	mu.Unlock()
	base, _, err := r.untracedPass(plan, opts, &refOut)
	if err != nil {
		return nil, err
	}
	r.perLayer(tr, cfg.jobs, walls, passes, base.wall, &tcp)
	return r, nil
}

// traceLargeN replays each large-n detection from the constructors
// nectar.Simulate uses, with every core given to the engine.
func traceLargeN(cfg config) (*result, error) {
	r := &result{}
	gs, err := largeNGraphs(cfg.seed)
	if err != nil {
		return nil, err
	}
	refs := make([]detection, len(gs))
	for i, lg := range gs {
		if refs[i], err = detect(lg, cfg.seed); err != nil {
			return nil, err
		}
		r.checkDetection(lg, refs[i], refs[i])
	}
	tr := &tracer{}
	var walls time.Duration
	pairs := 0
	for pairs == 0 || walls.Seconds() < cfg.seconds {
		for i, lg := range gs {
			t0 := time.Now()
			d, l, err := replayDetection(lg, cfg.seed)
			wall := time.Since(t0)
			if err != nil {
				return nil, err
			}
			l.finishUnit(int64(wall) * int64(cfg.jobs))
			tr.unit(&l, wall, d.fingerprint != refs[i].fingerprint)
			r.checkDetection(lg, d, refs[i])
			walls += wall
		}
		pairs++
	}
	var untraced time.Duration
	for i, lg := range gs {
		d, err := detect(lg, cfg.seed)
		if err != nil {
			return nil, err
		}
		r.checkDetection(lg, d, refs[i])
		untraced += d.wall
	}
	r.perLayer(tr, cfg.jobs, walls, pairs, untraced, nil)
	return r, nil
}

// replayDetection is nectar.Simulate's default path, rebuilt from its
// public constructors with spans around each.
func replayDetection(lg largeGraph, seed int64) (detection, layers, error) {
	var l layers
	g := lg.g
	n := g.N()
	tb := time.Now()
	base := sig.ByName("slim", n, seed)
	l[lKeygenNS] = since(tb)
	ts := newTracedScheme(base, n)
	vcache := sig.NewVerifyCache()
	t0 := time.Now()
	nodes, err := nectar.BuildNodes(g, largeT, ts, 0, nectar.WithVerifyCache(vcache))
	l[lNectarBuildNS] = since(t0)
	if err != nil {
		return detection{}, l, err
	}
	protos := make([]rounds.Protocol, n)
	for i, nd := range nodes {
		protos[i] = nd
	}
	l[lBuildNS] = since(tb) - l[lKeygenNS] - l[lNectarBuildNS]
	m, err := ts.runEngine(rounds.Config{Graph: g, Rounds: n - 1, Seed: seed}, protos, &l)
	if err != nil {
		return detection{}, l, err
	}
	dc := nectar.NewDecideCache()
	verdicts := make([]byte, n)
	for i, nd := range nodes {
		t1 := time.Now()
		o := nd.DecideShared(dc)
		l[lDecideNS] += since(t1)
		l[lDecides]++
		verdicts[i] = verdictByte(o.Decision == nectar.Partitionable, o.Confirmed)
		st := nd.Stats()
		l[lAccepted] += int64(st.Accepted)
		l[lDuplicates] += int64(st.Duplicates)
		l[lRejected] += int64(st.Rejected)
	}
	l[lDecideHits] += dc.Hits()
	var d detection
	d.hits, d.misses = vcache.Stats()
	l[lCacheHits] += d.hits
	l[lCacheMisses] += d.misses
	ts.sigTotals(&l)
	t2 := time.Now()
	d.score(lg, m.BytesSent, m.BytesBroadcast, m.ActiveRounds, verdicts)
	l[lScoreNS] = since(t2)
	return d, l, nil
}

// perLayer sets the per-layer metrics of a traced run, per traced pass
// (per trial on large-n), and checks that the additive self times plus
// unattributed time equal the traced worker time.
func (r *result) perLayer(tr *tracer, jobs int, walls time.Duration, passes int, untracedWall time.Duration, tcp *tcpCounts) {
	t := &tr.tot
	p := float64(passes)
	msOf := func(ns int64) float64 { return float64(ns) / 1e6 / p }
	count := func(c int64) float64 { return float64(c) / p }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	workerNS := int64(walls) * int64(jobs)
	outside := workerNS - t[lUnitNS]
	r.set("exp.units", count(t[lUnits]), "count")
	r.set("exp.unit_ms_p50", quantile(tr.unitMS, 0.5), "ms")
	r.set("exp.unit_ms_p90", quantile(tr.unitMS, 0.9), "ms")
	idle, overhead, remote := outside, int64(0), int64(0)
	if tcp != nil {
		idle, overhead, remote = 0, outside, t[lUnitNS]
	}
	r.set("exp.idle_ms", msOf(idle), "ms")
	r.set("dist.remote_unit_ms", msOf(remote), "ms")
	r.set("dist.overhead_ms", msOf(overhead), "ms")
	var tc tcpCounts
	if tcp != nil {
		tc = *tcp
	}
	r.set("tcpnet.frames", count(tc.frames), "count")
	r.set("tcpnet.bytes", count(tc.bytes), "B")
	r.set("tcpnet.read_ms", msOf(tc.readNS), "ms")
	r.set("tcpnet.write_ms", msOf(tc.writeNS), "ms")

	r.set("harness.build_ms", msOf(t[lBuildNS]), "ms")
	r.set("harness.score_ms", msOf(t[lScoreNS]), "ms")
	r.set("harness.dynamic_ms", msOf(t[lDynamicNS]), "ms")
	r.set("topology.gen_ms", msOf(t[lTopoNS]), "ms")
	r.set("graph.truth_kappa_ms", msOf(t[lTruthNS]), "ms")

	r.set("sig.keygen_ms", msOf(t[lKeygenNS]), "ms")
	r.set("sig.sign_calls", count(t[lSigns]), "count")
	r.set("sig.sign_ms", msOf(t[lSignNS]), "ms")
	r.set("sig.verify_calls", count(t[lVerifies]), "count")
	r.set("sig.verify_ms", msOf(t[lVerifyNS]), "ms")
	r.set("sig.verifycache_hits", count(t[lCacheHits]), "count")
	r.set("sig.verifycache_misses", count(t[lCacheMisses]), "count")
	r.set("sig.verifycache_hit_ratio", ratio(t[lCacheHits], t[lCacheHits]+t[lCacheMisses]), "ratio")

	handled := t[lAccepted] + t[lDuplicates] + t[lRejected]
	r.set("nectar.build_ms", msOf(t[lNectarBuildNS]), "ms")
	r.set("nectar.emit_ms", msOf(t[lEmitNS]), "ms")
	r.set("nectar.emit_self_ms", msOf(t[lEmitSelfNS]), "ms")
	r.set("nectar.deliver_ms", msOf(t[lDeliverNS]), "ms")
	r.set("nectar.deliver_self_ms", msOf(t[lDeliverSelfNS]), "ms")
	r.set("nectar.deliver_calls", count(t[lDelivers]), "count")
	r.set("nectar.accept_ratio", ratio(t[lAccepted], handled), "ratio")
	r.set("nectar.dup_ratio", ratio(t[lDuplicates], handled), "ratio")
	r.set("nectar.reject_ratio", ratio(t[lRejected], handled), "ratio")
	r.set("nectar.decide_ms", msOf(t[lDecideNS]), "ms")
	r.set("nectar.decidecache_hit_ratio", ratio(t[lDecideHits], t[lDecides]), "ratio")

	r.set("rounds.run_ms", msOf(t[lRunNS]), "ms")
	r.set("rounds.self_ms", msOf(t[lRoundsSelfNS]), "ms")
	r.set("rounds.active_rounds", count(t[lActiveRounds]), "count")
	r.set("rounds.msgs", count(t[lMsgs]), "count")
	r.set("rounds.bytes", count(t[lBytes]), "B")
	r.set("adversary.step_ms", msOf(t[lAdvNS]), "ms")
	r.set("adversary.msgs", count(t[lAdvMsgs]), "count")
	r.set("mtg.step_ms", msOf(t[lMtgNS]), "ms")

	r.set("unattributed_ms", msOf(t[lUnattributedNS]), "ms")
	r.set("trace.worker_ms", msOf(workerNS), "ms")
	tracedPass := walls / time.Duration(passes)
	r.set("trace.overhead_ratio", float64(tracedPass)/float64(untracedWall)-1, "ratio")

	sum := outside + t[lUnattributedNS]
	for _, i := range selfParts {
		sum += t[i]
	}
	r.notef("traced: %d passes, %.1f ms per pass against %.1f ms untraced (overhead %.1f%%); jobs=%d",
		passes, ms(tracedPass), ms(untracedWall), 100*(float64(tracedPass)/float64(untracedWall)-1), jobs)
	r.notef("additivity: self times + unattributed = %.3f ms, traced worker time = %.3f ms per pass", msOf(sum), msOf(workerNS))
	if sum != workerNS {
		r.fail(1, "layer self times do not add up to the traced worker time")
	}
	r.fail(tr.mismatches, "replayed units whose bytes, verdicts or active rounds differ from the untraced record")
	r.shares(t, outside, workerNS, tcp != nil)
}

// shares prints each additive part's share of the traced worker time.
func (r *result) shares(t *layers, outside, workerNS int64, fleet bool) {
	name := map[int]string{
		lDynamicNS: "harness.dynamic", lTopoNS: "topology.gen", lKeygenNS: "sig.keygen",
		lBuildNS: "harness.build", lNectarBuildNS: "nectar.build", lSignNS: "sig.sign",
		lVerifyNS: "sig.verify", lRoundsSelfNS: "rounds.self", lEmitSelfNS: "nectar.emit_self",
		lDeliverSelfNS: "nectar.deliver_self", lAdvNS: "adversary.step", lMtgNS: "mtg.step",
		lDecideNS: "nectar.decide", lTruthNS: "graph.truth_kappa", lScoreNS: "harness.score",
		lUnattributedNS: "unattributed",
	}
	line := "shares:"
	outsideName := "exp.idle"
	if fleet {
		outsideName = "dist.overhead"
	}
	pct := func(ns int64) float64 { return 100 * float64(ns) / float64(workerNS) }
	line += fmtShare(outsideName, pct(outside))
	for _, i := range append(selfParts, lUnattributedNS) {
		line += fmtShare(name[i], pct(t[i]))
	}
	r.notef("%s", line)
}

func fmtShare(name string, pct float64) string {
	if pct == 0 {
		return ""
	}
	return fmt.Sprintf(" %s %.1f%%", name, pct)
}
