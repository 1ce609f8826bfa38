package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/exp/dist"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/report"
	"github.com/nectar-repro/nectar/internal/topology"
)

// setupsPerPass is how many extra set-ups a run times before each pass.
const setupsPerPass = 2

// sweepDef is a sweep workload: report experiments in quick form, plus
// extra harness specs declared here. A run cycles through plans copies
// of the plan, each declared from its own seed derived from the workload
// seed: the quick grids draw few random graphs per cell, and averaging
// over several draws keeps one workload seed from reading much faster or
// slower than another. One cycle takes about 20 s on two cores.
type sweepDef struct {
	ids   []string
	extra func(seed int64) []harness.Spec
	plans int
}

// paperCost is nectar-bench's quick cost sweep: Figs. 3-7, the topology
// cost table and the churn table.
var paperCost = sweepDef{ids: []string{"fig3", "fig4", "fig5", "fig6", "fig7", "topo-cost", "churn"}, plans: 5}

// paperByzantine is Fig. 8 and the §V-D table, plus NECTAR under each §IV
// deviation.
var paperByzantine = sweepDef{ids: []string{"fig8", "byz-topo"}, extra: deviationSpecs, plans: 4}

// planSeed derives the seed of plan j from the workload seed.
func planSeed(seed int64, j int) int64 { return seed*16 + int64(j) }

// buildPlans declares the run's plans.
func (s sweepDef) buildPlans(seed int64) ([]*exp.Plan, error) {
	plans := make([]*exp.Plan, s.plans)
	for j := range plans {
		var err error
		if plans[j], err = s.plan(planSeed(seed, j)); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

func (s sweepDef) opts(seed int64) report.Options {
	return report.Options{Seed: seed, Quick: true, Scheme: "hmac"}
}

// plan declares one exp plan. Every trial seed derives from seed through
// the specs, never from a pass or iteration count.
func (s sweepDef) plan(seed int64) (*exp.Plan, error) {
	plan, err := report.BuildPlan(s.ids, s.opts(seed))
	if err != nil {
		return nil, err
	}
	if s.extra == nil {
		return plan, nil
	}
	for _, spec := range s.extra(seed) {
		r, err := harness.NewRunner(spec)
		if err != nil {
			return nil, err
		}
		if err := plan.Add(spec.Name, r); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// deviationSpecs runs NECTAR under each §IV deviation on cut-placement
// Harary(4,60) and KDiamond(4,60) with t = 2. Both graphs are
// 4-connected, so the correct verdict is NOT_PARTITIONABLE everywhere.
func deviationSpecs(seed int64) []harness.Spec {
	const n, k, t, trials = 60, 4, 2, 4
	fams := []struct {
		name string
		gen  func(k, n int) (*graph.Graph, error)
	}{{"harary(4,60)", topology.Harary}, {"k-diamond(4,60)", topology.KDiamond}}
	attacks := []harness.AttackKind{
		harness.AttackGarbage, harness.AttackFakeEdges, harness.AttackStale,
		harness.AttackEquivocate, harness.AttackOmitOwn, harness.AttackCrash,
	}
	var specs []harness.Spec
	for _, fam := range fams {
		gen := fam.gen
		for _, a := range attacks {
			specs = append(specs, harness.Spec{
				Name:     fmt.Sprintf("deviation/%s/%s", fam.name, a),
				Protocol: harness.ProtoNectar,
				Attack:   a,
				Scenario: harness.CutPlacement(func(*rand.Rand) (*graph.Graph, error) {
					return gen(k, n)
				}, t),
				T:          t,
				Trials:     trials,
				Seed:       seed,
				SchemeName: "hmac",
			})
		}
	}
	return specs
}

// pass is one execution of a whole plan.
type pass struct {
	wall   time.Duration
	unitMS []float64 // per-unit run time as the scheduler measured it
	res    *exp.Results
}

// execute runs the plan once through exp.Execute. It returns an error
// only when there are no results; failed units are counted from the
// results by summarize.
func execute(plan *exp.Plan, opts exp.Options) (pass, error) {
	var p pass
	opts.OnUnit = func(ev exp.UnitEvent) { // serialized by the scheduler
		if ev.Err == nil && !ev.Resumed {
			p.unitMS = append(p.unitMS, ms(ev.Elapsed))
		}
	}
	t0 := time.Now()
	res, err := exp.Execute(plan, opts)
	p.wall = time.Since(t0)
	p.res = res
	if res == nil {
		return p, err
	}
	return p, nil
}

// outcome summarizes one pass's deterministic outputs.
type outcome struct {
	digest                     string
	units, unitErrs            int
	static, nectar             int
	nectarWrong, nectarSplit   int
	accSum, kbBcast, kbUnicast float64
}

// normalizeTrial folds the verify-cache hit/miss split into its sum. The
// split races when an engine runs more than one worker (a known defect);
// the sum is exact.
func normalizeTrial(t harness.Trial) harness.Trial {
	t.VerifyCacheHits += t.VerifyCacheMisses
	t.VerifyCacheMisses = 0
	return t
}

// summarize digests every trial record of a pass and counts the checks:
// unit errors, NECTAR trials with a wrong verdict, and NECTAR trials
// whose correct nodes disagree.
func summarize(plan *exp.Plan, res *exp.Results) outcome {
	var o outcome
	h := sha256.New()
	for i, sr := range res.Specs {
		units := plan.Specs[i].Runner.Units()
		o.units += units
		fmt.Fprintf(h, "%s\n", sr.Key)
		if sr.Err != nil {
			o.unitErrs += units
			continue
		}
		var recs any = sr.Aggregate
		switch agg := sr.Aggregate.(type) {
		case *harness.Result:
			trials := make([]harness.Trial, len(agg.Trials))
			for j, t := range agg.Trials {
				trials[j] = normalizeTrial(t)
				o.static++
				o.kbBcast += t.MeanBroadcastBytes / 1000
				o.kbUnicast += t.MeanBytesPerNode / 1000
				if agg.Spec.Protocol != harness.ProtoNectar {
					continue
				}
				o.nectar++
				o.accSum += t.Accuracy
				if t.Accuracy != 1 {
					o.nectarWrong++
				}
				if !t.Agreement {
					o.nectarSplit++
				}
			}
			recs = trials
		case *harness.DynamicResult:
			recs = agg.Trials
		}
		b, err := json.Marshal(recs)
		if err != nil {
			o.unitErrs += units
			continue
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	o.digest = hex.EncodeToString(h.Sum(nil)[:12])
	return o
}

// check adds one pass's outcome to the run's counts, comparing its
// outputs with the first pass's.
func (r *result) check(o, first outcome, passNo int) {
	r.attempted += o.units
	r.fail(o.unitErrs, "unit errors in pass %d", passNo)
	r.fail(o.nectarWrong, "NECTAR trials with a wrong verdict in pass %d", passNo)
	r.fail(o.nectarSplit, "NECTAR trials whose correct nodes disagree in pass %d", passNo)
	if o.digest != first.digest {
		r.fail(o.units, "outputs of pass %d (%s) differ from the reference pass (%s)", passNo, o.digest, first.digest)
	}
}

// timed cycles through the plans, whole cycles only so that every run
// measures the same mix, until the summed pass time reaches the window.
// between runs before each pass, outside the measurement. A repeated
// plan must give the same outputs as its first pass. It returns the
// plans' combined outcome.
func timed(cfg config, r *result, plans []*exp.Plan, opts func(j int) exp.Options, between func() error) (outcome, time.Duration, []float64, error) {
	firsts := make([]outcome, len(plans))
	var walls time.Duration
	var unitMS []float64
	var alloc float64
	for n := 0; n%len(plans) != 0 || walls.Seconds() < cfg.seconds; n++ {
		if err := between(); err != nil {
			return outcome{}, 0, nil, err
		}
		j := n % len(plans)
		a0 := allocMB()
		p, err := execute(plans[j], opts(j))
		if err != nil {
			return outcome{}, 0, nil, err
		}
		alloc += allocMB() - a0
		o := summarize(plans[j], p.res)
		if n < len(plans) {
			firsts[j] = o
		}
		r.check(o, firsts[j], n+1)
		walls += p.wall
		unitMS = append(unitMS, p.unitMS...)
	}
	r.set("alloc_mb_per_trial", alloc/float64(r.attempted), "MB")
	return combine(firsts), walls, unitMS, nil
}

// combine sums the outcomes of several plans into one.
func combine(outs []outcome) outcome {
	var c outcome
	h := sha256.New()
	for _, o := range outs {
		h.Write([]byte(o.digest))
		c.units += o.units
		c.unitErrs += o.unitErrs
		c.static += o.static
		c.nectar += o.nectar
		c.nectarWrong += o.nectarWrong
		c.nectarSplit += o.nectarSplit
		c.accSum += o.accSum
		c.kbBcast += o.kbBcast
		c.kbUnicast += o.kbUnicast
	}
	c.digest = hex.EncodeToString(h.Sum(nil)[:12])
	return c
}

// endToEnd sets the metrics every sweep workload reports.
func (r *result) endToEnd(o outcome, walls time.Duration, unitMS []float64) {
	samples := len(unitMS)
	r.set("trials_per_s", float64(r.attempted)/walls.Seconds(), "1/s")
	r.set("trial_ms_p50", quantile(unitMS, 0.5), "ms")
	r.set("trial_ms_p90", quantile(unitMS, 0.9), "ms")
	r.set("kb_per_node", o.kbBcast/float64(o.static), "KB")
	r.set("kb_per_node_unicast", o.kbUnicast/float64(o.static), "KB")
	r.set("nectar_accuracy", o.accSum/float64(o.nectar), "ratio")
	r.set("agreement", float64(o.nectar-o.nectarSplit)/float64(o.nectar), "ratio")
	r.notef("trials: %d units in %.2fs of passes; trial_ms_p50/p90 over %d unit samples", r.attempted, walls.Seconds(), samples)
	r.notef("fixed trial set: %d units, %d static trials (%d NECTAR) for kb_per_node, nectar_accuracy and agreement", o.units, o.static, o.nectar)
	r.notef("outputs digest: %s", o.digest)
}

// runSweep runs a sweep workload untraced on the local scheduler.
func runSweep(def sweepDef, cfg config) (*result, error) {
	r := &result{}
	var clock setupClock
	setup := func() ([]*exp.Plan, error) { return def.buildPlans(cfg.seed) }
	plans, err := timeSetup(&clock, setup)
	if err != nil {
		return nil, err
	}
	o, walls, unitMS, err := timed(cfg, r, plans,
		func(int) exp.Options { return exp.Options{Jobs: cfg.jobs} },
		func() error { return resample(&clock, setupsPerPass, setup, nil) })
	if err != nil {
		return nil, err
	}
	clock.report(r)
	r.endToEnd(o, walls, unitMS)
	return r, nil
}

// fleet is one in-process loopback worker and a coordinator per plan.
type fleet struct {
	ln     net.Listener
	done   chan error
	plans  []*exp.Plan
	coords []*dist.Coordinator
}

// startFleet starts a dist.Serve worker on a loopback listener (wrapped
// by wrap when non-nil) and completes one handshake per plan with it: a
// coordinator Run with nothing pending dials, sends the hello, and waits
// for the worker to rebuild the plan and accept it.
func startFleet(cfg config, build dist.BuildFunc, wrap func(net.Listener) net.Listener) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	f := &fleet{ln: ln, done: make(chan error, 1)}
	go func() { f.done <- dist.Serve(ln, build, dist.WorkerConfig{Jobs: cfg.jobs}) }()
	f.plans, err = paperCost.buildPlans(cfg.seed)
	for j := 0; err == nil && j < len(f.plans); j++ {
		var blob []byte
		if blob, err = report.EncodePlanRequest(paperCost.ids, paperCost.opts(planSeed(cfg.seed, j))); err != nil {
			break
		}
		c := &dist.Coordinator{Workers: []string{ln.Addr().String()}, Blob: blob}
		f.coords = append(f.coords, c)
		err = c.Run(f.plans[j], nil, nil, func(exp.UnitOutcome) bool { return false })
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop closes the listener and waits for the worker to finish.
func (f *fleet) stop() error {
	f.ln.Close()
	return <-f.done
}

// runFleet runs paper-cost's plan through a dist.Coordinator and one
// loopback worker.
func runFleet(cfg config) (*result, error) {
	r := &result{}
	var clock setupClock
	setup := func() (*fleet, error) { return startFleet(cfg, report.BuildPlanFromBlob, nil) }
	f, err := timeSetup(&clock, setup)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	o, walls, unitMS, err := timed(cfg, r, f.plans,
		func(j int) exp.Options { return exp.Options{Backend: f.coords[j]} },
		func() error { return resample(&clock, setupsPerPass, setup, func(f *fleet) { f.stop() }) })
	if err != nil {
		return nil, err
	}
	clock.report(r)
	r.endToEnd(o, walls, unitMS)
	if err := r.compareCSVs(planSeed(cfg.seed, 0), cfg.jobs, f.coords[0]); err != nil {
		return nil, err
	}
	return r, nil
}

// compareCSVs renders paper-cost's experiments for one plan seed once on
// the local scheduler and once through the fleet; every CSV must be
// byte-identical.
func (r *result) compareCSVs(seed int64, jobs int, coord *dist.Coordinator) error {
	opts := paperCost.opts(seed)
	local, err := report.RunExperiments(paperCost.ids, opts, report.RunConfig{Jobs: jobs})
	if err != nil {
		return err
	}
	remote, err := report.RunExperiments(paperCost.ids, opts, report.RunConfig{Backend: coord})
	if err != nil {
		return err
	}
	h := sha256.New()
	for i, le := range local.Experiments {
		re := remote.Experiments[i]
		r.attempted++
		if le.Output == nil || re.Output == nil || le.Output.CSV() != re.Output.CSV() {
			r.fail(1, "fleet CSV for %s differs from the local run's", le.ID)
			continue
		}
		fmt.Fprintf(h, "%s\n%s", le.ID, le.Output.CSV())
	}
	r.notef("CSVs: %d experiments byte-identical between the fleet and the local scheduler, digest %s",
		len(local.Experiments), hex.EncodeToString(h.Sum(nil)[:12]))
	return nil
}
