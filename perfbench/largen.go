package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"time"

	sim "github.com/nectar-repro/nectar"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/topology"
)

// largeT is the Byzantine bound of the large-n detections.
const largeT = 1

// largeGraph is one large-n input with its ground truth.
type largeGraph struct {
	name          string
	g             *graph.Graph
	partitionable bool // κ(G) ≤ t: the verdict every correct node must reach
}

// largeNGraphs builds the two large-n inputs: the k-ary tree (k = 8,
// n = 1000), a connected full flood below rounds.SoAThreshold, and a
// geometric strip (n = 5000) at constant density whose points derive from
// seed, a confirmed partition above the threshold.
func largeNGraphs(seed int64) ([]largeGraph, error) {
	tree, err := topology.KaryTree(8, 1000)
	if err != nil {
		return nil, err
	}
	const n = 5000
	rng := rand.New(rand.NewSource(seed))
	pts := make([]topology.Point, n)
	side := 0.627 * float64(n)
	for i := range pts {
		pts[i] = topology.Point{X: rng.Float64() * side, Y: rng.Float64() * 4}
	}
	gs := []largeGraph{{name: "tree", g: tree}, {name: "strip", g: topology.GeometricGraph(pts, 1.264)}}
	for i := range gs {
		gs[i].partitionable = gs[i].g.IsTByzPartitionable(largeT)
	}
	return gs, nil
}

// detection is one scored large-n detection.
type detection struct {
	wall           time.Duration
	fingerprint    string // bytes, verdicts and active rounds
	accuracy       float64
	agree          bool
	kbBcast, kbUni float64
	hits, misses   int64
}

// fingerprintOf digests what a detection must reproduce exactly.
func fingerprintOf(bytesSent, bytesBcast []int64, activeRounds int, verdicts []byte) string {
	h := sha256.New()
	var b [8]byte
	for i := range bytesSent {
		binary.LittleEndian.PutUint64(b[:], uint64(bytesSent[i]))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(bytesBcast[i]))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(activeRounds))
	h.Write(b[:])
	h.Write(verdicts)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// score fills the accuracy, agreement and traffic fields from per-node
// verdicts (1 = PARTITIONABLE, 2 = confirmed) and traffic.
func (d *detection) score(lg largeGraph, bytesSent, bytesBcast []int64, activeRounds int, verdicts []byte) {
	var right int
	var sumB, sumU int64
	d.agree = true
	for i, v := range verdicts {
		if (v != 0) == lg.partitionable {
			right++
		}
		if v != verdicts[0] {
			d.agree = false
		}
		sumB += bytesBcast[i]
		sumU += bytesSent[i]
	}
	n := float64(len(verdicts))
	d.accuracy = float64(right) / n
	d.kbBcast = float64(sumB) / n / 1000
	d.kbUni = float64(sumU) / n / 1000
	d.fingerprint = fingerprintOf(bytesSent, bytesBcast, activeRounds, verdicts)
}

// detect runs one detection through nectar.Simulate in its default
// configuration: slim signatures, every core to the engine.
func detect(lg largeGraph, seed int64) (detection, error) {
	t0 := time.Now()
	res, err := sim.Simulate(sim.SimulationConfig{Graph: lg.g, T: largeT, Seed: seed, SchemeName: "slim"})
	d := detection{wall: time.Since(t0)}
	if err != nil {
		return d, err
	}
	verdicts := make([]byte, lg.g.N())
	for id, o := range res.Outcomes {
		verdicts[id] = verdictByte(o.Decision == sim.Partitionable, o.Confirmed)
	}
	d.score(lg, res.BytesSent, res.BytesBroadcast, res.ActiveRounds, verdicts)
	d.hits, d.misses = res.VerifyCacheHits, res.VerifyCacheMisses
	return d, nil
}

func verdictByte(partitionable, confirmed bool) byte {
	switch {
	case confirmed:
		return 2
	case partitionable:
		return 1
	}
	return 0
}

// checkDetection counts one detection and its failures against the
// reference detection of the same graph.
func (r *result) checkDetection(lg largeGraph, d, ref detection) {
	r.attempted++
	if d.accuracy != 1 {
		r.fail(1, "%s: %.4f of correct nodes reached the right verdict", lg.name, d.accuracy)
	}
	if !d.agree {
		r.fail(1, "%s: correct nodes disagree", lg.name)
	}
	if d.fingerprint != ref.fingerprint {
		r.fail(1, "%s: outputs %s differ from the first detection's %s", lg.name, d.fingerprint, ref.fingerprint)
	}
}

// runLargeN repeats one detection on each large-n graph, one at a time,
// until the window is full. A trial is one detection on each graph.
func runLargeN(cfg config) (*result, error) {
	r := &result{}
	var clock setupClock
	setup := func() ([]largeGraph, error) { return largeNGraphs(cfg.seed) }
	gs, err := timeSetup(&clock, setup)
	if err != nil {
		return nil, err
	}
	// One untimed warm-up detection per graph, which is also the
	// reference every later detection must reproduce.
	refs := make([]detection, len(gs))
	for i, lg := range gs {
		if refs[i], err = detect(lg, cfg.seed); err != nil {
			return nil, err
		}
		r.checkDetection(lg, refs[i], refs[i])
	}
	var pairMS []float64
	var total time.Duration
	var alloc float64
	for len(pairMS) == 0 || total.Seconds() < cfg.seconds {
		if err := resample(&clock, setupsPerPass, setup, nil); err != nil {
			return nil, err
		}
		a0 := allocMB()
		var pair time.Duration
		for i, lg := range gs {
			d, err := detect(lg, cfg.seed)
			if err != nil {
				return nil, err
			}
			r.checkDetection(lg, d, refs[i])
			pair += d.wall
		}
		alloc += allocMB() - a0
		pairMS = append(pairMS, ms(pair))
		total += pair
	}
	clock.report(r)
	trials := float64(len(pairMS))
	r.set("alloc_mb_per_trial", alloc/trials, "MB")
	r.set("trials_per_s", trials/total.Seconds(), "1/s")
	r.set("trial_ms_p50", quantile(pairMS, 0.5), "ms")
	r.set("trial_ms_p90", quantile(pairMS, 0.9), "ms")
	var kbB, kbU, acc float64
	agree := 0
	for _, d := range refs {
		kbB += d.kbBcast
		kbU += d.kbUni
		acc += d.accuracy
		if d.agree {
			agree++
		}
	}
	n := float64(len(refs))
	r.set("kb_per_node", kbB/n, "KB")
	r.set("kb_per_node_unicast", kbU/n, "KB")
	r.set("nectar_accuracy", acc/n, "ratio")
	r.set("agreement", float64(agree)/n, "ratio")
	r.notef("trials: %d (one detection on each of %s and %s) in %.2fs; trial_ms_p50/p90 over %d samples",
		len(pairMS), gs[0].name, gs[1].name, total.Seconds(), len(pairMS))
	for i, lg := range gs {
		r.notef("%s: n=%d m=%d, partitionable=%t, outputs %s", lg.name, lg.g.N(), lg.g.M(), lg.partitionable, refs[i].fingerprint)
	}
	return r, nil
}
