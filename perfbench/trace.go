package main

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// The traced run times each layer from outside, through the interfaces
// the layers already expose: a rounds.Protocol wrapper around every node,
// a sig.Scheme wrapper whose Signers and Verifiers sit beneath the
// VerifyCache (so verify time is real verification), spans around the
// public constructors a trial is built from, and a net.Listener wrapper
// for the fleet worker. Spans accumulate into per-node counters (a node
// is driven by one goroutine at a time), so the hot path takes no locks.

// Layer totals. Times are nanoseconds of worker time: a span holding k
// engine workers counts k times its wall time.
const (
	lUnits          = iota
	lUnitNS         // exp.TrialRunner.Run spans
	lDynamicNS      // dynamic units, timed at the exp/harness boundary only
	lTopoNS         // scenario generation
	lKeygenNS       // sig.ByName
	lBuildNS        // harness stack wiring (self)
	lNectarBuildNS  // nectar.BuildNodes (self: proof signing is in lSignNS)
	lSignNS         // every Sign, build and run
	lSigns          //
	lVerifyNS       // every real verification (VerifyCache misses)
	lVerifies       //
	lRunNS          // rounds.Run
	lRoundsSelfNS   // rounds.Run minus every node's Emit and Deliver
	lActiveRounds   //
	lMsgs           //
	lBytes          //
	lEmitNS         // correct NECTAR nodes' Emit
	lEmitSelfNS     // ... minus signing
	lDeliverNS      // correct NECTAR nodes' Deliver
	lDeliverSelfNS  // ... minus verification: decode, dedup, accept
	lDelivers       //
	lAdvNS          // Byzantine nodes' Emit and Deliver, minus sig
	lAdvMsgs        //
	lMtgNS          // MtG / MtGv2 nodes' Emit, Deliver and Decide, minus sig
	lDecideNS       // Node.DecideShared
	lDecides        //
	lDecideHits     //
	lTruthNS        // ground-truth connectivity of the scenario graph
	lScoreNS        // trial scoring (self)
	lAccepted       //
	lDuplicates     //
	lRejected       //
	lCacheHits      //
	lCacheMisses    //
	lUnattributedNS // unit spans not covered by a child span
	lCount
)

type layers [lCount]int64

func (l *layers) add(o *layers) {
	for i := range l {
		l[i] += o[i]
	}
}

// selfParts lists the additive self times inside a unit: with
// lUnattributedNS they sum to the unit spans.
var selfParts = []int{lDynamicNS, lTopoNS, lKeygenNS, lBuildNS, lNectarBuildNS, lSignNS,
	lVerifyNS, lRoundsSelfNS, lEmitSelfNS, lDeliverSelfNS, lAdvNS, lMtgNS, lDecideNS,
	lTruthNS, lScoreNS}

// finishUnit closes a unit span of unitNS worker-ns.
func (l *layers) finishUnit(unitNS int64) {
	l[lUnits] = 1
	l[lUnitNS] = unitNS
	var covered int64
	for _, i := range selfParts {
		covered += l[i]
	}
	l[lUnattributedNS] = unitNS - covered
}

// tracer gathers the units of a traced run.
type tracer struct {
	mu         sync.Mutex
	tot        layers
	unitMS     []float64
	mismatches int
}

func (t *tracer) unit(l *layers, unitWall time.Duration, mismatch bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tot.add(l)
	t.unitMS = append(t.unitMS, ms(unitWall))
	if mismatch {
		t.mismatches++
	}
}

func since(t0 time.Time) int64 { return int64(time.Since(t0)) }

// Node kinds, for attributing a node's spans to its layer.
const (
	kindNectar = iota
	kindAdversary
	kindMtg
)

// nodeCounters accumulates one node's spans and counts.
type nodeCounters struct {
	kind                              int
	emitNS, deliverNS, delivers       int64
	signNS, signs, verifyNS, verifies int64
}

// tracedScheme hands out Signers and Verifiers that charge their node's
// counters. timed is off for sub-µs schemes, whose calls are counted but
// not timed: a per-call timer would cost more than the call.
type tracedScheme struct {
	sig.Scheme
	nodes     []nodeCounters
	timed     bool
	verifiers int // Verifier calls so far; BuildNodes asks once per node, in node order
}

func newTracedScheme(base sig.Scheme, n int) *tracedScheme {
	name := base.Name()
	return &tracedScheme{Scheme: base, nodes: make([]nodeCounters, n), timed: name != "slim" && name != "insecure"}
}

func (s *tracedScheme) SignerFor(id ids.NodeID) sig.Signer {
	return &tracedSigner{Signer: s.Scheme.SignerFor(id), c: &s.nodes[id], timed: s.timed}
}

func (s *tracedScheme) Verifier() sig.Verifier {
	c := &s.nodes[s.verifiers%len(s.nodes)]
	s.verifiers++
	return &tracedVerifier{Verifier: s.Scheme.Verifier(), c: c, timed: s.timed}
}

type tracedSigner struct {
	sig.Signer
	c     *nodeCounters
	timed bool
}

func (t *tracedSigner) Sign(msg []byte) []byte {
	t.c.signs++
	if !t.timed {
		return t.Signer.Sign(msg)
	}
	t0 := time.Now()
	out := t.Signer.Sign(msg)
	t.c.signNS += since(t0)
	return out
}

type tracedVerifier struct {
	sig.Verifier
	c     *nodeCounters
	timed bool
}

func (t *tracedVerifier) Verify(signer ids.NodeID, msg, sg []byte) bool {
	t.c.verifies++
	if !t.timed {
		return t.Verifier.Verify(signer, msg, sg)
	}
	t0 := time.Now()
	ok := t.Verifier.Verify(signer, msg, sg)
	t.c.verifyNS += since(t0)
	return ok
}

// tracedProto times a node's Emit and Deliver and forwards the optional
// engine interfaces: dropping Quiescent would silently disable the
// engine's early exit and change what is measured.
type tracedProto struct {
	inner rounds.Protocol
	c     *nodeCounters
}

func (p *tracedProto) Emit(round int) []rounds.Send {
	t0 := time.Now()
	out := p.inner.Emit(round)
	p.c.emitNS += since(t0)
	return out
}

func (p *tracedProto) Deliver(round int, from ids.NodeID, data []byte) {
	t0 := time.Now()
	p.inner.Deliver(round, from, data)
	p.c.deliverNS += since(t0)
	p.c.delivers++
}

func (p *tracedProto) Quiescent() bool {
	q, ok := p.inner.(rounds.Quiescer)
	return ok && q.Quiescent()
}

func (p *tracedProto) TraceEvidence(on bool) {
	if es, ok := p.inner.(rounds.EvidenceSource); ok {
		es.TraceEvidence(on)
	}
}

func (p *tracedProto) DrainEvidence(emit func(obs.Event)) {
	if es, ok := p.inner.(rounds.EvidenceSource); ok {
		es.DrainEvidence(emit)
	}
}

// wrapAll puts a tracedProto around every node's final protocol.
func (s *tracedScheme) wrapAll(protos []rounds.Protocol) []rounds.Protocol {
	out := make([]rounds.Protocol, len(protos))
	for i, p := range protos {
		out[i] = &tracedProto{inner: p, c: &s.nodes[i]}
	}
	return out
}

// sigSnapshot records every node's sign/verify time before the engine
// runs, so the run's share can be subtracted from the node's own spans.
func (s *tracedScheme) sigSnapshot() (sign, verify []int64) {
	sign = make([]int64, len(s.nodes))
	verify = make([]int64, len(s.nodes))
	for i := range s.nodes {
		sign[i], verify[i] = s.nodes[i].signNS, s.nodes[i].verifyNS
	}
	return sign, verify
}

// runEngine drives rounds.Run over the wrapped nodes and attributes the
// run: rounds self time, each node's spans by kind, and sig totals.
func (s *tracedScheme) runEngine(cfg rounds.Config, protos []rounds.Protocol, l *layers) (*rounds.Metrics, error) {
	preSign, preVerify := s.sigSnapshot()
	t0 := time.Now()
	m, err := rounds.Run(cfg, s.wrapAll(protos))
	workers := int64(cfg.Workers)
	if workers < 1 { // the engine's default: GOMAXPROCS
		workers = int64(runtime.GOMAXPROCS(0))
	}
	runNS := since(t0) * workers
	l[lRunNS] += runNS
	if err != nil {
		return nil, err
	}
	var steps int64
	for i := range s.nodes {
		c := &s.nodes[i]
		signRun, verifyRun := c.signNS-preSign[i], c.verifyNS-preVerify[i]
		steps += c.emitNS + c.deliverNS
		switch c.kind {
		case kindNectar:
			l[lEmitNS] += c.emitNS
			l[lEmitSelfNS] += c.emitNS - signRun
			l[lDeliverNS] += c.deliverNS
			l[lDeliverSelfNS] += c.deliverNS - verifyRun
			l[lDelivers] += c.delivers
		case kindAdversary:
			l[lAdvNS] += c.emitNS + c.deliverNS - signRun - verifyRun
			l[lAdvMsgs] += m.MsgsSent[i]
		case kindMtg:
			l[lMtgNS] += c.emitNS + c.deliverNS - signRun - verifyRun
		}
		l[lMsgs] += m.MsgsSent[i]
	}
	l[lRoundsSelfNS] += runNS - steps
	l[lActiveRounds] += int64(m.ActiveRounds)
	l[lBytes] += m.TotalBytes()
	return m, nil
}

// sigTotals adds every node's sign and verify counts and times.
func (s *tracedScheme) sigTotals(l *layers) {
	for i := range s.nodes {
		c := &s.nodes[i]
		l[lSignNS] += c.signNS
		l[lSigns] += c.signs
		l[lVerifyNS] += c.verifyNS
		l[lVerifies] += c.verifies
	}
}

// countingListener wraps the fleet worker's listener: every accepted
// connection counts frames, bytes, and the time spent in Read and Write.
type countingListener struct {
	net.Listener
	frames, bytes, readNS, writeNS atomic.Int64
}

func (cl *countingListener) Accept() (net.Conn, error) {
	c, err := cl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, cl: cl}, nil
}

type countingConn struct {
	net.Conn
	cl *countingListener
}

// Read counts a frame per 4-byte length-prefix read (tcpnet.ReadFrame
// reads the prefix on its own).
func (c *countingConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.cl.readNS.Add(since(t0))
	c.cl.bytes.Add(int64(n))
	if len(p) == 4 && n > 0 {
		c.cl.frames.Add(1)
	}
	return n, err
}

// Write counts a frame per call (tcpnet.WriteFrame writes each frame in
// one call).
func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.cl.writeNS.Add(since(t0))
	c.cl.bytes.Add(int64(n))
	c.cl.frames.Add(1)
	return n, err
}

// tcpCounts is a snapshot of a countingListener.
type tcpCounts struct{ frames, bytes, readNS, writeNS int64 }

func (cl *countingListener) snapshot() tcpCounts {
	return tcpCounts{cl.frames.Load(), cl.bytes.Load(), cl.readNS.Load(), cl.writeNS.Load()}
}
