package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/topo"
	"spider/internal/transport"
)

// The traced run times every call the deployment makes into the
// crypto suite, the transport and the application from outside the
// program: the constructors already accept these interfaces, so the
// decorators below wrap them without touching the system's code. Each
// decorator passes straight through while tracing is off.

// role is the deployment role of the node a decorator serves.
type role uint8

const (
	roleClient role = iota
	roleExec
	roleAgree
	numRoles
)

var roleNames = [numRoles]string{"client", "exec", "agree"}

// cryptoOp is the kind of Suite call.
type cryptoOp uint8

const (
	opSign cryptoOp = iota
	opVerify
	opMAC // MAC and MACAppend
	opVerifyMAC
	numCryptoOps
)

var cryptoOpNames = [numCryptoOps]string{"sign", "verify", "mac", "verify-mac"}

// numDomains bounds crypto.Domain values (the package declares 16).
const numDomains = 32

var domainNames = map[crypto.Domain]string{
	crypto.DomainClientRequest:   "client-request",
	crypto.DomainReply:           "reply",
	crypto.DomainIRMCSend:        "irmc-send",
	crypto.DomainIRMCMove:        "irmc-move",
	crypto.DomainIRMCShare:       "irmc-share",
	crypto.DomainIRMCCert:        "irmc-cert",
	crypto.DomainIRMCProgress:    "irmc-progress",
	crypto.DomainIRMCSelect:      "irmc-select",
	crypto.DomainCheckpoint:      "checkpoint",
	crypto.DomainCheckpointFetch: "checkpoint-fetch",
	crypto.DomainPBFT:            "pbft",
	crypto.DomainPBFTViewChange:  "pbft-view-change",
	crypto.DomainHFTLocal:        "hft-local",
	crypto.DomainHFTGlobal:       "hft-global",
	crypto.DomainAdmin:           "admin",
	crypto.DomainIRMCResend:      "irmc-resend",
}

// numStreamKinds bounds transport.StreamKind values (top byte of a
// stream; the package declares 8).
const numStreamKinds = 16

var streamNames = map[transport.StreamKind]string{
	transport.KindClient:     "client",
	transport.KindPBFT:       "pbft",
	transport.KindRequestCh:  "request-channel",
	transport.KindCommitCh:   "commit-channel",
	transport.KindCheckpoint: "checkpoint",
	transport.KindFetch:      "fetch",
}

// linkClass splits sent traffic the way memnet bills it.
type linkClass uint8

const (
	classLocal linkClass = iota
	classLAN
	classWAN
	numClasses
)

// callStat accumulates calls and their wall time.
type callStat struct {
	n, ns atomic.Int64
}

func (c *callStat) add(d time.Duration) {
	c.n.Add(1)
	c.ns.Add(int64(d))
}

type sendStat struct {
	frames, bytes atomic.Int64
}

// Span layers beyond the per-role crypto and handler names.
const (
	layerAppExecute = "app.execute"
	layerAppRead    = "app.read"
)

// tracer owns the counters and the span log of one traced deployment.
// Counters only move while on is set, so switching it on starts a
// clean measurement window.
type tracer struct {
	on    atomic.Bool
	start time.Time
	place *topo.Placement

	crypto [numRoles][numDomains][numCryptoOps]callStat
	sent   [numRoles][numStreamKinds][numClasses]sendStat
	rx     [numRoles][numStreamKinds]callStat
	app    struct{ execute, read callStat }

	spans   spanLog
	spanSeq atomic.Uint64

	// Layer names, built once so recording a span never allocates.
	cryptoLayer [numRoles][numDomains][numCryptoOps]string
	rxLayer     [numRoles][numStreamKinds]string
}

// maxSpans bounds the span log: the first maxSpans spans of the traced
// window are kept, every later call is still counted in the
// aggregates.
const maxSpans = 50000

func newTracer(place *topo.Placement) *tracer {
	t := &tracer{start: time.Now(), place: place}
	t.spans.buf = make([]span, 0, maxSpans)
	for r := role(0); r < numRoles; r++ {
		for d := 0; d < numDomains; d++ {
			name, ok := domainNames[crypto.Domain(d)]
			if !ok {
				name = fmt.Sprintf("domain-%d", d)
			}
			for op := cryptoOp(0); op < numCryptoOps; op++ {
				t.cryptoLayer[r][d][op] = fmt.Sprintf("crypto.%s.%s.%s", cryptoOpNames[op], roleNames[r], name)
			}
		}
		for k := 0; k < numStreamKinds; k++ {
			name, ok := streamNames[transport.StreamKind(k)]
			if !ok {
				name = fmt.Sprintf("stream-%d", k)
			}
			t.rxLayer[r][k] = fmt.Sprintf("handler.%s.%s", roleNames[r], name)
		}
	}
	return t
}

// span is one timed call. Client operations get their own span id;
// layer calls carry node and layer only, because linking them to the
// request they serve needs tracing inside the program.
type span struct {
	id    uint64
	layer string
	node  ids.NodeID
	start time.Time
	dur   time.Duration
}

type spanLog struct {
	mu   sync.Mutex
	full atomic.Bool
	buf  []span
}

func (l *spanLog) add(s span) {
	if l.full.Load() {
		return
	}
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, s)
	} else {
		l.full.Store(true)
	}
	l.mu.Unlock()
}

func (t *tracer) record(stat *callStat, layer string, node ids.NodeID, t0 time.Time) {
	d := time.Since(t0)
	stat.add(d)
	t.spans.add(span{layer: layer, node: node, start: t0, dur: d})
}

// recordOp logs one client operation span under its own id.
func (t *tracer) recordOp(kind int, node ids.NodeID, t0 time.Time, d time.Duration) {
	if !t.on.Load() {
		return
	}
	id := t.spanSeq.Add(1)
	t.spans.add(span{id: id, layer: opLayers[kind], node: node, start: t0, dur: d})
}

var opLayers = [numKinds]string{"op.write", "op.strong_read", "op.weak_read"}

// writeSpans writes the span log as CSV.
func (t *tracer) writeSpans(path string) error {
	t.spans.mu.Lock()
	spans := append([]span(nil), t.spans.buf...)
	t.spans.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span_id,layer,node,start_us,dur_us")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%.3f,%.3f\n", s.id, s.layer, s.node,
			float64(s.start.Sub(t.start))/1e3, float64(s.dur)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) class(from, to ids.NodeID) linkClass {
	switch {
	case from == to:
		return classLocal
	case t.place.SameRegion(from, to):
		return classLAN
	default:
		return classWAN
	}
}

// --- crypto.Suite -------------------------------------------------------------

type tracedSuite struct {
	crypto.Suite
	t    *tracer
	role role
}

func (s *tracedSuite) call(d crypto.Domain, op cryptoOp, t0 time.Time) {
	idx := int(d) % numDomains
	s.t.record(&s.t.crypto[s.role][idx][op], s.t.cryptoLayer[s.role][idx][op], s.Suite.Node(), t0)
}

func (s *tracedSuite) Sign(d crypto.Domain, msg []byte) []byte {
	if !s.t.on.Load() {
		return s.Suite.Sign(d, msg)
	}
	t0 := time.Now()
	sig := s.Suite.Sign(d, msg)
	s.call(d, opSign, t0)
	return sig
}

func (s *tracedSuite) Verify(signer ids.NodeID, d crypto.Domain, msg, sig []byte) error {
	if !s.t.on.Load() {
		return s.Suite.Verify(signer, d, msg, sig)
	}
	t0 := time.Now()
	err := s.Suite.Verify(signer, d, msg, sig)
	s.call(d, opVerify, t0)
	return err
}

func (s *tracedSuite) MAC(to ids.NodeID, d crypto.Domain, msg []byte) []byte {
	if !s.t.on.Load() {
		return s.Suite.MAC(to, d, msg)
	}
	t0 := time.Now()
	mac := s.Suite.MAC(to, d, msg)
	s.call(d, opMAC, t0)
	return mac
}

func (s *tracedSuite) MACAppend(to ids.NodeID, d crypto.Domain, msg, dst []byte) []byte {
	if !s.t.on.Load() {
		return s.Suite.MACAppend(to, d, msg, dst)
	}
	t0 := time.Now()
	out := s.Suite.MACAppend(to, d, msg, dst)
	s.call(d, opMAC, t0)
	return out
}

func (s *tracedSuite) VerifyMAC(from ids.NodeID, d crypto.Domain, msg, mac []byte) error {
	if !s.t.on.Load() {
		return s.Suite.VerifyMAC(from, d, msg, mac)
	}
	t0 := time.Now()
	err := s.Suite.VerifyMAC(from, d, msg, mac)
	s.call(d, opVerifyMAC, t0)
	return err
}

// --- transport.Node -----------------------------------------------------------

// tracedNode counts sent frames and times inbound handlers. It hands
// payloads through untouched and keeps the inner node's batched
// delivery: it implements transport.BatchNode itself, so replicas that
// register batch handlers still receive queued runs in one call.
type tracedNode struct {
	inner transport.Node
	t     *tracer
	role  role
}

var _ transport.BatchNode = (*tracedNode)(nil)

func (n *tracedNode) ID() ids.NodeID { return n.inner.ID() }

func (n *tracedNode) countSend(to ids.NodeID, stream transport.Stream, size int) {
	st := &n.t.sent[n.role][streamKind(stream)][n.t.class(n.inner.ID(), to)]
	st.frames.Add(1)
	st.bytes.Add(int64(size))
}

func (n *tracedNode) Send(to ids.NodeID, stream transport.Stream, payload []byte) {
	if n.t.on.Load() {
		n.countSend(to, stream, len(payload))
	}
	n.inner.Send(to, stream, payload)
}

func (n *tracedNode) Multicast(to []ids.NodeID, stream transport.Stream, payload []byte) {
	if n.t.on.Load() {
		for _, dst := range to {
			n.countSend(dst, stream, len(payload))
		}
	}
	n.inner.Multicast(to, stream, payload)
}

func (n *tracedNode) Handle(stream transport.Stream, h transport.Handler) {
	k := streamKind(stream)
	n.inner.Handle(stream, func(from ids.NodeID, payload []byte) {
		if !n.t.on.Load() {
			h(from, payload)
			return
		}
		t0 := time.Now()
		h(from, payload)
		n.t.record(&n.t.rx[n.role][k], n.t.rxLayer[n.role][k], n.inner.ID(), t0)
	})
}

func (n *tracedNode) HandleBatch(stream transport.Stream, h transport.BatchHandler) {
	k := streamKind(stream)
	transport.RegisterBatch(n.inner, stream, func(from ids.NodeID, payloads [][]byte) {
		if !n.t.on.Load() {
			h(from, payloads)
			return
		}
		t0 := time.Now()
		h(from, payloads)
		n.t.record(&n.t.rx[n.role][k], n.t.rxLayer[n.role][k], n.inner.ID(), t0)
	})
}

func streamKind(s transport.Stream) int {
	return int(uint32(s)>>24) % numStreamKinds
}

// --- core.Application ---------------------------------------------------------

type tracedApp struct {
	core.Application
	t    *tracer
	node ids.NodeID
}

func (a *tracedApp) Execute(op []byte) []byte {
	if !a.t.on.Load() {
		return a.Application.Execute(op)
	}
	t0 := time.Now()
	res := a.Application.Execute(op)
	a.t.record(&a.t.app.execute, layerAppExecute, a.node, t0)
	return res
}

func (a *tracedApp) ExecuteRead(op []byte) []byte {
	if !a.t.on.Load() {
		return a.Application.ExecuteRead(op)
	}
	t0 := time.Now()
	res := a.Application.ExecuteRead(op)
	a.t.record(&a.t.app.read, layerAppRead, a.node, t0)
	return res
}
