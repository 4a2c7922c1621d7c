package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/app"
	"spider/internal/ids"
	"spider/internal/topo"
)

// clientGroup is one population of clients in every region of a
// workload. Open-loop clients (rate > 0) follow a seeded schedule and
// are timed from each operation's due time; closed-loop clients
// (rate 0) issue their next operation when the previous one returns.
type clientGroup struct {
	name      string
	perRegion int
	rate      float64    // ops/s per client; 0 means closed loop
	mix       [3]float64 // shares of writes, strong reads, weak reads
	// readFrom names the group whose keys this group's reads target;
	// empty means each client reads its own key.
	readFrom string
	// probe marks a fixed-rate group that only times operations under
	// the other groups' load. Its rate is set by the schedule, so
	// ops_per_s leaves it out.
	probe bool
}

// workload is one named traffic mix.
type workload struct {
	name    string
	scale   float64
	regions []topo.Region
	groups  []clientGroup
}

// Operation kinds indexed as in clientGroup.mix.
const (
	kWrite = iota
	kStrong
	kWeak
	numKinds
)

var kindNames = [numKinds]string{"write", "strong_read", "weak_read"}

// valueSize is the paper's write payload size.
const valueSize = 200

// --- values and keys ----------------------------------------------------------

// Every write stores a value that names its writer and the writer's
// sequence number, followed by filler derived from both, so a reader
// can tell exactly which write it observed. Sequence 0 is the seed
// value each client writes during set-up.
func encodeValue(owner ids.ClientID, seq uint64, salt byte) []byte {
	v := make([]byte, valueSize)
	binary.BigEndian.PutUint32(v[0:4], uint32(owner))
	binary.BigEndian.PutUint64(v[4:12], seq)
	for i := 12; i < valueSize; i++ {
		v[i] = filler(owner, seq, salt, i)
	}
	return v
}

func filler(owner ids.ClientID, seq uint64, salt byte, i int) byte {
	return byte(uint64(owner)*131+seq*31+uint64(i)*7) ^ salt
}

func decodeValue(v []byte, salt byte) (ids.ClientID, uint64, bool) {
	if len(v) != valueSize {
		return 0, 0, false
	}
	owner := ids.ClientID(binary.BigEndian.Uint32(v[0:4]))
	seq := binary.BigEndian.Uint64(v[4:12])
	for i := 12; i < valueSize; i++ {
		if v[i] != filler(owner, seq, salt, i) {
			return 0, 0, false
		}
	}
	return owner, seq, true
}

func keyOf(owner ids.ClientID) string { return fmt.Sprintf("k%d", owner) }

// keyState tracks one single-writer key: the highest sequence number
// its owner has issued and the highest it has seen acknowledged.
type keyState struct {
	owner  ids.ClientID
	issued atomic.Uint64
	acked  atomic.Uint64
}

// --- population ---------------------------------------------------------------

// member is one client of the workload with its group and key.
type member struct {
	bc      *benchClient
	group   *clientGroup
	key     *keyState
	targets []*keyState // keys its reads may address
}

// clientRegions lists the region of every client, group by group and
// region by region, in the order members() assigns them.
func (w *workload) clientRegions() []topo.Region {
	var out []topo.Region
	for _, g := range w.groups {
		for _, r := range w.regions {
			for i := 0; i < g.perRegion; i++ {
				out = append(out, r)
			}
		}
	}
	return out
}

func (w *workload) members(clients []*benchClient) []*member {
	var out []*member
	byGroup := make(map[string][]*keyState)
	i := 0
	for gi := range w.groups {
		g := &w.groups[gi]
		for range w.regions {
			for j := 0; j < g.perRegion; j++ {
				bc := clients[i]
				i++
				ks := &keyState{owner: bc.id}
				byGroup[g.name] = append(byGroup[g.name], ks)
				out = append(out, &member{bc: bc, group: g, key: ks})
			}
		}
	}
	for _, m := range out {
		if m.group.readFrom == "" {
			m.targets = []*keyState{m.key}
		} else {
			m.targets = byGroup[m.group.readFrom]
		}
	}
	return out
}

// --- schedules ----------------------------------------------------------------

// scheduled is one open-loop operation.
type scheduled struct {
	at     time.Duration
	kind   int
	target *keyState
}

// schedule lays out an open-loop client's operations over [0, span):
// evenly spaced at its rate from a seeded phase, with the group's mix
// applied as exact shares in a seeded order.
func (m *member) schedule(rng *rand.Rand, span time.Duration) []scheduled {
	interval := time.Duration(float64(time.Second) / m.group.rate)
	phase := time.Duration(rng.Int63n(int64(interval)))
	var out []scheduled
	for at := phase; at < span; at += interval {
		out = append(out, scheduled{at: at})
	}
	kinds := make([]int, 0, len(out))
	for k := 0; k < numKinds; k++ {
		n := int(m.group.mix[k]*float64(len(out)) + 0.5)
		for i := 0; i < n && len(kinds) < len(out); i++ {
			kinds = append(kinds, k)
		}
	}
	for len(kinds) < len(out) {
		kinds = append(kinds, kWrite)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := range out {
		out[i].kind = kinds[i]
		out[i].target = m.pick(rng, kinds[i])
	}
	return out
}

func (m *member) pick(rng *rand.Rand, kind int) *keyState {
	switch {
	case kind == kWrite:
		return m.key
	case len(m.targets) == 1:
		return m.targets[0]
	default:
		return m.targets[rng.Intn(len(m.targets))]
	}
}

// closedKind draws a closed-loop client's next operation kind.
func (m *member) closedKind(rng *rand.Rand) int {
	x := rng.Float64()
	for k := 0; k < numKinds; k++ {
		if x < m.group.mix[k] {
			return k
		}
		x -= m.group.mix[k]
	}
	return kWrite
}

// --- a measured phase ---------------------------------------------------------

// phase is one measured window of a workload on a running deployment.
type phase struct {
	w     *workload
	d     *deployment
	salt  byte
	start time.Time
	end   time.Time // no operation is due or issued after end

	// lat[k][region] holds latencies of kind k; failed operations are
	// recorded at their time to failure (or to the horizon).
	lat  [numKinds]map[topo.Region]*hist
	late hist // generator lateness: start minus max(due, client free)

	mu          sync.Mutex
	violations  []string
	nViolations int
}

// clientRun is one client's bookkeeping for a phase. Its mutex orders
// the client's records against the horizon: once closed, late results
// are discarded.
type clientRun struct {
	mu        sync.Mutex
	closed    bool
	attempted int64
	ok        int64
	inWindow  int64 // successes completed before the phase end
	inflight  bool
	inflightK int
	inflightT time.Time // due time of the operation in flight
	sched     []scheduled
	next      int // index of the next scheduled operation to start
}

func newPhase(w *workload, d *deployment, salt byte) *phase {
	p := &phase{w: w, d: d, salt: salt}
	for k := range p.lat {
		p.lat[k] = make(map[topo.Region]*hist)
		for _, r := range w.regions {
			p.lat[k][r] = &hist{}
		}
	}
	return p
}

func (p *phase) violate(format string, args ...any) {
	p.mu.Lock()
	p.nViolations++
	if len(p.violations) < 20 {
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// check validates one successful result. lo is the target's
// acknowledged sequence number when the operation started; the value a
// read returns must name a write between it (strong reads only) and
// the target's issued number when the read completed.
func (p *phase) check(kind int, target *keyState, lo uint64, res []byte) {
	r, err := app.DecodeResult(res)
	if err != nil {
		p.violate("%s on %s: undecodable result: %v", kindNames[kind], keyOf(target.owner), err)
		return
	}
	if !r.OK {
		p.violate("%s on %s: result not OK", kindNames[kind], keyOf(target.owner))
		return
	}
	if kind == kWrite {
		return
	}
	hi := target.issued.Load()
	owner, got, ok := decodeValue(r.Value, p.salt)
	switch {
	case !r.Found || !ok || owner != target.owner:
		p.violate("%s on %s: returned a value its owner never wrote", kindNames[kind], keyOf(target.owner))
	case got > hi:
		p.violate("%s on %s: returned write %d before it was issued (issued %d)", kindNames[kind], keyOf(target.owner), got, hi)
	case kind == kStrong && got < lo:
		p.violate("strong_read on %s: returned write %d after write %d was acknowledged", keyOf(target.owner), got, lo)
	}
}

// do runs one operation and records its outcome unless the phase has
// closed. due is the time the latency is measured from.
func (p *phase) do(m *member, cr *clientRun, kind int, target *keyState, due time.Time) bool {
	var (
		op  []byte
		seq uint64
	)
	if kind == kWrite {
		seq = target.issued.Add(1)
		op = app.EncodeOp(app.Op{Kind: app.OpPut, Key: keyOf(target.owner), Value: encodeValue(target.owner, seq, p.salt)})
	} else {
		op = app.EncodeOp(app.Op{Kind: app.OpGet, Key: keyOf(target.owner)})
	}
	lo := target.acked.Load()
	cr.mu.Lock()
	if cr.closed {
		cr.mu.Unlock()
		return false
	}
	cr.inflight, cr.inflightK, cr.inflightT = true, kind, due
	cr.mu.Unlock()

	begin := time.Now()
	var (
		res []byte
		err error
	)
	switch kind {
	case kWrite:
		res, err = m.bc.c.Write(op)
	case kStrong:
		res, err = m.bc.c.StrongRead(op)
	default:
		res, err = m.bc.c.WeakRead(op)
	}
	end := time.Now()
	if err == nil && kind == kWrite {
		target.acked.Store(seq)
	}

	cr.mu.Lock()
	defer cr.mu.Unlock()
	if cr.closed {
		return false
	}
	cr.inflight = false
	p.lat[kind][m.bc.region].record(end.Sub(due))
	if p.d.tracer != nil {
		p.d.tracer.recordOp(kind, m.bc.id.Node(), begin, end.Sub(begin))
	}
	if err != nil {
		return true
	}
	p.check(kind, target, lo, res)
	cr.ok++
	if end.Before(p.end) {
		cr.inWindow++
	}
	return true
}

// runOpen drives an open-loop client through its schedule.
func (p *phase) runOpen(m *member, cr *clientRun, abort <-chan struct{}) {
	free := p.start
	for i, op := range cr.sched {
		due := p.start.Add(op.at)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-abort:
				t.Stop()
				return
			case <-t.C:
			}
		}
		now := time.Now()
		ref := due
		if free.After(ref) {
			ref = free
		}
		p.late.record(now.Sub(ref))
		cr.mu.Lock()
		cr.next = i + 1
		cr.mu.Unlock()
		if !p.do(m, cr, op.kind, op.target, due) {
			return
		}
		free = time.Now()
	}
}

// runClosed drives a closed-loop client until the phase ends.
func (p *phase) runClosed(m *member, cr *clientRun, rng *rand.Rand, abort <-chan struct{}) {
	t := time.NewTimer(time.Until(p.start))
	select {
	case <-abort:
		t.Stop()
		return
	case <-t.C:
	}
	for time.Now().Before(p.end) {
		select {
		case <-abort:
			return
		default:
		}
		kind := m.closedKind(rng)
		target := m.pick(rng, kind)
		cr.mu.Lock()
		cr.attempted++
		cr.mu.Unlock()
		if !p.do(m, cr, kind, target, time.Now()) {
			return
		}
	}
}

// grace is how long a run waits after the last due operation before
// it abandons calls still blocked (the horizon). It exceeds the
// client's first retry (2s) plus a WAN round trip, so an operation
// that needs one retry is counted slow, not failed.
const grace = 5 * time.Second

// phaseOutcome summarizes a phase after its horizon.
type phaseOutcome struct {
	attempted, ok, failed int64
	// inWindow counts the successes of non-probe groups completed
	// before the phase end.
	inWindow int64
	horizon  time.Time
}

// run executes the phase: every client starts, and at the horizon
// (span plus grace after the start) every client is closed. Calls
// still blocked then are abandoned, not awaited: they are counted as
// failed, together with every scheduled operation they kept from
// starting, and their goroutines end at the client deadline or with
// the process.
func (p *phase) run(members []*member, span time.Duration, seed int64) phaseOutcome {
	abort := make(chan struct{})
	// Leave the clients a moment to reach their first wait, so the
	// first due times are not already late.
	p.start = time.Now().Add(20 * time.Millisecond)
	p.end = p.start.Add(span)
	runs := make([]*clientRun, len(members))
	for i, m := range members {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		cr := &clientRun{}
		runs[i] = cr
		if m.group.rate > 0 {
			cr.sched = m.schedule(rng, span)
			cr.attempted = int64(len(cr.sched))
			go p.runOpen(m, cr, abort)
		} else {
			go p.runClosed(m, cr, rng, abort)
		}
	}

	var out phaseOutcome
	out.horizon = p.end.Add(grace)
	time.Sleep(time.Until(out.horizon))

	for i, cr := range runs {
		m := members[i]
		cr.mu.Lock()
		cr.closed = true
		if cr.inflight {
			p.lat[cr.inflightK][m.bc.region].record(out.horizon.Sub(cr.inflightT))
		}
		for _, op := range cr.sched[min(cr.next, len(cr.sched)):] {
			p.lat[op.kind][m.bc.region].record(out.horizon.Sub(p.start.Add(op.at)))
		}
		out.attempted += cr.attempted
		out.ok += cr.ok
		if !m.group.probe {
			out.inWindow += cr.inWindow
		}
		cr.mu.Unlock()
	}
	out.failed = out.attempted - out.ok
	close(abort)
	return out
}

// merged returns kind k's latency histogram over all regions.
func (p *phase) merged(k int) *hist {
	var h hist
	for _, r := range p.w.regions {
		h.merge(p.lat[k][r])
	}
	return &h
}
