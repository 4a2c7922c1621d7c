package main

import (
	"fmt"
	"sort"
	"time"

	"spider/internal/app"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/stats"
	"spider/internal/topo"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
)

// The benchmark assembles Spider from the public constructors on
// memnet. Placement, tunables, the consensus timeout and the client
// retry settings copy harness.buildSpider and harness.NewClient for an
// f=1 deployment with the agreement group in Virginia (the parity
// check in parity.go compares the two); unlike the harness it
// provisions only the identities it uses.

// firstClientID matches the harness's client numbering.
const firstClientID = 10001

// benchClient is one client identity and its handle.
type benchClient struct {
	id     ids.ClientID
	region topo.Region
	c      *core.Client
}

// deployment is one running Spider system.
type deployment struct {
	net       *memnet.Network
	agreement ids.Group

	agree   []*core.AgreementReplica
	exec    []*core.ExecutionReplica
	clients []*benchClient

	batchOcc *stats.Occupancy
	sendOcc  *stats.Occupancy
	commit   *core.CommitStats
	tracer   *tracer

	// Cumulative counters at the start of the measured window.
	fetch0 int64
	views0 uint64
}

// plan is the identity layout of a deployment: 3f+1 agreement replicas
// in Virginia's zones, 2f+1 execution replicas in each client region's
// zones, clients numbered from firstClientID.
type plan struct {
	agreement ids.Group
	groups    map[topo.Region]ids.Group
	order     []topo.Region
	clients   []ids.ClientID
	clientAt  []topo.Region
	place     *topo.Placement
}

func newPlan(scale float64, regions, clientRegions []topo.Region) *plan {
	const f = 1
	p := &plan{
		groups:   make(map[topo.Region]ids.Group),
		order:    regions,
		clientAt: clientRegions,
		place:    topo.NewPlacement(scale),
	}
	next := ids.NodeID(1)
	take := func(n int, region topo.Region) []ids.NodeID {
		out := make([]ids.NodeID, n)
		for i := range out {
			out[i] = next
			p.place.Place(next, topo.Site{Region: region, Zone: i})
			next++
		}
		return out
	}
	p.agreement = ids.Group{ID: 1, Members: take(3*f+1, topo.Virginia), F: f}
	gid := ids.GroupID(10)
	for _, r := range regions {
		p.groups[r] = ids.Group{ID: gid, Members: take(2*f+1, r), F: f}
		gid += 10
	}
	for i, r := range clientRegions {
		id := ids.ClientID(firstClientID + i)
		p.clients = append(p.clients, id)
		p.place.Place(id.Node(), topo.Site{Region: r, Zone: int(id) % 3})
	}
	return p
}

// nodes lists every identity the plan uses, replicas first.
func (p *plan) nodes() []ids.NodeID {
	all := append([]ids.NodeID{}, p.agreement.Members...)
	for _, r := range p.order {
		all = append(all, p.groups[r].Members...)
	}
	for _, c := range p.clients {
		all = append(all, c.Node())
	}
	return all
}

// tunables copies harness.spiderTunables for the default channel.
func tunables() core.Tunables {
	return core.Tunables{
		ExecutionCheckpointInterval: 16,
		AgreementCheckpointInterval: 16,
		CommitChannelCapacity:       64,
		AgreementWindow:             64,
		ChannelProgressMS:           50,
		ChannelCollectorMS:          1000,
	}
}

// start builds the network and starts every replica and client handle
// (clients have sent nothing yet). tr, when set, decorates every
// suite, node and application.
func start(p *plan, suites map[ids.NodeID]crypto.Suite, seed int64, tr *tracer) (*deployment, error) {
	d := &deployment{
		net:       memnet.New(memnet.Options{Placement: p.place, Seed: seed}),
		agreement: p.agreement,
		batchOcc:  stats.NewOccupancy(),
		sendOcc:   stats.NewOccupancy(),
		commit:    &core.CommitStats{},
		tracer:    tr,
	}
	suite := func(id ids.NodeID, r role) crypto.Suite {
		if tr == nil {
			return suites[id]
		}
		return &tracedSuite{Suite: suites[id], t: tr, role: r}
	}
	node := func(id ids.NodeID, r role) transport.Node {
		if tr == nil {
			return d.net.Node(id)
		}
		return &tracedNode{inner: d.net.Node(id), t: tr, role: r}
	}

	var entries []core.GroupEntry
	var peers []ids.Group
	for _, r := range p.order {
		entries = append(entries, core.GroupEntry{Group: p.groups[r], Region: string(r)})
		peers = append(peers, p.groups[r])
	}
	for _, m := range p.agreement.Members {
		ar, err := core.NewAgreementReplica(core.AgreementConfig{
			Group:            p.agreement,
			ExecGroups:       entries,
			Suite:            suite(m, roleAgree),
			Node:             node(m, roleAgree),
			Tunables:         tunables(),
			ConsensusTimeout: 2 * time.Second,
			CommitStats:      d.commit,
			BatchOccupancy:   d.batchOcc,
			SendOccupancy:    d.sendOcc,
		})
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("agreement replica %d: %w", m, err)
		}
		ar.Start()
		d.agree = append(d.agree, ar)
	}
	for _, r := range p.order {
		g := p.groups[r]
		var others []ids.Group
		for _, pg := range peers {
			if pg.ID != g.ID {
				others = append(others, pg)
			}
		}
		for _, m := range g.Members {
			var application core.Application = app.NewKVStore()
			if tr != nil {
				application = &tracedApp{Application: application, t: tr, node: m}
			}
			er, err := core.NewExecutionReplica(core.ExecutionConfig{
				Group:          g,
				AgreementGroup: p.agreement,
				PeerGroups:     others,
				Suite:          suite(m, roleExec),
				Node:           node(m, roleExec),
				App:            application,
				Tunables:       tunables(),
				CommitStats:    d.commit,
				ShardMap:       core.ShardMap{Shards: 1},
				KeyOf:          app.OpKey,
			})
			if err != nil {
				d.stop()
				return nil, fmt.Errorf("execution replica %d: %w", m, err)
			}
			er.Start()
			d.exec = append(d.exec, er)
		}
	}
	for i, id := range p.clients {
		region := p.clientAt[i]
		c, err := core.NewClient(clientConfig(id, p.groups[region], p.agreement,
			suite(id.Node(), roleClient), node(id.Node(), roleClient)))
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("client %d: %w", id, err)
		}
		d.clients = append(d.clients, &benchClient{id: id, region: region, c: c})
	}
	return d, nil
}

// clientConfig copies harness.NewClient's retry settings: 2s base
// retry with capped jittered backoff and a 60s deadline.
func clientConfig(id ids.ClientID, group, agreement ids.Group, s crypto.Suite, n transport.Node) core.ClientConfig {
	return core.ClientConfig{
		ID:             id,
		Group:          group,
		AgreementGroup: agreement,
		Suite:          s,
		Node:           n,
		Retry:          2 * time.Second,
		Deadline:       60 * time.Second,
		RetryBackoff:   true,
		RetryMax:       8 * time.Second,
	}
}

// stop shuts every replica down, execution groups first as the harness
// does, then closes the network. Client calls still blocked are
// abandoned: their sends now vanish and they end at their deadline.
func (d *deployment) stop() {
	for i := len(d.exec) - 1; i >= 0; i-- {
		d.exec[i].Stop()
	}
	for i := len(d.agree) - 1; i >= 0; i-- {
		d.agree[i].Stop()
	}
	d.net.Close()
}

// viewChanges is the largest view-change count any agreement replica
// reports.
func (d *deployment) viewChanges() uint64 {
	var most uint64
	for _, ar := range d.agree {
		if n, ok := ar.ConsensusViewChanges(); ok && n > most {
			most = n
		}
	}
	return most
}

func (d *deployment) fetchCalls() int64 {
	var n int64
	for _, er := range d.exec {
		n += er.FetchCalls()
	}
	return n
}

// divergence checks that execution replicas at the same executed
// sequence number hold the same application state. Every group
// executes every write, so the rule holds across groups as well as
// within one.
func (d *deployment) divergence() []string {
	bySeq := make(map[ids.SeqNr][]crypto.Digest)
	for _, er := range d.exec {
		seq, dig := er.SnapshotInfo()
		bySeq[seq] = append(bySeq[seq], dig)
	}
	var seqs []ids.SeqNr
	for s := range bySeq {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var out []string
	for _, s := range seqs {
		for _, dig := range bySeq[s][1:] {
			if dig != bySeq[s][0] {
				out = append(out, fmt.Sprintf("execution replicas at seq %d disagree on state digest", s))
				break
			}
		}
	}
	return out
}
