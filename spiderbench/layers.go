package main

import (
	"time"

	"spider/internal/crypto"
	"spider/internal/topo"
	"spider/internal/transport"
)

// Sums over the tracer's counters. A nil role or domain list means
// all of them.

func (t *tracer) cryptoSum(roles []role, domains []crypto.Domain, ops ...cryptoOp) (n, ns int64) {
	for _, r := range rolesOrAll(roles) {
		for d := 0; d < numDomains; d++ {
			if domains != nil && !containsDomain(domains, crypto.Domain(d)) {
				continue
			}
			for _, op := range ops {
				n += t.crypto[r][d][op].n.Load()
				ns += t.crypto[r][d][op].ns.Load()
			}
		}
	}
	return n, ns
}

func (t *tracer) sentSum(roles []role, kind transport.StreamKind, classes ...linkClass) (frames, bytes int64) {
	if classes == nil {
		classes = []linkClass{classLocal, classLAN, classWAN}
	}
	for _, r := range rolesOrAll(roles) {
		for _, c := range classes {
			frames += t.sent[r][kind][c].frames.Load()
			bytes += t.sent[r][kind][c].bytes.Load()
		}
	}
	return frames, bytes
}

func (t *tracer) rxSum(roles []role, kind transport.StreamKind) (n, ns int64) {
	for _, r := range rolesOrAll(roles) {
		n += t.rx[r][kind].n.Load()
		ns += t.rx[r][kind].ns.Load()
	}
	return n, ns
}

func rolesOrAll(roles []role) []role {
	if roles == nil {
		return []role{roleClient, roleExec, roleAgree}
	}
	return roles
}

func containsDomain(ds []crypto.Domain, d crypto.Domain) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

// resetStats zeroes the deployment's stats hooks and remembers the
// cumulative counters, so a measured window reads its own share.
func (d *deployment) resetStats() {
	d.batchOcc.Reset()
	d.sendOcc.Reset()
	d.commit.Reset()
	d.net.ResetStats()
	d.fetch0 = d.fetchCalls()
	d.views0 = d.viewChanges()
}

// layerMetrics derives the per-layer metrics of a traced window. All
// of them are per successful operation unless the name says otherwise.
func layerMetrics(d *deployment, ph *phase, out phaseOutcome, cpu time.Duration, overhead float64, setups []setupTimes, keygen time.Duration) map[string]metric {
	t := d.tracer
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	per := func(x int64) float64 {
		if out.ok == 0 {
			return 0
		}
		return float64(x) / float64(out.ok)
	}
	perUS := func(ns int64) float64 { return per(ns) / 1e3 }
	var (
		client = []role{roleClient}
		exec   = []role{roleExec}
		agree  = []role{roleAgree}
		send   = []crypto.Domain{crypto.DomainIRMCSend}
		pbft   = []crypto.Domain{crypto.DomainPBFT, crypto.DomainPBFTViewChange}
	)

	// core.client
	for _, r := range topo.EvalRegions {
		v := 0.0
		if h := ph.lat[kWrite][r]; h != nil {
			v = h.quantile(0.5)
		}
		put("client.write_p50_ms."+string(r), v, "ms")
	}
	put("client.strong_read_p50_ms", ph.merged(kStrong).quantile(0.5), "ms")
	for k := 0; k < numKinds; k++ {
		put("client."+kindNames[k]+"_p99_ms", ph.merged(k).quantile(0.99), "ms")
	}
	frames, _ := t.sentSum(client, transport.KindClient)
	put("client.request_frames_per_op", per(frames), "count")
	_, ns := t.cryptoSum(client, nil, opSign)
	put("client.sign_us_per_op", perUS(ns), "us")

	// core.execution and the application
	_, ns = t.rxSum(exec, transport.KindClient)
	put("exec.client_rx_us_per_op", perUS(ns), "us")
	n, _ := t.cryptoSum(exec, nil, opVerify)
	put("exec.verify_per_op", per(n), "count")
	put("app.execute_us_per_op", perUS(t.app.execute.ns.Load()), "us")
	put("app.read_us_per_op", perUS(t.app.read.ns.Load()), "us")

	// IRMC request channel: execution replicas send, agreement
	// replicas receive.
	frames, bytes := t.sentSum(nil, transport.KindRequestCh)
	put("reqch.frames_per_op", per(frames), "count")
	put("reqch.bytes_per_op", per(bytes), "B")
	n, ns = t.cryptoSum(exec, send, opSign)
	put("reqch.sign_per_op", per(n), "count")
	put("reqch.sign_us_per_op", perUS(ns), "us")
	_, ns = t.cryptoSum(agree, send, opVerify)
	put("reqch.verify_us_per_op", perUS(ns), "us")
	_, ns = t.rxSum(nil, transport.KindRequestCh)
	put("reqch.rx_us_per_op", perUS(ns), "us")

	// PBFT
	put("pbft.batch_mean", d.batchOcc.Summarize().Mean, "count")
	frames, _ = t.sentSum(nil, transport.KindPBFT)
	put("pbft.frames_per_op", per(frames), "count")
	n, _ = t.cryptoSum(agree, pbft, opSign)
	put("pbft.sign_per_op", per(n), "count")
	_, ns = t.cryptoSum(agree, pbft, opMAC, opVerifyMAC)
	put("pbft.mac_us_per_op", perUS(ns), "us")
	n, _ = t.cryptoSum(agree, []crypto.Domain{crypto.DomainClientRequest}, opVerify)
	put("pbft.validate_verify_per_op", per(n), "count")
	_, ns = t.rxSum(nil, transport.KindPBFT)
	put("pbft.rx_us_per_op", perUS(ns), "us")
	put("pbft.view_changes", float64(d.viewChanges()-d.views0), "count")

	// IRMC commit channel: agreement replicas send, execution
	// replicas receive.
	frames, _ = t.sentSum(nil, transport.KindCommitCh)
	put("commitch.frames_per_op", per(frames), "count")
	_, bytes = t.sentSum(nil, transport.KindCommitCh, classWAN)
	put("commitch.wan_bytes_per_op", per(bytes), "B")
	_, ns = t.cryptoSum(agree, send, opSign)
	put("commitch.sign_us_per_op", perUS(ns), "us")
	_, ns = t.cryptoSum(exec, send, opVerify)
	put("commitch.verify_us_per_op", perUS(ns), "us")
	_, ns = t.rxSum(nil, transport.KindCommitCh)
	put("commitch.rx_us_per_op", perUS(ns), "us")
	put("commitch.send_mean", d.sendOcc.Summarize().Mean, "count")
	cs := d.commit.Summarize()
	put("commitch.payload_bytes_per_op", per(cs.PayloadBytes), "B")
	hitRatio := 0.0
	if lookups := cs.CacheHits + cs.CacheMisses; lookups > 0 {
		hitRatio = float64(cs.CacheHits) / float64(lookups)
	}
	put("commitch.cache_hit_ratio", hitRatio, "frac")

	// Checkpoints and state transfer
	_, ns = t.cryptoSum(nil, []crypto.Domain{crypto.DomainCheckpoint}, opSign)
	put("checkpoint.sign_us_per_op", perUS(ns), "us")
	// State transfer (Fetch) rides the checkpoint stream, so its bytes
	// are counted with the checkpoint announcements.
	frames, bytes = t.sentSum(nil, transport.KindCheckpoint)
	put("checkpoint.frames_per_op", per(frames), "count")
	put("checkpoint.bytes_per_op", per(bytes), "B")
	put("exec.fetch_calls", float64(d.fetchCalls()-d.fetch0), "count")

	// memnet: Figure 9d's billed traffic
	st := d.net.Stats()
	var allFrames int64
	for _, f := range st.Frames {
		allFrames += f
	}
	put("net.wan_bytes_per_op", per(st.BytesWAN()), "B")
	put("net.lan_bytes_per_op", per(st.BytesLAN()), "B")
	put("net.frames_per_op", per(allFrames), "count")
	put("net.dropped", float64(st.Dropped), "count")

	// crypto, all roles, and the process
	_, ns = t.cryptoSum(nil, nil, opSign)
	put("crypto.sign_us_per_op", perUS(ns), "us")
	_, ns = t.cryptoSum(nil, nil, opVerify)
	put("crypto.verify_us_per_op", perUS(ns), "us")
	_, ns = t.cryptoSum(nil, nil, opMAC, opVerifyMAC)
	put("crypto.mac_us_per_op", perUS(ns), "us")
	put("proc.cpu_us_per_op", perUS(int64(cpu)), "us")

	// set-up and the load generator
	put("setup.keygen_s", keygen.Seconds(), "s")
	put("setup.suites_s", median(setups, func(s setupTimes) time.Duration { return s.suites }).Seconds(), "s")
	put("setup.start_s", median(setups, func(s setupTimes) time.Duration { return s.start }).Seconds(), "s")
	put("setup.first_op_s", median(setups, func(s setupTimes) time.Duration { return s.firstOp }).Seconds(), "s")
	put("gen.late_p99_ms", ph.late.quantile(0.99), "ms")
	put("trace.overhead_frac", overhead, "frac")
	return m
}
