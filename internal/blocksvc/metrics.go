package blocksvc

import (
	"fmt"

	"repro/internal/obs"
)

// serverMetrics is the server's observability surface (names under "svc.",
// documented in DESIGN.md §9). The ServerStats counters are exported as
// pull-style func metrics — they already exist under statsMu, so the hot
// path pays nothing new — while admission-wait latencies are push-style
// histograms observed around the semaphore. A nil registry leaves every
// handle nil; obs handles are nil-safe, so callers never branch.
type serverMetrics struct {
	reg       *obs.Registry
	queueWait *obs.Histogram // admission wait of requests that were admitted
	shedWait  *obs.Histogram // admission wait of requests that were shed
}

func newServerMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg}
	if reg == nil {
		return m
	}
	m.queueWait = reg.Histogram("svc.queue_wait_ns", obs.DurationBuckets())
	m.shedWait = reg.Histogram("svc.shed_wait_ns", obs.DurationBuckets())
	counter := func(name string, get func(*ServerStats) int64) {
		reg.CounterFunc(name, func() int64 { st := s.Snapshot(); return get(&st) })
	}
	counter("svc.sessions", func(st *ServerStats) int64 { return st.Sessions })
	counter("svc.requests", func(st *ServerStats) int64 { return st.Requests })
	counter("svc.shed_requests", func(st *ServerStats) int64 { return st.ShedRequests })
	counter("svc.blocks", func(st *ServerStats) int64 { return st.Blocks })
	counter("svc.blocks_ok", func(st *ServerStats) int64 { return st.BlocksOK })
	counter("svc.blocks_failed", func(st *ServerStats) int64 { return st.BlocksFailed })
	counter("svc.bytes_sent", func(st *ServerStats) int64 { return st.BytesSent })
	counter("svc.compress.blocks", func(st *ServerStats) int64 { return st.CompressedBlocks })
	counter("svc.compress.skipped", func(st *ServerStats) int64 { return st.CompressSkipped })
	counter("svc.compress.bytes_in", func(st *ServerStats) int64 { return st.CompressBytesIn })
	counter("svc.compress.bytes_out", func(st *ServerStats) int64 { return st.CompressBytesOut })
	counter("svc.view_updates", func(st *ServerStats) int64 { return st.ViewUpdates })
	counter("svc.prefetch_issued", func(st *ServerStats) int64 { return st.PrefetchIssued })
	counter("svc.prefetch_executed", func(st *ServerStats) int64 { return st.PrefetchExecuted })
	counter("svc.prefetch_failed", func(st *ServerStats) int64 { return st.PrefetchFailed })
	counter("svc.prefetch_dropped", func(st *ServerStats) int64 { return st.PrefetchDropped })
	counter("svc.prefetch_hits", func(st *ServerStats) int64 { return st.PrefetchHits })
	counter("svc.predict.dwell", func(st *ServerStats) int64 { return st.PredictDwell })
	counter("svc.predict.linear", func(st *ServerStats) int64 { return st.PredictLinear })
	counter("svc.predict.angular", func(st *ServerStats) int64 { return st.PredictAngular })
	counter("svc.predict.last", func(st *ServerStats) int64 { return st.PredictLast })
	counter("svc.heartbeats_sent", func(st *ServerStats) int64 { return st.HeartbeatsSent })
	counter("svc.dead_peers", func(st *ServerStats) int64 { return st.DeadPeers })
	counter("svc.goaways_sent", func(st *ServerStats) int64 { return st.GoawaysSent })
	counter("svc.redirects", func(st *ServerStats) int64 { return st.Redirects })
	counter("svc.topology_pushes", func(st *ServerStats) int64 { return st.TopologyPushes })
	reg.GaugeFunc("svc.active_sessions", func() int64 { return s.Snapshot().ActiveSessions })
	reg.GaugeFunc("svc.inflight_bytes", s.sem.InUse)
	return m
}

// registerSession exposes one session's in-flight served bytes — and, when
// prefetch is on, its trajectory-predictor counters — as dynamically named
// metrics; unregisterSession retires every one of them at teardown so the
// snapshot only lists live sessions.
func (m *serverMetrics) registerSession(ss *session) {
	if m.reg == nil {
		return
	}
	m.reg.GaugeFunc(sessionGaugeName(ss.id), ss.inflightBytes.Load)
	if ss.prefetchCh != nil {
		m.reg.CounterFunc(sessionPredictName(ss.id, "views"), ss.predViews.Load)
		m.reg.CounterFunc(sessionPredictName(ss.id, "hits"), ss.predHits.Load)
	}
}

func (m *serverMetrics) unregisterSession(ss *session) {
	if m.reg == nil {
		return
	}
	m.reg.Unregister(sessionGaugeName(ss.id))
	if ss.prefetchCh != nil {
		for _, suffix := range sessionPredictSuffixes {
			m.reg.Unregister(sessionPredictName(ss.id, suffix))
		}
	}
}

func sessionGaugeName(id uint64) string {
	return fmt.Sprintf("svc.session.%d.inflight_bytes", id)
}

// sessionPredictSuffixes are the per-session predictor metric names,
// registered at session start and unregistered at teardown.
var sessionPredictSuffixes = [...]string{"views", "hits"}

func sessionPredictName(id uint64, suffix string) string {
	return fmt.Sprintf("svc.predict.session.%d.%s", id, suffix)
}

// clientMetrics is the RemoteReader's observability surface (names under
// "client.", documented in DESIGN.md §9): ClientStats as pull-style func
// metrics plus an end-to-end request-latency histogram. Per-endpoint
// health lives under "client.shard.<shard>.endpoint.<i>." — registered as
// shard groups come into the topology and unregistered as they leave, so
// /debug/metrics never shows a departed node.
type clientMetrics struct {
	reg       *obs.Registry
	requestNs *obs.Histogram
}

func newClientMetrics(r *RemoteReader, reg *obs.Registry) *clientMetrics {
	m := &clientMetrics{reg: reg}
	if reg == nil {
		return m
	}
	m.requestNs = reg.Histogram("client.request_ns", obs.DurationBuckets())
	counter := func(name string, get func(*ClientStats) int64) {
		reg.CounterFunc(name, func() int64 { st := r.Snapshot(); return get(&st) })
	}
	counter("client.dials", func(st *ClientStats) int64 { return st.Dials })
	counter("client.dial_retries", func(st *ClientStats) int64 { return st.DialRetries })
	counter("client.requests", func(st *ClientStats) int64 { return st.Requests })
	counter("client.blocks_requested", func(st *ClientStats) int64 { return st.BlocksRequested })
	counter("client.blocks_served", func(st *ClientStats) int64 { return st.BlocksServed })
	counter("client.remote_faults", func(st *ClientStats) int64 { return st.RemoteFaults })
	counter("client.shed_requests", func(st *ClientStats) int64 { return st.ShedRequests })
	counter("client.checksum_errors", func(st *ClientStats) int64 { return st.ChecksumErrors })
	counter("client.transport_errors", func(st *ClientStats) int64 { return st.TransportErrors })
	counter("client.bytes_received", func(st *ClientStats) int64 { return st.BytesReceived })
	counter("client.decompress.blocks", func(st *ClientStats) int64 { return st.DecompressedBlocks })
	counter("client.decompress.bytes", func(st *ClientStats) int64 { return st.DecompressedBytes })
	counter("client.view_updates", func(st *ClientStats) int64 { return st.ViewUpdates })
	counter("client.failovers", func(st *ClientStats) int64 { return st.Failovers })
	counter("client.goaways_received", func(st *ClientStats) int64 { return st.GoawaysReceived })
	counter("client.pings_sent", func(st *ClientStats) int64 { return st.PingsSent })
	counter("client.pongs_received", func(st *ClientStats) int64 { return st.PongsReceived })
	counter("client.dead_peers", func(st *ClientStats) int64 { return st.DeadPeers })
	counter("client.breaker_opens", func(st *ClientStats) int64 { return st.BreakerOpens })
	counter("client.breaker_probes", func(st *ClientStats) int64 { return st.BreakerProbes })
	counter("client.breaker_closes", func(st *ClientStats) int64 { return st.BreakerCloses })
	counter("client.redirects", func(st *ClientStats) int64 { return st.Redirects })
	counter("client.reroutes", func(st *ClientStats) int64 { return st.Reroutes })
	counter("client.topology_updates", func(st *ClientStats) int64 { return st.TopologyUpdates })
	return m
}

// endpointMetricPrefix names one endpoint's health metrics. Keyed by shard
// ID and endpoint index — stable across topology changes, unlike a global
// endpoint position.
func endpointMetricPrefix(shardID string, idx int) string {
	return fmt.Sprintf("client.shard.%s.endpoint.%d.", shardID, idx)
}

// endpointMetricSuffixes are the per-endpoint metric names registered and
// unregistered as shard groups enter and leave the topology.
var endpointMetricSuffixes = [...]string{"dials", "failures", "breaker_state", "draining"}

// registerGroup exposes one shard group's per-endpoint health.
func (m *clientMetrics) registerGroup(g *shardGroup) {
	if m.reg == nil {
		return
	}
	for _, ep := range g.eps {
		ep := ep
		prefix := endpointMetricPrefix(g.name, ep.idx)
		m.reg.CounterFunc(prefix+"dials", ep.dials.Load)
		m.reg.CounterFunc(prefix+"failures", ep.failures.Load)
		// 0=closed, 1=open, 2=half-open (breaker.State values).
		m.reg.GaugeFunc(prefix+"breaker_state", func() int64 { return int64(ep.br.State()) })
		m.reg.GaugeFunc(prefix+"draining", func() int64 {
			if ep.draining.Load() {
				return 1
			}
			return 0
		})
	}
}

// unregisterGroup retires a departed shard group's metric names.
func (m *clientMetrics) unregisterGroup(g *shardGroup) {
	if m.reg == nil {
		return
	}
	for _, ep := range g.eps {
		prefix := endpointMetricPrefix(g.name, ep.idx)
		for _, suffix := range endpointMetricSuffixes {
			m.reg.Unregister(prefix + suffix)
		}
	}
}
