package obs

import (
	"time"
)

// Stage names with a dedicated latency histogram. "total" is observed
// by the service around the whole request; the others are observed
// automatically when the matching span ends.
var StageNames = []string{"parse", "place", "route", "render", "total"}

// Pipeline is the canonical metric set of the generation pipeline:
// request/outcome counters, cache counters, in-flight gauge, and one
// latency histogram per stage — everything /metrics exports and
// /v1/stats + /v1/healthz read, so the two surfaces can never drift.
type Pipeline struct {
	Reg   *Registry
	Start time.Time

	// Requests counts accepted generation requests (incl. batch items).
	Requests *Counter
	// Outcome counters; one request increments exactly one of
	// OK/Failed/Shed/Timeouts/Rejected (Degraded rides on OK).
	OK       *Counter
	Failed   *Counter
	Shed     *Counter
	Timeouts *Counter
	Rejected *Counter
	Degraded *Counter
	// Retries counts extra attempts spent by the batch retry layer;
	// Panics counts panics recovered by the isolation layer.
	Retries *Counter
	Panics  *Counter

	// Cache event counters.
	CacheHits      *Counter
	CacheMisses    *Counter
	CacheEvictions *Counter

	// Inflight tracks requests currently inside the pipeline.
	Inflight *Gauge

	// Traces counts snapshots taken (one per traced request).
	Traces *Counter

	// Store tier event counters (netart_store_events_total{tier,event}):
	// the per-tier view of the pluggable result store — "mem"/"disk"
	// crossed with hit/miss/put/evict/promote/error. The legacy
	// netart_cache_events_total counters above stay the request-level
	// view (did the store as a whole serve this request); these count
	// what each tier did to produce that answer.
	storeEvents map[string]*Counter

	// Singleflight counters: per collapsed generate exactly one of
	// leader/shared/canceled increments — leader executed the
	// pipeline, shared received the leader's result, canceled gave up
	// waiting because its own deadline expired.
	SFLeader   *Counter
	SFShared   *Counter
	SFCanceled *Counter

	// Peer-routing counters of the fleet sharding layer: one increment
	// per cold request that reached the ownership decision. self =
	// this replica owns the key; proxied = forwarded to the owner and
	// served its answer; fallback = owner unreachable, computed
	// locally; received = served a request a peer forwarded here.
	PeerSelf     *Counter
	PeerProxied  *Counter
	PeerFallback *Counter
	PeerReceived *Counter

	// Fleet-health counters (netart_peer_transitions_total{to}): one
	// increment per circuit-breaker transition, labeled by the state
	// entered. open = a peer left the ownership set (its keys remap),
	// half_open = a recovery trial started, closed = it rejoined.
	PeerOpened     *Counter
	PeerHalfOpened *Counter
	PeerClosed     *Counter
	// Hedged-proxy counters (netart_proxy_hedge_total{event}):
	// launched = the owner missed the hedge deadline and a twin was
	// sent to the next live peer; won = the twin answered first.
	HedgeLaunched *Counter
	HedgeWon      *Counter
	// ProxyRetries counts extra proxy attempts spent on transient
	// peer failures (netart_proxy_retries_total).
	ProxyRetries *Counter

	// Async-job counters of the /v2/jobs subsystem. JobsSubmitted
	// counts accepted submissions; exactly one of JobsDone/JobsFailed/
	// JobsCanceled increments when a job reaches its terminal state;
	// JobsEvicted counts records dropped from the ring (TTL expiry or
	// capacity pressure); JobsEvents counts progress events appended to
	// job event logs (what SSE subscribers replay).
	JobsSubmitted *Counter
	JobsDone      *Counter
	JobsFailed    *Counter
	JobsCanceled  *Counter
	JobsEvicted   *Counter
	JobsEvents    *Counter

	stages map[string]*Histogram
}

// NewPipeline builds the metric set on a fresh registry.
func NewPipeline() *Pipeline {
	reg := NewRegistry()
	p := &Pipeline{Reg: reg, Start: time.Now()}

	p.Requests = reg.Counter("netart_requests_total",
		"Generation requests accepted (including batch items).", "")
	outcome := func(o string) *Counter {
		return reg.Counter("netart_request_outcomes_total",
			"Request outcomes by class.", `outcome="`+o+`"`)
	}
	p.OK = outcome("ok")
	p.Failed = outcome("failed")
	p.Shed = outcome("shed")
	p.Timeouts = outcome("timeout")
	p.Rejected = outcome("rejected")
	p.Degraded = reg.Counter("netart_degraded_total",
		"Successful responses that carried a best-effort degradation report.", "")
	p.Retries = reg.Counter("netart_batch_retries_total",
		"Extra attempts spent by the batch retry layer.", "")
	p.Panics = reg.Counter("netart_panics_recovered_total",
		"Panics converted into stage errors by the isolation layer.", "")

	cache := func(ev string) *Counter {
		return reg.Counter("netart_cache_events_total",
			"Result cache events by kind.", `event="`+ev+`"`)
	}
	p.CacheHits = cache("hit")
	p.CacheMisses = cache("miss")
	p.CacheEvictions = cache("eviction")

	p.storeEvents = make(map[string]*Counter, len(StoreTiers)*len(StoreEventNames))
	for _, tier := range StoreTiers {
		for _, ev := range StoreEventNames {
			p.storeEvents[tier+"\x00"+ev] = reg.Counter("netart_store_events_total",
				"Result-store events by tier and kind.",
				`tier="`+tier+`",event="`+ev+`"`)
		}
	}

	sf := func(o string) *Counter {
		return reg.Counter("netart_singleflight_total",
			"Singleflight outcomes of collapsed generate requests.", `outcome="`+o+`"`)
	}
	p.SFLeader = sf("leader")
	p.SFShared = sf("shared")
	p.SFCanceled = sf("canceled")

	peer := func(o string) *Counter {
		return reg.Counter("netart_peer_requests_total",
			"Fleet-sharding routing outcomes for cold requests.", `outcome="`+o+`"`)
	}
	p.PeerSelf = peer("self")
	p.PeerProxied = peer("proxied")
	p.PeerFallback = peer("fallback")
	p.PeerReceived = peer("received")

	trans := func(to string) *Counter {
		return reg.Counter("netart_peer_transitions_total",
			"Per-peer circuit-breaker transitions by state entered.", `to="`+to+`"`)
	}
	p.PeerOpened = trans("open")
	p.PeerHalfOpened = trans("half_open")
	p.PeerClosed = trans("closed")
	hedge := func(ev string) *Counter {
		return reg.Counter("netart_proxy_hedge_total",
			"Hedged proxy requests by event.", `event="`+ev+`"`)
	}
	p.HedgeLaunched = hedge("launched")
	p.HedgeWon = hedge("won")
	p.ProxyRetries = reg.Counter("netart_proxy_retries_total",
		"Extra proxy attempts spent on transient peer failures.", "")

	p.Inflight = reg.Gauge("netart_inflight_requests",
		"Requests currently inside the pipeline.", "")
	p.Traces = reg.Counter("netart_traces_total",
		"Span-tree snapshots taken (one per traced request).", "")

	p.JobsSubmitted = reg.Counter("netart_jobs_submitted_total",
		"Async jobs accepted by POST /v2/jobs.", "")
	job := func(state string) *Counter {
		return reg.Counter("netart_jobs_total",
			"Async jobs finished, by terminal state.", `state="`+state+`"`)
	}
	p.JobsDone = job("done")
	p.JobsFailed = job("failed")
	p.JobsCanceled = job("canceled")
	p.JobsEvicted = reg.Counter("netart_jobs_evicted_total",
		"Job records evicted from the ring (TTL expiry or capacity pressure).", "")
	p.JobsEvents = reg.Counter("netart_jobs_events_total",
		"Progress events appended to job event logs.", "")

	p.stages = make(map[string]*Histogram, len(StageNames))
	for _, name := range StageNames {
		p.stages[name] = reg.Histogram("netart_stage_duration_seconds",
			"Wall time per pipeline stage.", `stage="`+name+`"`)
	}

	reg.GaugeFunc("netart_uptime_seconds", "Seconds since process start.", "",
		func() float64 { return time.Since(p.Start).Seconds() })
	return p
}

// StoreTiers and StoreEventNames enumerate the pre-registered
// children of netart_store_events_total. Registration stays
// construction-time (the observation path is a lock-free map read of
// an immutable map); an unknown (tier, event) pair is dropped rather
// than lazily registered.
var (
	StoreTiers      = []string{"mem", "disk"}
	StoreEventNames = []string{"hit", "miss", "put", "evict", "promote", "error"}
)

// StoreEvent counts one store event; unknown tiers/events are ignored.
func (p *Pipeline) StoreEvent(tier, event string) {
	if p == nil {
		return
	}
	if c := p.storeEvents[tier+"\x00"+event]; c != nil {
		c.Inc()
	}
}

// StoreEventValue reads one store event counter (0 when unknown).
func (p *Pipeline) StoreEventValue(tier, event string) uint64 {
	if p == nil {
		return 0
	}
	if c := p.storeEvents[tier+"\x00"+event]; c != nil {
		return c.Value()
	}
	return 0
}

// Stage returns the histogram for a stage name, or nil for stages
// without one (ladder rung spans observe nothing).
func (p *Pipeline) Stage(name string) *Histogram {
	if p == nil {
		return nil
	}
	return p.stages[name]
}

// StageObserve records one stage duration; unknown stages are ignored.
func (p *Pipeline) StageObserve(name string, d time.Duration) {
	if p == nil {
		return
	}
	if h := p.stages[name]; h != nil {
		h.Observe(d)
	}
}

// StageSnapshots returns the per-stage histogram snapshots keyed by
// stage name (the /v1/stats "stages" object).
func (p *Pipeline) StageSnapshots() map[string]HistogramData {
	out := make(map[string]HistogramData, len(p.stages))
	for _, name := range sortedKeys(p.stages) {
		out[name] = p.stages[name].Snapshot()
	}
	return out
}
