package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"netart/internal/gen"
	"netart/internal/jobs"
	"netart/internal/library"
	"netart/internal/netlist"
	"netart/internal/obs"
	"netart/internal/resilience"
	"netart/internal/route"
	"netart/internal/store"
	"netart/internal/store/cluster"
	"netart/internal/store/singleflight"
	"netart/internal/workload"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of concurrent generation goroutines
	// (default GOMAXPROCS). Generation is CPU-bound, so more workers
	// than cores only adds scheduling pressure.
	Workers int
	// QueueDepth is the number of requests that may wait behind the
	// busy workers before the server sheds load with 429 (default
	// 4×Workers).
	QueueDepth int
	// CacheEntries caps the content-addressed result cache; 0 disables
	// caching, negative uses the default (256).
	CacheEntries int
	// DefaultTimeout bounds requests that carry no timeout_ms (default
	// 30s); MaxTimeout clips requests that ask for more (default 2min).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// JobsMax caps the async job ring (/v2/jobs): at most this many job
	// records are tracked at once, and a submission that cannot make
	// room (every record is live) is shed with 429 exactly like a full
	// worker queue (default 256). JobsTTL is how long a finished job's
	// record — status document and event log — stays fetchable before
	// eviction (default 15min). The rendered artwork itself outlives the
	// record through the result store.
	JobsMax int
	JobsTTL time.Duration

	// MaxBodyBytes caps request bodies; oversized bodies get a clean
	// 413 before any decoding (default 8 MiB).
	MaxBodyBytes int64
	// MaxModules / MaxNets / MaxPlaneArea are the resource guards:
	// designs beyond these caps are rejected with 422 before (counts)
	// or instead of (plane area) consuming a routing plane. Zero uses
	// the defaults (4096 modules, 16384 nets, 4M plane points);
	// negative disables the corresponding guard.
	MaxModules   int
	MaxNets      int
	MaxPlaneArea int

	// DegradeMode is the server-wide default degradation policy for
	// requests that do not pick their own (see gen.DegradeMode).
	DegradeMode gen.DegradeMode

	// VerifyRouting re-derives every response's net connectivity from
	// the routed wire geometry and rejects the response if it does not
	// match the netlist (route.VerifyEquivalence). A failed check is a
	// router invariant violation, served as a 500 and never cached.
	// Chaos and CI deployments turn this on; the check is O(wire
	// points) per request.
	VerifyRouting bool

	// BatchRetries is the number of extra attempts a transient /v1/batch
	// item failure may consume (default 2; negative disables retry).
	// RetryBase/RetryMax shape the exponential backoff between attempts
	// (defaults 10ms/250ms; jitter is always applied).
	BatchRetries int
	RetryBase    time.Duration
	RetryMax     time.Duration

	// Inject arms the fault-injection sites across the whole pipeline
	// (chaos testing; see resilience.ParseSpec). While any rule is
	// armed the result cache is bypassed so injected failures cannot
	// poison cached artwork. Nil disables injection at zero cost.
	Inject *resilience.Injector

	// StoreBackend selects the result-store composition: "mem" (the
	// in-process LRU; default), "disk" (content-addressed files under
	// StoreDir, survives restarts), or "tiered" (memory over disk with
	// write-through and promotion on hit). "disk" and "tiered" require
	// StoreDir.
	StoreBackend string
	// StoreDir is the disk store root; entries live under
	// <StoreDir>/<key version>.
	StoreDir string
	// StoreMaxBytes bounds the disk tier; least-recently-used entries
	// are garbage-collected beyond it (default 256 MiB; negative
	// disables the bound).
	StoreMaxBytes int64

	// Peers is the static replica list of a netartd fleet (base URLs).
	// When it names more than one replica, each design hash gets a
	// consistent-hash owner: cold requests for keys owned elsewhere
	// are proxied to the owner (single hop, local-compute fallback
	// when it is unreachable). SelfURL must be this replica's own base
	// URL as the peers see it; it is added to Peers if absent.
	Peers   []string
	SelfURL string

	// PeerProbeInterval paces the fleet health prober: each remote
	// peer's /v1/healthz is probed on a jittered schedule, and the
	// results drive a per-peer circuit breaker that removes dead peers
	// from the ownership set (their keys remap to live replicas and
	// remap back on recovery). 0 uses the default (2s); negative
	// disables active probing — breakers then open on proxy failures
	// only and never recover until restart. Only meaningful with Peers.
	PeerProbeInterval time.Duration
	// PeerFailThreshold is the consecutive-transport-failure count
	// that opens a peer's breaker (default 3).
	PeerFailThreshold int
	// ProxyHedgeAfter, when positive, hedges a proxied request: if the
	// key's owner has not answered within the delay, the same request
	// is sent to the next-ranked live peer and the first response wins
	// (the loser is canceled). Deterministic generation makes this
	// safe — both peers produce byte-identical artwork. 0 disables.
	ProxyHedgeAfter time.Duration
	// PeerTimeout is an overall client-side bound per proxied call in
	// addition to the per-request context (0 = context only).
	PeerTimeout time.Duration
	// PeerFaults injects seeded network-layer faults (error / latency
	// / blackhole / 5xx per peer) into all peer traffic, probes
	// included — the fleet half of chaos testing. Nil disables.
	PeerFaults *cluster.FaultPlan
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.JobsMax <= 0 {
		c.JobsMax = 256
	}
	if c.JobsTTL <= 0 {
		c.JobsTTL = 15 * time.Minute
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	switch {
	case c.MaxModules == 0:
		c.MaxModules = 4096
	case c.MaxModules < 0:
		c.MaxModules = 0
	}
	switch {
	case c.MaxNets == 0:
		c.MaxNets = 16384
	case c.MaxNets < 0:
		c.MaxNets = 0
	}
	switch {
	case c.MaxPlaneArea == 0:
		c.MaxPlaneArea = 4 << 20
	case c.MaxPlaneArea < 0:
		c.MaxPlaneArea = 0
	}
	if c.BatchRetries == 0 {
		c.BatchRetries = 2
	} else if c.BatchRetries < 0 {
		c.BatchRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.StoreBackend == "" {
		c.StoreBackend = "mem"
	}
	switch {
	case c.PeerProbeInterval == 0:
		c.PeerProbeInterval = 2 * time.Second
	case c.PeerProbeInterval < 0:
		c.PeerProbeInterval = 0
	}
	if c.PeerFailThreshold <= 0 {
		c.PeerFailThreshold = 3
	}
	switch {
	case c.StoreMaxBytes == 0:
		c.StoreMaxBytes = 256 << 20
	case c.StoreMaxBytes < 0:
		c.StoreMaxBytes = 0
	}
	return c
}

// guards derives the resilience caps from the config.
func (c Config) guards() resilience.Guards {
	return resilience.Guards{
		MaxModules:   c.MaxModules,
		MaxNets:      c.MaxNets,
		MaxPlaneArea: c.MaxPlaneArea,
	}
}

// Server is the schematic-generation daemon: a worker pool, a result
// store, the singleflight group, the optional fleet view, the stats
// registry, and the pre-parsed built-in workloads.
type Server struct {
	cfg    Config
	pool   *workerPool
	cache  *resultStore
	flight *singleflight.Group
	fleet  *cluster.Fleet
	stats  *serverStats
	obs    *obs.Pipeline
	lib    *library.Library
	jobs   *jobs.Manager

	// builtins maps workload names to designs parsed once at startup.
	// Placement mutates designs through their pointers, so requests
	// never touch these directly: process() hands a Clone to the
	// pipeline (see netlist.(*Design).Clone).
	builtins map[string]*netlist.Design

	// testHook, when non-nil, runs inside every pooled task before the
	// pipeline; tests use it to hold workers busy deterministically.
	// flightHook runs inside a singleflight leader before it computes;
	// tests use it to hold the leader until every follower has joined.
	testHook   func()
	flightHook func()
}

// New builds a Server (no listener; pair Handler() with http.Serve or
// call Generate directly). It panics on a config error — only
// possible with disk-backed stores or a bad peer list, so callers
// using those pass through NewServer instead.
func New(cfg Config) *Server {
	s, err := NewServer(cfg)
	if err != nil {
		panic(fmt.Sprintf("service: %v", err))
	}
	return s
}

// buildStore assembles the configured store composition. A zero
// CacheEntries disables the memory tier (and with backend "mem",
// caching entirely), preserving the old cache semantics.
func buildStore(cfg Config, rec store.Recorder) (store.Store, error) {
	newDisk := func() (store.Store, error) {
		return store.NewDisk(cfg.StoreDir, store.DiskOptions{
			Namespace: keyVersion,
			MaxBytes:  cfg.StoreMaxBytes,
			Recorder:  rec,
		})
	}
	switch cfg.StoreBackend {
	case "mem":
		if cfg.CacheEntries <= 0 {
			return nil, nil // caching disabled
		}
		return store.NewMem(cfg.CacheEntries, rec), nil
	case "disk":
		return newDisk()
	case "tiered":
		disk, err := newDisk()
		if err != nil {
			return nil, err
		}
		if cfg.CacheEntries <= 0 {
			return disk, nil // no memory tier to put on top
		}
		return store.NewTiered(store.NewMem(cfg.CacheEntries, rec), disk, rec), nil
	default:
		return nil, fmt.Errorf("unknown store backend %q (mem, disk, tiered)", cfg.StoreBackend)
	}
}

// NewServer builds a Server, surfacing store/fleet config errors.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	m := obs.NewPipeline()
	// The recorder bridges backend events into the shared metric set;
	// memory-tier evictions additionally feed the legacy cache counter
	// so the pre-store-tier /v1/stats wire meaning is preserved.
	rec := func(tier, event string) {
		m.StoreEvent(tier, event)
		if tier == "mem" && event == store.EventEvict {
			m.CacheEvictions.Inc()
		}
	}
	backend, err := buildStore(cfg, rec)
	if err != nil {
		return nil, err
	}
	var fleet *cluster.Fleet
	if len(cfg.Peers) > 0 {
		copts := cluster.Options{
			Timeout:          cfg.PeerTimeout,
			MaxResponseBytes: cfg.MaxBodyBytes,
			HedgeAfter:       cfg.ProxyHedgeAfter,
			OnEvent: func(ev string) {
				switch ev {
				case cluster.EventProxyRetry:
					m.ProxyRetries.Inc()
				case cluster.EventHedgeLaunched:
					m.HedgeLaunched.Inc()
				case cluster.EventHedgeWon:
					m.HedgeWon.Inc()
				}
			},
			// Breakers are always on for a fleet; PeerProbeInterval 0
			// (a negative config value) merely disables the prober.
			Probe: &cluster.HealthOptions{
				ProbeInterval: cfg.PeerProbeInterval,
				FailThreshold: cfg.PeerFailThreshold,
				OnTransition: func(peer string, from, to cluster.State) {
					switch to {
					case cluster.StateOpen:
						m.PeerOpened.Inc()
					case cluster.StateHalfOpen:
						m.PeerHalfOpened.Inc()
					default:
						m.PeerClosed.Inc()
					}
				},
			},
		}
		if cfg.PeerFaults != nil {
			copts.Transport = &cluster.FaultTransport{Plan: cfg.PeerFaults}
		}
		fleet, err = cluster.New(cfg.SelfURL, cfg.Peers, copts)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:    cfg,
		pool:   newWorkerPool(cfg.Workers, cfg.QueueDepth),
		cache:  newResultStore(backend, cfg.StoreBackend, cfg.Inject, m),
		flight: new(singleflight.Group),
		fleet:  fleet,
		stats:  newServerStats(m),
		obs:    m,
		lib:    library.Builtin(),
		builtins: map[string]*netlist.Design{
			"fig61":      workload.Fig61(),
			"quickstart": workload.Quickstart(),
			"datapath":   workload.Datapath16(),
			"cpu":        workload.CPU(),
			"life":       workload.Life27(),
		},
		// Terminal-state, eviction, and event-log activity of the job
		// ring feeds the shared metric set, so /metrics, /v1/stats and
		// job status documents always agree.
		jobs: jobs.NewManager(cfg.JobsMax, cfg.JobsTTL, jobs.Hooks{
			OnEvent: func() { m.JobsEvents.Inc() },
			OnFinish: func(st jobs.State) {
				switch st {
				case jobs.StateDone:
					m.JobsDone.Inc()
				case jobs.StateFailed:
					m.JobsFailed.Inc()
				default:
					m.JobsCanceled.Inc()
				}
			},
			OnEvict: func() { m.JobsEvicted.Inc() },
		}),
	}
	// Pool/cache shape gauges are sampled live at scrape time.
	m.Reg.GaugeFunc("netart_queued_requests",
		"Requests waiting behind the busy workers.", "",
		func() float64 { return float64(s.pool.queued()) })
	m.Reg.GaugeFunc("netart_workers", "Configured worker goroutines.", "",
		func() float64 { return float64(s.cfg.Workers) })
	m.Reg.GaugeFunc("netart_cache_entries", "Result cache entries.", "",
		func() float64 { return float64(s.cache.len()) })
	m.Reg.GaugeFunc("netart_cache_capacity", "Result cache capacity.", "",
		func() float64 { return float64(s.cfg.CacheEntries) })
	m.Reg.GaugeFunc("netart_store_bytes", "Bytes held across all store tiers.", "",
		func() float64 { return float64(s.cache.bytes()) })
	m.Reg.GaugeFunc("netart_jobs_tracked", "Job records currently held in the ring.", "",
		func() float64 { tracked, _ := s.jobs.Counts(); return float64(tracked) })
	m.Reg.GaugeFunc("netart_jobs_active", "Jobs currently queued or running.", "",
		func() float64 { _, live := s.jobs.Counts(); return float64(live) })
	// One breaker-state gauge per fleet peer, sampled at scrape time:
	// 1 closed (live), 0.5 half-open (probing), 0 open (down).
	if s.fleet.Enabled() {
		for _, ps := range s.fleet.PeerStates() {
			peer := ps.URL
			m.Reg.GaugeFunc("netart_peer_state",
				"Per-peer circuit-breaker state: 1 closed (live), 0.5 half-open (probing), 0 open (down).",
				`peer="`+peer+`"`,
				func() float64 { return s.fleet.StateOf(peer).GaugeValue() })
		}
	}
	// Panics that escape a task (outside the per-request Recover) are
	// still counted and surfaced in /v1/stats.
	s.pool.onPanic = s.stats.recordPanic
	return s, nil
}

// Metrics exposes the server's obs metric set (the /metrics registry);
// tests and embedding daemons read counters through it.
func (s *Server) Metrics() *obs.Pipeline { return s.obs }

// Fleet exposes the live fleet view (nil outside a fleet); benches
// and tests read ownership and breaker states through it.
func (s *Server) Fleet() *cluster.Fleet { return s.fleet }

// Jobs exposes the async job ring; benches and tests submit through
// SubmitJob and observe through the manager.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// fleetHealth snapshots the fleet section of /v1/healthz and
// /v1/stats; nil when this daemon is not part of a fleet.
func (s *Server) fleetHealth() *FleetHealth {
	if !s.fleet.Enabled() {
		return nil
	}
	fh := &FleetHealth{Self: s.fleet.Self()}
	for _, ps := range s.fleet.PeerStates() {
		live := ps.State == cluster.StateClosed
		fh.Peers = append(fh.Peers, PeerHealth{
			URL:   ps.URL,
			State: ps.State.String(),
			Live:  live,
		})
		if !live {
			fh.Down++
		}
	}
	return fh
}

// Close drains the worker pool, then closes the result store and the
// fleet client. Ordering matters for graceful persistence: in-flight
// requests finish (and write through to disk) before the store is
// released, so a daemon stopped mid-traffic restarts warm.
func (s *Server) Close() {
	s.pool.close()
	s.cache.close()
	s.fleet.Close()
}

// Stats returns the current counters (also served at /v1/stats).
func (s *Server) Stats() StatsResponse {
	sr := s.stats.snapshot()
	sr.Cache = s.cache.stats(s.cfg.CacheEntries, s.obs.CacheEvictions)
	sr.Store = s.cache.storeStats()
	sr.Fleet = s.fleetHealth()
	sr.Queued = s.pool.queued()
	sr.Workers = s.cfg.Workers
	tracked, live := s.jobs.Counts()
	sr.Jobs = &JobsStats{
		Submitted: s.obs.JobsSubmitted.Value(),
		Done:      s.obs.JobsDone.Value(),
		Failed:    s.obs.JobsFailed.Value(),
		Canceled:  s.obs.JobsCanceled.Value(),
		Evicted:   s.obs.JobsEvicted.Value(),
		Events:    s.obs.JobsEvents.Value(),
		Tracked:   tracked,
		Active:    live,
	}
	return sr
}

// svcError pairs an error message with the HTTP status it maps to.
// cause, when set, preserves the underlying pipeline error so the
// batch retry layer can classify transience through errors.Unwrap.
type svcError struct {
	status int
	msg    string
	cause  error
}

func (e *svcError) Error() string { return e.msg }
func (e *svcError) Unwrap() error { return e.cause }

func badRequest(format string, args ...any) *svcError {
	return &svcError{status: 400, msg: fmt.Sprintf(format, args...)}
}

// unprocessable is the 422 of the resource guards: the request parses
// fine but exceeds this deployment's caps, so retrying it unchanged is
// pointless.
func unprocessable(format string, args ...any) *svcError {
	return &svcError{status: 422, msg: fmt.Sprintf(format, args...)}
}

// preGuard sheds obviously pathological requests before they occupy a
// queue slot: the caps are checked cheaply on the raw text (line
// counts can only overestimate module/net counts by comments and blank
// lines, so the bound is doubled; the authoritative post-parse check
// runs inside the pool).
func (s *Server) preGuard(req *Request) error {
	if req.ChainLength > maxChainLength {
		return unprocessable("chain_length %d exceeds limit %d", req.ChainLength, maxChainLength)
	}
	if s.cfg.MaxModules > 0 {
		if lines := countLines(req.Calls); lines > 2*s.cfg.MaxModules+16 {
			return unprocessable("call records (%d lines) exceed module limit %d", lines, s.cfg.MaxModules)
		}
	}
	if s.cfg.MaxNets > 0 {
		if lines := countLines(req.Netlist); lines > 16*s.cfg.MaxNets {
			return unprocessable("net-list records (%d lines) exceed net limit %d", lines, s.cfg.MaxNets)
		}
	}
	return nil
}

func countLines(s string) int {
	if s == "" {
		return 0
	}
	return strings.Count(s, "\n") + 1
}

// Generate runs one request and adapts the result to the /v1 wire
// shape. Programmatic callers that want the full report (timings,
// degradation, trace) use GenerateV2.
func (s *Server) Generate(ctx context.Context, req *Request) (*Response, error) {
	v2, err := s.GenerateV2(ctx, req)
	if err != nil {
		return nil, err
	}
	return v2.V1(), nil
}

// GenerateV2 runs one request through the bounded worker pool and
// waits for its completion. It is the programmatic entry the HTTP
// handlers and the benchmarks share. Returned errors are *svcError
// with an embedded HTTP status.
//
// The pipeline closure runs under resilience.Recover: a panic in any
// stage becomes a *resilience.StageError, is recorded in /v1/stats
// and /metrics, and maps to a 500 for this request alone — the
// daemon, the worker goroutine, and every other queued request keep
// going.
func (s *Server) GenerateV2(ctx context.Context, req *Request) (*ResponseV2, error) {
	s.obs.Requests.Inc()

	if err := s.preGuard(req); err != nil {
		s.obs.Rejected.Inc()
		return nil, err
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var (
		resp *ResponseV2
		err  error
		ran  bool
	)
	done, serr := s.pool.submit(ctx, func(ctx context.Context) {
		ran = true
		err = resilience.Recover("pipeline", func() error {
			if s.testHook != nil {
				s.testHook()
			}
			var perr error
			resp, perr = s.process(ctx, req)
			return perr
		})
	})
	if serr != nil {
		s.obs.Shed.Inc()
		return nil, &svcError{status: 429, msg: serr.Error()}
	}
	<-done
	if !ran {
		// Deadline expired while the task sat in the queue.
		s.obs.Timeouts.Inc()
		return nil, &svcError{status: 504, msg: ctx.Err().Error()}
	}
	if err == nil && resp == nil {
		// Defensive: a task that was aborted by the pool's last-resort
		// recovery leaves neither a response nor an error behind.
		err = &svcError{status: 500, msg: "internal: generation task aborted"}
	}
	if err != nil {
		return nil, s.mapError(ctx, err)
	}
	if resp.Report.Degraded != nil {
		s.obs.Degraded.Inc()
	}
	s.obs.OK.Inc()
	return resp, nil
}

// mapError classifies a pipeline error into the *svcError the HTTP
// layer serves, updating the outcome counters on the way:
//
//	panic (StageError)        → 500, counted + ringed in /v1/stats
//	resource cap (LimitError) → 422
//	unroutable (strict modes) → 422
//	context deadline          → 504
//	anything else             → its svcError status, or 500
func (s *Server) mapError(ctx context.Context, err error) *svcError {
	if se, ok := resilience.AsStageError(err); ok {
		s.stats.recordPanic(se)
		s.obs.Failed.Inc()
		return &svcError{status: 500, msg: se.Error(), cause: se}
	}
	if le, ok := resilience.AsLimitError(err); ok {
		s.obs.Rejected.Inc()
		return unprocessable("%v", le)
	}
	var ue *gen.UnroutableError
	if errors.As(err, &ue) {
		s.obs.Failed.Inc()
		return unprocessable("%v", ue)
	}
	if ctx.Err() != nil {
		s.obs.Timeouts.Inc()
		return &svcError{status: 504, msg: err.Error(), cause: err}
	}
	s.obs.Failed.Inc()
	if se, ok := err.(*svcError); ok {
		return se
	}
	return &svcError{status: 500, msg: err.Error(), cause: err}
}

// process executes the pipeline on a worker goroutine: resolve/parse,
// cache lookup, place+route, render, cache fill. One obs.Observer is
// threaded through all of it: every stage appears as a span under the
// "request" root (feeding the per-stage latency histograms on span
// end) and runs under its own resilience.Recover so a panic is
// attributed to the stage it escaped from.
func (s *Server) process(ctx context.Context, req *Request) (*ResponseV2, error) {
	return s.processObserved(ctx, req, obs.NewObserver(s.obs, "request"), nil)
}

// processObserved is process with the observer and an optional
// progress tap supplied by the caller: async jobs pre-create both so
// the job's status document can snapshot the live span tree and its
// event stream can relay pipeline progress. Progress events fire only
// when the pipeline actually runs here — a cache hit, a singleflight
// follower, and a fleet-proxied request produce none (their jobs jump
// straight to the final report).
func (s *Server) processObserved(ctx context.Context, req *Request, o *obs.Observer, progress gen.ProgressFunc) (*ResponseV2, error) {
	t0 := time.Now()
	s.obs.Inflight.Add(1)
	defer s.obs.Inflight.Add(-1)

	format, err := resolveFormat(req.Format)
	if err != nil {
		return nil, err
	}
	opts, err := req.Options.resolve()
	if err != nil {
		return nil, badRequest("%v", err)
	}
	// Server-side resilience and observability wiring: the effective
	// degradation policy (request override wins), the fault injector,
	// the plane-area guard, and the observer all ride on gen.Options.
	if req.Options.DegradeMode == "" {
		opts.Degrade = s.cfg.DegradeMode
	}
	opts.Inject = s.cfg.Inject
	opts.Observer = o
	opts.Progress = progress
	if opts.Route.MaxPlaneArea == 0 {
		opts.Route.MaxPlaneArea = s.cfg.MaxPlaneArea
	}

	// Parse stage: obtain a request-private design plus its canonical
	// serialization (the cache-key half derived from the network).
	psp := o.StartSpan("parse")
	var (
		design    *netlist.Design
		canonical string
	)
	err = resilience.Recover("parse", func() error {
		if ferr := s.cfg.Inject.Fire(resilience.SiteParse); ferr != nil {
			return ferr
		}
		var perr error
		design, canonical, perr = s.resolveDesign(req)
		return perr
	})
	if err != nil {
		endSpanError(psp, err)
		return nil, err
	}
	psp.SetAttr("modules", int64(len(design.Modules)))
	psp.SetAttr("nets", int64(len(design.Nets)))
	psp.End()
	// Authoritative resource guard, now that real counts exist.
	if err := s.cfg.guards().CheckCounts(len(design.Modules), len(design.Nets)); err != nil {
		return nil, err
	}

	key := makeCacheKey(canonical, req.Options.canonical(opts.Degrade), format)
	// The fault-injection bypass lives inside the store wrapper (see
	// resultStore.faultsArmed): while faults are armed, get and put
	// are no-ops for every backend, so a degraded or injected-failure
	// artwork is never served to a later clean request and chaos runs
	// are not masked by earlier hits.
	if hit, ok := s.cache.get(ctx, key); ok {
		hit.Cached = true
		hit.ElapsedMs = msSince(t0)
		// The cached report keeps the original run's timings and
		// attempts, but the trace must describe *this* request:
		// root + parse, nothing recomputed.
		hit.Report.Trace = o.Snapshot()
		s.obs.Traces.Inc()
		s.obs.StageObserve("total", time.Since(t0))
		return &hit, nil
	}

	// Cold path. Concurrent identical requests collapse into one
	// execution: the singleflight leader fetches (from the key's fleet
	// owner) or computes, followers share its finished response
	// verbatim — identical bodies, one pipeline run. The collapse is
	// disabled while faults are armed for the same reason the cache
	// is: each chaos request must independently meet the injector.
	if s.cache.faultsArmed() {
		return s.fetchOrCompute(ctx, t0, o, req, design, opts, format, key)
	}
	v, outcome, err := s.flight.Do(ctx, key.String(), func(ctx context.Context) (any, error) {
		if s.flightHook != nil {
			s.flightHook()
		}
		return s.fetchOrCompute(ctx, t0, o, req, design, opts, format, key)
	})
	switch outcome {
	case singleflight.Shared:
		s.obs.SFShared.Inc()
		if err != nil {
			return nil, err
		}
		// Copy the leader's (immutable, shared) response by value so
		// handler-side mutation stays request-private.
		resp := *(v.(*ResponseV2))
		return &resp, nil
	case singleflight.Canceled:
		s.obs.SFCanceled.Inc()
		return nil, err // the follower's own ctx error → 504 via mapError
	default:
		s.obs.SFLeader.Inc()
		if err != nil {
			return nil, err
		}
		return v.(*ResponseV2), nil
	}
}

// fetchOrCompute resolves a cold key: if a fleet is configured and a
// peer owns the key, the request is proxied there (single hop, local
// fallback); otherwise the pipeline runs locally.
func (s *Server) fetchOrCompute(ctx context.Context, t0 time.Time, o *obs.Observer,
	req *Request, design *netlist.Design, opts gen.Options, format string, key cacheKey) (*ResponseV2, error) {
	if s.fleet.Enabled() && !s.cache.faultsArmed() {
		if peerHopped(ctx) {
			// A peer already forwarded this request here: compute
			// locally no matter who the hash says owns it, so a stale
			// or disagreeing peer list cannot bounce a request around.
			s.obs.PeerReceived.Inc()
		} else if owner := s.fleet.Owner(key.String()); owner != s.fleet.Self() {
			// The single Owner call above is the routing decision:
			// ownership is live-set dependent now, so recomputing it
			// (as OwnedBySelf would) could race a breaker transition
			// and disagree with the owner actually proxied to.
			if resp, err, handled := s.proxyToOwner(ctx, o, key.String(), owner, req); handled {
				return resp, err
			}
			// Owner unreachable: the fleet degrades to independent
			// replicas — compute locally rather than fail.
			s.obs.PeerFallback.Inc()
		} else {
			s.obs.PeerSelf.Inc()
		}
	}
	return s.compute(ctx, t0, o, req, design, opts, format, key)
}

// proxyToOwner forwards the request to the key's owner and serves its
// answer verbatim. handled=false means transport-level failure (the
// caller falls back to local compute); an owner-side 4xx is handled —
// it is the request's own verdict, reached faster elsewhere.
func (s *Server) proxyToOwner(ctx context.Context, o *obs.Observer, key, owner string, req *Request) (*ResponseV2, error, bool) {
	psp := o.StartSpan("peer")
	psp.SetAttr("owner_len", int64(len(owner))) // attr values are int64; the URL itself rides on the log
	body, err := json.Marshal(req)
	if err != nil {
		psp.EndError(err)
		return nil, err, true
	}
	out, status, err := s.fleet.Proxy(ctx, key, owner, body)
	if err != nil {
		psp.EndError(err)
		if ctx.Err() != nil {
			// The request deadline expired mid-proxy: surface it
			// rather than burning the remaining budget locally.
			return nil, &svcError{status: 504, msg: ctx.Err().Error(), cause: ctx.Err()}, true
		}
		return nil, nil, false
	}
	if status != 200 {
		var ep ErrorResponse
		msg := fmt.Sprintf("owner %s answered %d", owner, status)
		if jerr := json.Unmarshal(out, &ep); jerr == nil && ep.Error != "" {
			msg = ep.Error
		}
		psp.End()
		s.obs.PeerProxied.Inc()
		return nil, &svcError{status: status, msg: msg}, true
	}
	var resp ResponseV2
	if uerr := json.Unmarshal(out, &resp); uerr != nil {
		psp.EndError(uerr)
		return nil, nil, false
	}
	psp.End()
	s.obs.PeerProxied.Inc()
	return &resp, nil, true
}

// compute runs the generation pipeline locally and fills the store.
func (s *Server) compute(ctx context.Context, t0 time.Time, o *obs.Observer,
	req *Request, design *netlist.Design, opts gen.Options, format string, key cacheKey) (*ResponseV2, error) {
	rep, err := gen.Run(ctx, design, opts)
	if err != nil {
		return nil, err
	}

	if s.cfg.VerifyRouting && rep.Routing != nil {
		// Machine-check the artwork before serving it: the electrical
		// connectivity re-derived from the routed wires alone must match
		// the input netlist. A violation here is a router bug, not a bad
		// request — it maps to 500 and is never cached.
		vsp := o.StartSpan("verify")
		if verr := route.VerifyEquivalence(rep.Routing); verr != nil {
			endSpanError(vsp, verr)
			return nil, &svcError{status: 500,
				msg: fmt.Sprintf("routing equivalence check failed: %v", verr), cause: verr}
		}
		vsp.End()
	}

	rsp := o.StartSpan("render")
	var rendered string
	err = resilience.Recover("render", func() error {
		if ferr := s.cfg.Inject.Fire(resilience.SiteRender); ferr != nil {
			return ferr
		}
		var rerr error
		rendered, rerr = renderDiagram(rep.Diagram, format)
		return rerr
	})
	if err != nil {
		endSpanError(rsp, err)
		return nil, err
	}
	rsp.SetAttr("bytes", int64(len(rendered)))
	rsp.End()

	// One snapshot serves as the response's trace and as the source of
	// the parse and render timings, so the span is the only stopwatch.
	trace := o.Snapshot()
	timings := rep.Timings
	timings.Parse = trace.Find("parse").Elapsed()
	timings.Render = trace.Find("render").Elapsed()

	m := rep.Diagram.Metrics()
	resp := ResponseV2{
		Name:     design.Name,
		Format:   format,
		Diagram:  rendered,
		Metrics:  m,
		Unrouted: m.Unrouted,
		CacheKey: key.String(),
		Report: Report{
			Timings:  timings,
			Attempts: rep.Attempts,
			Search:   rep.Search,
			Degraded: degradedReport(rep.Degraded),
			Trace:    trace,
		},
	}
	resp.ElapsedMs = msSince(t0)
	s.obs.Traces.Inc()
	s.cache.put(ctx, key, resp)
	s.obs.StageObserve("total", time.Since(t0))
	return &resp, nil
}

// peerHopKey marks a request context as already forwarded once by a
// peer (the handler sets it from cluster.HopHeader).
type peerHopKey struct{}

func withPeerHop(ctx context.Context) context.Context {
	return context.WithValue(ctx, peerHopKey{}, true)
}

func peerHopped(ctx context.Context) bool {
	v, _ := ctx.Value(peerHopKey{}).(bool)
	return v
}

// endSpanError closes a stage span with the right outcome: panic for
// recovered panics, error otherwise.
func endSpanError(sp *obs.Span, err error) {
	if se, ok := resilience.AsStageError(err); ok {
		sp.EndPanic(se.Cause)
		return
	}
	sp.EndError(err)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000.0
}

// maxChainLength caps the synthetic chain workload.
const maxChainLength = 1024

// resolveDesign turns a request into a private *netlist.Design plus
// its canonical serialization. Built-in workloads are cloned from the
// startup parse; inline Appendix A text is parsed against the builtin
// library.
func (s *Server) resolveDesign(req *Request) (*netlist.Design, string, error) {
	hasInline := req.Netlist != "" || req.Calls != "" || req.IO != ""
	switch {
	case req.Workload != "" && hasInline:
		return nil, "", badRequest("request carries both a workload name and inline netlist text")
	case req.Workload != "":
		if req.Workload == "chain" {
			n := req.ChainLength
			if n <= 0 {
				n = 16
			}
			if n > maxChainLength {
				return nil, "", unprocessable("chain_length %d exceeds limit %d", n, maxChainLength)
			}
			d := workload.Chain(n)
			return d, canonicalDesign(d), nil
		}
		base, ok := s.builtins[req.Workload]
		if !ok {
			names := []string{"chain"}
			for name := range s.builtins {
				names = append(names, name)
			}
			sort.Strings(names)
			return nil, "", badRequest("unknown workload %q (%s)", req.Workload, strings.Join(names, ", "))
		}
		// The base is shared across requests and placement mutates
		// through design pointers: clone before generating.
		return base.Clone(), canonicalDesign(base), nil
	case req.Netlist == "" || req.Calls == "":
		return nil, "", badRequest("request needs either workload or both netlist and calls")
	default:
		name := req.Name
		if name == "" {
			name = "design"
		}
		var ioR io.Reader
		if req.IO != "" {
			ioR = strings.NewReader(req.IO)
		}
		d, err := netlist.Load(name, strings.NewReader(req.Calls), strings.NewReader(req.Netlist), ioR, s.lib)
		if err != nil {
			return nil, "", badRequest("%v", err)
		}
		if err := d.Validate(1); err != nil {
			return nil, "", badRequest("%v", err)
		}
		return d, canonicalDesign(d), nil
	}
}

// canonicalDesign serializes a design into the cache-key form: module
// geometry in insertion order, then the io and net-list records in the
// writers' deterministic order. Two inline netlists differing only in
// record order, comments or whitespace canonicalize identically; see
// DESIGN.md "Service result cache".
func canonicalDesign(d *netlist.Design) string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s\n", d.Name)
	for _, m := range d.Modules {
		fmt.Fprintf(&b, "mod %s tpl=%s %dx%d\n", m.Name, m.Template, m.W, m.H)
		for _, t := range m.Terms {
			fmt.Fprintf(&b, " t %s %d %d,%d\n", t.Name, int(t.Type), t.Pos.X, t.Pos.Y)
		}
	}
	_ = netlist.WriteIOFile(&b, d)
	_ = netlist.WriteNetListFile(&b, d)
	return b.String()
}
