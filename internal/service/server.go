package service

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"netart/internal/gen"
	"netart/internal/jobs"
	"netart/internal/library"
	"netart/internal/netlist"
	"netart/internal/obs"
	"netart/internal/resilience"
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

	// builtins maps workload names to designs parsed and canonicalized
	// once at startup. Placement mutates designs through their
	// pointers, so the pipeline never runs on these directly: compute()
	// hands it a Clone (see netlist.(*Design).Clone).
	builtins map[string]builtin

	// testHook, when non-nil, runs inside every pooled task before the
	// pipeline; tests use it to hold workers busy deterministically.
	// flightHook runs inside a singleflight leader before it computes;
	// tests use it to hold the leader until every follower has joined.
	testHook   func()
	flightHook func()
}

// builtin is a built-in workload's design with its canonical
// serialization (the design half of its cache key).
type builtin struct {
	design    *netlist.Design
	canonical string
}

// newBuiltins parses and canonicalizes every built-in workload once.
func newBuiltins() map[string]builtin {
	out := make(map[string]builtin)
	for name, d := range map[string]*netlist.Design{
		"fig61":      workload.Fig61(),
		"quickstart": workload.Quickstart(),
		"datapath":   workload.Datapath16(),
		"cpu":        workload.CPU(),
		"life":       workload.Life27(),
	} {
		out[name] = builtin{d, canonicalDesign(d)}
	}
	return out
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
	fleet, err := newFleet(cfg, m)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		pool:     newWorkerPool(cfg.Workers, cfg.QueueDepth),
		cache:    newResultStore(backend, cfg.StoreBackend, cfg.Inject, m),
		flight:   new(singleflight.Group),
		fleet:    fleet,
		stats:    newServerStats(m),
		obs:      m,
		lib:      library.Builtin(),
		builtins: newBuiltins(),
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
	// Panics that escape a task (outside the per-request Recover) are
	// still counted and surfaced in /v1/stats.
	s.pool.onPanic = s.stats.recordPanic
	return s, nil
}

// Metrics exposes the server's obs metric set (the /metrics registry);
// tests and embedding daemons read counters through it.
func (s *Server) Metrics() *obs.Pipeline { return s.obs }

// Jobs exposes the async job ring; benches and tests submit through
// SubmitJob and observe through the manager.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

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
	// A spacing or margin s lays s tracks on every side of what it
	// surrounds, so wherever a design feels it the plane exceeds s·s
	// points. With s·s over the area cap, refuse it here (even where a
	// design leaves it unused, as one partition does the partition
	// spacing): placement would build geometry that big first, and the
	// plane bounds can overflow past the router's own area guard.
	if limit := s.cfg.MaxPlaneArea; limit > 0 {
		o := req.Options
		for _, sp := range []struct {
			name string
			v    int
		}{{"part_spacing", o.PartSpacing}, {"box_spacing", o.BoxSpacing}, {"mod_spacing", o.ModSpacing}, {"margin", o.Margin}} {
			if sp.v > 0 && sp.v > limit/sp.v {
				return unprocessable("%s %d squared exceeds the plane-area limit %d", sp.name, sp.v, limit)
			}
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

// GenerateV2 runs one request through the executor (exec.go) and
// waits for its verdict. It is the programmatic entry the HTTP
// handlers, the batch items and the benchmarks share. Returned errors
// are *svcError with an embedded HTTP status.
func (s *Server) GenerateV2(ctx context.Context, req *Request) (*ResponseV2, error) {
	c, err := s.admit(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req))
	defer cancel()
	wait, err := s.start(ctx, c, nil)
	if err != nil {
		return nil, err
	}
	return wait()
}

// maxChainLength caps the synthetic chain workload.
const maxChainLength = 1024

// resolveDesign turns a request into its *netlist.Design plus the
// design's canonical serialization. A built-in workload's design is
// the startup parse, which every request shares: the pipeline runs on
// a clone of it (see compute). A chain is built, and inline Appendix A
// text is parsed against the builtin library, for this request alone.
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
		return base.design, base.canonical, nil
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
// DESIGN.md "Service result cache". Like the netlist writers, it builds
// each line in one reused buffer and writes it once, without fmt: the
// bytes are the cache key's, so they must not change.
func canonicalDesign(d *netlist.Design) string {
	var b strings.Builder
	line := append(append([]byte("design "), d.Name...), '\n')
	b.Write(line)
	for _, m := range d.Modules {
		// mod <name> tpl=<template> <w>x<h>
		line = append(append(line[:0], "mod "...), m.Name...)
		line = append(append(line, " tpl="...), m.Template...)
		line = strconv.AppendInt(append(line, ' '), int64(m.W), 10)
		line = strconv.AppendInt(append(line, 'x'), int64(m.H), 10)
		line = append(line, '\n')
		b.Write(line)
		for _, t := range m.Terms {
			//  t <name> <type> <x>,<y>
			line = append(append(line[:0], " t "...), t.Name...)
			line = strconv.AppendInt(append(line, ' '), int64(t.Type), 10)
			line = strconv.AppendInt(append(line, ' '), int64(t.Pos.X), 10)
			line = strconv.AppendInt(append(line, ','), int64(t.Pos.Y), 10)
			line = append(line, '\n')
			b.Write(line)
		}
	}
	_ = netlist.WriteIOFile(&b, d)
	_ = netlist.WriteNetListFile(&b, d)
	return b.String()
}
