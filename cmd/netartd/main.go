// Netartd is the schematic-generation daemon: the netlist→schematic
// pipeline of Koster & Stok (EUT 89-E-219) behind an HTTP/JSON API.
// Requests run on a bounded worker pool with per-request deadlines
// propagated into the routing wavefronts; identical requests are
// served from a content-addressed LRU result cache.
//
// The daemon is hardened for long-running operation: panics anywhere
// in the pipeline are isolated per request and surfaced in /v1/stats,
// oversized bodies and pathological designs are rejected early (413 /
// 422), transient batch-item failures are retried with jittered
// backoff, and a degradation policy decides whether an incompletely
// routable design fails or ships as annotated partial artwork.
//
// Usage:
//
//	netartd [-addr :8417] [-workers N] [-queue N] [-cache N]
//	        [-timeout 30s] [-max-timeout 2m]
//	        [-jobs-max 256] [-jobs-ttl 15m]
//	        [-store mem|disk|tiered] [-store-dir DIR] [-store-max-bytes N]
//	        [-peers URL,URL,...] [-self URL]
//	        [-peer-probe-interval 2s] [-peer-fail-threshold 3]
//	        [-proxy-hedge-after 0] [-peer-timeout 0]
//	        [-degrade-mode none|strict|escalate|best-effort]
//	        [-batch-retries N] [-retry-base 10ms] [-retry-max 250ms]
//	        [-max-body BYTES] [-max-modules N] [-max-nets N] [-max-area N]
//	        [-faults SPEC] [-fault-seed N]
//
// The result store is pluggable: -store mem keeps the in-process LRU
// (the default), -store disk persists results as content-addressed
// files under -store-dir so a restarted daemon comes back warm, and
// -store tiered layers the LRU over the disk store (write-through,
// promotion on hit). -store-max-bytes garbage-collects the disk tier
// by LRU order.
//
// A fleet of replicas shards the store by content hash: start each
// replica with the same -peers list and its own -self URL, and every
// design hash gets exactly one consistent-hash owner that cold
// requests are proxied to (single hop; if the owner is down the
// replica computes locally, so the fleet degrades to independent
// daemons, never to errors). Each replica actively health-probes its
// peers every -peer-probe-interval (jittered) and keeps a per-peer
// circuit breaker that opens after -peer-fail-threshold consecutive
// transport failures; keys owned by a down peer remap deterministically
// onto the live set and move back when the breaker re-closes. Proxied
// calls retry once on transient failure, and -proxy-hedge-after hedges
// a slow proxy with a second request to the next-ranked live replica
// (first response wins — safe because the pipeline is deterministic).
//
// Fault injection (chaos testing) is enabled with -faults or the
// NETART_FAULTS environment variable, e.g.
//
//	netartd -faults 'route.wavefront:error:0.05;render:panic:0.01:x3'
//
// (sites: parse, place.box, route.wavefront, render; modes: error,
// panic, latency). While faults are armed the result cache is
// bypassed so injected failures cannot poison cached artwork.
// Clauses whose site starts with "peer" arm the network layer instead
// of the pipeline: peer[@HOSTPAT]:error|latency|blackhole|5xx with the
// same [:prob][:duration][:xN] suffixes (HOSTPAT is a colon-free
// substring of the peer's host:port, e.g. a port number), e.g.
//
//	netartd -faults 'peer@9002:blackhole:0.2;peer:5xx:0.05:x10'
//
// injects faults into proxied peer calls so breaker opening, hedging,
// and re-sharding can be exercised end to end.
//
// Endpoints:
//
//	POST /v1/generate  {"workload":"life","format":"svg"} → diagram
//	POST /v1/batch     {"requests":[...]}                 → per-item results
//	POST /v2/generate  like /v1 plus the full generation report
//	                   (stage timings, routing attempts, search
//	                   counters, span tree) under "report"
//	POST /v2/batch     the /v2 shape fanned out over the pool
//	POST /v2/jobs      submit an async job → 202 {job_id, status_url,
//	                   stream_url}; runs through the same pool, cache,
//	                   and fleet layers as /v2/generate
//	GET  /v2/jobs/{id} job status document (state machine, per-stage
//	                   progress, routed-net counts; result when done)
//	DELETE /v2/jobs/{id}        cancel (the deadline context unwinds
//	                   the routing wavefronts)
//	GET  /v2/jobs/{id}/events   progress + result as SSE: placement
//	                   geometry, then routed nets strictly in routing
//	                   order, then the full report
//	GET  /v1/healthz   liveness (+ "degraded" advisory status)
//	GET  /v1/stats     counters, cache hit/miss, stage latency
//	                   histograms, recovered panics
//	GET  /metrics      the same counters and per-stage histograms in
//	                   Prometheus text exposition format
//	GET  /debug/pprof/ net/http/pprof profiles (disable with -pprof=false)
//
// Successful generate responses carry an X-Netart-Trace-Id header so a
// response can be correlated with its span tree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netart/internal/gen"
	"netart/internal/resilience"
	"netart/internal/service"
	"netart/internal/store/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netartd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8417", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent generation workers")
	queue := flag.Int("queue", 0, "queued requests before shedding with 429 (0 = 4×workers)")
	cacheEnts := flag.Int("cache", 256, "result cache entries (0 disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request generation deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "upper bound for client-supplied timeouts")
	jobsMax := flag.Int("jobs-max", 256,
		"async job records tracked at once (submissions shed with 429 beyond)")
	jobsTTL := flag.Duration("jobs-ttl", 15*time.Minute,
		"how long a finished job's status and event log stay fetchable")

	storeBackend := flag.String("store", "mem", "result store backend: mem, disk, tiered")
	storeDir := flag.String("store-dir", "", "disk store root (required for -store disk|tiered)")
	storeMaxBytes := flag.Int64("store-max-bytes", 256<<20,
		"disk-tier size bound, GC'd by LRU beyond it (negative disables)")
	peers := flag.String("peers", "",
		"comma-separated replica base URLs of a netartd fleet (enables consistent-hash sharding)")
	self := flag.String("self", "", "this replica's own base URL as peers see it (required with -peers)")
	probeInterval := flag.Duration("peer-probe-interval", 2*time.Second,
		"fleet health-probe interval per peer (jittered; <=0 disables active probing)")
	failThreshold := flag.Int("peer-fail-threshold", 3,
		"consecutive peer transport failures that open its circuit breaker")
	hedgeAfter := flag.Duration("proxy-hedge-after", 0,
		"hedge a proxied request to the next live peer after this delay (0 disables)")
	peerTimeout := flag.Duration("peer-timeout", 0,
		"client-side bound per proxied peer call (0 = request deadline only)")

	degrade := flag.String("degrade-mode", "none",
		"default routing-failure policy: none, strict, escalate, best-effort")
	verifyRouting := flag.Bool("verify-routing", false,
		"machine-check every response's wire geometry against its netlist before serving")
	batchRetries := flag.Int("batch-retries", 2,
		"extra attempts for transient batch-item failures (negative disables)")
	retryBase := flag.Duration("retry-base", 10*time.Millisecond, "base backoff between batch retries")
	retryMax := flag.Duration("retry-max", 250*time.Millisecond, "backoff cap between batch retries")

	maxBody := flag.Int64("max-body", 8<<20, "request body cap in bytes (413 beyond)")
	maxModules := flag.Int("max-modules", 4096, "design module cap (422 beyond; negative disables)")
	maxNets := flag.Int("max-nets", 16384, "design net cap (422 beyond; negative disables)")
	maxArea := flag.Int("max-area", 4<<20, "routing-plane point cap (422 beyond; negative disables)")

	faults := flag.String("faults", "",
		"fault-injection spec site:mode[:prob][:latency][:xN][;...] (also env "+resilience.EnvFaults+")")
	faultSeed := flag.Int64("fault-seed", 0, "injector RNG seed (0 = time-based)")
	pprofOn := flag.Bool("pprof", true, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	dm, err := gen.ParseDegradeMode(*degrade)
	if err != nil {
		return err
	}

	// One -faults spec arms both injectors: clauses starting with
	// "peer" go to the fleet's network-layer fault plan, the rest to
	// the pipeline injector. The environment spec is the fallback so
	// chaos runs need no command-line changes.
	spec, seed := *faults, *faultSeed
	if spec == "" {
		spec = os.Getenv(resilience.EnvFaults)
		if s := os.Getenv(resilience.EnvFaultSeed); spec != "" && s != "" {
			if v, perr := strconv.ParseInt(s, 10, 64); perr == nil {
				seed = v
			} else {
				return fmt.Errorf("bad %s %q: %v", resilience.EnvFaultSeed, s, perr)
			}
		}
	}
	peerSpec, pipeSpec := cluster.SplitFaultSpec(spec)
	inj, err := resilience.ParseSpec(pipeSpec, seed)
	if err != nil {
		return err
	}
	plan, err := cluster.ParseFaultSpec(peerSpec, seed)
	if err != nil {
		return err
	}
	if inj != nil {
		log.Printf("netartd: fault injection armed: %s (result cache bypassed)", inj)
	}
	if plan != nil {
		log.Printf("netartd: peer-layer fault injection armed: %s", peerSpec)
	}

	// The Config convention inverts the flag's: 0 means default there,
	// so a disabling flag value (<=0) maps to a negative interval.
	cfgProbe := *probeInterval
	if cfgProbe <= 0 {
		cfgProbe = -1
	}

	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	srv, err := service.NewServer(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheEntries:      *cacheEnts,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		JobsMax:           *jobsMax,
		JobsTTL:           *jobsTTL,
		MaxBodyBytes:      *maxBody,
		MaxModules:        *maxModules,
		MaxNets:           *maxNets,
		MaxPlaneArea:      *maxArea,
		DegradeMode:       dm,
		VerifyRouting:     *verifyRouting,
		BatchRetries:      *batchRetries,
		RetryBase:         *retryBase,
		RetryMax:          *retryMax,
		Inject:            inj,
		StoreBackend:      *storeBackend,
		StoreDir:          *storeDir,
		StoreMaxBytes:     *storeMaxBytes,
		Peers:             peerList,
		SelfURL:           *self,
		PeerProbeInterval: cfgProbe,
		PeerFailThreshold: *failThreshold,
		ProxyHedgeAfter:   *hedgeAfter,
		PeerTimeout:       *peerTimeout,
		PeerFaults:        plan,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	// Mount the service surface on a wrapper mux so the pprof handlers
	// can be added (or withheld) without the service package importing
	// net/http/pprof and its DefaultServeMux side effects.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("netartd: listening on %s (%d workers, queue %d, cache %d entries, store %s, degrade %s)",
			*addr, *workers, *queue, *cacheEnts, *storeBackend, dm)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("netartd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
