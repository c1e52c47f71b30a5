package service

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netart/internal/store/cluster"
)

// coldKey computes the cache key a request would map to, the way
// process() does, without running the pipeline — so tests can reason
// about ownership of keys that are still cold.
func coldKey(t *testing.T, s *Server, req *Request) string {
	t.Helper()
	_, canonical, err := s.resolveDesign(req)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.Options.resolve()
	if err != nil {
		t.Fatal(err)
	}
	format, err := resolveFormat(req.Format)
	if err != nil {
		t.Fatal(err)
	}
	return makeCacheKey(canonical, req.Options.canonical(opts.Degrade), format).String()
}

// chainOwnedBy finds a chain request whose (cold) key is owned by
// want, searching chain lengths from 2 up.
func chainOwnedBy(t *testing.T, s *Server, want string) (*Request, string) {
	t.Helper()
	for n := 2; n < 128; n++ {
		req := &Request{Workload: "chain", ChainLength: n, Format: FormatSummary}
		key := coldKey(t, s, req)
		if s.fleet.Owner(key) == want {
			return req, key
		}
	}
	t.Fatalf("no chain key owned by %s found", want)
	return nil, ""
}

// artworkOf projects a response onto its deterministic fields. The
// full wire body carries per-run stage timings (normalizeResp-style
// comparison only works between copies of one stored result), but the
// artwork itself — diagram, metrics, content address — must be
// byte-identical no matter which replica computed it, warm or cold,
// proxied, hedged or fallback.
func artworkOf(t *testing.T, r *ResponseV2) string {
	t.Helper()
	if r.Diagram == "" || r.CacheKey == "" {
		t.Error("response missing diagram or cache key")
	}
	return r.CacheKey + "\x00" + r.Format + "\x00" + r.Diagram
}

// pollUntil polls cond until it holds or the deadline passes; reports
// how long it took and whether it converged.
func pollUntil(d time.Duration, cond func() bool) (time.Duration, bool) {
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return time.Since(start), true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Since(start), cond()
}

// TestFleetChaosBattery is the network chaos battery: three replicas
// under mixed traffic while peers are blackholed, killed and restored
// mid-run via a shared fault plan. Invariants: every request answers
// 200 with artwork byte-identical to a fleet-less reference, a down
// owner's keys remap to live replicas within the detection budget and
// remap back on recovery, and the failure-management metrics
// (breaker transitions, hedges, peer state gauge) are populated.
func TestFleetChaosBattery(t *testing.T) {
	const (
		probeInterval = 200 * time.Millisecond
		hedgeAfter    = 30 * time.Millisecond
	)
	plan := cluster.NewFaultPlan(1)
	reps := startFleet(t, 3, Config{
		Workers:           2,
		CacheEntries:      64,
		PeerProbeInterval: probeInterval,
		PeerFailThreshold: 2,
		ProxyHedgeAfter:   hedgeAfter,
		PeerTimeout:       2 * time.Second,
		PeerFaults:        plan,
	})
	ref, err := NewServer(Config{Workers: 2, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ctx := context.Background()

	// The workload mix, with reference bodies from the fleet-less
	// server: every answer during the chaos run must match these bytes.
	requests := []*Request{
		{Workload: "fig61", Format: FormatSummary},
		{Workload: "quickstart", Format: FormatSummary},
		{Workload: "chain", ChainLength: 4, Format: FormatSummary},
		{Workload: "chain", ChainLength: 6, Format: FormatSummary},
		{Workload: "chain", ChainLength: 8, Format: FormatSummary},
	}
	reference := make([]string, len(requests))
	for i, req := range requests {
		resp, rerr := ref.GenerateV2(ctx, req)
		if rerr != nil {
			t.Fatal(rerr)
		}
		reference[i] = artworkOf(t, resp)
	}
	// Warm the fleet: each request once, entering via a different
	// replica, so owners hold the results and later traffic mixes warm
	// proxied hits with cold computes.
	for i, req := range requests {
		if _, err := reps[i%3].srv.GenerateV2(ctx, req); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}

	// Pick the outage victims: victim owns victimKey and is not
	// reps[0] (the entry point for synchronous checks); victim2 is the
	// third replica.
	victimReq, victimKey := chainOwnedBy(t, reps[0].srv, reps[1].url)
	victim := reps[1]
	victim2 := reps[2]
	if string(victimKey) == "" || victimReq == nil {
		t.Fatal("no victim key")
	}
	victimRef := ""
	if resp, rerr := ref.GenerateV2(ctx, victimReq); rerr == nil {
		victimRef = artworkOf(t, resp)
	} else {
		t.Fatal(rerr)
	}

	// Background traffic: four clients loop over the mix through every
	// replica. The zero-error invariant: chaos may add latency, never
	// failures — a blackholed owner costs a hedge, a killed one a
	// fallback compute.
	stop := make(chan struct{})
	var traffic sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < 4; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ri := (g + i) % len(requests)
				resp, gerr := reps[(g+i)%3].srv.GenerateV2(ctx, requests[ri])
				if gerr != nil {
					t.Errorf("traffic %d/%d failed: %v", g, i, gerr)
					return
				}
				if got := artworkOf(t, resp); got != reference[ri] {
					t.Errorf("traffic %d/%d: artwork differs from the reference", g, i)
					return
				}
				served.Add(1)
			}
		}(g)
	}

	// Episode 1: blackhole the victim (packets dropped, TCP hangs).
	plan.Blackhole(victim.url)
	// A synchronous request for the victim's key before the breaker
	// opens must be rescued by the hedge: the proxy to the blackholed
	// owner hangs, the hedged twin answers.
	if resp, gerr := reps[0].srv.GenerateV2(ctx, victimReq); gerr != nil {
		t.Fatalf("request during blackhole failed: %v", gerr)
	} else if artworkOf(t, resp) != victimRef {
		t.Fatal("blackhole-era artwork differs from the reference")
	}
	// Both survivors must re-shard the victim's keys within the
	// detection budget (FailThreshold consecutive probe failures).
	elapsed, ok := pollUntil(3*probeInterval+500*time.Millisecond, func() bool {
		return reps[0].srv.fleet.Owner(victimKey) != victim.url &&
			victim2.srv.fleet.Owner(victimKey) != victim.url
	})
	if !ok {
		t.Fatalf("victim's keys never remapped (waited %v)", elapsed)
	}
	t.Logf("blackhole detected and re-sharded in %v", elapsed)
	// The remapped key serves correctly from the survivors.
	for _, r := range []*replica{reps[0], victim2} {
		if resp, gerr := r.srv.GenerateV2(ctx, victimReq); gerr != nil {
			t.Fatalf("remapped key failed on %s: %v", r.url, gerr)
		} else if artworkOf(t, resp) != victimRef {
			t.Fatal("remapped artwork differs from the reference")
		}
	}
	// ...and warm: its new owner cached the result, so a repeat comes
	// back as a cache hit within the same detection budget.
	if _, ok := pollUntil(3*probeInterval, func() bool {
		resp, gerr := reps[0].srv.GenerateV2(ctx, victimReq)
		return gerr == nil && resp.Cached
	}); !ok {
		t.Fatal("remapped key was not served from cache within 3 probe intervals")
	}
	// The survivors' health surfaces report the outage.
	if _, ok := pollUntil(time.Second, func() bool {
		fh := reps[0].srv.Stats().Fleet
		return fh != nil && fh.Down >= 1
	}); !ok {
		t.Error("stats fleet section never reported the down peer")
	}

	// Restore: ownership must return to the recovered peer once its
	// breaker half-opens and re-closes (OpenFor + one probe).
	plan.Restore(victim.url)
	elapsed, ok = pollUntil(10*probeInterval, func() bool {
		return reps[0].srv.fleet.Owner(victimKey) == victim.url &&
			victim2.srv.fleet.Owner(victimKey) == victim.url
	})
	if !ok {
		t.Fatalf("ownership never returned after restore (waited %v)", elapsed)
	}
	t.Logf("recovery re-converged in %v", elapsed)

	// Episode 2: kill the third replica (connections refused — the
	// fast failure mode; proxy outcomes drive the breaker without
	// waiting for probes).
	plan.Kill(victim2.url)
	elapsed, ok = pollUntil(3*probeInterval+500*time.Millisecond, func() bool {
		return reps[0].srv.fleet.StateOf(victim2.url) == cluster.StateOpen
	})
	if !ok {
		t.Fatalf("killed peer's breaker never opened (waited %v)", elapsed)
	}
	plan.Restore(victim2.url)
	if _, ok = pollUntil(10*probeInterval, func() bool {
		for _, r := range reps {
			for _, ps := range r.srv.fleet.PeerStates() {
				if ps.State != cluster.StateClosed {
					return false
				}
			}
		}
		return true
	}); !ok {
		t.Fatal("fleet never fully re-converged after the last restore")
	}

	close(stop)
	traffic.Wait()
	if served.Load() < 20 {
		t.Errorf("only %d traffic requests completed during the run", served.Load())
	}

	// The failure-management metrics saw the run: at least one breaker
	// opened and at least one hedge launched fleet-wide.
	var opened, hedged uint64
	for _, r := range reps {
		opened += r.srv.obs.PeerOpened.Value()
		hedged += r.srv.obs.HedgeLaunched.Value()
	}
	if opened == 0 {
		t.Error("no breaker open transition was counted")
	}
	if hedged == 0 {
		t.Error("no hedge launch was counted")
	}

	// The Prometheus surface exposes the new families.
	var metrics strings.Builder
	for _, r := range reps {
		resp, merr := http.Get(r.url + "/metrics")
		if merr != nil {
			t.Fatal(merr)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics.Write(b)
	}
	for _, want := range []string{
		"netart_peer_state{",
		`netart_peer_transitions_total{to="open"}`,
		"netart_proxy_hedge_total{",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestSingleflightCollapsesProxiedRequest: concurrent identical cold
// requests for a peer-owned key collapse into one singleflight leader
// whose single proxied call serves every follower — one network hop
// and one pipeline run fleet-wide for N concurrent clients.
func TestSingleflightCollapsesProxiedRequest(t *testing.T) {
	const N = 8
	reps := startFleet(t, 2, Config{Workers: N, QueueDepth: 2 * N, CacheEntries: 64})
	req, key := chainOwnedBy(t, reps[0].srv, reps[1].url)

	reps[0].srv.flightHook = func() {
		deadline := time.Now().Add(10 * time.Second)
		for reps[0].srv.flight.Waiters(key) < N-1 {
			if time.Now().After(deadline) {
				t.Errorf("only %d followers joined before the leader proxied", reps[0].srv.flight.Waiters(key))
				return
			}
			runtime.Gosched()
		}
	}

	ctx := context.Background()
	responses := make([]*ResponseV2, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, gerr := reps[0].srv.GenerateV2(ctx, req)
			if gerr != nil {
				t.Errorf("request %d: %v", i, gerr)
				return
			}
			responses[i] = r
		}(i)
	}
	wg.Wait()

	if got := reps[0].srv.obs.SFLeader.Value(); got != 1 {
		t.Errorf("leader count = %d, want 1", got)
	}
	if got := reps[0].srv.obs.SFShared.Value(); got != N-1 {
		t.Errorf("shared count = %d, want %d", got, N-1)
	}
	if got := reps[0].srv.obs.PeerProxied.Value(); got != 1 {
		t.Errorf("proxied count = %d, want 1 (followers must ride the leader's hop)", got)
	}
	// The pipeline ran exactly once, on the owner.
	if got := reps[0].srv.Stats().Stages["route"].Count; got != 0 {
		t.Errorf("non-owner ran the pipeline %d times", got)
	}
	if got := reps[1].srv.Stats().Stages["route"].Count; got != 1 {
		t.Errorf("owner ran the pipeline %d times, want 1", got)
	}
	var base string
	for i, r := range responses {
		if r == nil {
			continue
		}
		b := string(normalizeResp(t, r))
		if base == "" {
			base = b
		} else if b != base {
			t.Fatalf("response %d differs from the shared result", i)
		}
	}
}

// TestSingleflightFollowersSurviveOpenBreaker: the owner dies while a
// crowd is collapsed behind one singleflight leader. The leader's
// proxy failures open the breaker, the leader falls back to local
// computation, every follower shares that result, and subsequent
// ownership has remapped to the survivor.
func TestSingleflightFollowersSurviveOpenBreaker(t *testing.T) {
	const N = 4
	plan := cluster.NewFaultPlan(1)
	reps := startFleet(t, 2, Config{
		Workers:           N,
		QueueDepth:        2 * N,
		CacheEntries:      64,
		PeerProbeInterval: -1, // no prober: proxy outcomes alone drive the breaker
		PeerFailThreshold: 2,
		PeerFaults:        plan,
	})
	req, key := chainOwnedBy(t, reps[0].srv, reps[1].url)
	plan.Kill(reps[1].url)

	reps[0].srv.flightHook = func() {
		deadline := time.Now().Add(10 * time.Second)
		for reps[0].srv.flight.Waiters(key) < N-1 {
			if time.Now().After(deadline) {
				t.Errorf("only %d followers joined", reps[0].srv.flight.Waiters(key))
				return
			}
			runtime.Gosched()
		}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, gerr := reps[0].srv.GenerateV2(ctx, req)
			if gerr != nil {
				t.Errorf("request %d failed though the fallback should serve it: %v", i, gerr)
				return
			}
			if resp.Diagram == "" {
				t.Errorf("request %d: empty artwork", i)
			}
		}(i)
	}
	wg.Wait()

	// The leader's one proxy call burned both retry attempts against
	// the killed owner — exactly the fail threshold — so the breaker is
	// open and the fallback was counted.
	if got := reps[0].srv.fleet.StateOf(reps[1].url); got != cluster.StateOpen {
		t.Errorf("owner breaker state = %v, want open", got)
	}
	if got := reps[0].srv.obs.PeerFallback.Value(); got != 1 {
		t.Errorf("fallback count = %d, want 1", got)
	}
	if got := reps[0].srv.obs.SFShared.Value(); got != N-1 {
		t.Errorf("shared count = %d, want %d", got, N-1)
	}
	// With the only remote peer down and no prober to ever half-open
	// it, the survivor owns everything — including the key that opened
	// the breaker.
	if owner := reps[0].srv.fleet.Owner(key); owner != reps[0].url {
		t.Errorf("key still owned by %s after the breaker opened", owner)
	}
}
