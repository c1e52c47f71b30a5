package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netart/internal/gen"
	"netart/internal/obs"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/store"
	"netart/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestGenerateLifeEndToEnd serves the LIFE workload through the real
// HTTP stack: placement, routing and SVG rendering of the 27-module /
// 222-net network, the paper's hardest figure.
func TestGenerateLifeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	httpResp, body := postJSON(t, ts.URL+"/v1/generate", Request{
		Workload: "life",
		Format:   FormatSVG,
		Options: GenOptions{
			PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3,
		},
	})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", httpResp.StatusCode, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Diagram, "<svg") {
		t.Error("svg rendering missing <svg element")
	}
	if resp.Metrics.WireLength == 0 {
		t.Error("expected non-zero wire length for the LIFE network")
	}
	if resp.Unrouted > 5 {
		t.Errorf("unexpectedly many unrouted nets: %d", resp.Unrouted)
	}
	if resp.Stages.Place <= 0 || resp.Stages.Route <= 0 {
		t.Errorf("missing stage timings: %+v", resp.Stages)
	}
	if resp.Cached {
		t.Error("first request must not report cached")
	}
}

// TestConcurrentGenerateClones runs GenerateCtx on clones of the LIFE
// design from 8 goroutines through the service core; under -race this
// is the concurrency acceptance gate (one parsed design, many
// concurrent generations).
func TestConcurrentGenerateClones(t *testing.T) {
	// The race detector slows the LIFE pipeline by an order of
	// magnitude and all 8 runs share the cores, so give the service
	// half far more than the 30s default deadline.
	s := New(Config{Workers: 8, QueueDepth: 16,
		DefaultTimeout: 10 * time.Minute, MaxTimeout: 10 * time.Minute})
	defer s.Close()

	base := workload.Life27()
	// Figure 6.7 options: the spacing the dense LIFE fabric needs.
	lifeOpts := gen.Options{
		Place: place.Options{PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3},
		Route: route.Options{Claimpoints: true},
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	resps := make([]*Response, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the goroutines exercise the HTTP-free service core
			// on the shared built-in design, half run GenerateCtx on
			// private clones directly.
			if i%2 == 0 {
				resps[i], errs[i] = s.Generate(context.Background(), &Request{
					Workload: "life",
					Format:   FormatSummary,
					Options: GenOptions{
						PartSize: 5, BoxSize: 5,
						ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3,
					},
				})
				return
			}
			clone := base.Clone()
			_, err := gen.Run(context.Background(), clone, lifeOpts)
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
	for i, r := range resps {
		if i%2 == 0 && r == nil {
			t.Errorf("goroutine %d: no response", i)
		}
	}
}

// TestCacheHitMiss asserts identical requests hit the cache and any
// option change misses it.
func TestCacheHitMiss(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 8})
	defer s.Close()
	ctx := context.Background()

	req := Request{Workload: "fig61", Format: FormatASCII,
		Options: GenOptions{PartSize: 6, BoxSize: 6}}

	first, err := s.Generate(ctx, &req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}

	second, err := s.Generate(ctx, &req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical request missed the cache")
	}
	if second.Diagram != first.Diagram {
		t.Fatal("cached diagram differs from original")
	}
	if second.CacheKey != first.CacheKey {
		t.Fatal("cache keys differ for identical requests")
	}

	// Any differing option must produce a different key and a miss.
	diff := req
	diff.Options.SwapObjective = true
	third, err := s.Generate(ctx, &diff)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("request with different options hit the cache")
	}
	if third.CacheKey == first.CacheKey {
		t.Fatal("different options produced the same cache key")
	}

	// Different format too: the rendered artifact is part of the key.
	diffFmt := req
	diffFmt.Format = FormatSummary
	fourth, err := s.Generate(ctx, &diffFmt)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Cached {
		t.Fatal("request with different format hit the cache")
	}

	cs := s.cache.stats(s.cfg.CacheEntries, s.obs.CacheEvictions)
	if cs.Hits != 1 || cs.Misses != 3 {
		t.Errorf("cache stats = %+v, want 1 hit / 3 misses", cs)
	}
}

// TestInlineNetlistCanonicalization asserts two syntactically different
// but semantically identical inline netlists share one cache entry.
func TestInlineNetlistCanonicalization(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 8})
	defer s.Close()
	ctx := context.Background()

	calls := "a INV\nb INV\n"
	netsA := "w a Y\nw b A\n"
	netsB := "# same network, reordered with a comment\nw b A\nw a Y\n"

	ra, err := s.Generate(ctx, &Request{Calls: calls, Netlist: netsA, Format: FormatSummary})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Generate(ctx, &Request{Calls: calls, Netlist: netsB, Format: FormatSummary})
	if err != nil {
		t.Fatal(err)
	}
	if ra.CacheKey != rb.CacheKey {
		t.Fatalf("reordered netlist changed the cache key:\n%s\n%s", ra.CacheKey, rb.CacheKey)
	}
	if !rb.Cached {
		t.Error("canonically identical inline request missed the cache")
	}
}

// TestLRUEviction fills the cache beyond capacity and checks eviction
// counters plus the entry cap, through the service wrapper (the LRU
// mechanics themselves are covered in internal/store).
func TestLRUEviction(t *testing.T) {
	m := obs.NewPipeline()
	backend := store.NewMem(2, func(tier, event string) {
		m.StoreEvent(tier, event)
		if event == store.EventEvict {
			m.CacheEvictions.Inc()
		}
	})
	c := newResultStore(backend, "mem", nil, m)
	ctx := context.Background()
	k := func(i int) cacheKey { return makeCacheKey(fmt.Sprintf("d%d", i), "o", "f") }
	for i := 0; i < 4; i++ {
		c.put(ctx, nil, k(i), ResponseV2{Name: fmt.Sprintf("r%d", i)})
	}
	if got := c.len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	if ev := m.CacheEvictions.Value(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
	if _, ok := c.get(ctx, nil, k(0)); ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := c.get(ctx, nil, k(3)); !ok {
		t.Error("newest entry missing")
	}
}

// TestQueueShedding holds the single worker busy, fills the one queue
// slot, and asserts the next request is shed with 429.
func TestQueueShedding(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 0})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testHook = func() {
		started <- struct{}{}
		<-release
	}

	run := func() error {
		_, err := s.Generate(context.Background(), &Request{Workload: "fig61", Format: FormatSummary})
		return err
	}
	errc := make(chan error, 2)
	go func() { errc <- run() }() // occupies the worker
	<-started                     // worker is now blocked in the hook

	go func() { errc <- run() }() // occupies the single queue slot
	// Wait until the queued task is actually buffered.
	deadline := time.After(2 * time.Second)
	for s.pool.queued() == 0 {
		select {
		case <-deadline:
			t.Fatal("queued task never appeared")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Third request: worker busy + queue full → shed.
	_, err := s.Generate(context.Background(), &Request{Workload: "fig61", Format: FormatSummary})
	se, ok := err.(*svcError)
	if !ok || se.status != http.StatusTooManyRequests {
		t.Fatalf("want 429 svcError, got %v", err)
	}
	if got := s.obs.Shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Errorf("held request %d failed: %v", i, err)
		}
	}
}

// TestRequestTimeout asserts an expired per-request deadline surfaces
// as 504 and bumps the timeout counter.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 0})
	defer s.Close()
	s.testHook = func() { time.Sleep(5 * time.Millisecond) }

	_, err := s.Generate(context.Background(), &Request{
		Workload: "life", Format: FormatSummary, TimeoutMs: 1,
	})
	se, ok := err.(*svcError)
	if !ok || se.status != http.StatusGatewayTimeout {
		t.Fatalf("want 504 svcError, got %v", err)
	}
	if got := s.obs.Timeouts.Value(); got == 0 {
		t.Error("timeout counter not bumped")
	}
}

// TestStatsEndpoint exercises /v1/stats and /v1/healthz over HTTP after
// real traffic and asserts non-zero per-stage latency counts plus cache
// hit/miss totals — the observability acceptance gate.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 8})

	req := Request{Workload: "fig61", Format: FormatSummary, Options: GenOptions{PartSize: 6, BoxSize: 6}}
	for i := 0; i < 2; i++ { // second run hits the cache
		if resp, body := postJSON(t, ts.URL+"/v1/generate", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("generate status %d: %s", resp.StatusCode, body)
		}
	}

	httpResp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Requests: []Request{
			{Workload: "datapath", Format: FormatSummary},
			{Workload: "nope"},
		},
	})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", httpResp.StatusCode, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Results[0].Response == nil || batch.Results[0].Status != http.StatusOK {
		t.Errorf("batch item 0 = %+v, want ok", batch.Results[0])
	}
	if batch.Results[1].Error == "" || batch.Results[1].Status != http.StatusBadRequest {
		t.Errorf("batch item 1 = %+v, want 400", batch.Results[1])
	}

	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Workers != 2 {
		t.Errorf("healthz = %+v", health)
	}

	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.OK < 3 {
		t.Errorf("ok counter = %d, want >= 3", stats.OK)
	}
	if stats.Failed == 0 {
		t.Error("failed counter not bumped by bad batch item")
	}
	for _, stage := range []string{"parse", "place", "route", "render", "total"} {
		if stats.Stages[stage].Count == 0 {
			t.Errorf("stage %q has zero latency observations", stage)
		}
	}
	if stats.Cache.Hits == 0 || stats.Cache.Misses == 0 {
		t.Errorf("cache stats = %+v, want non-zero hits and misses", stats.Cache)
	}
}

// TestBadRequests covers the validation surface.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// The unknown-workload message lists every workload the server
	// serves.
	workloads := []string{"chain"}
	for name := range s.builtins {
		workloads = append(workloads, name)
	}
	cases := []struct {
		name     string
		req      Request
		mentions []string
	}{
		{"empty", Request{}, nil},
		{"unknown workload", Request{Workload: "warp-core"}, workloads},
		{"both sources", Request{Workload: "fig61", Netlist: "w a Y", Calls: "a INV"}, nil},
		{"bad placer", Request{Workload: "fig61", Options: GenOptions{Placer: "astral"}}, nil},
		{"bad format", Request{Workload: "fig61", Format: "hologram"}, nil},
		{"netlist without calls", Request{Netlist: "w a Y"}, nil},
		{"unparsable netlist", Request{Netlist: "one-field", Calls: "a INV"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/generate", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (%s)", resp.StatusCode, body)
			}
			for _, want := range tc.mentions {
				if !strings.Contains(string(body), want) {
					t.Errorf("message %s does not name %q", body, want)
				}
			}
		})
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/generate status = %d, want 405", resp.StatusCode)
	}
}

// TestJSONFormat checks the structured rendering carries placements and
// routed segments.
func TestJSONFormat(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	resp, err := s.Generate(context.Background(), &Request{Workload: "fig61", Format: FormatJSON,
		Options: GenOptions{PartSize: 6, BoxSize: 6}})
	if err != nil {
		t.Fatal(err)
	}
	var dg jsonDiagram
	if err := json.Unmarshal([]byte(resp.Diagram), &dg); err != nil {
		t.Fatalf("json diagram does not parse: %v", err)
	}
	if len(dg.Modules) == 0 || len(dg.Nets) == 0 {
		t.Fatalf("json diagram empty: %d modules, %d nets", len(dg.Modules), len(dg.Nets))
	}
	segs := 0
	for _, n := range dg.Nets {
		segs += len(n.Segments)
	}
	if segs == 0 {
		t.Error("json diagram has no routed segments")
	}
}
