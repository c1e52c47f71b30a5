package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"netart/internal/gen"
	"netart/internal/resilience"
)

// This file is the chaos suite demanded by the robustness work: the
// daemon is bombarded with mixed traffic while the fault injector
// forces errors, panics and latency at every pipeline site. The only
// acceptable outcomes are clean HTTP statuses — the process must never
// crash, a worker goroutine must never die, and panics must be visible
// in /v1/stats rather than in a core dump.

func decode(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decoding %T from %q: %v", v, body, err)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func mustInjector(t *testing.T, spec string, seed int64) *resilience.Injector {
	t.Helper()
	inj, err := resilience.ParseSpec(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestChaosMixedTraffic drives 100 mixed requests (singles and batch
// items, several workloads and formats) through a server with faults
// armed at every site: 10% injected errors and 5% injected panics at
// parse/place/route/render plus a small latency tax. Every request
// must complete with a sane status and the daemon must stay healthy.
func TestChaosMixedTraffic(t *testing.T) {
	inj := mustInjector(t,
		"parse:error:0.10;place.box:panic:0.02;route.wavefront:error:0.05;"+
			"render:panic:0.05;parse:latency:0.10:2ms", 42)
	s, ts := newTestServer(t, Config{
		Workers:      4,
		QueueDepth:   64,
		Inject:       inj,
		DegradeMode:  gen.DegradeBestEffort,
		BatchRetries: 1,
		RetryBase:    time.Millisecond,
		RetryMax:     4 * time.Millisecond,
		// Every successful response under chaos is machine-checked: the
		// wire geometry must realize the netlist even when the pipeline
		// is being shot at (degraded partials included — failed nets are
		// exempt from connectivity but never from isolation).
		VerifyRouting: true,
	})

	workloads := []string{"fig61", "chain", "fig61", "datapath"}
	formats := []string{"summary", "ascii", "json", "svg"}
	allowed := map[int]bool{200: true, 429: true, 500: true, 504: true}

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	record := func(code int) {
		mu.Lock()
		statuses[code]++
		mu.Unlock()
	}

	const singles = 80
	for i := 0; i < singles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{
				Workload:    workloads[i%len(workloads)],
				ChainLength: 4 + i%8,
				Format:      formats[i%len(formats)],
				TimeoutMs:   5000,
			}
			resp, _ := postJSON(t, ts.URL+"/v1/generate", req)
			if !allowed[resp.StatusCode] {
				t.Errorf("single %d: unexpected status %d", i, resp.StatusCode)
			}
			record(resp.StatusCode)
		}(i)
	}
	// Four batches of five items round the traffic out to 100 requests.
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			batch := BatchRequest{}
			for j := 0; j < 5; j++ {
				batch.Requests = append(batch.Requests, Request{
					Workload:  workloads[(b+j)%len(workloads)],
					Format:    formats[j%len(formats)],
					TimeoutMs: 5000,
				})
			}
			resp, body := postJSON(t, ts.URL+"/v1/batch", batch)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch %d: status %d: %s", b, resp.StatusCode, body)
				return
			}
			record(resp.StatusCode)
		}(b)
	}
	wg.Wait()

	// The server survived (we are still talking to it); the stats must
	// show the chaos rather than hide it.
	st := s.Stats()
	if st.Requests < 100 {
		t.Errorf("stats lost requests: %d < 100", st.Requests)
	}
	if st.Panics == 0 {
		t.Error("no panics recovered — injector was not exercised")
	}
	if len(st.RecentPanics) == 0 {
		t.Error("recent panic ring is empty")
	}
	for _, p := range st.RecentPanics {
		if p.Stage == "" || p.Cause == "" {
			t.Errorf("panic record missing stage/cause: %+v", p)
		}
	}
	// A healthy service after recovered panics reports degraded, and
	// /v1/stats itself must still be served.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats endpoint died after chaos: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats status %d after chaos", resp.StatusCode)
	}
	t.Logf("chaos outcome: statuses=%v panics=%d degraded=%d retries=%d",
		statuses, st.Panics, st.Degraded, st.Retries)
}

// TestBestEffortDegradation forces every wavefront search to fail and
// asks for best-effort: the request must still succeed (HTTP 200) with
// a partial diagram whose degradation report names the unrouted nets —
// the paper's "incomplete artwork is still artwork" stance, upgraded
// with observability.
func TestBestEffortDegradation(t *testing.T) {
	inj := mustInjector(t, "route.wavefront:error:1", 7)
	// VerifyRouting on: even a best-effort partial routing must pass the
	// equivalence check (unconnected nets are exempt from connectivity,
	// but any wire that was laid must still be electrically sound).
	_, ts := newTestServer(t, Config{Workers: 2, Inject: inj, VerifyRouting: true})

	req := Request{
		Workload: "fig61",
		Format:   "ascii",
		Options:  GenOptions{DegradeMode: "best-effort"},
	}
	resp, body := postJSON(t, ts.URL+"/v1/generate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("best-effort status = %d, want 200: %s", resp.StatusCode, body)
	}
	var out Response
	decode(t, body, &out)
	if out.Degraded == nil {
		t.Fatal("forced routing failure: response carries no degradation report")
	}
	if out.Unrouted == 0 || len(out.Degraded.Unrouted) == 0 {
		t.Errorf("degraded response lists no unrouted nets: unrouted=%d report=%v",
			out.Unrouted, out.Degraded.Unrouted)
	}
	if len(out.Degraded.Attempts) == 0 {
		t.Error("degradation report names no routing attempts")
	}
	if !strings.Contains(out.Diagram, "DEGRADED") {
		t.Error("ascii diagram does not carry the DEGRADED block")
	}

	// The same forced failure under strict mode must refuse with 422.
	req.Options.DegradeMode = "strict"
	resp, body = postJSON(t, ts.URL+"/v1/generate", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("strict status = %d, want 422: %s", resp.StatusCode, body)
	}
}

// TestEscalationLadder: under escalate the server climbs the rungs but
// still refuses incomplete results; under best-effort with a clean
// router the ladder is never entered and the result is not degraded.
func TestEscalationLadder(t *testing.T) {
	s := New(Config{Workers: 1, DegradeMode: gen.DegradeBestEffort})
	defer s.Close()
	resp, err := s.Generate(context.Background(), &Request{Workload: "fig61",
		Options: GenOptions{PartSize: 6, BoxSize: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded != nil {
		t.Errorf("clean routing marked degraded: %+v", resp.Degraded)
	}
}

// TestPanicVisibleInStats injects a deterministic parse panic and
// checks the full observability path: 500 to the caller, counter and
// ring entry in /v1/stats, and a degraded (but 200) healthz.
func TestPanicVisibleInStats(t *testing.T) {
	inj := mustInjector(t, "parse:panic:1:x1", 1)
	s, ts := newTestServer(t, Config{Workers: 1, Inject: inj})

	resp, body := postJSON(t, ts.URL+"/v1/generate", Request{Workload: "fig61"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic status = %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Errorf("error body hides the panic: %s", body)
	}

	st := s.Stats()
	if st.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", st.Panics)
	}
	if len(st.RecentPanics) != 1 || st.RecentPanics[0].Stage != "parse" {
		t.Errorf("recent panics = %+v, want one entry at stage parse", st.RecentPanics)
	}

	// The x1-capped rule is spent: the next request must succeed, which
	// proves the worker goroutine survived the panic.
	resp, body = postJSON(t, ts.URL+"/v1/generate", Request{Workload: "fig61"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic = %d, want 200: %s", resp.StatusCode, body)
	}

	// Healthz: alive, but honest about the panic.
	hr, hbody := getJSON(t, ts.URL+"/v1/healthz")
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", hr.StatusCode)
	}
	var health HealthResponse
	decode(t, hbody, &health)
	if health.Status != "degraded" || health.Panics != 1 {
		t.Errorf("healthz after panic = %+v, want degraded with 1 panic", health)
	}
	if len(health.Reasons) == 0 {
		t.Error("degraded healthz gives no reasons")
	}
}

// TestHealthzDegradedOnFullQueue wedges the single worker and fills
// the queue past 80%: healthz must stay 200 but report degraded.
func TestHealthzDegradedOnFullQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 5})

	release := make(chan struct{})
	var once sync.Once
	s.testHook = func() { <-release }
	defer once.Do(func() { close(release) })

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ { // 1 running + 5 queued
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.Generate(context.Background(), &Request{Workload: "fig61"})
		}()
	}
	// Wait for the queue to actually fill.
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.queued() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	hr, hbody := getJSON(t, ts.URL+"/v1/healthz")
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", hr.StatusCode)
	}
	var health HealthResponse
	decode(t, hbody, &health)
	if health.Status != "degraded" {
		t.Errorf("healthz with full queue = %q (queued=%d), want degraded", health.Status, health.Queued)
	}

	once.Do(func() { close(release) })
	wg.Wait()

	_, hbody = getJSON(t, ts.URL+"/v1/healthz")
	var after HealthResponse
	decode(t, hbody, &after)
	if after.Status != "ok" {
		t.Errorf("healthz after drain = %q, want ok", after.Status)
	}
}

// TestBodyTooLarge checks the MaxBytesReader satellite: a body over
// the configured cap yields a clean 413, not a JSON parse error.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})
	req := Request{Workload: "fig61", Netlist: strings.Repeat("x", 1024)}
	resp, body := postJSON(t, ts.URL+"/v1/generate", req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Errorf("413 body unhelpful: %s", body)
	}
	// Batch path shares the cap.
	resp, _ = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []Request{req}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status = %d, want 413", resp.StatusCode)
	}
}

// TestResourceGuards covers the 422 surface: chain length, module
// count, net count (pre- and post-parse) and routing plane area.
func TestResourceGuards(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxModules: 8, MaxNets: 16, MaxPlaneArea: 512})

	cases := []struct {
		name string
		req  Request
	}{
		{"chain cap", Request{Workload: "chain", ChainLength: 4096}},
		{"module cap", Request{Workload: "chain", ChainLength: 64}},
		{"plane area", Request{Workload: "chain", ChainLength: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/generate", tc.req)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("status = %d, want 422: %s", resp.StatusCode, body)
			}
		})
	}

	// An inline netlist with too many raw records is shed before parse.
	var nets strings.Builder
	for i := 0; i < 16*16+32; i++ {
		fmt.Fprintf(&nets, "n%d a Y\n", i)
	}
	resp, body := postJSON(t, ts.URL+"/v1/generate",
		Request{Calls: "a INV", Netlist: nets.String()})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("net-record flood status = %d, want 422: %s", resp.StatusCode, body)
	}

	// Within caps everything still works.
	resp, body = postJSON(t, ts.URL+"/v1/generate", Request{Workload: "chain", ChainLength: 4})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("within-caps request status = %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestBatchRetryTransient arms a one-shot injected parse error: the
// first attempt of the lone batch item fails transiently, the retry
// succeeds, and the item reports both the recovery and its cost.
func TestBatchRetryTransient(t *testing.T) {
	inj := mustInjector(t, "parse:error:1:x1", 3)
	s, ts := newTestServer(t, Config{
		Workers:      1,
		Inject:       inj,
		BatchRetries: 2,
		RetryBase:    time.Millisecond,
		RetryMax:     2 * time.Millisecond,
	})

	resp, body := postJSON(t, ts.URL+"/v1/batch",
		BatchRequest{Requests: []Request{{Workload: "fig61"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	decode(t, body, &out)
	if len(out.Results) != 1 {
		t.Fatalf("batch results = %d, want 1", len(out.Results))
	}
	item := out.Results[0]
	if item.Status != http.StatusOK || item.Response == nil {
		t.Fatalf("item did not recover: %+v (%s)", item, item.Error)
	}
	if item.Attempts != 2 {
		t.Errorf("item attempts = %d, want 2 (one transient failure, one success)", item.Attempts)
	}
	if got := s.Stats().Retries; got != 1 {
		t.Errorf("stats retries = %d, want 1", got)
	}
}

// TestBatchNoRetryOnPermanent: a malformed request must fail its item
// on the first attempt; retrying a 400 would only burn workers.
func TestBatchNoRetryOnPermanent(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, BatchRetries: 3,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond})

	resp, body := postJSON(t, ts.URL+"/v1/batch",
		BatchRequest{Requests: []Request{{Workload: "warp-core"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	decode(t, body, &out)
	item := out.Results[0]
	if item.Status != http.StatusBadRequest {
		t.Fatalf("item status = %d, want 400", item.Status)
	}
	if item.Attempts != 1 {
		t.Errorf("permanent failure retried: attempts = %d, want 1", item.Attempts)
	}
	if got := s.Stats().Retries; got != 0 {
		t.Errorf("stats retries = %d, want 0", got)
	}
}

// TestInjectorBypassesCache: with faults armed the cache must not
// serve (or store) results, so a degraded artwork can never leak into
// a later clean run.
func TestInjectorBypassesCache(t *testing.T) {
	inj := mustInjector(t, "route.wavefront:error:1", 5)
	s := New(Config{Workers: 1, Inject: inj, DegradeMode: gen.DegradeBestEffort})
	defer s.Close()
	req := &Request{Workload: "fig61", Options: GenOptions{PartSize: 6, BoxSize: 6}}
	r1, err := s.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Degraded == nil {
		t.Fatal("expected a degraded result under forced routing failure")
	}
	r2, err := s.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Error("degraded result was served from cache")
	}
	if cs := s.cache.stats(s.cfg.CacheEntries, s.obs.CacheEvictions); cs.Entries != 0 {
		t.Errorf("cache holds %d entries while injector armed, want 0", cs.Entries)
	}
}
