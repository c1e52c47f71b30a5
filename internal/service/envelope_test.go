package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// doRaw performs one request with full control over method and body.
func doRaw(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
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

// checkEnvelope asserts one non-2xx response carries the unified
// error envelope: JSON {error, code, trace_id} with code repeating the
// HTTP status and the trace id duplicated in X-Netart-Trace-Id.
func checkEnvelope(t *testing.T, resp *http.Response, body []byte, wantStatus int) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	var env ErrorResponse
	decode(t, body, &env)
	if env.Error == "" {
		t.Error("envelope carries no error message")
	}
	if env.Code != wantStatus {
		t.Errorf("envelope code %d, want %d", env.Code, wantStatus)
	}
	if env.TraceID == "" {
		t.Error("envelope carries no trace id")
	}
	if hdr := resp.Header.Get(traceHeader); hdr != env.TraceID {
		t.Errorf("trace header %q != envelope trace id %q", hdr, env.TraceID)
	}
}

// TestErrorEnvelope sweeps the error surface across /v1 and /v2: every
// non-2xx JSON response — wrong method, unknown path, malformed body,
// bad options, resource caps, oversized body, missing job — must carry
// the same {error, code, trace_id} envelope.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 2048})

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"method v1 generate", http.MethodGet, "/v1/generate", "", 405},
		{"method v2 generate", http.MethodDelete, "/v2/generate", "", 405},
		{"method v1 batch", http.MethodGet, "/v1/batch", "", 405},
		{"method v2 batch", http.MethodPut, "/v2/batch", "", 405},
		{"method v2 jobs", http.MethodDelete, "/v2/jobs", "", 405},
		{"method stats", http.MethodPost, "/v1/stats", "", 405},
		{"method job events", http.MethodPost, "/v2/jobs/abc/events", "", 405},
		{"unknown path", http.MethodGet, "/v3/rocket", "", 404},
		{"unknown job", http.MethodGet, "/v2/jobs/deadbeefdeadbeef", "", 404},
		{"unknown job delete", http.MethodDelete, "/v2/jobs/deadbeefdeadbeef", "", 404},
		{"unknown job events", http.MethodGet, "/v2/jobs/deadbeefdeadbeef/events", "", 404},
		{"malformed json", http.MethodPost, "/v1/generate", "{", 400},
		{"unknown field", http.MethodPost, "/v2/generate", `{"warpdrive":true}`, 400},
		{"retired route_window", http.MethodPost, "/v2/generate",
			`{"workload":"fig61","options":{"route_window":"off"}}`, 400},
		{"retired place_workers", http.MethodPost, "/v2/generate",
			`{"workload":"fig61","options":{"place_workers":2}}`, 400},
		{"retired route_workers", http.MethodPost, "/v2/generate",
			`{"workload":"fig61","options":{"route_workers":2}}`, 400},
		{"retired dual_front", http.MethodPost, "/v2/generate",
			`{"workload":"fig61","options":{"dual_front":true}}`, 400},
		{"retired rip_up", http.MethodPost, "/v2/generate",
			`{"workload":"fig61","options":{"rip_up":true}}`, 400},
		{"negative mod_spacing", http.MethodPost, "/v2/generate",
			`{"workload":"datapath","options":{"mod_spacing":-2}}`, 400},
		{"negative box_spacing", http.MethodPost, "/v2/generate",
			`{"workload":"fig61","options":{"box_spacing":-1}}`, 400},
		{"negative part_spacing", http.MethodPost, "/v2/generate",
			`{"workload":"life","options":{"part_spacing":-3}}`, 400},
		{"negative mod_spacing job", http.MethodPost, "/v2/jobs",
			`{"workload":"datapath","options":{"mod_spacing":-2}}`, 400},
		{"negative part_spacing job", http.MethodPost, "/v2/jobs",
			`{"workload":"fig61","options":{"part_spacing":-1}}`, 400},
		// A spacing or margin whose square exceeds the plane-area cap
		// is refused before the queue. These three once overflowed the
		// plane bounds past the router's area guard and panicked (500).
		{"part_spacing 2^40", http.MethodPost, "/v2/generate",
			`{"workload":"fig61","options":{"part_spacing":1099511627776}}`, 422},
		{"margin 2^61", http.MethodPost, "/v2/generate",
			`{"workload":"fig61","options":{"margin":2305843009213693952}}`, 422},
		{"margin 2^62", http.MethodPost, "/v2/generate",
			`{"workload":"fig61","options":{"margin":4611686018427387904}}`, 422},
		{"part_spacing 2^40 job", http.MethodPost, "/v2/jobs",
			`{"workload":"fig61","options":{"part_spacing":1099511627776}}`, 422},
		{"margin 2^61 job", http.MethodPost, "/v2/jobs",
			`{"workload":"fig61","options":{"margin":2305843009213693952}}`, 422},
		{"margin 2^62 job", http.MethodPost, "/v2/jobs",
			`{"workload":"fig61","options":{"margin":4611686018427387904}}`, 422},
		{"unknown workload", http.MethodPost, "/v1/generate", `{"workload":"warp"}`, 400},
		{"bad placer", http.MethodPost, "/v2/jobs",
			`{"workload":"fig61","options":{"placer":"magic"}}`, 400},
		{"bad format", http.MethodPost, "/v2/jobs",
			`{"workload":"fig61","format":"hologram"}`, 400},
		{"chain cap", http.MethodPost, "/v1/generate",
			`{"workload":"chain","chain_length":4096}`, 422},
		{"oversized body", http.MethodPost, "/v1/generate",
			`{"netlist":"` + strings.Repeat("x", 4096) + `"}`, 413},
		{"empty batch", http.MethodPost, "/v1/batch", `{}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doRaw(t, tc.method, ts.URL+tc.path, tc.body)
			checkEnvelope(t, resp, body, tc.want)
			if tc.want == 405 && resp.Header.Get("Allow") == "" {
				t.Error("405 without an Allow header")
			}
		})
	}
}

// TestWideSpacingRefusedCheaply: a partition spacing whose square
// exceeds the plane-area cap is refused before placement builds any
// geometry. Datapath at 262144 used to allocate about 428 MB, nearly
// all of it the placer's terminal ring around the module bounds,
// before the router's area guard answered 422.
func TestWideSpacingRefusedCheaply(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := &Request{Workload: "datapath", Options: GenOptions{PartSpacing: 262144}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.GenerateV2(context.Background(), req)
	runtime.ReadMemStats(&after)
	var se *svcError
	if !errors.As(err, &se) || se.status != http.StatusUnprocessableEntity {
		t.Fatalf("part_spacing 262144: %v, want a 422", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 428e6/10 {
		t.Errorf("refusal allocated %d bytes, want under a tenth of 428 MB", got)
	}
}

// TestErrorEnvelopeOnShed covers the 429 path for both the sync and
// the async surface: with the lone worker wedged and the queue full,
// /v2/generate and /v2/jobs must shed with the envelope.
func TestErrorEnvelopeOnShed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.testHook = func() { entered <- struct{}{}; <-release }
	defer close(release)

	// Wedge the worker with one job, fill the queue with another.
	resp, body := postJSON(t, ts.URL+"/v2/jobs", Request{Workload: "fig61"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wedge submit: %d %s", resp.StatusCode, body)
	}
	<-entered
	resp, body = postJSON(t, ts.URL+"/v2/jobs", Request{Workload: "fig61"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-fill submit: %d %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.queued() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, body = doRaw(t, http.MethodPost, ts.URL+"/v2/jobs", `{"workload":"fig61"}`)
	checkEnvelope(t, resp, body, 429)
	resp, body = doRaw(t, http.MethodPost, ts.URL+"/v2/generate", `{"workload":"fig61"}`)
	checkEnvelope(t, resp, body, 429)
}
