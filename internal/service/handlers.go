package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"netart/internal/obs"
	"netart/internal/resilience"
)

// maxBatchItems bounds one batch call; bigger batches should be split
// client-side so the queue-based load shedding stays meaningful.
const maxBatchItems = 64

// apiRoute is one row of the public HTTP surface. The routes() table
// is the single source of truth: Handler() registers exactly these
// rows (with method dispatch derived from Methods), and the
// API-surface golden test pins the table plus the response shapes so
// an accidental route or contract change fails CI.
type apiRoute struct {
	// Pattern is the ServeMux pattern ({id} wildcards allowed).
	Pattern string
	// Methods lists the accepted HTTP methods; anything else answers
	// 405 with the JSON error envelope and an Allow header.
	Methods []string
	// Response names the top-level response type (golden fixture key).
	Response string
	handler  http.HandlerFunc
}

// routes declares the daemon's HTTP surface:
//
//	POST   /v1/generate         one generation request (stable wire shape)
//	POST   /v1/batch            up to 64 requests fanned out over the pool
//	POST   /v2/generate         like /v1 but the response embeds the full
//	                            generation report (timings, attempts,
//	                            search counters, degradation, span tree)
//	POST   /v2/batch            the /v2 shape fanned out over the pool
//	POST   /v2/jobs             submit an async job → 202 + job id
//	GET    /v2/jobs/{id}        job status document (live progress)
//	DELETE /v2/jobs/{id}        cancel the job, answer its status
//	GET    /v2/jobs/{id}/events job progress + result as an SSE stream
//	GET    /v1/healthz          liveness + pool shape (+ advisories)
//	GET    /v1/stats            counters, cache stats, histograms
//	GET    /metrics             the same numbers in Prometheus text
//
// The /v1 handlers are thin adapters over the v2 pipeline: the server
// only ever produces ResponseV2 and the v1 shape is derived via
// (*ResponseV2).V1(), so the two surfaces cannot drift.
func (s *Server) routes() []apiRoute {
	return []apiRoute{
		{"/v1/generate", []string{http.MethodPost}, "Response", s.handleGenerate},
		{"/v1/batch", []string{http.MethodPost}, "BatchResponse", s.handleBatch},
		{"/v2/generate", []string{http.MethodPost}, "ResponseV2", s.handleGenerateV2},
		{"/v2/batch", []string{http.MethodPost}, "BatchResponseV2", s.handleBatchV2},
		{"/v2/jobs", []string{http.MethodPost}, "SubmitResponse", s.handleJobs},
		{"/v2/jobs/{id}", []string{http.MethodGet, http.MethodDelete}, "JobStatus", s.handleJob},
		{"/v2/jobs/{id}/events", []string{http.MethodGet}, "text/event-stream", s.handleJobEvents},
		{"/v1/healthz", []string{http.MethodGet}, "HealthResponse", s.handleHealthz},
		{"/v1/stats", []string{http.MethodGet}, "StatsResponse", s.handleStats},
		{"/metrics", []string{http.MethodGet}, "text/plain", s.obs.Reg.Handler().ServeHTTP},
	}
}

// Handler builds the daemon's http.Handler from the routes() table.
// Method dispatch happens here — patterns carry no method prefix — so
// a wrong-method call gets the JSON error envelope, not the mux's
// plain-text 405; unknown paths likewise answer a JSON 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		rt := rt
		mux.HandleFunc(rt.Pattern, func(w http.ResponseWriter, r *http.Request) {
			if !methodAllowed(rt.Methods, r.Method) {
				w.Header().Set("Allow", strings.Join(rt.Methods, ", "))
				writeErrorStatus(w, http.StatusMethodNotAllowed,
					"use "+strings.Join(rt.Methods, " or "))
				return
			}
			rt.handler(w, r)
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErrorStatus(w, http.StatusNotFound, "unknown endpoint "+r.URL.Path)
	})
	return mux
}

func methodAllowed(methods []string, m string) bool {
	for _, a := range methods {
		if a == m {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeErrorStatus writes the unified error envelope every non-2xx
// JSON response across /v1 and /v2 shares: {error, code, trace_id},
// with the trace id duplicated in the X-Netart-Trace-Id header. Code
// repeats the HTTP status so batch items and proxied errors keep it
// when the transport status is lost. The trace id is edge-generated —
// errors surface before or instead of the traced pipeline — so it
// correlates log lines about this failure, not a span tree.
func writeErrorStatus(w http.ResponseWriter, status int, msg string) {
	id := obs.NewTraceID()
	w.Header().Set(traceHeader, id)
	writeJSON(w, status, ErrorResponse{Error: msg, Code: status, TraceID: id})
}

func writeError(w http.ResponseWriter, err error) {
	var se *svcError
	if errors.As(err, &se) {
		writeErrorStatus(w, se.status, se.msg)
		return
	}
	writeErrorStatus(w, http.StatusInternalServerError, err.Error())
}

// decodeBody reads a JSON body under the configured size cap; an
// oversized body becomes a clean 413 before any of it is parsed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &svcError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return badRequest("invalid JSON body: %v", err)
	}
	return nil
}

// traceHeader is set on every successful generate response (v1 and v2)
// so callers can correlate a response with server-side trace output
// without parsing the body.
const traceHeader = "X-Netart-Trace-Id"

// generateV2 is the shared core of both generate handlers: decode,
// run, stamp the trace header, and hand the v2 response to render.
func (s *Server) generateV2(w http.ResponseWriter, r *http.Request, render func(*ResponseV2)) {
	var req Request
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.GenerateV2(hopContext(r), &req)
	if err != nil {
		writeError(w, err)
		return
	}
	if id := resp.TraceID(); id != "" {
		w.Header().Set(traceHeader, id)
	}
	render(resp)
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	s.generateV2(w, r, func(resp *ResponseV2) {
		writeJSON(w, http.StatusOK, resp.V1())
	})
}

func (s *Server) handleGenerateV2(w http.ResponseWriter, r *http.Request) {
	s.generateV2(w, r, func(resp *ResponseV2) {
		writeJSON(w, http.StatusOK, resp)
	})
}

// batchRetry is the one retry policy of batch items: three attempts,
// with jittered exponential backoff from 10 ms, capped at 250 ms.
var batchRetry = resilience.RetryPolicy{
	MaxAttempts: 3,
	BaseDelay:   10 * time.Millisecond,
	MaxDelay:    250 * time.Millisecond,
}

// statusOf extracts the HTTP status an error maps to (500 fallback).
func statusOf(err error) int {
	var se *svcError
	if errors.As(err, &se) {
		return se.status
	}
	return http.StatusInternalServerError
}

// retryableBatch classifies a batch-item failure: retry injected
// faults and injected panics (the error chain says Transient) and shed
// items (429 — the queue may have drained by the next attempt).
// Permanent failures — bad requests, resource caps, genuine panics —
// fail the item immediately, and so does a 504: while the batch is
// alive it means the item's own timeout_ms ran out, and a retry would
// get the same budget.
func retryableBatch(err error) bool {
	return resilience.IsTransient(err) || statusOf(err) == http.StatusTooManyRequests
}

// runBatch runs each item as one GenerateV2 call and reports per-item
// outcomes in request order. At most Workers items of one batch hold a
// queue slot at once, so a batch waits for its own items instead of
// shedding them. Transient failures, sheds by other traffic included,
// are retried under batchRetry; each item reports its attempt count.
// Returns a client error (to report whole-batch) or the item results.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request) ([]BatchItemV2, error) {
	var batch BatchRequest
	if err := s.decodeBody(w, r, &batch); err != nil {
		return nil, err
	}
	if len(batch.Requests) == 0 {
		return nil, badRequest("batch carries no requests")
	}
	if len(batch.Requests) > maxBatchItems {
		return nil, badRequest("batch carries %d requests (max %d)", len(batch.Requests), maxBatchItems)
	}
	ctx := r.Context()
	slots := make(chan struct{}, s.cfg.Workers)
	results := make([]BatchItemV2, len(batch.Requests))
	var wg sync.WaitGroup
	for i := range batch.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp *ResponseV2
			attempts, err := resilience.Retry(ctx, batchRetry, retryableBatch, rand.Float64,
				func(attempt int) error {
					if attempt > 1 {
						s.obs.Retries.Inc()
					}
					select {
					case slots <- struct{}{}:
					case <-ctx.Done():
						return ctx.Err()
					}
					defer func() { <-slots }()
					var gerr error
					resp, gerr = s.GenerateV2(ctx, &batch.Requests[i])
					return gerr
				})
			if err != nil {
				results[i] = BatchItemV2{Error: err.Error(), Status: statusOf(err), Attempts: attempts}
				return
			}
			results[i] = BatchItemV2{Response: resp, Status: http.StatusOK, Attempts: attempts}
		}(i)
	}
	wg.Wait()
	return results, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	items, err := s.runBatch(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	out := BatchResponse{Results: make([]BatchItem, len(items))}
	for i, it := range items {
		out.Results[i] = it.V1()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleBatchV2(w http.ResponseWriter, r *http.Request) {
	items, err := s.runBatch(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponseV2{Results: items})
}

// handleHealthz reports liveness plus an advisory health grade: the
// status degrades (still HTTP 200 — the daemon is alive and serving)
// when the queue is over 80% full or any panic has been recovered
// since start. Orchestrators that want to act on degradation read
// Status/Reasons instead of the HTTP code. The panic count and uptime
// come from the shared obs metric set, so healthz, /v1/stats and
// /metrics always agree.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued := s.pool.queued()
	panics := s.obs.Panics.Value()
	status := "ok"
	var reasons []string
	if s.cfg.QueueDepth > 0 && queued*5 > s.cfg.QueueDepth*4 {
		status = "degraded"
		reasons = append(reasons, fmt.Sprintf("queue %d/%d over 80%% full", queued, s.cfg.QueueDepth))
	}
	if panics > 0 {
		status = "degraded"
		reasons = append(reasons, fmt.Sprintf("%d panic(s) recovered since start", panics))
	}
	var sh *StoreHealth
	if s.cache.backend != nil {
		sh = &StoreHealth{
			Backend:    s.cache.backing,
			Entries:    s.cache.len(),
			Bytes:      s.cache.bytes(),
			DiskErrors: s.cache.diskErrors(),
		}
		if sh.DiskErrors > 0 {
			// The disk tier is misbehaving (I/O failures or corrupt
			// entries); requests still succeed — the memory tier and
			// recomputation keep serving — so this is advisory.
			status = "degraded"
			reasons = append(reasons, fmt.Sprintf(
				"store: %d disk error(s); memory tier still serving", sh.DiskErrors))
		}
	}
	fh := s.fleetHealth()
	if fh != nil && fh.Down > 0 {
		// Down peers are advisory for the same reason disk errors are:
		// their keys remap to live replicas, so requests still serve.
		status = "degraded"
		reasons = append(reasons, fmt.Sprintf(
			"fleet: %d peer(s) down; their keys remapped to live replicas", fh.Down))
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:  status,
		Workers: s.cfg.Workers,
		Queue:   s.cfg.QueueDepth,
		Queued:  queued,
		Panics:  panics,
		Reasons: reasons,
		Store:   sh,
		Fleet:   fh,
		UptimeS: time.Since(s.stats.start()).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
