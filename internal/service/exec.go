package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"netart/internal/gen"
	"netart/internal/jobs"
	"netart/internal/netlist"
	"netart/internal/obs"
	"netart/internal/resilience"
	"netart/internal/route"
	"netart/internal/store/singleflight"
)

// This file is the service's one executor. A /v2/generate call, each
// /v2/batch item and each /v2/jobs job take the same path: admit
// answers what needs no worker, start is the only way onto the worker
// pool, and the wait function start returns settles the outcome
// counters exactly once. The callers differ only in the context they
// run under and in what they do with the verdict.

// call is one admitted request: the request plus the format and the
// pipeline options admit resolved from it, the design its parse stage
// built (none when the key memo supplied its key), then the outcome its
// task leaves for settle.
type call struct {
	req    *Request
	format string
	opts   gen.Options
	design *netlist.Design

	ran  bool
	resp *ResponseV2
	err  error
}

// admit counts a request and answers everything that needs no worker:
// 422 from the raw-text guards, 400 for a bad format or bad options.
// The resolved options carry the server defaults: the degradation
// policy (a request's own wins), the fault injector and the plane-area
// cap.
func (s *Server) admit(req *Request) (*call, error) {
	s.obs.Requests.Inc()
	if err := s.preGuard(req); err != nil {
		s.obs.Rejected.Inc()
		return nil, err
	}
	format, err := resolveFormat(req.Format)
	if err != nil {
		s.obs.Failed.Inc()
		return nil, err
	}
	opts, err := req.Options.resolve()
	if err != nil {
		s.obs.Failed.Inc()
		return nil, badRequest("%v", err)
	}
	if req.Options.DegradeMode == "" {
		opts.Degrade = s.cfg.DegradeMode
	}
	opts.Inject = s.cfg.Inject
	if opts.Route.MaxPlaneArea == 0 {
		opts.Route.MaxPlaneArea = s.cfg.MaxPlaneArea
	}
	return &call{req: req, format: format, opts: opts}, nil
}

// timeout is a request's deadline budget: its timeout_ms, else the
// server default, capped by MaxTimeout.
func (s *Server) timeout(req *Request) time.Duration {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		d = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	return min(d, s.cfg.MaxTimeout)
}

// start queues an admitted call on the worker pool and answers 429
// when the queue is full. j, when non-nil, is the async job the call
// runs for: the worker starts it, attaches the live observer and
// relays pipeline progress to its event log. The pipeline runs under
// resilience.Recover, so a panic in any stage fails this request alone.
// The returned wait blocks until the task is done, then settles it.
func (s *Server) start(ctx context.Context, c *call, j *jobs.Job) (wait func() (*ResponseV2, error), err error) {
	done := make(chan struct{})
	err = s.pool.submit(func() {
		defer close(done) // even when a panic escapes to the pool
		// A task whose deadline expired in the queue, or whose job was
		// canceled there, is not worth starting.
		if ctx.Err() != nil || (j != nil && !j.Start()) {
			return
		}
		// The observer starts when a worker picks the task up, so the
		// root span, and with it elapsed_ms, excludes queue wait.
		o := obs.NewObserver(s.obs, "request")
		var progress gen.ProgressFunc
		if j != nil {
			// GET /v2/jobs/{id} snapshots the attached observer mid-run
			// (safe: span mutation is locked).
			j.Attach(o)
			progress = jobProgress(j)
		}
		c.ran = true
		c.err = resilience.Recover("pipeline", func() error {
			if s.testHook != nil {
				s.testHook()
			}
			var err error
			c.resp, err = s.process(ctx, c, o, progress)
			return err
		})
	})
	if err != nil {
		s.obs.Shed.Inc()
		return nil, &svcError{status: http.StatusTooManyRequests, msg: err.Error()}
	}
	return func() (*ResponseV2, error) {
		<-done
		return s.settle(ctx, j, c)
	}, nil
}

// settle turns a finished task into the request's verdict and moves
// its outcome counters. A job canceled by DELETE settles as
// context.Canceled and moves none: its job record says canceled.
func (s *Server) settle(ctx context.Context, j *jobs.Job, c *call) (*ResponseV2, error) {
	switch {
	case c.ran && c.err == nil && c.resp != nil:
		if c.resp.Report.Degraded != nil {
			s.obs.Degraded.Inc()
		}
		s.obs.OK.Inc()
		return c.resp, nil
	case j != nil && (errors.Is(ctx.Err(), context.Canceled) || j.State() == jobs.StateCanceled):
		// Only DELETE cancels a job's detached context. A queued job
		// it cancels turns canceled before its context does.
		return nil, context.Canceled
	case !c.ran:
		// The task's context ended while it waited in the queue: its
		// deadline expired, or the caller went away.
		s.obs.Timeouts.Inc()
		return nil, &svcError{status: http.StatusGatewayTimeout, msg: "deadline expired while queued"}
	case c.err != nil:
		return nil, s.mapError(ctx, c.err)
	default:
		// The pool's last-resort recovery aborted the task, leaving
		// neither a response nor an error behind.
		s.obs.Failed.Inc()
		return nil, &svcError{status: http.StatusInternalServerError, msg: "internal: generation task aborted"}
	}
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

// process runs an admitted call on a worker goroutine: parse, store
// lookup, then fetch or compute. The observer o threads through all of
// it: every stage appears as a span under the "request" root (feeding
// the per-stage latency histograms on span end) and runs under its own
// resilience.Recover so a panic is attributed to the stage it escaped
// from. progress, set for jobs, fires only when the pipeline actually
// runs here: a cache hit, a singleflight follower and a fleet-proxied
// request produce none (their jobs jump straight to the final report).
func (s *Server) process(ctx context.Context, c *call, o *obs.Observer, progress gen.ProgressFunc) (*ResponseV2, error) {
	s.obs.Inflight.Add(1)
	defer s.obs.Inflight.Add(-1)

	c.opts.Observer = o
	c.opts.Progress = progress

	// Parse stage: the request's cache key and its design's counts.
	// While the store is enabled, a byte-identical repeat finds them in
	// the key memo and builds no design (DESIGN §5a). Anything else
	// builds its design here, and it waits in c for compute.
	psp := o.StartSpan("parse")
	options := c.req.Options.canonical(c.opts.Degrade)
	var (
		p       memoEntry
		digest  requestDigest
		enabled bool
		memo    int64 // 1 when the memo held p
	)
	err := resilience.Recover("parse", func() error {
		if ferr := s.cfg.Inject.Fire(resilience.SiteParse); ferr != nil {
			return ferr
		}
		if enabled = s.cache.enabled(); enabled {
			digest = digestRequest(c.req, options, c.format)
			var ok bool
			if p, ok = s.cache.memo.get(digest); ok {
				memo = 1
				return nil
			}
		}
		design, canonical, err := s.resolveDesign(c.req)
		if err != nil {
			return err
		}
		c.design = design
		p = memoEntry{makeCacheKey(canonical, options, c.format), len(design.Modules), len(design.Nets)}
		return nil
	})
	if err != nil {
		endSpanError(psp, err)
		return nil, err
	}
	psp.SetAttr("modules", int64(p.modules))
	psp.SetAttr("nets", int64(p.nets))
	psp.SetAttr("memo", memo)
	psp.End()
	// Authoritative resource guard, now that real counts exist.
	if err := s.cfg.guards().CheckCounts(p.modules, p.nets); err != nil {
		return nil, err
	}
	// The memo learns a key only from a parse the guards admitted, and
	// fills exactly when the store does: not if faults were armed since.
	if enabled && memo == 0 && s.cache.enabled() {
		s.cache.memo.put(digest, p)
	}

	key := p.key
	// The fault-injection bypass lives inside the store wrapper (see
	// resultStore.faultsArmed): while faults are armed, get and put
	// are no-ops for every backend, so a degraded or injected-failure
	// artwork is never served to a later clean request and chaos runs
	// are not masked by earlier hits.
	if hit, ok := s.cache.get(ctx, o, key); ok {
		hit.Cached = true
		// The cached report keeps the original run's timings and
		// attempts, but the trace must describe *this* request:
		// root, parse and store.get, nothing recomputed.
		s.serveTrace(&hit, o.Snapshot())
		return &hit, nil
	}

	// Cold path. Concurrent identical requests collapse into one
	// execution: the singleflight leader fetches (from the key's fleet
	// owner) or computes, followers share its finished response
	// verbatim — identical bodies, one pipeline run. The collapse is
	// disabled while faults are armed for the same reason the cache
	// is: each chaos request must independently meet the injector.
	if s.cache.faultsArmed() {
		return s.fetchOrCompute(ctx, o, c, key)
	}
	v, outcome, err := s.flight.Do(ctx, key.String(), func(ctx context.Context) (any, error) {
		if s.flightHook != nil {
			s.flightHook()
		}
		return s.fetchOrCompute(ctx, o, c, key)
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

// fetchOrCompute resolves a cold key: from the key's fleet owner when
// a peer owns it (fleet.go), else by running the pipeline here.
func (s *Server) fetchOrCompute(ctx context.Context, o *obs.Observer, c *call, key cacheKey) (*ResponseV2, error) {
	if resp, err, ok := s.fetchFromOwner(ctx, o, c.req, key); ok {
		return resp, err
	}
	return s.compute(ctx, o, c, key)
}

// pipelineDesign returns the design compute runs the pipeline on. It
// must be this request's alone, because placement mutates a design
// through its pointers, so a builtin's shared startup parse is cloned.
// When the key memo supplied the key, the parse stage built no design:
// the request's text is parsed now, as the span "parse.late".
func (s *Server) pipelineDesign(o *obs.Observer, c *call) (*netlist.Design, error) {
	if c.design == nil {
		sp := o.StartSpan("parse.late")
		err := resilience.Recover("parse", func() error {
			var err error
			c.design, _, err = s.resolveDesign(c.req)
			return err
		})
		if err != nil {
			endSpanError(sp, err)
			return nil, err
		}
		sp.End()
	}
	if _, ok := s.builtins[c.req.Workload]; ok {
		return c.design.Clone(), nil
	}
	return c.design, nil
}

// compute runs the generation pipeline locally and fills the store.
func (s *Server) compute(ctx context.Context, o *obs.Observer, c *call, key cacheKey) (*ResponseV2, error) {
	design, err := s.pipelineDesign(o, c)
	if err != nil {
		return nil, err
	}
	rep, err := gen.Run(ctx, design, c.opts)
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
		rendered, rerr = renderDiagram(rep.Diagram, c.format)
		return rerr
	})
	if err != nil {
		endSpanError(rsp, err)
		return nil, err
	}
	rsp.SetAttr("bytes", int64(len(rendered)))
	rsp.End()

	// One snapshot supplies the parse and render timings, and the
	// request's trace and clock unless a store put follows.
	trace := o.Snapshot()
	timings := rep.Timings
	timings.Parse = trace.Find("parse").Elapsed() + trace.Find("parse.late").Elapsed()
	timings.Render = trace.Find("render").Elapsed()

	m := rep.Diagram.Metrics()
	resp := ResponseV2{
		Name:     design.Name,
		Format:   c.format,
		Diagram:  rendered,
		Metrics:  m,
		Unrouted: m.Unrouted,
		CacheKey: key.String(),
		Report: Report{
			Timings:  timings,
			Attempts: rep.Attempts,
			Search:   rep.Search,
			Degraded: degradedReport(rep.Degraded),
		},
	}
	if s.cache.enabled() {
		s.cache.put(ctx, o, key, resp)
		// The store keeps no trace: snapshot again, so the served one
		// shows the put.
		trace = o.Snapshot()
	}
	s.serveTrace(&resp, trace)
	return &resp, nil
}

// serveTrace attaches the trace a response serves and reads the
// request's one clock from its root span: elapsed_ms and the "total"
// latency observation.
func (s *Server) serveTrace(resp *ResponseV2, trace *obs.TraceData) {
	resp.Report.Trace = trace
	resp.ElapsedMs = float64(trace.Root.ElapsedUs) / 1000.0
	s.obs.Traces.Inc()
	s.obs.StageObserve("total", trace.Root.Elapsed())
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
