package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"netart/internal/gen"
	"netart/internal/jobs"
	"netart/internal/obs"
)

// This file is the async half of the generate API: POST /v2/jobs
// submits a request and returns immediately with a job id; the job
// then runs through the same executor as the synchronous path
// (exec.go: admit, start, settle), so the final artwork is
// byte-identical to what /v2/generate would have served. Progress
// streams over GET /v2/jobs/{id}/events as SSE: placement geometry
// first, then one event per routed net strictly in the router's
// routing order, then the full report.

// SubmitResponse is the 202 body of POST /v2/jobs.
type SubmitResponse struct {
	JobID     string `json:"job_id"`
	Status    string `json:"status"`
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
}

// JobStatus is the body of GET /v2/jobs/{id} (and of the DELETE
// response): the state machine position, live progress derived from
// the run's span tree, and — once done — the full result.
type JobStatus struct {
	JobID    string `json:"job_id"`
	State    string `json:"state"`
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// Events is the current event-log length; an SSE client that saw
	// fewer has catching up to do.
	Events int `json:"events"`
	// Stage is the coarse position of a running job; NetsRouted/
	// NetsTotal count the router's committed nets (main pass).
	Stage      string `json:"stage,omitempty"`
	NetsRouted int    `json:"nets_routed,omitempty"`
	NetsTotal  int    `json:"nets_total,omitempty"`
	// Stages snapshots the live span tree: one entry per pipeline
	// stage that has started, open stages with outcome "open".
	Stages []JobStage `json:"stages,omitempty"`
	Error  string     `json:"error,omitempty"`
	// Code is the HTTP status the synchronous twin of a failed job
	// would have answered.
	Code      int         `json:"code,omitempty"`
	Result    *ResponseV2 `json:"result,omitempty"`
	StatusURL string      `json:"status_url"`
	StreamURL string      `json:"stream_url"`
}

// JobStage is one pipeline stage in a job status document.
type JobStage struct {
	Stage     string  `json:"stage"`
	Outcome   string  `json:"outcome"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// jobPlacement is the Data of the "placement" SSE event: the placed
// geometry in design order, mirroring the json render format so SSE
// consumers and format=json consumers share one vocabulary.
type jobPlacement struct {
	Bounds  [4]int       `json:"bounds"` // minX, minY, maxX, maxY
	Modules []jsonModule `json:"modules"`
}

// jobAttempt is the Data of the "attempt" SSE event, opening one rung
// of the degradation ladder.
type jobAttempt struct {
	Name string `json:"name"`
}

// jobNet is the Data of one "net" SSE event: the net's outcome when the
// router's net loop routed it (route.Options.OnCommit), emitted
// strictly in routing order within its attempt.
type jobNet struct {
	Net      string   `json:"net"`
	Index    int      `json:"index"`
	Total    int      `json:"total"`
	Attempt  string   `json:"attempt"`
	OK       bool     `json:"ok"`
	Failed   []string `json:"failed,omitempty"`
	Segments [][4]int `json:"segments"`
}

// SubmitJob validates and enqueues one async generation job through
// the executor (exec.go). The ctx only carries submission-time values
// (the peer-hop marker); the job itself runs on a detached context
// bounded by the request's timeout budget, so it survives the
// submitting HTTP connection. Returned errors are *svcError: malformed
// requests fail synchronously with the same statuses the synchronous
// path would use, and a full job ring or worker queue sheds with 429.
func (s *Server) SubmitJob(ctx context.Context, req *Request) (*SubmitResponse, error) {
	c, err := s.admit(req)
	if err != nil {
		return nil, err
	}
	// The job context drops the HTTP request's cancellation (the
	// submitter may disconnect at once) but keeps its values and the
	// timeout budget the synchronous path would enforce. Its cancel
	// func doubles as the DELETE hook: explicit cancellation yields
	// context.Canceled, deadline expiry DeadlineExceeded, and settle
	// tells the two apart.
	jctx, jcancel := context.WithTimeout(context.WithoutCancel(ctx), s.timeout(req))
	j, err := s.jobs.Create(jcancel)
	if err != nil {
		jcancel()
		s.obs.Shed.Inc()
		return nil, &svcError{status: http.StatusTooManyRequests, msg: err.Error()}
	}
	wait, err := s.start(jctx, c, j)
	if err != nil {
		s.jobs.Remove(j.ID())
		jcancel()
		return nil, err
	}
	s.obs.JobsSubmitted.Inc()
	// The verdict drives the job's terminal transition; the terminal
	// counters ride on the manager's OnFinish hook.
	go func() {
		defer jcancel()
		resp, err := wait()
		var se *svcError
		switch {
		case err == nil:
			// The report event carries the complete response, so an
			// SSE-only consumer never needs the status endpoint;
			// Finish then appends the terminal state event and retains
			// the result for GET.
			j.Publish("report", resp)
			j.Finish(resp)
		case errors.As(err, &se):
			j.Fail(se.status, se.msg)
		default:
			j.FinishCanceled("canceled by client")
		}
	}()
	return &SubmitResponse{
		JobID:     j.ID(),
		Status:    string(jobs.StateQueued),
		StatusURL: jobStatusURL(j.ID()),
		StreamURL: jobStreamURL(j.ID()),
	}, nil
}

// jobProgress relays pipeline progress to the job's event log and
// live counters: the placed geometry, each ladder attempt, and each
// routed net in routing order.
func jobProgress(j *jobs.Job) gen.ProgressFunc {
	return func(ev gen.ProgressEvent) {
		switch ev.Kind {
		case gen.ProgressPlaced:
			j.SetProgress("route", 0, 0)
			pr := ev.Placement
			pl := jobPlacement{Bounds: [4]int{
				pr.Bounds.Min.X, pr.Bounds.Min.Y, pr.Bounds.Max.X, pr.Bounds.Max.Y}}
			for _, m := range pr.Design.Modules {
				pm, ok := pr.Mods[m]
				if !ok {
					continue
				}
				w, h := pm.Size()
				pl.Modules = append(pl.Modules, jsonModule{
					Name:     m.Name,
					Template: m.Template,
					X:        pm.Pos.X,
					Y:        pm.Pos.Y,
					W:        w,
					H:        h,
					Orient:   pm.Orient.String(),
				})
			}
			j.Publish("placement", pl)
		case gen.ProgressAttempt:
			j.Publish("attempt", jobAttempt{Name: ev.Attempt})
		case gen.ProgressNet:
			rn := ev.Net
			jn := jobNet{
				Net:      rn.Net.Name,
				Index:    ev.Index,
				Total:    ev.Total,
				Attempt:  ev.Attempt,
				OK:       rn.OK(),
				Segments: make([][4]int, 0, len(rn.Segments)),
			}
			for _, sg := range rn.Segments {
				jn.Segments = append(jn.Segments, [4]int{sg.A.X, sg.A.Y, sg.B.X, sg.B.Y})
			}
			for _, t := range rn.Failed {
				jn.Failed = append(jn.Failed, t.Label())
			}
			j.Publish("net", jn)
			j.SetProgress("route", ev.Index+1, ev.Total)
		}
	}
}

func jobStatusURL(id string) string { return "/v2/jobs/" + id }
func jobStreamURL(id string) string { return "/v2/jobs/" + id + "/events" }

// jobStatus builds the status document from the record plus — for
// running jobs — a live snapshot of the attached observer's span tree.
func (s *Server) jobStatus(j *jobs.Job) JobStatus {
	st := j.Status()
	doc := JobStatus{
		JobID:      st.ID,
		State:      string(st.State),
		Created:    st.Created.UTC().Format(time.RFC3339Nano),
		Events:     st.Events,
		Stage:      st.Stage,
		NetsRouted: st.NetsRouted,
		NetsTotal:  st.NetsTotal,
		Error:      st.Error,
		Code:       st.Code,
		StatusURL:  jobStatusURL(st.ID),
		StreamURL:  jobStreamURL(st.ID),
	}
	if !st.Started.IsZero() {
		doc.Started = st.Started.UTC().Format(time.RFC3339Nano)
	}
	if !st.Finished.IsZero() {
		doc.Finished = st.Finished.UTC().Format(time.RFC3339Nano)
	}
	if resp, ok := st.Result.(*ResponseV2); ok {
		doc.Result = resp
	}
	if o, ok := j.Attachment().(*obs.Observer); ok {
		if td := o.Snapshot(); td != nil && td.Root != nil {
			for _, sp := range td.Root.Children {
				doc.Stages = append(doc.Stages, JobStage{
					Stage:     sp.Stage,
					Outcome:   sp.Outcome,
					ElapsedMs: float64(sp.ElapsedUs) / 1000.0,
				})
			}
		}
	}
	return doc
}

// handleJobs is POST /v2/jobs: submit, answer 202 with the job id and
// the two URLs to observe it.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.SubmitJob(hopContext(r), &req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// handleJob is GET (status document) and DELETE (cancel, then the
// resulting status document) of /v2/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.Get(r.PathValue("id"))
	if j == nil {
		writeErrorStatus(w, http.StatusNotFound, "unknown job (expired, evicted, or never existed)")
		return
	}
	if r.Method == http.MethodDelete {
		j.Cancel()
	}
	writeJSON(w, http.StatusOK, s.jobStatus(j))
}

// handleJobEvents is GET /v2/jobs/{id}/events: the job's event log as
// an SSE stream — replayed from the start (or from Last-Event-ID+1 on
// reconnect), then followed live until the terminal state event. Each
// subscriber owns its cursor, so a slow or stalled client only delays
// itself; a disconnect ends this handler without touching the job.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.Get(r.PathValue("id"))
	if j == nil {
		writeErrorStatus(w, http.StatusNotFound, "unknown job (expired, evicted, or never existed)")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErrorStatus(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	from := 0
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if n, err := strconv.Atoi(lei); err == nil && n >= 0 {
			from = n + 1
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sub := j.SubscribeFrom(from)
	for {
		ev, err := sub.Next(r.Context())
		if err != nil {
			// ErrDone (stream complete) or the client went away.
			return
		}
		data, merr := json.Marshal(ev.Data)
		if merr != nil {
			data = []byte(`{}`)
		}
		if _, werr := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); werr != nil {
			return
		}
		fl.Flush()
	}
}
