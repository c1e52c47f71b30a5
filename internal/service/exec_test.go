package service

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// This file tests the executor's one path (exec.go): whatever surface
// a request arrives on, admission answers the same verdicts before the
// queue and the outcome counters move the same way.

// TestBatchDoesNotShedItself: a full-size batch against two workers
// holds at most two queue slots at once, so no item is shed by its own
// siblings: every item succeeds on its first attempt and nothing is
// shed or retried.
func TestBatchDoesNotShedItself(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 0})
	batch := BatchRequest{Requests: make([]Request, maxBatchItems)}
	for i := range batch.Requests {
		batch.Requests[i] = Request{Workload: "fig61", Format: FormatSummary}
	}
	resp, body := postJSON(t, ts.URL+"/v2/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponseV2
	decode(t, body, &out)
	if len(out.Results) != maxBatchItems {
		t.Fatalf("%d results, want %d", len(out.Results), maxBatchItems)
	}
	for i, it := range out.Results {
		if it.Status != http.StatusOK || it.Attempts != 1 {
			t.Errorf("item %d: status %d after %d attempts (%s), want 200 after 1",
				i, it.Status, it.Attempts, it.Error)
		}
	}
	if st := s.Stats(); st.Shed != 0 || st.Retries != 0 {
		t.Errorf("shed %d, retries %d, want 0 and 0", st.Shed, st.Retries)
	}
}

// TestBadOptionsAnsweredBeforeQueue: with the lone worker wedged and
// the queue full, a request with a bad format or bad options still
// gets its 400, on the sync and the async surface alike, and is not
// counted as shed.
func TestBadOptionsAnsweredBeforeQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.testHook = func() { entered <- struct{}{}; <-release }
	defer close(release)

	// Wedge the worker with one job, fill the queue with another.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v2/jobs", Request{Workload: "fig61"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			<-entered
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.queued() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.pool.queued() < 1 {
		t.Fatal("the queued job never appeared")
	}

	for _, path := range []string{"/v2/generate", "/v2/jobs"} {
		for _, body := range []string{
			`{"workload":"fig61","format":"hologram"}`,
			`{"workload":"fig61","options":{"placer":"magic"}}`,
		} {
			resp, out := doRaw(t, http.MethodPost, ts.URL+path, body)
			checkEnvelope(t, resp, out, http.StatusBadRequest)
		}
	}
	if got := s.Stats().Shed; got != 0 {
		t.Errorf("shed %d, want 0: bad requests never reach the queue", got)
	}
}

// outcomeCounts is the slice of /v1/stats one request's verdict moves.
type outcomeCounts struct {
	Requests, OK, Failed, Rejected, Shed, Timeouts uint64
}

func outcomesOf(s *Server) outcomeCounts {
	st := s.Stats()
	return outcomeCounts{st.Requests, st.OK, st.Failed, st.Rejected, st.Shed, st.Timeouts}
}

func (a outcomeCounts) minus(b outcomeCounts) outcomeCounts {
	return outcomeCounts{a.Requests - b.Requests, a.OK - b.OK, a.Failed - b.Failed,
		a.Rejected - b.Rejected, a.Shed - b.Shed, a.Timeouts - b.Timeouts}
}

// TestOutcomeCountersAgree sends the same requests through
// /v2/generate, as a one-item /v2/batch and as a /v2/jobs job: a good
// one, a 400 and a 422 answered at admission, and a 400 and a 422
// answered on the worker. Each verdict must move the outcome counters
// the same way on all three paths.
func TestOutcomeCountersAgree(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxModules: 8})
	cases := []struct {
		name   string
		req    Request
		status int
		want   outcomeCounts
	}{
		{"ok", Request{Workload: "fig61", Format: FormatSummary}, 200,
			outcomeCounts{Requests: 1, OK: 1}},
		{"bad format", Request{Workload: "fig61", Format: "hologram"}, 400,
			outcomeCounts{Requests: 1, Failed: 1}},
		{"unknown workload", Request{Workload: "warp"}, 400,
			outcomeCounts{Requests: 1, Failed: 1}},
		{"chain cap", Request{Workload: "chain", ChainLength: 4096}, 422,
			outcomeCounts{Requests: 1, Rejected: 1}},
		{"module cap", Request{Workload: "chain", ChainLength: 64}, 422,
			outcomeCounts{Requests: 1, Rejected: 1}},
	}
	paths := map[string]func(t *testing.T, req Request) int{
		"generate": func(t *testing.T, req Request) int {
			resp, _ := postJSON(t, ts.URL+"/v2/generate", req)
			return resp.StatusCode
		},
		"batch": func(t *testing.T, req Request) int {
			resp, body := postJSON(t, ts.URL+"/v2/batch", BatchRequest{Requests: []Request{req}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch status %d: %s", resp.StatusCode, body)
			}
			var out BatchResponseV2
			decode(t, body, &out)
			return out.Results[0].Status
		},
		"jobs": func(t *testing.T, req Request) int {
			resp, body := postJSON(t, ts.URL+"/v2/jobs", req)
			if resp.StatusCode != http.StatusAccepted {
				return resp.StatusCode
			}
			var sub SubmitResponse
			decode(t, body, &sub)
			j := s.Jobs().Get(sub.JobID)
			select {
			case <-j.Done():
			case <-time.After(time.Minute):
				t.Fatal("job did not finish")
			}
			if code := s.jobStatus(j).Code; code != 0 {
				return code
			}
			return http.StatusOK
		},
	}
	for _, tc := range cases {
		for name, send := range paths {
			before := outcomesOf(s)
			if got := send(t, tc.req); got != tc.status {
				t.Errorf("%s via %s: status %d, want %d", tc.name, name, got, tc.status)
			}
			if got := outcomesOf(s).minus(before); got != tc.want {
				t.Errorf("%s via %s: counters moved %+v, want %+v", tc.name, name, got, tc.want)
			}
		}
	}
}

// TestRequestTimeoutInQueue: a deadline that expires while the request
// waits in the queue answers the same 504 on the sync and the async
// path, and counts one timeout each.
func TestRequestTimeoutInQueue(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.testHook = func() { entered <- struct{}{}; <-release }

	wedge, err := s.SubmitJob(context.Background(), &Request{Workload: "fig61"})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the worker is wedged: everything after this queues
	before := outcomesOf(s)
	errc := make(chan error, 1)
	go func() {
		_, err := s.GenerateV2(context.Background(), &Request{Workload: "fig61", TimeoutMs: 1})
		errc <- err
	}()
	sub, err := s.SubmitJob(context.Background(), &Request{Workload: "fig61", TimeoutMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.queued() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.pool.queued() < 2 {
		close(release)
		t.Fatal("the two 1 ms requests never queued")
	}
	time.Sleep(5 * time.Millisecond) // both 1 ms deadlines pass in the queue
	close(release)

	<-s.Jobs().Get(wedge.JobID).Done() // its OK is the only other move
	const msg = "deadline expired while queued"
	var se *svcError
	if err := <-errc; !errors.As(err, &se) || se.status != http.StatusGatewayTimeout || se.msg != msg {
		t.Errorf("sync: %v, want 504 %q", err, msg)
	}
	j := s.Jobs().Get(sub.JobID)
	<-j.Done()
	if st := s.jobStatus(j); st.Code != http.StatusGatewayTimeout || st.Error != msg {
		t.Errorf("job: %d %q, want 504 %q", st.Code, st.Error, msg)
	}
	if got := outcomesOf(s).minus(before); got != (outcomeCounts{Requests: 2, OK: 1, Timeouts: 2}) {
		t.Errorf("counters moved %+v, want 2 requests, 2 timeouts and the wedged job's ok", got)
	}
}
