package service

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"netart/internal/gen"
	"netart/internal/jobs"
	"netart/internal/workload"
)

// This file is the async-API acceptance battery: job artwork must be
// byte-identical to the synchronous /v2/generate result, SSE net
// events must arrive strictly in the router's routing order,
// and every lifecycle edge (cancel while queued, cancel mid-route,
// TTL eviction, SSE disconnect, restart against a disk store, fleet
// proxying, chaos) must resolve to a clean state.

// drainJob subscribes from the start of the job's event log and
// collects every event through the terminal state event.
func drainJob(t *testing.T, j *jobs.Job, timeout time.Duration) []jobs.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var out []jobs.Event
	sub := j.Subscribe()
	for {
		ev, err := sub.Next(ctx)
		if err == jobs.ErrDone {
			return out
		}
		if err != nil {
			t.Fatalf("draining events after %d: %v", len(out), err)
		}
		out = append(out, ev)
	}
}

// submitAndDrain runs one request through the async path end to end.
func submitAndDrain(t *testing.T, s *Server, req *Request) (*jobs.Job, []jobs.Event) {
	t.Helper()
	sub, err := s.SubmitJob(context.Background(), req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j := s.Jobs().Get(sub.JobID)
	if j == nil {
		t.Fatalf("job %s vanished right after submit", sub.JobID)
	}
	return j, drainJob(t, j, 5*time.Minute)
}

// netEvents extracts the "net" event payloads in log order.
func netEvents(events []jobs.Event) []jobNet {
	var out []jobNet
	for _, ev := range events {
		if ev.Type == "net" {
			out = append(out, ev.Data.(jobNet))
		}
	}
	return out
}

func reportOf(t *testing.T, events []jobs.Event) *ResponseV2 {
	t.Helper()
	for _, ev := range events {
		if ev.Type == "report" {
			return ev.Data.(*ResponseV2)
		}
	}
	t.Fatal("no report event in the job stream")
	return nil
}

// TestJobMatchesSyncAcrossCorpus is the tentpole identity check: for
// every golden-corpus workload, the artwork a job streams and stores
// is byte-identical to what the synchronous /v2/generate path serves
// for the same request, and the event log is well-formed — one
// placement before any net, per-attempt net indices strictly
// increasing from zero, report before the terminal state event.
func TestJobMatchesSyncAcrossCorpus(t *testing.T) {
	s := New(Config{Workers: 2,
		DefaultTimeout: 5 * time.Minute, MaxTimeout: 5 * time.Minute})
	defer s.Close()

	names := []string{"fig61", "quickstart", "datapath"}
	if !testing.Short() {
		names = append(names, "cpu", "life")
	}
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			req := &Request{Workload: w, Format: FormatJSON}
			if w == "life" {
				// Figure 6.7 spacing: the dense LIFE fabric needs it.
				req.Options = GenOptions{PartSize: 5, BoxSize: 5,
					ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}
			}
			sync, err := s.GenerateV2(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}

			j, events := submitAndDrain(t, s, req)
			if got := j.State(); got != jobs.StateDone {
				t.Fatalf("terminal state %q, want done", got)
			}

			// Log shape: state(running) first, state(done) last.
			if len(events) < 4 {
				t.Fatalf("only %d events for a computed job", len(events))
			}
			first, last := events[0], events[len(events)-1]
			if first.Type != "state" || first.Data.(jobs.StateChange).State != jobs.StateRunning {
				t.Errorf("first event %q %+v, want state running", first.Type, first.Data)
			}
			if last.Type != "state" || last.Data.(jobs.StateChange).State != jobs.StateDone {
				t.Errorf("last event %q %+v, want state done", last.Type, last.Data)
			}
			for i, ev := range events {
				if ev.Seq != i {
					t.Fatalf("event %d carries seq %d", i, ev.Seq)
				}
			}

			// Placement precedes every net event; nets commit strictly
			// in order within their attempt.
			placedAt, firstNetAt := -1, -1
			lastIdx, lastAttempt := -1, ""
			for i, ev := range events {
				switch ev.Type {
				case "placement":
					placedAt = i
				case "net":
					if firstNetAt < 0 {
						firstNetAt = i
					}
					jn := ev.Data.(jobNet)
					if jn.Attempt != lastAttempt {
						lastAttempt, lastIdx = jn.Attempt, -1
					}
					if jn.Index != lastIdx+1 {
						t.Fatalf("attempt %q: net %q at index %d after %d — commit order broken",
							jn.Attempt, jn.Net, jn.Index, lastIdx)
					}
					lastIdx = jn.Index
				}
			}
			if placedAt < 0 {
				t.Fatal("no placement event")
			}
			if firstNetAt >= 0 && firstNetAt < placedAt {
				t.Fatal("net event before the placement event")
			}

			// Identity: the streamed report, the retained result and the
			// synchronous response all carry the same artwork bytes.
			rep := reportOf(t, events)
			res, ok := j.Result().(*ResponseV2)
			if !ok {
				t.Fatalf("job result is %T", j.Result())
			}
			if rep != res {
				t.Error("report event and retained result diverge")
			}
			if rep.Diagram != sync.Diagram {
				t.Errorf("job artwork differs from /v2/generate for %s", w)
			}
			if rep.CacheKey != sync.CacheKey {
				t.Errorf("cache key drift: job %s vs sync %s", rep.CacheKey, sync.CacheKey)
			}
			if rep.Metrics != sync.Metrics || rep.Unrouted != sync.Unrouted {
				t.Errorf("metrics drift: job %+v vs sync %+v", rep.Metrics, sync.Metrics)
			}
		})
	}
}

// TestJobNetOrderCanonical pins the stream order to the pipeline's own
// routing order: the reference is gen.Run with a Progress hook, and the
// job must stream the same net sequence for the same request.
func TestJobNetOrderCanonical(t *testing.T) {
	opts, err := (GenOptions{}).resolve()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	opts.Progress = func(ev gen.ProgressEvent) {
		if ev.Kind == gen.ProgressNet {
			want = append(want, ev.Net.Net.Name)
		}
	}
	if _, err := gen.Run(context.Background(), workload.Datapath16(), opts); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference run emitted no net events")
	}

	s := New(Config{Workers: 2})
	defer s.Close()
	_, events := submitAndDrain(t, s, &Request{Workload: "datapath"})
	var got []string
	for _, jn := range netEvents(events) {
		got = append(got, jn.Net)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("stream order %v, want %v", got, want)
	}
}

// TestJobCancelWhileQueued wedges the single worker, queues a second
// job behind it, and cancels the queued one over HTTP DELETE: the
// queued job must flip to canceled immediately, never start, and the
// wedged job must still complete once released.
func TestJobCancelWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHook = func() { entered <- struct{}{}; <-release }
	defer close(release)

	resp, body := postJSON(t, ts.URL+"/v2/jobs", Request{Workload: "fig61"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %d %s", resp.StatusCode, body)
	}
	var subA SubmitResponse
	decode(t, body, &subA)
	<-entered // A is running and wedged on the hook.

	resp, body = postJSON(t, ts.URL+"/v2/jobs", Request{Workload: "fig61"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %d %s", resp.StatusCode, body)
	}
	var subB SubmitResponse
	decode(t, body, &subB)
	if st := s.Jobs().Get(subB.JobID).State(); st != jobs.StateQueued {
		t.Fatalf("job B state %q, want queued behind the wedged worker", st)
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+subB.StatusURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d %s", dresp.StatusCode, dbody)
	}
	var stB JobStatus
	decode(t, dbody, &stB)
	if stB.State != string(jobs.StateCanceled) {
		t.Fatalf("canceled-while-queued job reports %q", stB.State)
	}

	// Release the worker: A completes, B must never transition again.
	release <- struct{}{}
	jA := s.Jobs().Get(subA.JobID)
	select {
	case <-jA.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job A did not finish after release")
	}
	if st := jA.State(); st != jobs.StateDone {
		t.Fatalf("job A terminal state %q, want done", st)
	}
	if st := s.Jobs().Get(subB.JobID).State(); st != jobs.StateCanceled {
		t.Fatalf("job B state drifted to %q after cancel", st)
	}
	js := s.Stats().Jobs
	if js == nil || js.Done != 1 || js.Canceled != 1 {
		t.Errorf("job stats %+v, want done=1 canceled=1", js)
	}
}

// TestJobCancelMidRoute cancels a LIFE job after its first committed
// net: the cancellation must propagate through the wavefront loops,
// unwind as canceled (not failed), and close the event stream with a
// terminal state event.
func TestJobCancelMidRoute(t *testing.T) {
	if testing.Short() {
		t.Skip("LIFE routing is expensive")
	}
	s := New(Config{Workers: 1,
		DefaultTimeout: 5 * time.Minute, MaxTimeout: 5 * time.Minute})
	defer s.Close()

	sub, err := s.SubmitJob(context.Background(), &Request{
		Workload: "life",
		Options: GenOptions{PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := s.Jobs().Get(sub.JobID)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	events := j.Subscribe()
	canceled := false
	for {
		ev, err := events.Next(ctx)
		if err == jobs.ErrDone {
			break
		}
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if ev.Type == "net" && !canceled {
			canceled = true
			j.Cancel()
		}
	}
	if !canceled {
		t.Fatal("stream finished before any net event — nothing was canceled mid-route")
	}
	if st := j.State(); st != jobs.StateCanceled {
		t.Fatalf("terminal state %q, want canceled", st)
	}
	doc := s.jobStatus(j)
	if doc.Error != "canceled by client" {
		t.Errorf("status error %q", doc.Error)
	}
	if doc.Result != nil {
		t.Error("canceled job retained a result")
	}
}

// TestJobTTLEviction: terminal jobs expire after JobsTTL and later
// lookups answer 404; live jobs are untouched by the sweep.
func TestJobTTLEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobsTTL: 10 * time.Millisecond})

	j, _ := submitAndDrain(t, s, &Request{Workload: "fig61"})
	id := j.ID()
	deadline := time.Now().Add(5 * time.Second)
	for s.Jobs().Get(id) != nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Jobs().Get(id) != nil {
		t.Fatal("terminal job survived its TTL")
	}
	resp, body := getJSON(t, ts.URL+jobStatusURL(id))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired job status %d: %s", resp.StatusCode, body)
	}
	if js := s.Stats().Jobs; js == nil || js.Evicted == 0 {
		t.Errorf("eviction not counted: %+v", js)
	}
}

// TestJobSSEDisconnect: a client that opens the SSE stream and drops
// mid-run must not block the publisher or the worker — the job runs
// to completion and the full event log is retained for re-reads.
func TestJobSSEDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHook = func() { entered <- struct{}{}; <-release }
	defer close(release)

	resp, body := postJSON(t, ts.URL+"/v2/jobs", Request{Workload: "fig61"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	decode(t, body, &sub)
	<-entered // wedged mid-run: the stream below is live, not a replay

	sctx, scancel := context.WithCancel(context.Background())
	sreq, err := http.NewRequestWithContext(sctx, http.MethodGet, ts.URL+sub.StreamURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	// Read the first frame (state running), then vanish.
	br := bufio.NewReader(sresp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "id: 0") {
		t.Fatalf("first frame line %q (%v)", line, err)
	}
	scancel()
	sresp.Body.Close()

	release <- struct{}{}
	j := s.Jobs().Get(sub.JobID)
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish after SSE disconnect")
	}
	if st := j.State(); st != jobs.StateDone {
		t.Fatalf("terminal state %q, want done", st)
	}
	// The full log survived the disconnect and replays over HTTP.
	frames := readSSE(t, ts.URL+sub.StreamURL, "")
	if len(frames) < 4 {
		t.Fatalf("replay after disconnect holds %d frames", len(frames))
	}
	if last := frames[len(frames)-1]; last.event != "state" || !strings.Contains(last.data, "done") {
		t.Errorf("replay ends with %q %q, want terminal state done", last.event, last.data)
	}
}

// sseFrame is one parsed Server-Sent-Events frame.
type sseFrame struct {
	id    int
	event string
	data  string
}

// readSSE reads one SSE stream to completion. lastEventID, when
// non-empty, is sent as the Last-Event-ID resume header.
func readSSE(t *testing.T, url, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var frames []sseFrame
	cur := sseFrame{id: -1}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{id: -1}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(line[4:])
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	return frames
}

// TestJobSSEResume checks the Last-Event-ID contract over real HTTP:
// a full read, then a resume from midway that must replay exactly the
// suffix with contiguous ids.
func TestJobSSEResume(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v2/jobs", Request{Workload: "fig61"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	decode(t, body, &sub)

	full := readSSE(t, ts.URL+sub.StreamURL, "")
	if len(full) < 4 {
		t.Fatalf("full stream holds %d frames", len(full))
	}
	for i, f := range full {
		if f.id != i {
			t.Fatalf("frame %d has id %d", i, f.id)
		}
	}
	if f := full[len(full)-1]; f.event != "state" || !strings.Contains(f.data, `"done"`) {
		t.Fatalf("stream ends with %q %q", f.event, f.data)
	}
	var kinds []string
	for _, f := range full {
		kinds = append(kinds, f.event)
	}
	order := strings.Join(kinds, ",")
	if !strings.HasPrefix(order, "state,placement,attempt,net") ||
		!strings.HasSuffix(order, "net,report,state") {
		t.Errorf("event order %s", order)
	}

	// Resume after frame 1: replay starts at id 2.
	tail := readSSE(t, ts.URL+sub.StreamURL, "1")
	if len(tail) != len(full)-2 {
		t.Fatalf("resume replayed %d frames, want %d", len(tail), len(full)-2)
	}
	for i, f := range tail {
		if f.id != i+2 || f.event != full[i+2].event || f.data != full[i+2].data {
			t.Fatalf("resumed frame %d diverges: %+v vs %+v", i, f, full[i+2])
		}
	}
}

// TestJobLadderStreamsPlacement: a degradation-ladder rung re-places,
// so the stream sends its placement before the rung's attempt opens and
// a client never draws a rung's nets over the previous geometry. Every
// wavefront search fails, so the climb runs every rung.
func TestJobLadderStreamsPlacement(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Inject: mustInjector(t, "route.wavefront:error:1", 7)})
	resp, body := postJSON(t, ts.URL+"/v2/jobs", Request{Workload: "datapath",
		Options: GenOptions{DegradeMode: "best-effort"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	decode(t, body, &sub)

	var seq []string
	var areas []int
	for _, f := range readSSE(t, ts.URL+sub.StreamURL, "") {
		switch f.event {
		case "placement":
			var pl jobPlacement
			decode(t, []byte(f.data), &pl)
			seq = append(seq, "placement")
			areas = append(areas, (pl.Bounds[2]-pl.Bounds[0])*(pl.Bounds[3]-pl.Bounds[1]))
		case "attempt":
			var at jobAttempt
			decode(t, []byte(f.data), &at)
			seq = append(seq, at.Name)
		}
	}
	want := []string{"placement", "route[line-expansion]", "placement", "place[part-spacing+1]",
		"placement", "place[spacing+1]", "placement", "place[spacing+2]"}
	if strings.Join(seq, ",") != strings.Join(want, ",") {
		t.Fatalf("placement/attempt sequence %v, want %v", seq, want)
	}
	for i := 1; i < len(areas); i++ {
		if areas[i] <= areas[i-1] {
			t.Errorf("placement %d spans %d points, not wider than the %d before it", i, areas[i], areas[i-1])
		}
	}
}

// TestJobRestartServedFromStore: a job result written through the
// disk store survives a restart — resubmitting the same request to a
// fresh server answers from the store, byte-identical and without
// recomputation (no net events).
func TestJobRestartServedFromStore(t *testing.T) {
	cfg := Config{Workers: 1, CacheEntries: 8,
		StoreBackend: "tiered", StoreDir: t.TempDir()}

	s1 := New(cfg)
	req := &Request{Workload: "fig61", Format: FormatJSON}
	_, events1 := submitAndDrain(t, s1, req)
	first := reportOf(t, events1)
	if first.Cached {
		t.Fatal("first job reported cached")
	}
	s1.Close()

	s2 := New(cfg)
	defer s2.Close()
	_, events2 := submitAndDrain(t, s2, req)
	revived := reportOf(t, events2)
	if !revived.Cached {
		t.Fatal("restarted server recomputed instead of serving the stored job result")
	}
	if nets := netEvents(events2); len(nets) != 0 {
		t.Errorf("store-served job streamed %d net events, want 0", len(nets))
	}
	if a, b := normalizeResp(t, first), normalizeResp(t, revived); string(a) != string(b) {
		t.Fatalf("artwork changed across restart:\n%s\n%s", a, b)
	}
}

// TestJobFleetProxied: in a 3-replica fleet, a job submitted to any
// replica computes on the key's rendezvous owner — the two non-owner
// replicas proxy — and every replica's job serves identical artwork.
func TestJobFleetProxied(t *testing.T) {
	reps := startFleet(t, 3, Config{Workers: 2, CacheEntries: 64})

	var diagrams, keys []string
	for ri, r := range reps {
		resp, body := postJSON(t, r.url+"/v2/jobs",
			Request{Workload: "fig61", Format: FormatSummary})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("replica %d submit: %d %s", ri, resp.StatusCode, body)
		}
		var sub SubmitResponse
		decode(t, body, &sub)

		var doc JobStatus
		deadline := time.Now().Add(30 * time.Second)
		for {
			sresp, sbody := getJSON(t, r.url+sub.StatusURL)
			if sresp.StatusCode != http.StatusOK {
				t.Fatalf("replica %d status: %d %s", ri, sresp.StatusCode, sbody)
			}
			decode(t, sbody, &doc)
			if jobs.State(doc.State).Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d job stuck in %q", ri, doc.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if doc.State != string(jobs.StateDone) {
			t.Fatalf("replica %d job ended %q: %s", ri, doc.State, doc.Error)
		}
		if doc.Result == nil {
			t.Fatalf("replica %d done job carries no result", ri)
		}
		diagrams = append(diagrams, doc.Result.Diagram)
		keys = append(keys, doc.Result.CacheKey)
	}
	for i := 1; i < 3; i++ {
		if diagrams[i] != diagrams[0] || keys[i] != keys[0] {
			t.Fatalf("replica %d served different artwork for the same job request", i)
		}
	}
	// Exactly the two non-owner replicas proxy. The owner's own job may
	// be a plain cache hit (an earlier proxied compute already filled
	// its cache), so PeerSelf is 1 only when the owner was asked first.
	var self, proxied uint64
	for _, r := range reps {
		s, p, _, _ := peerOutcomes(r.srv)
		self += s
		proxied += p
	}
	if proxied != 2 || self > 1 {
		t.Errorf("fleet outcomes self=%d proxied=%d, want 2 proxies and at most 1 owner compute", self, proxied)
	}
}

// TestChaosJobsSSE is the async chaos gate: with faults armed at every
// pipeline site, the job HTTP surface must never answer anything but
// 202/429 on submit and 200 on status and SSE — pipeline failures
// become failed *job states*, not 5xx responses — and every accepted
// job must reach a terminal state with a complete event stream.
func TestChaosJobsSSE(t *testing.T) {
	inj := mustInjector(t,
		"parse:error:0.10;place.box:panic:0.02;route.wavefront:error:0.05;"+
			"render:panic:0.05;parse:latency:0.10:2ms", 43)
	s, ts := newTestServer(t, Config{
		Workers:       4,
		QueueDepth:    64,
		Inject:        inj,
		DegradeMode:   gen.DegradeBestEffort,
		VerifyRouting: true,
	})

	workloads := []string{"fig61", "chain", "datapath"}
	formats := []string{"summary", "ascii", "json", "svg"}
	type outcome struct {
		submit int
		state  string
		code   int
	}
	results := make(chan outcome, 40)
	for i := 0; i < 40; i++ {
		go func(i int) {
			// A helper Fatal inside this goroutine exits via Goexit; the
			// deferred send keeps the collector loop from starving.
			out := outcome{submit: -1}
			defer func() { results <- out }()
			req := Request{
				Workload:    workloads[i%len(workloads)],
				ChainLength: 4 + i%8,
				Format:      formats[i%len(formats)],
				TimeoutMs:   10000,
			}
			resp, body := postJSON(t, ts.URL+"/v2/jobs", req)
			if resp.StatusCode != http.StatusAccepted {
				out = outcome{submit: resp.StatusCode}
				return
			}
			var sub SubmitResponse
			decode(t, body, &sub)
			// Stream to completion: the stream itself must be clean 200
			// even when the job inside fails.
			frames := readSSE(t, ts.URL+sub.StreamURL, "")
			if len(frames) == 0 {
				t.Errorf("job %d: empty SSE stream", i)
			}
			sresp, sbody := getJSON(t, ts.URL+sub.StatusURL)
			if sresp.StatusCode != http.StatusOK {
				t.Errorf("job %d: status endpoint %d: %s", i, sresp.StatusCode, sbody)
			}
			var doc JobStatus
			decode(t, sbody, &doc)
			out = outcome{submit: http.StatusAccepted, state: doc.State, code: doc.Code}
		}(i)
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		out := <-results
		switch out.submit {
		case -1:
			continue // helper already reported the failure
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			counts["shed"]++
			continue
		default:
			t.Errorf("submit answered %d — the async surface leaked a non-shed error", out.submit)
			continue
		}
		counts[out.state]++
		switch jobs.State(out.state) {
		case jobs.StateDone:
		case jobs.StateFailed:
			if out.code != 500 && out.code != 504 && out.code != 422 {
				t.Errorf("failed job carries code %d", out.code)
			}
		default:
			t.Errorf("job ended in state %q", out.state)
		}
	}
	t.Logf("chaos jobs: %v (panics=%d)", counts, s.Stats().Panics)
	if counts[string(jobs.StateDone)] == 0 {
		t.Error("no job survived chaos — injector drowned the battery")
	}
}
