package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netart/internal/service"
)

// seqHeader carries a traced request's stream position, so the timed
// handler can file its duration where the client finds it.
const seqHeader = "X-Perfbench-Seq"

// env is one running daemon: a service.Server behind its Handler() on
// a loopback listener, with one keep-alive client per configured
// client goroutine.
type env struct {
	srv     *service.Server
	hs      *http.Server
	served  chan struct{}
	url     string
	dir     string
	clients []*client
	// handlerNs holds, per stream position, the handler time of a traced
	// request (nil when untraced).
	handlerNs []atomic.Int64
}

type client struct {
	hc  *http.Client
	tr  *http.Transport
	buf bytes.Buffer
}

// newEnv builds the daemon and its clients. The store directory is
// created before the clock starts; everything after is set-up time.
func newEnv(w *workloadSpec, traced bool, streamLen int) (*env, error) {
	dir, err := os.MkdirTemp(scratchDir, "store-")
	if err != nil {
		return nil, err
	}
	cfg := w.config(dir)
	// A traced server checks every routing it computes with
	// route.VerifyEquivalence; a failed check is a 500.
	cfg.VerifyRouting = traced
	srv, err := service.NewServer(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e := &env{srv: srv, served: make(chan struct{}), url: "http://" + ln.Addr().String(), dir: dir}
	h := srv.Handler()
	if traced {
		e.handlerNs = make([]atomic.Int64, streamLen)
		h = e.timedHandler(h)
	}
	e.hs = &http.Server{Handler: h}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	for i := 0; i < w.clients; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		e.clients = append(e.clients, &client{hc: &http.Client{Transport: tr}, tr: tr})
	}
	return e, nil
}

// timedHandler records the time ServeHTTP takes for requests that
// carry a stream position.
func (e *env) timedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && seq >= 0 && seq < len(e.handlerNs) {
			e.handlerNs[seq].Store(int64(time.Since(t0)))
		}
	})
}

// close stops the listener and the daemon and removes its store.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx)
	<-e.served
	for _, c := range e.clients {
		c.tr.CloseIdleConnections()
	}
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// post sends one generate request; seq < 0 sends no stream position.
// The body stays valid until the client's next call.
func (e *env) post(c *client, body []byte, seq int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.url+"/v2/generate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if seq >= 0 {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// sendAll sends items over all clients, each taking the next item, and
// checks every response. onReply, when set, sees each good response.
func (e *env) sendAll(items []*item, preload bool, onReply func(*item, []byte)) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				status, body, err := e.post(c, it.body, -1)
				if err == nil {
					_, err = check(it, status, body, preload)
				}
				if err != nil {
					errOnce.Do(func() { first = err })
					return
				}
				if onReply != nil {
					onReply(it, body)
				}
			}
		}(c)
	}
	wg.Wait()
	return first
}

// setUp builds a daemon and brings it to the measured state: preload
// the hot set, then the fixed warm-up. It returns the set-up time.
func setUp(w *workloadSpec, in *inputs, traced bool, onPreload func(*item, []byte)) (*env, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	e, err := newEnv(w, traced, len(in.stream))
	if err != nil {
		return nil, 0, err
	}
	if err := e.sendAll(in.preload, true, onPreload); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	if err := e.sendAll(in.warmup, false, nil); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	d := time.Since(t0)
	runtime.GC()
	return e, d, nil
}

// sample is one timed request as the client saw it.
type sample struct {
	seq      int
	end      time.Duration // since the phase started
	rt       time.Duration
	ok       bool
	cached   bool
	unrouted int
}

// phase is the outcome of one timed phase.
type phase struct {
	samples []sample
	wall    time.Duration
	failed  int
	// Process counters over the phase.
	allocBytes uint64
	gcCycles   uint64
	gcPauseNs  uint64
	cpu        time.Duration
	stats      service.StatsResponse // server stats at the end of the phase
	statsStart service.StatsResponse
}

// runPhase drives the stream closed-loop from every client until the
// deadline. onSample, when set, runs on the client goroutine after
// each request, outside its round-trip time.
func (e *env) runPhase(in *inputs, seconds float64, onSample func(it *item, s *sample, body []byte)) *phase {
	p := &phase{statsStart: e.srv.Stats()}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cyclesBefore := gcCycles()
	cpuBefore := cpuTime()

	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		perClient = make([][]sample, len(e.clients))
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for ci, c := range e.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			var out []sample
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(in.stream) {
					break
				}
				it := in.stream[i]
				seq := -1
				if e.handlerNs != nil {
					seq = i
				}
				t0 := time.Now()
				status, body, err := e.post(c, it.body, seq)
				s := sample{seq: i, rt: time.Since(t0), end: time.Since(start)}
				if err == nil {
					var r *reply
					if r, err = check(it, status, body, false); err == nil {
						s.cached, s.unrouted = r.Cached, r.Unrouted
					}
				}
				s.ok = err == nil
				if !s.ok {
					noteFailure(err)
				} else if onSample != nil {
					onSample(it, &s, body)
				}
				out = append(out, s)
			}
			perClient[ci] = out
		}(ci, c)
	}
	wg.Wait()
	p.wall = time.Since(start)

	p.cpu = cpuTime() - cpuBefore
	p.gcCycles = gcCycles() - cyclesBefore
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	p.stats = e.srv.Stats()
	for _, out := range perClient {
		p.samples = append(p.samples, out...)
	}
	sort.Slice(p.samples, func(a, b int) bool { return p.samples[a].seq < p.samples[b].seq })
	for _, s := range p.samples {
		if !s.ok {
			p.failed++
		}
	}
	if int(next.Load()) >= len(in.stream) {
		fmt.Fprintf(os.Stderr, "perfbench: the stream of %d requests ran out before the deadline\n", len(in.stream))
	}
	return p
}

// failures keeps the first few failed checks for the report.
var (
	failMu   sync.Mutex
	failures []string
)

func noteFailure(err error) {
	failMu.Lock()
	defer failMu.Unlock()
	if len(failures) < 10 {
		failures = append(failures, err.Error())
	}
}

// latencies returns the sorted round-trip times of the good samples.
func latencies(samples []sample) []float64 {
	var ms []float64
	for _, s := range samples {
		if s.ok {
			ms = append(ms, float64(s.rt)/float64(time.Millisecond))
		}
	}
	sort.Float64s(ms)
	return ms
}

// minWindowSamples is the fewest requests a window may hold: p90 is
// valid only with at least 10 samples beyond it.
const minWindowSamples = 100

// endToEndSummary is the latency and throughput of one phase. The phase
// is cut by completion time into up to 10 windows of equal length,
// holding on average at least minWindowSamples requests each; each
// figure is the median over the windows of its value in each window, so
// a host stall shorter than half the phase does not move it.
func endToEndSummary(p *phase) map[string]float64 {
	n := len(p.samples)
	windows := min(10, n/minWindowSamples)
	if windows < 1 {
		windows = 1
	}
	width := p.wall / time.Duration(windows)
	split := make([][]sample, windows)
	for _, s := range p.samples {
		i := min(int(s.end/width), windows-1)
		split[i] = append(split[i], s)
	}
	var p50, p90, rps []float64
	for _, w := range split {
		lat := latencies(w)
		p50 = append(p50, percentile(lat, 0.5))
		p90 = append(p90, percentile(lat, 0.9))
		rps = append(rps, float64(len(w))/width.Seconds())
	}
	return map[string]float64{
		"requests":       float64(n),
		"windows":        float64(windows),
		"latency_p50_ms": median(p50),
		"latency_p90_ms": median(p90),
		"throughput_rps": median(rps),
	}
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// routedRatio is the share of nets routed over the distinct designs
// the phase's responses carried.
func (p *phase) routedRatio(in *inputs) float64 {
	seen := map[string]bool{}
	var nets, unrouted int
	for _, s := range p.samples {
		it := in.stream[s.seq]
		if !s.ok || seen[it.design] {
			continue
		}
		seen[it.design] = true
		nets += it.nets
		unrouted += s.unrouted
	}
	if nets == 0 {
		return 0
	}
	return 1 - float64(unrouted)/float64(nets)
}

// ---- process counters ----

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
