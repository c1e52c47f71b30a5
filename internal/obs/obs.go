// Package obs is the zero-dependency observability layer of the
// netlist→schematic pipeline: per-request span trees (stage tracing),
// lock-free counters/gauges/histograms, and a Prometheus-text
// exposition handler.
//
// The package follows the nil-injector discipline established by
// internal/resilience: every method on *Observer and *Span is safe on
// a nil receiver and the disabled path is allocation-free, so the
// pipeline threads one observer pointer unconditionally and pays one
// pointer compare per stage when observability is off (guarded by
// BenchmarkObserverDisabled; see ci.sh).
//
// Span model (documented in DESIGN.md "Observability"): one request
// produces one Trace whose root span is named by the entry point
// ("request" in netartd, "generate" in the CLIs). The pipeline stages
// hang directly off the root in execution order — parse, place, route,
// render — and every escalation rung of the degradation ladder is a
// child of route named "route.attempt". Spans carry integer/string
// attributes (partitions, boxes, wavefront searches, rip-up attempts,
// …), a wall-clock duration, and an outcome: ok, error, panic, or
// degraded.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Outcome values of a finished span.
const (
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomePanic    = "panic"
	OutcomeDegraded = "degraded"
)

// Observer is the handle threaded through the pipeline. It couples an
// optional metric sink (per-stage latency histograms; see Pipeline)
// with an optional span recorder. Both halves are independent: the
// service observes metrics and traces, the CLIs trace only, and a nil
// *Observer disables everything at zero allocation cost.
type Observer struct {
	m     *Pipeline
	trace *Trace
}

// NewObserver builds an observer. m, when non-nil, receives one
// histogram observation per finished stage span; rootName, when
// non-empty, starts a trace whose root span is already running.
func NewObserver(m *Pipeline, rootName string) *Observer {
	o := &Observer{m: m}
	if rootName != "" {
		o.trace = newTrace(rootName)
	}
	return o
}

// TraceID returns the request's trace identifier, or "" when tracing
// is disabled.
func (o *Observer) TraceID() string {
	if o == nil || o.trace == nil {
		return ""
	}
	return o.trace.id
}

// StartSpan opens a span named name as a child of the innermost open
// span. It returns nil — and allocates nothing — when the observer is
// nil or records neither metrics nor traces.
func (o *Observer) StartSpan(name string) *Span {
	if o == nil || (o.trace == nil && o.m == nil) {
		return nil
	}
	sp := &Span{obs: o, name: name, start: time.Now(), outcome: OutcomeOK}
	if o.trace != nil {
		o.trace.push(sp)
	}
	return sp
}

// Snapshot closes the root span (duration = time since the trace
// started) and returns the JSON-ready span tree, or nil when tracing
// is disabled. It may be called more than once; later calls refresh
// the root duration.
func (o *Observer) Snapshot() *TraceData {
	if o == nil || o.trace == nil {
		return nil
	}
	return o.trace.snapshot()
}

// Span is one timed pipeline stage. All methods are nil-safe no-ops so
// disabled observability costs only the pointer compare. When the span
// belongs to a trace, every mutation (attributes, outcome, end) runs
// under the trace mutex, so Observer.Snapshot may be called at any
// point of a live run — the async job API serves mid-run status
// documents from exactly such snapshots. Without a trace (metric-only
// observers) no lock is taken and no snapshot exists to race.
type Span struct {
	obs     *Observer
	name    string
	start   time.Time
	dur     time.Duration
	outcome string
	errMsg  string
	attrs   []Attr
	child   []*Span
	ended   bool
}

// Attr is one span attribute. Exactly one of Int/Str is meaningful,
// discriminated by IsStr.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// traceOf returns the trace whose mutex guards this span's fields, or
// nil for metric-only spans (single-goroutine, never snapshotted).
func (s *Span) traceOf() *Trace {
	if s.obs == nil {
		return nil
	}
	return s.obs.trace
}

// SetAttr records an integer attribute (counts: partitions, boxes,
// wavefront searches, …).
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	if tr := s.traceOf(); tr != nil {
		tr.mu.Lock()
		defer tr.mu.Unlock()
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
}

// SetAttrString records a string attribute (configuration names).
func (s *Span) SetAttrString(key, v string) {
	if s == nil {
		return
	}
	if tr := s.traceOf(); tr != nil {
		tr.mu.Lock()
		defer tr.mu.Unlock()
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, IsStr: true})
}

// Degrade marks the span's outcome as degraded (a kept partial
// result) without ending it.
func (s *Span) Degrade() {
	if s == nil {
		return
	}
	if tr := s.traceOf(); tr != nil {
		tr.mu.Lock()
		defer tr.mu.Unlock()
	}
	s.outcome = OutcomeDegraded
}

// End closes the span with its current outcome (ok unless Degrade was
// called), records the duration, and feeds the stage histogram when a
// metric sink is attached.
func (s *Span) End() { s.end("", "") }

// EndError closes the span with outcome error (or panic when the
// error chain carries a recovered panic marker; see EndPanic) and
// remembers the rendered error.
func (s *Span) EndError(err error) {
	if s == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.end(OutcomeError, msg)
}

// EndPanic closes the span with outcome panic.
func (s *Span) EndPanic(cause any) {
	if s == nil {
		return
	}
	s.end(OutcomePanic, fmt.Sprint(cause))
}

func (s *Span) end(outcome, errMsg string) {
	if s == nil {
		return
	}
	tr := s.traceOf()
	if tr != nil {
		tr.mu.Lock()
	}
	if s.ended {
		if tr != nil {
			tr.mu.Unlock()
		}
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if outcome != "" {
		s.outcome = outcome
	}
	s.errMsg = errMsg
	if tr != nil {
		// Pop this span — and anything opened after it that a recovered
		// panic abandoned without an End — from the open stack, under
		// the same lock that made the field writes above visible.
		for i := len(tr.stack) - 1; i > 0; i-- {
			if tr.stack[i] == s {
				tr.stack = tr.stack[:i]
				break
			}
		}
		tr.mu.Unlock()
	}
	if s.obs != nil && s.obs.m != nil {
		s.obs.m.StageObserve(s.name, s.dur)
	}
}

// Trace is one request's span tree. The pipeline runs a request on a
// single goroutine, but the mutex guards every span mutation so
// concurrent readers (a stats scrape, or a job-status snapshot taken
// mid-run) always see a coherent tree.
type Trace struct {
	id    string
	start time.Time
	root  *Span
	mu    sync.Mutex
	stack []*Span // open spans, root first
}

func newTrace(rootName string) *Trace {
	t := &Trace{id: newTraceID(), start: time.Now()}
	t.root = &Span{name: rootName, start: t.start, outcome: OutcomeOK}
	t.stack = []*Span{t.root}
	return t
}

// NewTraceID returns a fresh trace identifier. The service stamps it
// on error responses that never reached the traced pipeline, so every
// non-2xx answer still carries a correlation id.
func NewTraceID() string { return newTraceID() }

// newTraceID returns 16 hex characters of crypto randomness (falling
// back to a time-derived ID if the entropy pool fails, which the Go
// runtime treats as impossible).
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

func (t *Trace) push(sp *Span) {
	t.mu.Lock()
	parent := t.stack[len(t.stack)-1]
	parent.child = append(parent.child, sp)
	t.stack = append(t.stack, sp)
	t.mu.Unlock()
}

func (t *Trace) snapshot() *TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.dur = time.Since(t.start)
	t.root.ended = true
	return &TraceData{TraceID: t.id, Root: snapshotSpan(t.root)}
}

// TraceData is the JSON-ready form of a finished trace, served in the
// /v2 "trace" response field and printed by the CLIs' -trace flag.
type TraceData struct {
	TraceID string    `json:"trace_id"`
	Root    *SpanData `json:"root"`
}

// SpanData is the JSON-ready form of one span.
type SpanData struct {
	Stage     string         `json:"stage"`
	ElapsedUs int64          `json:"elapsed_us"`
	Outcome   string         `json:"outcome"`
	Error     string         `json:"error,omitempty"`
	Attrs     map[string]any `json:"attrs,omitempty"`
	Children  []*SpanData    `json:"children,omitempty"`
}

func snapshotSpan(s *Span) *SpanData {
	d := &SpanData{
		Stage:     s.name,
		ElapsedUs: s.dur.Microseconds(),
		Outcome:   s.outcome,
		Error:     s.errMsg,
	}
	if !s.ended {
		d.ElapsedUs = time.Since(s.start).Microseconds()
		d.Outcome = "open"
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			if a.IsStr {
				d.Attrs[a.Key] = a.Str
			} else {
				d.Attrs[a.Key] = a.Int
			}
		}
	}
	for _, c := range s.child {
		d.Children = append(d.Children, snapshotSpan(c))
	}
	return d
}

// Find returns the first span in the tree (pre-order) named stage, or
// nil.
func (t *TraceData) Find(stage string) *SpanData {
	if t == nil {
		return nil
	}
	return t.Root.find(stage)
}

// Elapsed is the span's wall time; a nil span (a stage Find did not
// find) reads as zero.
func (s *SpanData) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.ElapsedUs) * time.Microsecond
}

func (s *SpanData) find(stage string) *SpanData {
	if s == nil {
		return nil
	}
	if s.Stage == stage {
		return s
	}
	for _, c := range s.Children {
		if m := c.find(stage); m != nil {
			return m
		}
	}
	return nil
}

// FormatTree renders the span tree as indented text for terminal
// output (netart -trace):
//
//	request 12.3ms ok
//	  parse 0.2ms ok
//	  place 3.1ms ok partitions=4 boxes=9
//	  ...
func FormatTree(t *TraceData) string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", t.TraceID)
	formatSpan(&b, t.Root, 0)
	return b.String()
}

func formatSpan(b *strings.Builder, s *SpanData, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %.3fms %s", s.Stage, float64(s.ElapsedUs)/1000.0, s.Outcome)
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%v", k, s.Attrs[k])
		}
	}
	if s.Error != "" {
		fmt.Fprintf(b, " error=%q", s.Error)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		formatSpan(b, c, depth+1)
	}
}
