package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	o := NewObserver(nil, "request")
	if o.TraceID() == "" {
		t.Fatal("traced observer has empty trace id")
	}

	parse := o.StartSpan("parse")
	parse.SetAttr("bytes", 128)
	parse.End()

	routeSp := o.StartSpan("route")
	att := o.StartSpan("route.attempt")
	att.SetAttrString("config", "line-expansion")
	att.End()
	att2 := o.StartSpan("route.attempt")
	att2.SetAttrString("config", "place[spacing+1]")
	att2.EndError(errors.New("boom"))
	routeSp.SetAttr("searches", 42)
	routeSp.End()

	td := o.Snapshot()
	if td == nil {
		t.Fatal("nil snapshot from traced observer")
	}
	if td.Root.Stage != "request" {
		t.Fatalf("root stage = %q, want request", td.Root.Stage)
	}
	if len(td.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (parse, route)", len(td.Root.Children))
	}
	rt := td.Find("route")
	if rt == nil {
		t.Fatal("route span missing")
	}
	if len(rt.Children) != 2 {
		t.Fatalf("route children = %d, want 2 nested attempts", len(rt.Children))
	}
	if rt.Attrs["searches"] != int64(42) {
		t.Fatalf("route searches attr = %v, want 42", rt.Attrs["searches"])
	}
	if got := rt.Children[1].Outcome; got != OutcomeError {
		t.Fatalf("failed attempt outcome = %q, want error", got)
	}
	if rt.Children[1].Error != "boom" {
		t.Fatalf("failed attempt error = %q", rt.Children[1].Error)
	}
	if td.Find("parse").Attrs["bytes"] != int64(128) {
		t.Fatal("parse attr lost")
	}
}

func TestSpanPanicAndDegradedOutcomes(t *testing.T) {
	o := NewObserver(nil, "generate")

	place := o.StartSpan("place")
	// A recovered panic ends the stage through EndPanic; a child span
	// opened before the panic never ends — pop-through must keep the
	// stack coherent so later stages still attach to the root.
	_ = o.StartSpan("place.partition")
	place.EndPanic("index out of range")

	route := o.StartSpan("route")
	route.Degrade()
	route.End()

	td := o.Snapshot()
	if got := td.Find("place").Outcome; got != OutcomePanic {
		t.Fatalf("place outcome = %q, want panic", got)
	}
	if !strings.Contains(td.Find("place").Error, "index out of range") {
		t.Fatalf("place error = %q", td.Find("place").Error)
	}
	rt := td.Find("route")
	if rt.Outcome != OutcomeDegraded {
		t.Fatalf("route outcome = %q, want degraded", rt.Outcome)
	}
	// route must be a child of the root, not of the abandoned
	// place.partition span.
	for _, c := range td.Root.Children {
		if c.Stage == "route" {
			return
		}
	}
	t.Fatalf("route span not attached to root; tree:\n%s", FormatTree(td))
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	sp := o.StartSpan("place")
	sp.SetAttr("modules", 3)
	sp.SetAttrString("cfg", "x")
	sp.Degrade()
	sp.EndError(errors.New("x"))
	sp.End()
	if o.Snapshot() != nil {
		t.Fatal("nil observer returned a snapshot")
	}
	if o.TraceID() != "" {
		t.Fatal("nil observer returned a trace id")
	}
	// Metric-less, trace-less observer behaves like nil.
	o2 := NewObserver(nil, "")
	if sp := o2.StartSpan("x"); sp != nil {
		t.Fatal("disabled observer allocated a span")
	}
}

func TestSpanFeedsStageHistogram(t *testing.T) {
	p := NewPipeline()
	o := NewObserver(p, "request")
	sp := o.StartSpan("place")
	time.Sleep(time.Millisecond)
	sp.End()
	if got := p.Stage("place").Snapshot().Count; got != 1 {
		t.Fatalf("place histogram count = %d, want 1", got)
	}
	// Unknown stage names must not panic and must not be recorded.
	sp2 := o.StartSpan("route.attempt")
	sp2.End()
	if got := p.Stage("route").Snapshot().Count; got != 0 {
		t.Fatalf("route histogram count = %d, want 0", got)
	}
}

func TestFormatTree(t *testing.T) {
	o := NewObserver(nil, "request")
	sp := o.StartSpan("place")
	sp.SetAttr("partitions", 4)
	sp.End()
	out := FormatTree(o.Snapshot())
	if !strings.Contains(out, "place") || !strings.Contains(out, "partitions=4") {
		t.Fatalf("format tree missing content:\n%s", out)
	}
}

func TestRing(t *testing.T) {
	r := NewRing[int](3)
	for i := 0; i < 5; i++ {
		r.Append(i)
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("ring snapshot = %v, want [2 3 4]", got)
	}
}
