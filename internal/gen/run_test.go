package gen

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"netart/internal/obs"
	"netart/internal/resilience"
	"netart/internal/route"
	"netart/internal/workload"
)

// TestRunReportAndTrace asserts the canonical entrypoint fills the
// report (diagram, timings, attempts, search counters) and records a
// span tree with the documented stage names and attributes.
func TestRunReportAndTrace(t *testing.T) {
	o := obs.NewObserver(nil, "generate")
	opts := DefaultOptions()
	opts.Observer = o
	rep, err := Run(context.Background(), workload.Datapath16(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diagram == nil || rep.Placement == nil || rep.Routing == nil {
		t.Fatalf("report incomplete: %+v", rep)
	}
	if rep.Timings.Place <= 0 || rep.Timings.Route <= 0 {
		t.Fatalf("stage timings not recorded: %+v", rep.Timings)
	}
	if len(rep.Attempts) != 1 || !strings.HasPrefix(rep.Attempts[0], "route[") {
		t.Fatalf("attempts = %v", rep.Attempts)
	}
	if rep.Search.Searches == 0 {
		t.Fatalf("search stats empty: %+v", rep.Search)
	}

	td := rep.Trace
	if td == nil || td.TraceID == "" {
		t.Fatal("report carries no trace")
	}
	place := td.Find("place")
	if place == nil || place.Outcome != obs.OutcomeOK {
		t.Fatalf("place span = %+v", place)
	}
	if place.Attrs["partitions"] == nil || place.Attrs["boxes"] == nil {
		t.Fatalf("place span missing partition/box attrs: %v", place.Attrs)
	}
	rt := td.Find("route")
	if rt == nil || rt.Attrs["searches"] == nil {
		t.Fatalf("route span = %+v", rt)
	}
	if len(rt.Children) != 1 || rt.Children[0].Stage != "route.attempt" {
		t.Fatalf("route children = %+v", rt.Children)
	}
}

// TestRunNilObserver asserts Run works identically with observability
// off (the allocation-free path).
func TestRunNilObserver(t *testing.T) {
	rep, err := Run(context.Background(), workload.Datapath16(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil {
		t.Fatal("nil observer produced a trace")
	}
	if rep.Diagram == nil {
		t.Fatal("no diagram")
	}
}

// TestRunStopAfterPlace asserts the PABLO half: placement only.
func TestRunStopAfterPlace(t *testing.T) {
	opts := DefaultOptions()
	opts.StopAfterPlace = true
	rep, err := Run(context.Background(), workload.Datapath16(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placement == nil {
		t.Fatal("no placement")
	}
	if rep.Diagram != nil || rep.Routing != nil {
		t.Fatal("StopAfterPlace still routed")
	}
}

// TestRunOnPlacement asserts the EUREKA half: routing over an existing
// placement, with a nil design argument.
func TestRunOnPlacement(t *testing.T) {
	opts := DefaultOptions()
	opts.StopAfterPlace = true
	placed, err := Run(context.Background(), workload.Datapath16(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ropts := DefaultOptions()
	ropts.Placement = placed.Placement
	rep, err := Run(context.Background(), nil, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diagram == nil {
		t.Fatal("no diagram from placement-reuse run")
	}
	if rep.Timings.Place != 0 {
		t.Fatalf("placement time recorded for a reused placement: %v", rep.Timings.Place)
	}
}

// TestRunDegradedOutcomeInTrace forces every wavefront to fail and
// asserts the best-effort ladder marks the route span degraded with
// one attempt child per rung.
func TestRunDegradedOutcomeInTrace(t *testing.T) {
	inj, err := resilience.ParseSpec("route.wavefront:error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(nil, "generate")
	opts := DefaultOptions()
	opts.Observer = o
	opts.Inject = inj
	opts.Degrade = DegradeBestEffort
	rep, err := Run(context.Background(), workload.Datapath16(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded == nil || rep.Diagram.Degraded == nil {
		t.Fatal("forced failure did not degrade")
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("attempts = %v, want base + 2 ladder rungs", rep.Attempts)
	}
	rt := rep.Trace.Find("route")
	if rt.Outcome != obs.OutcomeDegraded {
		t.Fatalf("route span outcome = %q, want degraded", rt.Outcome)
	}
	if len(rt.Children) != 3 {
		t.Fatalf("route attempt children = %d, want 3", len(rt.Children))
	}
}

// TestLadderRungs pins the escalation sequence for every base router:
// line expansion with rip-up, then Lee with rip-up, each skipped when
// it is the base configuration itself. A rung changes only the router
// and the rip-up pass; every other base option carries over. Attempts
// are named by describeRoute.
func TestLadderRungs(t *testing.T) {
	const lineRipUp, leeRipUp = "route[line-expansion+rip-up]", "route[lee-bends+rip-up]"
	for _, tc := range []struct {
		algo  route.Algo
		ripUp bool
		base  string
		rungs []string
	}{
		{route.AlgoLineExpansion, false, "route[line-expansion]", []string{lineRipUp, leeRipUp}},
		{route.AlgoLineExpansion, true, lineRipUp, []string{leeRipUp}},
		{route.AlgoLee, false, "route[lee-bends]", []string{lineRipUp, leeRipUp}},
		{route.AlgoLee, true, leeRipUp, []string{lineRipUp}},
		{route.AlgoLeeLength, false, "route[lee-length]", []string{lineRipUp, leeRipUp}},
		{route.AlgoHightower, false, "route[hightower]", []string{lineRipUp, leeRipUp}},
	} {
		base := route.Options{Algorithm: tc.algo, RipUp: tc.ripUp, Claimpoints: true,
			SwapObjective: true, OrderShortestFirst: true, Margin: 2}
		t.Run(tc.base, func(t *testing.T) {
			if got := describeRoute(base); got != tc.base {
				t.Errorf("base named %q, want %q", got, tc.base)
			}
			rungs := ladderRungs(base)
			var names []string
			for _, r := range rungs {
				names = append(names, describeRoute(r))
				want := base
				want.Algorithm, want.RipUp = r.Algorithm, true
				if !reflect.DeepEqual(r, want) {
					t.Errorf("rung %s = %+v, want the base with only router and rip-up changed", describeRoute(r), r)
				}
			}
			if !reflect.DeepEqual(names, tc.rungs) {
				t.Errorf("rungs %v, want %v", names, tc.rungs)
			}
		})
	}
}

// TestRunPanicOutcomeInTrace forces a placement panic and asserts the
// span records outcome "panic" while the error is a StageError.
func TestRunPanicOutcomeInTrace(t *testing.T) {
	inj, err := resilience.ParseSpec("place.box:panic:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(nil, "generate")
	opts := DefaultOptions()
	opts.Observer = o
	opts.Inject = inj
	_, err = Run(context.Background(), workload.Datapath16(), opts)
	if _, ok := resilience.AsStageError(err); !ok {
		t.Fatalf("want StageError, got %v", err)
	}
	td := o.Snapshot()
	if got := td.Find("place").Outcome; got != obs.OutcomePanic {
		t.Fatalf("place span outcome = %q, want panic", got)
	}
}

// TestStageTimingsJSONRoundTrip pins the wire names shared by /v1 and
// /v2 (parse_ms, place_ms, route_ms, render_ms), and that a timing
// survives a decode and re-encode: 1.033 and 1.005 ms are not exact
// binary fractions, and a truncating decode turned them into 1.032 and
// 1.004 ms.
func TestStageTimingsJSONRoundTrip(t *testing.T) {
	st := StageTimings{Parse: 1500 * 1000, Place: 2 * 1000 * 1000, // 1.5ms, 2ms
		Route: 1005 * 1000, Render: 1033 * 1000} // 1.005ms, 1.033ms
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"parse_ms", "place_ms", "route_ms", "render_ms"} {
		if !strings.Contains(string(b), `"`+key+`"`) {
			t.Fatalf("marshalled timings missing %q: %s", key, b)
		}
	}
	var back StageTimings
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, st)
	}
}
