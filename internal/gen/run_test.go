package gen

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/obs"
	"netart/internal/place"
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

	td := o.Snapshot()
	if td == nil || td.TraceID == "" {
		t.Fatal("observer recorded no trace")
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

// paperRungs names the ladder's rungs for the paper placer, in order.
var paperRungs = []string{"place[part-spacing+1]", "place[spacing+1]", "place[spacing+2]"}

// failEverySearch returns an injector that fails every wavefront search,
// so every attempt leaves nets unrouted and a climb runs the whole
// ladder.
func failEverySearch(t *testing.T) *resilience.Injector {
	t.Helper()
	inj, err := resilience.ParseSpec("route.wavefront:error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// attemptSpans returns the config names and outcomes of the
// route.attempt spans of a recorded run.
func attemptSpans(t *testing.T, o *obs.Observer) (configs, outcomes []string) {
	t.Helper()
	rt := o.Snapshot().Find("route")
	if rt == nil {
		t.Fatal("no route span")
	}
	for _, sp := range rt.Children {
		if sp.Stage == "route.attempt" {
			config, _ := sp.Attrs["config"].(string)
			configs = append(configs, config)
			outcomes = append(outcomes, sp.Outcome)
		}
	}
	return configs, outcomes
}

// TestRunDegradedOutcomeInTrace forces every wavefront to fail and
// asserts the best-effort ladder marks the route span degraded with
// one attempt child per rung, and names the base and every rung.
func TestRunDegradedOutcomeInTrace(t *testing.T) {
	o := obs.NewObserver(nil, "generate")
	opts := DefaultOptions()
	opts.Observer = o
	opts.Inject = failEverySearch(t)
	opts.Degrade = DegradeBestEffort
	rep, err := Run(context.Background(), workload.Datapath16(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded == nil || rep.Diagram.Degraded == nil {
		t.Fatal("forced failure did not degrade")
	}
	want := append([]string{"route[line-expansion]"}, paperRungs...)
	if !reflect.DeepEqual(rep.Attempts, want) || !reflect.DeepEqual(rep.Degraded.Attempts, want) {
		t.Fatalf("attempts = %v, degradation block names %v, want %v", rep.Attempts, rep.Degraded.Attempts, want)
	}
	if rt := o.Snapshot().Find("route"); rt.Outcome != obs.OutcomeDegraded {
		t.Fatalf("route span outcome = %q, want degraded", rt.Outcome)
	}
	if configs, _ := attemptSpans(t, o); !reflect.DeepEqual(configs, want) {
		t.Fatalf("route attempt children %v, want %v", configs, want)
	}
}

// TestLadderRungs pins the escalation sequence. Every rung re-places
// with wider white space and routes with the request's own router, so
// whatever the base router, a climb names it once and then the rungs:
// for the paper placer on a multi-partition design partition spacing
// +1, then every spacing +1, then every spacing +2. A baseline placer
// reads only the module spacing, and a one-partition paper placement
// (fig61) only translates under partition spacing, so both skip the
// partition-only rung.
func TestLadderRungs(t *testing.T) {
	base := place.Options{PartSize: 6, BoxSize: 6, PartSpacing: 1, BoxSpacing: 2, ModSpacing: 3}
	var got [][3]int
	for _, r := range ladderRungs(PlacePaper, base, 2) {
		got = append(got, [3]int{r.place.PartSpacing, r.place.BoxSpacing, r.place.ModSpacing})
		if r.place.PartSize != base.PartSize || r.place.BoxSize != base.BoxSize {
			t.Errorf("rung %s changes more than spacing: %+v", r.name, r.place)
		}
	}
	if want := [][3]int{{2, 2, 3}, {2, 3, 4}, {3, 4, 5}}; !reflect.DeepEqual(got, want) {
		t.Errorf("rung spacings (partition, box, module) %v, want %v", got, want)
	}
	for _, tc := range []struct {
		d     *netlist.Design
		parts int
	}{{workload.Datapath16(), 5}, {workload.Fig61(), 1}} {
		pr, err := place.Place(tc.d, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.Parts) != tc.parts {
			t.Fatalf("%s places as %d partitions, want %d", tc.d.Name, len(pr.Parts), tc.parts)
		}
	}

	inj := failEverySearch(t)
	for _, algo := range []route.Algo{route.AlgoLineExpansion, route.AlgoLee, route.AlgoLeeLength, route.AlgoHightower} {
		name := describeRoute(route.Options{Algorithm: algo})
		t.Run(name, func(t *testing.T) {
			for _, tc := range []struct {
				build  func() *netlist.Design
				placer Placer
				rungs  []string
			}{
				{workload.Datapath16, PlacePaper, paperRungs},
				{workload.Datapath16, PlaceMinCut, paperRungs[1:]},
				{workload.Fig61, PlacePaper, paperRungs[1:]},
			} {
				d := tc.build()
				rep, err := Run(context.Background(), d, Options{
					Placer: tc.placer, Place: base, Degrade: DegradeBestEffort, Inject: inj,
					Route: route.Options{Algorithm: algo, Claimpoints: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				if want := append([]string{name}, tc.rungs...); !reflect.DeepEqual(rep.Attempts, want) {
					t.Errorf("%s with the %s placer climbs %v, want %v", d.Name, tc.placer, rep.Attempts, want)
				}
			}
		})
	}
}

// TestPartSpacingTranslatesOnePartition is the premise for skipping
// the partition-spacing rung: fig61 and quickstart each place as one
// partition, and partition spacing +1 moves every module and system
// terminal by exactly (1,1), orientations unchanged, so the router
// would route a translated copy of the base. A placer change that
// breaks this fails here, not as a silently wasted or skipped rung.
func TestPartSpacingTranslatesOnePartition(t *testing.T) {
	for _, build := range []func() *netlist.Design{workload.Fig61, workload.Quickstart} {
		for spacing := 0; spacing <= 2; spacing++ {
			po := place.Options{PartSize: 7, BoxSize: 5, PartSpacing: spacing}
			d, dw := build(), build()
			base, err := place.Place(d, po)
			if err != nil {
				t.Fatal(err)
			}
			po.PartSpacing++
			wide, err := place.Place(dw, po)
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Parts) != 1 || len(wide.Parts) != 1 {
				t.Fatalf("%s at partition spacing %d: %d and %d partitions, want 1", d.Name, spacing, len(base.Parts), len(wide.Parts))
			}
			shift := geom.Pt(1, 1)
			for i, m := range d.Modules {
				bm, wm := base.Mods[m], wide.Mods[dw.Modules[i]]
				if wm.Pos != bm.Pos.Add(shift) || wm.Orient != bm.Orient {
					t.Errorf("%s at partition spacing %d: module %s at %v %v, then %v %v; want a (1,1) shift",
						d.Name, spacing, m.Name, bm.Pos, bm.Orient, wm.Pos, wm.Orient)
				}
			}
			for i, st := range d.SysTerms {
				if bp, wp := base.SysPos[st], wide.SysPos[dw.SysTerms[i]]; wp != bp.Add(shift) {
					t.Errorf("%s at partition spacing %d: system terminal %s at %v, then %v; want a (1,1) shift",
						d.Name, spacing, st.Name, bp, wp)
				}
			}
		}
	}
}

// TestLadderCompletesDesignOrderFigures pins the ladder on the two §6
// figures that design order leaves incomplete: figure 6.5 (controller
// pinned top-left) and figure 6.7 (LIFE, obs7 stranded). Best-effort
// completes each on its first rung, partition spacing +1, and the
// pinned controller keeps its hand position.
func TestLadderCompletesDesignOrderFigures(t *testing.T) {
	for _, e := range Experiments() {
		if e.ID != "6.5" && e.ID != "6.7" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			if e.Options.Route.OrderShortestFirst {
				t.Fatal("the figure no longer routes in design order")
			}
			base, _, err := RunExperiment(e)
			if err != nil {
				t.Fatal(err)
			}
			if base.Unrouted == 0 {
				t.Fatal("the base routing completes: nothing for the ladder to pin")
			}
			o := obs.NewObserver(nil, "generate")
			e.Options.Observer = o
			e.Options.Degrade = DegradeBestEffort
			row, dg, err := RunExperiment(e)
			if err != nil {
				t.Fatal(err)
			}
			if row.Unrouted != 0 || dg.Degraded != nil {
				t.Fatalf("%d nets left after the ladder, degraded %+v", row.Unrouted, dg.Degraded)
			}
			configs, _ := attemptSpans(t, o)
			if want := []string{"route[line-expansion]", paperRungs[0]}; !reflect.DeepEqual(configs, want) {
				t.Fatalf("attempts %v, want %v", configs, want)
			}
			if e.Hand == nil {
				return
			}
			for name, hp := range e.Hand() {
				pm := dg.Placement.Mods[dg.Design.Module(name)]
				if pm.Pos != hp.Pos || pm.Orient != hp.Orient {
					t.Errorf("pinned %s moved to %v %v, want %v %v", name, pm.Pos, pm.Orient, hp.Pos, hp.Orient)
				}
			}
		})
	}
}

// TestLadderRungOverAreaCapFails caps the plane at the base routing's
// own area: every wider re-placement exceeds it, so every rung fails
// soft, the climb still names them all, and the base result ships.
func TestLadderRungOverAreaCapFails(t *testing.T) {
	plain, err := Run(context.Background(), workload.Datapath16(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := plain.Routing.Plane.Bounds
	o := obs.NewObserver(nil, "generate")
	opts := DefaultOptions()
	opts.Observer = o
	opts.Inject = failEverySearch(t)
	opts.Degrade = DegradeBestEffort
	opts.Route.MaxPlaneArea = (b.Max.X - b.Min.X + 1) * (b.Max.Y - b.Min.Y + 1)
	rep, err := Run(context.Background(), workload.Datapath16(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{"route[line-expansion]"}, paperRungs...)
	if !reflect.DeepEqual(rep.Attempts, want) || rep.Degraded == nil {
		t.Fatalf("attempts %v (degraded %v), want %v", rep.Attempts, rep.Degraded != nil, want)
	}
	if rep.Routing.Plane.Bounds != b {
		t.Errorf("shipped plane %v, want the base's %v", rep.Routing.Plane.Bounds, b)
	}
	_, outcomes := attemptSpans(t, o)
	if wantOut := []string{obs.OutcomeOK, obs.OutcomeError, obs.OutcomeError, obs.OutcomeError}; !reflect.DeepEqual(outcomes, wantOut) {
		t.Errorf("attempt outcomes %v, want %v", outcomes, wantOut)
	}
}

// TestLadderOverSuppliedPlacement: a caller-supplied placement (the
// EUREKA half) cannot be re-placed, so escalate refuses after the base
// attempt alone and best-effort ships the base result over the given
// placement.
func TestLadderOverSuppliedPlacement(t *testing.T) {
	opts := DefaultOptions()
	opts.StopAfterPlace = true
	placed, err := Run(context.Background(), workload.Datapath16(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts = DefaultOptions()
	opts.Placement = placed.Placement
	opts.Inject = failEverySearch(t)
	base := []string{"route[line-expansion]"}

	opts.Degrade = DegradeEscalate
	_, err = Run(context.Background(), nil, opts)
	var ue *UnroutableError
	if !errors.As(err, &ue) || !reflect.DeepEqual(ue.Attempts, base) {
		t.Fatalf("escalate over a given placement: %v, want an UnroutableError after %v", err, base)
	}

	opts.Degrade = DegradeBestEffort
	rep, err := Run(context.Background(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Attempts, base) || rep.Degraded == nil || rep.Placement != placed.Placement {
		t.Fatalf("best-effort over a given placement: attempts %v, degraded %v, own placement %v",
			rep.Attempts, rep.Degraded != nil, rep.Placement == placed.Placement)
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
