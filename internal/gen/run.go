package gen

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"netart/internal/netlist"
	"netart/internal/obs"
	"netart/internal/place"
	"netart/internal/resilience"
	"netart/internal/route"
	"netart/internal/schematic"
)

// StageTimings records the wall time each pipeline stage consumed
// during one Run. Parse and Render belong to callers that wrap the
// pipeline (the service measures them around Run); Place and Route are
// filled by Run itself. The JSON form uses millisecond floats under
// stable names (parse_ms, place_ms, route_ms, render_ms) shared by the
// /v1 and /v2 service APIs.
type StageTimings struct {
	Parse  time.Duration
	Place  time.Duration
	Route  time.Duration
	Render time.Duration
}

// stageTimingsJSON is the wire form of StageTimings.
type stageTimingsJSON struct {
	ParseMs  float64 `json:"parse_ms"`
	PlaceMs  float64 `json:"place_ms"`
	RouteMs  float64 `json:"route_ms"`
	RenderMs float64 `json:"render_ms"`
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

// msDur rounds to the nearest nanosecond: truncating would turn 1.033 ms
// into 1,032,999 ns, which re-encodes as 1.032.
func msDur(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// MarshalJSON renders the timings as millisecond floats.
func (st StageTimings) MarshalJSON() ([]byte, error) {
	return json.Marshal(stageTimingsJSON{
		ParseMs:  durMs(st.Parse),
		PlaceMs:  durMs(st.Place),
		RouteMs:  durMs(st.Route),
		RenderMs: durMs(st.Render),
	})
}

// UnmarshalJSON parses the millisecond-float wire form.
func (st *StageTimings) UnmarshalJSON(b []byte) error {
	var w stageTimingsJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	st.Parse = msDur(w.ParseMs)
	st.Place = msDur(w.PlaceMs)
	st.Route = msDur(w.RouteMs)
	st.Render = msDur(w.RenderMs)
	return nil
}

// Report is the result of one Run: the finished diagram plus
// everything the run learned about itself — per-stage wall times, the
// routing attempts the degradation ladder made and the router's work
// counters. The span tree stays with the observer that recorded it
// (Options.Observer.Snapshot).
type Report struct {
	// Diagram is the finished schematic (nil when StopAfterPlace).
	Diagram *schematic.Diagram
	// Placement is the placement result (the PABLO half): the one the
	// diagram was routed over, which is a ladder rung's re-placement
	// when that rung won.
	Placement *place.Result
	// Routing is the raw routing result, including per-net outcomes
	// (nil when StopAfterPlace).
	Routing *route.Result
	// Timings holds per-stage wall times (Place/Route filled by Run).
	// Place is the base placement; a ladder rung's re-placement counts
	// in Route, inside its route.attempt span.
	Timings StageTimings
	// Attempts names the routing configurations tried, in order; more
	// than one means the degradation ladder escalated.
	Attempts []string
	// Search holds the router's work counters of the attempt that
	// shipped (Routing), not summed over the ladder's attempts.
	Search route.SearchStats
	// Degraded mirrors Diagram.Degraded for callers that inspect the
	// report without the diagram.
	Degraded *schematic.Degradation
}

// Unrouted returns the number of nets left with unconnected terminals
// (0 when routing never ran).
func (r *Report) Unrouted() int {
	if r == nil || r.Routing == nil {
		return 0
	}
	return r.Routing.UnroutedCount()
}

// Run is the canonical pipeline entrypoint: placement followed by
// routing, cancellable through ctx, observable through Options.
// Observer, with routing failures handled by the degradation ladder
// selected by Options.Degrade.
//
// Variants that used to be separate functions are options now:
//
//   - Options.StopAfterPlace runs only the placement phase (the PABLO
//     half; Report.Diagram stays nil).
//   - Options.Placement routes over an existing placement (the EUREKA
//     half; d may be nil, the placement's design is used).
//
// Robustness: both stages run under resilience.Recover, so a panic in
// placement or routing surfaces as a structured *resilience.StageError
// instead of unwinding into the caller. The span tree records the
// outcome of every stage — ok, error, panic, or degraded — and ladder
// escalations appear as "route.attempt" children of the route span.
func Run(ctx context.Context, d *netlist.Design, opts Options) (*Report, error) {
	o := opts.Observer
	rep := &Report{}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Inject != nil {
		if opts.Place.Inject == nil {
			opts.Place.Inject = opts.Inject
		}
		if opts.Route.Inject == nil {
			opts.Route.Inject = opts.Inject
		}
	}

	pr := opts.Placement
	if pr == nil {
		if d == nil {
			return nil, fmt.Errorf("gen: Run needs a design (or Options.Placement)")
		}
		sp := o.StartSpan("place")
		t0 := time.Now()
		err := resilience.Recover("place", func() error {
			var perr error
			pr, perr = placeDesign(d, opts.Placer, opts.Place)
			return perr
		})
		rep.Timings.Place = time.Since(t0)
		if err != nil {
			endSpanError(sp, err)
			return nil, err
		}
		sp.SetAttr("modules", int64(len(pr.Mods)))
		if pr.Parts != nil {
			boxes := 0
			for _, pp := range pr.Parts {
				boxes += len(pp.Boxes)
			}
			sp.SetAttr("partitions", int64(len(pr.Parts)))
			sp.SetAttr("boxes", int64(boxes))
		}
		sp.End()
	}
	rep.Placement = pr
	if d == nil {
		d = pr.Design
	}
	// Routing never moves a module, so streaming consumers may draw the
	// placement now; a ladder rung that re-places streams its own.
	opts.Progress.emit(ProgressEvent{Kind: ProgressPlaced, Placement: pr})
	if opts.StopAfterPlace {
		return rep, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp := o.StartSpan("route")
	t1 := time.Now()
	rr, attempts, err := routeWithLadder(ctx, d, pr, opts, o)
	rep.Timings.Route = time.Since(t1)
	rep.Attempts = attempts
	if err != nil {
		endSpanError(sp, err)
		return nil, err
	}
	rep.Placement = rr.Placement
	rep.Routing = rr
	rep.Search = rr.Stats
	sp.SetAttr("searches", int64(rr.Stats.Searches))
	sp.SetAttr("waves", int64(rr.Stats.Waves))
	sp.SetAttr("actives", int64(rr.Stats.Actives))
	sp.SetAttr("attempts", int64(len(attempts)))
	sp.SetAttr("unrouted", int64(rr.UnroutedCount()))

	dg := schematic.FromRouting(rr)
	if unrouted := unroutedReport(rr); len(unrouted) > 0 {
		switch opts.Degrade {
		case DegradeStrict, DegradeEscalate:
			uerr := &UnroutableError{Unrouted: unrouted, Attempts: attempts}
			sp.EndError(uerr)
			return nil, uerr
		case DegradeBestEffort:
			dg.Degraded = &schematic.Degradation{
				Attempts: attempts,
				Unrouted: unrouted,
				Reason: fmt.Sprintf("%d of %d nets unrouted after %d routing attempt(s)",
					len(unrouted), len(d.Nets), len(attempts)),
			}
			sp.Degrade()
		}
	}
	sp.End()
	rep.Diagram = dg
	rep.Degraded = dg.Degraded
	return rep, nil
}

// endSpanError closes a stage span with the right outcome: panic for
// recovered panics (StageError), error otherwise.
func endSpanError(sp *obs.Span, err error) {
	if se, ok := resilience.AsStageError(err); ok {
		sp.EndPanic(se.Cause)
		return
	}
	sp.EndError(err)
}

// placeDesign runs only the placement phase with the selected placer.
func placeDesign(d *netlist.Design, placer Placer, po place.Options) (*place.Result, error) {
	switch placer {
	case PlaceEpitaxial:
		return place.Epitaxial(d, 2+po.ModSpacing)
	case PlaceMinCut:
		return place.MinCut(d, 1+po.ModSpacing)
	case PlaceLogicColumns:
		return place.LogicColumns(d, 2+po.ModSpacing)
	default:
		return place.Place(d, po)
	}
}

// rung is one step of the degradation ladder: the request's placement
// options with wider white space, named for the attempts report.
type rung struct {
	name  string
	place place.Options
}

// ladderRungs derives the escalation sequence from the request's placer
// and placement options. The paper's lever for unroutable nets is white
// space, not a heavier router ("there should always be enough routing
// space between the modules", §5.7), so every rung re-places with more
// tracks and routes with the request's own router: partition spacing
// +1 (-e), then every spacing +1 (-e -i -s), then every spacing +2.
// Pinned modules (place.Options.Fixed) keep their positions. The
// partition-only rung is skipped where it cannot change the outcome:
// the baseline placers read only the module spacing, and a paper
// placement of one partition with nothing pinned only moves by (1,1)
// under it, so the router would see the same plane shifted. With
// pinned modules the free partition moves against the pins, so that
// case keeps the rung. parts is the base placement's partition count.
func ladderRungs(placer Placer, base place.Options, parts int) []rung {
	widen := func(name string, part, all int) rung {
		po := base
		po.PartSpacing += part + all
		po.BoxSpacing += all
		po.ModSpacing += all
		return rung{name, po}
	}
	var rungs []rung
	if placer == PlacePaper && (parts > 1 || len(base.Fixed) > 0) {
		rungs = append(rungs, widen("place[part-spacing+1]", 1, 0))
	}
	return append(rungs, widen("place[spacing+1]", 0, 1), widen("place[spacing+2]", 0, 2))
}

// routeWithLadder routes the placement, escalating through the ladder
// when the policy asks for it. It returns the best (fewest-failures)
// result seen, whose Placement is the placement it was routed over, the
// names of the attempts made, and an error only when the first attempt
// fails hard or the context dies. Rungs fail soft: an injected fault, a
// panic or a resource cap in a re-placement or its routing must never
// destroy the base result it was trying to improve. Every attempt
// appears as a "route.attempt" span under the route span, a rung's
// re-placement included. A caller-supplied placement (Options.
// Placement) cannot be re-placed, so it gets no rungs: escalate then
// acts as strict and best-effort ships the base result.
func routeWithLadder(ctx context.Context, d *netlist.Design, pr *place.Result, opts Options, o *obs.Observer) (*route.Result, []string, error) {
	run := func(name string, po *place.Options) (*route.Result, error) {
		asp := o.StartSpan("route.attempt")
		asp.SetAttrString("config", name)
		rpr := pr
		if po != nil {
			err := resilience.Recover("place", func() error {
				var perr error
				rpr, perr = placeDesign(d, opts.Placer, *po)
				return perr
			})
			if err != nil {
				endSpanError(asp, err)
				return nil, err
			}
			// The rung's nets are drawn over new geometry: stream it
			// before the attempt opens.
			opts.Progress.emit(ProgressEvent{Kind: ProgressPlaced, Placement: rpr})
		}
		ro := opts.Route
		if opts.Progress != nil {
			opts.Progress.emit(ProgressEvent{Kind: ProgressAttempt, Attempt: name})
			// Bridge the router's per-net hook onto the progress stream:
			// one event per net, in routing order, tagged with the
			// attempt it belongs to.
			ro.OnCommit = func(idx, total int, rn *route.RoutedNet) {
				opts.Progress.emit(ProgressEvent{
					Kind: ProgressNet, Attempt: name, Index: idx, Total: total, Net: rn,
				})
			}
		}
		var rr *route.Result
		err := resilience.Recover("route", func() error {
			var rerr error
			rr, rerr = route.RouteCtx(ctx, rpr, ro)
			return rerr
		})
		if err != nil {
			endSpanError(asp, err)
			return nil, err
		}
		asp.SetAttr("unrouted", int64(rr.UnroutedCount()))
		asp.End()
		return rr, nil
	}

	base := describeRoute(opts.Route)
	attempts := []string{base}
	best, err := run(base, nil)
	if err != nil {
		return nil, attempts, err
	}
	if best.UnroutedCount() == 0 || opts.Degrade < DegradeEscalate || opts.Placement != nil {
		return best, attempts, nil
	}

	for _, r := range ladderRungs(opts.Placer, opts.Place, len(pr.Parts)) {
		if ctx.Err() != nil {
			return nil, attempts, ctx.Err()
		}
		attempts = append(attempts, r.name)
		rr, err := run(r.name, &r.place)
		if err != nil {
			if ctx.Err() != nil {
				return nil, attempts, ctx.Err()
			}
			continue // soft failure: keep the best result so far
		}
		if rr.UnroutedCount() < best.UnroutedCount() {
			best = rr
		}
		if best.UnroutedCount() == 0 {
			break
		}
	}
	return best, attempts, nil
}

// describeRoute names the base routing attempt for the attempts
// report, e.g. "route[line-expansion]".
func describeRoute(o route.Options) string {
	return "route[" + o.Algorithm.String() + "]"
}

// unroutedReport lists every incomplete net as "net: term1 term2 ...".
func unroutedReport(rr *route.Result) []string {
	var out []string
	for _, rn := range rr.Nets {
		if rn.OK() {
			continue
		}
		var b strings.Builder
		b.WriteString(rn.Net.Name)
		b.WriteByte(':')
		for _, t := range rn.Failed {
			b.WriteByte(' ')
			b.WriteString(t.Label())
		}
		out = append(out, b.String())
	}
	return out
}
