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
// routing attempts the degradation ladder made, the router's work
// counters, and (when an observer with tracing was attached) the span
// tree.
type Report struct {
	// Diagram is the finished schematic (nil when StopAfterPlace).
	Diagram *schematic.Diagram
	// Placement is the placement result (the PABLO half).
	Placement *place.Result
	// Routing is the raw routing result, including per-net outcomes
	// (nil when StopAfterPlace).
	Routing *route.Result
	// Timings holds per-stage wall times (Place/Route filled by Run).
	Timings StageTimings
	// Attempts names the routing configurations tried, in order; more
	// than one means the degradation ladder escalated.
	Attempts []string
	// Search aggregates the router's work counters over the run.
	Search route.SearchStats
	// Degraded mirrors Diagram.Degraded for callers that inspect the
	// report without the diagram.
	Degraded *schematic.Degradation
	// Trace is the span tree recorded by Options.Observer, nil when
	// tracing was off. The service takes its own later snapshot to
	// include the parse/render spans it wraps around Run.
	Trace *obs.TraceData
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
			pr, perr = placeDesign(d, opts)
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
	// Placement geometry is final from here on (routing never moves a
	// module), so streaming consumers may draw it now.
	opts.Progress.emit(ProgressEvent{Kind: ProgressPlaced, Placement: pr})
	if opts.StopAfterPlace {
		rep.Trace = o.Snapshot()
		return rep, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp := o.StartSpan("route")
	t1 := time.Now()
	rr, attempts, err := routeWithLadder(ctx, pr, opts, o)
	rep.Timings.Route = time.Since(t1)
	rep.Attempts = attempts
	if err != nil {
		endSpanError(sp, err)
		return nil, err
	}
	rep.Routing = rr
	rep.Search = rr.Stats
	sp.SetAttr("searches", int64(rr.Stats.Searches))
	sp.SetAttr("waves", int64(rr.Stats.Waves))
	sp.SetAttr("actives", int64(rr.Stats.Actives))
	sp.SetAttr("rip_ups", int64(rr.Stats.RipUps))
	sp.SetAttr("attempts", int64(len(attempts)))
	sp.SetAttr("unrouted", int64(rr.UnroutedCount()))

	dg := schematic.FromRouting(rr)
	if unrouted := unroutedReport(rr); len(unrouted) > 0 {
		switch opts.Degrade {
		case DegradeStrict, DegradeEscalate:
			uerr := &UnroutableError{Unrouted: unrouted, Attempts: attempts}
			sp.EndError(uerr)
			rep.Trace = o.Snapshot()
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
	rep.Trace = o.Snapshot()
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
func placeDesign(d *netlist.Design, opts Options) (*place.Result, error) {
	switch opts.Placer {
	case PlaceEpitaxial:
		return place.Epitaxial(d, 2+opts.Place.ModSpacing)
	case PlaceMinCut:
		return place.MinCut(d, 1+opts.Place.ModSpacing)
	case PlaceLogicColumns:
		return place.LogicColumns(d, 2+opts.Place.ModSpacing)
	default:
		return place.Place(d, opts.Place)
	}
}

// ladderRungs derives the escalation sequence from the request's base
// routing options: first the line-expansion router with the rip-up
// pass (a failed net may displace the nets that block it), then the
// Lee maze runner with rip-up (§5.2.2: a cell-by-cell search under the
// same bends-first objective, whose different wires often leave room
// where the line router's did not). Every other base option carries
// over. A rung equal to the base configuration is skipped: re-running
// the same router cannot improve a deterministic result.
func ladderRungs(base route.Options) []route.Options {
	var rungs []route.Options
	for _, algo := range []route.Algo{route.AlgoLineExpansion, route.AlgoLee} {
		if base.Algorithm == algo && base.RipUp {
			continue
		}
		rung := base
		rung.Algorithm = algo
		rung.RipUp = true
		rungs = append(rungs, rung)
	}
	return rungs
}

// routeWithLadder routes the placement, escalating through the ladder
// when the policy asks for it. It returns the best (fewest-failures)
// result seen, the names of the attempts made, and an error only when
// the first attempt fails hard or the context dies. Later rungs fail
// soft: an injected fault or panic in an escalation attempt must never
// destroy the base result it was trying to improve. Every attempt
// appears as a "route.attempt" span under the route span.
func routeWithLadder(ctx context.Context, pr *place.Result, opts Options, o *obs.Observer) (*route.Result, []string, error) {
	run := func(name string, ro route.Options) (*route.Result, error) {
		asp := o.StartSpan("route.attempt")
		asp.SetAttrString("config", name)
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
			rr, rerr = route.RouteCtx(ctx, pr, ro)
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
	best, err := run(base, opts.Route)
	if err != nil {
		return nil, attempts, err
	}
	if best.UnroutedCount() == 0 || opts.Degrade < DegradeEscalate {
		return best, attempts, nil
	}

	for _, rung := range ladderRungs(opts.Route) {
		if ctx.Err() != nil {
			return nil, attempts, ctx.Err()
		}
		name := describeRoute(rung)
		attempts = append(attempts, name)
		rr, err := run(name, rung)
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

// describeRoute names a routing attempt for the attempts report, e.g.
// "route[line-expansion]" or "route[lee-bends+rip-up]".
func describeRoute(o route.Options) string {
	if o.RipUp {
		return "route[" + o.Algorithm.String() + "+rip-up]"
	}
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
