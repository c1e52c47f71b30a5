// Package gen is the automatic schematic diagram generator of figure
// 3.2: independent placement and routing composed into one call, plus
// the experiment harness that regenerates the evaluation of §6 (Table
// 6.1 and figures 6.1–6.7).
package gen

import (
	"context"
	"fmt"
	"strings"
	"time"

	"netart/internal/netlist"
	"netart/internal/obs"
	"netart/internal/place"
	"netart/internal/resilience"
	"netart/internal/route"
	"netart/internal/schematic"
	"netart/internal/workload"
)

// Placer selects the placement algorithm.
type Placer int

// The available placers: the paper's own algorithm plus the surveyed
// baselines (§4.2/§4.3).
const (
	PlacePaper Placer = iota
	PlaceEpitaxial
	PlaceMinCut
	PlaceLogicColumns
)

// String implements fmt.Stringer.
func (p Placer) String() string {
	switch p {
	case PlacePaper:
		return "paper"
	case PlaceEpitaxial:
		return "epitaxial"
	case PlaceMinCut:
		return "mincut"
	case PlaceLogicColumns:
		return "logic-columns"
	default:
		return fmt.Sprintf("Placer(%d)", int(p))
	}
}

// DegradeMode selects how Run responds to routing failure
// (nets left with unconnected terminals). The zero value preserves the
// historical behavior, so existing callers are unaffected.
type DegradeMode int

// The degradation policies, from laissez-faire to most protective.
const (
	// DegradeNone is the legacy behavior: unrouted nets are reported in
	// the diagram's metrics but neither escalate nor fail the call.
	DegradeNone DegradeMode = iota
	// DegradeStrict fails with *UnroutableError as soon as the
	// configured router leaves any net unrouted (no escalation).
	DegradeStrict
	// DegradeEscalate walks the ladder — re-placement with wider white
	// space, routed with the request's own router (see ladderRungs) —
	// and fails with *UnroutableError only when every rung leaves
	// failures. Over a caller-supplied placement there is nothing to
	// re-place, and it acts as DegradeStrict.
	DegradeEscalate
	// DegradeBestEffort walks the ladder and, when failures remain,
	// returns the least-bad partial diagram with Diagram.Degraded
	// carrying the unrouted report instead of an error.
	DegradeBestEffort
)

// String implements fmt.Stringer.
func (m DegradeMode) String() string {
	switch m {
	case DegradeNone:
		return "none"
	case DegradeStrict:
		return "strict"
	case DegradeEscalate:
		return "escalate"
	case DegradeBestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("DegradeMode(%d)", int(m))
	}
}

// ParseDegradeMode maps the flag/JSON spelling onto a DegradeMode.
func ParseDegradeMode(s string) (DegradeMode, error) {
	switch s {
	case "", "none":
		return DegradeNone, nil
	case "strict":
		return DegradeStrict, nil
	case "escalate":
		return DegradeEscalate, nil
	case "best-effort", "besteffort":
		return DegradeBestEffort, nil
	default:
		return DegradeNone, fmt.Errorf("gen: unknown degrade mode %q (none, strict, escalate, best-effort)", s)
	}
}

// UnroutableError reports a generation whose routing stayed incomplete
// after every permitted attempt (DegradeStrict/DegradeEscalate).
type UnroutableError struct {
	// Unrouted lists the incomplete nets as "net: term1 term2 ...".
	Unrouted []string
	// Attempts names the ladder rungs that were tried, in order.
	Attempts []string
}

// Error implements error.
func (e *UnroutableError) Error() string {
	return fmt.Sprintf("gen: %d nets unrouted after %s",
		len(e.Unrouted), strings.Join(e.Attempts, ", "))
}

// Options configures a full generation run.
type Options struct {
	Placer Placer
	Place  place.Options
	Route  route.Options
	// Degrade selects the failure policy for incomplete routings; see
	// DegradeMode. The ladder never runs when routing succeeds, so the
	// fast path is untouched.
	Degrade DegradeMode
	// Inject, when non-nil, is propagated to the place.box and
	// route.wavefront fault sites for deterministic chaos testing.
	Inject *resilience.Injector

	// Observer, when non-nil, receives one span per pipeline stage
	// (place, route, plus a route.attempt child per ladder rung) and
	// feeds the per-stage latency histograms of its metric sink. A nil
	// observer is allocation-free on the hot path.
	Observer *obs.Observer
	// Progress, when non-nil, receives streaming progress events:
	// placement geometry once it is final, then per routing attempt the
	// attempt name followed by every net in routing order, each ladder
	// rung's attempt preceded by its re-placement (the async job API
	// streams these over SSE). Nil costs nothing.
	Progress ProgressFunc
	// StopAfterPlace runs only the placement phase (the PABLO half):
	// Report.Placement is filled, Report.Diagram stays nil.
	StopAfterPlace bool
	// Placement, when non-nil, skips placement and routes over the
	// given result (the EUREKA half); the design argument of Run may
	// then be nil.
	Placement *place.Result
}

// DefaultOptions returns the settings used by the examples: the paper's
// placer with moderate clustering, claimpoints on, and shortest-first
// net ordering (the benched default — it routes all 222 LIFE nets where
// the paper's design order strands one; design order stays available
// via route.Options.OrderShortestFirst=false / -route-order=design).
func DefaultOptions() Options {
	return Options{
		Place: place.Options{PartSize: 7, BoxSize: 5},
		Route: route.Options{Claimpoints: true, OrderShortestFirst: true},
	}
}

// Experiment is one row of the §6 evaluation.
type Experiment struct {
	ID      string // figure number, e.g. "6.4"
	Descr   string
	Build   func() *netlist.Design
	Options Options
	// Hand, when set, pins the named modules (figure 6.5's manual
	// tweak pins one module; figure 6.6 pins all of them).
	Hand func() map[string]workload.HandPos
	// HandOnly marks a fully manual placement (figure 6.6): placement
	// time is not reported, matching the dash in Table 6.1.
	HandOnly bool
}

// Experiments returns the full §6 suite in figure order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:    "6.1",
			Descr: "6-module string, one partition, one box (-p 6 -b 6)",
			Build: workload.Fig61,
			Options: Options{
				Place: place.Options{PartSize: 6, BoxSize: 6},
				Route: route.Options{Claimpoints: true},
			},
		},
		{
			ID:    "6.2",
			Descr: "16 modules / 24 nets, pure clustering (-p 1 -b 1)",
			Build: workload.Datapath16,
			Options: Options{
				Place: place.Options{PartSize: 1, BoxSize: 1},
				Route: route.Options{Claimpoints: true},
			},
		},
		{
			ID:    "6.3",
			Descr: "functional partitions of five (-p 5 -b 1)",
			Build: workload.Datapath16,
			Options: Options{
				Place: place.Options{PartSize: 5, BoxSize: 1},
				Route: route.Options{Claimpoints: true},
			},
		},
		{
			ID:    "6.4",
			Descr: "partitions of strings (-p 7 -b 5)",
			Build: workload.Datapath16,
			Options: Options{
				Place: place.Options{PartSize: 7, BoxSize: 5},
				Route: route.Options{Claimpoints: true},
			},
		},
		{
			ID:    "6.5",
			Descr: "figure 6.2 with the controller manually moved top-left (-g)",
			Build: workload.Datapath16,
			Options: Options{
				Place: place.Options{PartSize: 1, BoxSize: 1},
				Route: route.Options{Claimpoints: true},
			},
			Hand: workload.Datapath16HandTweak,
		},
		{
			ID:       "6.6",
			Descr:    "LIFE network, 222 nets, manual placement, routing only",
			Build:    workload.Life27,
			Options:  Options{Route: route.Options{Claimpoints: true}},
			Hand:     workload.LifeHandPlacement,
			HandOnly: true,
		},
		{
			ID:    "6.7",
			Descr: "LIFE network, fully automatic generation",
			Build: workload.Life27,
			Options: Options{
				// Extra white space (-s 1 -i 2 -e 3): §5.7 notes
				// "there should always be enough routing space between
				// the modules"; without it the automatic placement
				// leaves the dense LIFE fabric short of tracks.
				Place: place.Options{PartSize: 5, BoxSize: 5,
					ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3},
				Route: route.Options{Claimpoints: true},
			},
		},
	}
}

// Row is one measured Table 6.1 row.
type Row struct {
	Figure    string
	Modules   int
	Nets      int
	PlaceTime time.Duration
	RouteTime time.Duration
	HandOnly  bool // placement column prints "-"
	Unrouted  int
	Metrics   schematic.Metrics
}

// RunExperiment executes one experiment, timing the two phases
// separately like Table 6.1 does. (Before the gen.Run API redesign
// this function was called Run.)
func RunExperiment(e Experiment) (Row, *schematic.Diagram, error) {
	d := e.Build()
	stats := d.Stats()
	row := Row{Figure: e.ID, Modules: stats.Modules, Nets: stats.Nets, HandOnly: e.HandOnly}

	opts := e.Options
	if e.Hand != nil {
		fixed := map[*netlist.Module]place.Fixed{}
		for name, hp := range e.Hand() {
			m := d.Module(name)
			if m == nil {
				return row, nil, fmt.Errorf("gen: hand placement names unknown module %q", name)
			}
			fixed[m] = place.Fixed{Pos: hp.Pos, Orient: hp.Orient}
		}
		opts.Place.Fixed = fixed
	}

	rep, err := Run(context.Background(), d, opts)
	if err != nil {
		return row, nil, err
	}
	row.PlaceTime = rep.Timings.Place
	row.RouteTime = rep.Timings.Route
	row.Unrouted = rep.Unrouted()
	row.Metrics = rep.Diagram.Metrics()
	return row, rep.Diagram, nil
}

// Table61 runs the whole suite and returns the measured rows.
func Table61() ([]Row, error) {
	var rows []Row
	for _, e := range Experiments() {
		row, _, err := RunExperiment(e)
		if err != nil {
			return nil, fmt.Errorf("gen: experiment %s: %w", e.ID, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable61 renders rows in the layout of Table 6.1 ("Timing
// Figures"), with the unrouted count appended since §6's text reports
// it per figure.
func FormatTable61(rows []Row) string {
	out := "figure  modules  nets  placement  routing   unrouted\n"
	for _, r := range rows {
		placeCol := fmt.Sprintf("%9.3fs", r.PlaceTime.Seconds())
		if r.HandOnly {
			placeCol = "         -"
		}
		out += fmt.Sprintf("%-6s  %7d  %4d %s  %7.3fs  %8d\n",
			r.Figure, r.Modules, r.Nets, placeCol, r.RouteTime.Seconds(), r.Unrouted)
	}
	return out
}
