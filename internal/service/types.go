// Package service wraps the netlist→schematic pipeline of gen in a
// long-running, concurrency-safe HTTP/JSON daemon: a bounded worker
// pool executes generation requests under per-request deadlines, a
// content-addressed LRU cache serves repeated requests without
// recomputation, and atomic counters plus per-stage latency histograms
// make the whole thing observable at /v1/stats. cmd/netartd is the
// binary front end.
package service

import (
	"fmt"
	"strings"

	"netart/internal/gen"
	"netart/internal/obs"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/schematic"
)

// Request is the body of POST /v1/generate: either a built-in workload
// name or an inline Appendix A description (net-list + call records,
// optional io records), plus placement/routing options and the desired
// output format.
type Request struct {
	// Workload names a built-in network: fig61, quickstart, datapath,
	// cpu, life, or chain (with ChainLength modules). Mutually exclusive
	// with Netlist.
	Workload string `json:"workload,omitempty"`
	// ChainLength sizes the chain workload (default 16).
	ChainLength int `json:"chain_length,omitempty"`

	// Netlist/Calls/IO carry an inline Appendix A description: the
	// net-list records (<NET> <INSTANCE> <TERMINAL>), the call records
	// (<INSTANCE> <TEMPLATE>), and the optional io records
	// (<TERMINAL> in|out|inout). Templates resolve against the builtin
	// library.
	Netlist string `json:"netlist,omitempty"`
	Calls   string `json:"calls,omitempty"`
	IO      string `json:"io,omitempty"`
	// Name labels an inline design (default "design").
	Name string `json:"name,omitempty"`

	Options GenOptions `json:"options"`

	// Format selects the rendering: svg, escher, ascii, json, or
	// summary (default).
	Format string `json:"format,omitempty"`

	// TimeoutMs bounds this request's generation time; 0 uses the
	// server default. The deadline is propagated into the routing
	// wavefront loops via context.Context.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// GenOptions is the JSON shape of the placement and routing knobs; the
// zero value reproduces gen.DefaultOptions.
type GenOptions struct {
	Placer         string `json:"placer,omitempty"` // paper, epitaxial, mincut, columns
	PartSize       int    `json:"part_size,omitempty"`
	BoxSize        int    `json:"box_size,omitempty"`
	MaxConnections int    `json:"max_connections,omitempty"`
	PartSpacing    int    `json:"part_spacing,omitempty"`
	BoxSpacing     int    `json:"box_spacing,omitempty"`
	ModSpacing     int    `json:"mod_spacing,omitempty"`

	Algorithm     string `json:"algorithm,omitempty"` // line-expansion, lee-bends, lee-length, hightower
	NoClaimpoints bool   `json:"no_claimpoints,omitempty"`
	SwapObjective bool   `json:"swap_objective,omitempty"`
	// RouteOrder selects the net routing order: "shortest" (default —
	// increasing estimated length, the §7 extension) or "design" (the
	// paper's order). Replaces the former shortest_first boolean.
	RouteOrder string `json:"route_order,omitempty"`
	Margin     int    `json:"margin,omitempty"`

	// DegradeMode selects the failure policy for incomplete routings:
	// none, strict, escalate, or best-effort (see gen.DegradeMode).
	// Empty inherits the server default.
	DegradeMode string `json:"degrade_mode,omitempty"`
}

// resolve maps the JSON options onto gen.Options, filling defaults.
func (o GenOptions) resolve() (gen.Options, error) {
	opts := gen.Options{
		Place: place.Options{
			PartSize:       o.PartSize,
			BoxSize:        o.BoxSize,
			MaxConnections: o.MaxConnections,
			PartSpacing:    o.PartSpacing,
			BoxSpacing:     o.BoxSpacing,
			ModSpacing:     o.ModSpacing,
		},
		Route: route.Options{
			Claimpoints:   !o.NoClaimpoints,
			SwapObjective: o.SwapObjective,
			Margin:        o.Margin,
		},
	}
	var err error
	if opts.Route.OrderShortestFirst, err = route.ParseOrder(o.RouteOrder); err != nil {
		return opts, err
	}
	if opts.Place.PartSize == 0 {
		opts.Place.PartSize = 7
	}
	if opts.Place.BoxSize == 0 {
		opts.Place.BoxSize = 5
	}
	switch o.Placer {
	case "", "paper":
		opts.Placer = gen.PlacePaper
	case "epitaxial":
		opts.Placer = gen.PlaceEpitaxial
	case "mincut":
		opts.Placer = gen.PlaceMinCut
	case "columns":
		opts.Placer = gen.PlaceLogicColumns
	default:
		return opts, fmt.Errorf("unknown placer %q (paper, epitaxial, mincut, columns)", o.Placer)
	}
	switch o.Algorithm {
	case "", "line-expansion":
		opts.Route.Algorithm = route.AlgoLineExpansion
	case "lee-bends":
		opts.Route.Algorithm = route.AlgoLee
	case "lee-length":
		opts.Route.Algorithm = route.AlgoLeeLength
	case "hightower":
		opts.Route.Algorithm = route.AlgoHightower
	default:
		return opts, fmt.Errorf("unknown algorithm %q (line-expansion, lee-bends, lee-length, hightower)", o.Algorithm)
	}
	dm, err := gen.ParseDegradeMode(o.DegradeMode)
	if err != nil {
		return opts, err
	}
	opts.Degrade = dm
	// A negative spacing overlaps modules, which can put two nets'
	// terminals on one point: reject it here rather than fail routing.
	for _, sp := range []struct {
		name string
		v    int
	}{{"part_spacing", o.PartSpacing}, {"box_spacing", o.BoxSpacing}, {"mod_spacing", o.ModSpacing}} {
		if sp.v < 0 {
			return opts, fmt.Errorf("%s must be >= 0, got %d", sp.name, sp.v)
		}
	}
	return opts, nil
}

// canonical renders the options in a fixed field order for the cache
// key; every result-affecting field participates, so any knob change
// misses the cache. The degradation policy is passed in resolved form
// because an empty request field inherits the server default — two
// requests with different effective policies must never share a cache
// entry.
func (o GenOptions) canonical(degrade gen.DegradeMode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "placer=%s part=%d box=%d conn=%d", orDefault(o.Placer, "paper"),
		orDefaultInt(o.PartSize, 7), orDefaultInt(o.BoxSize, 5), o.MaxConnections)
	fmt.Fprintf(&b, " pspc=%d bspc=%d mspc=%d", o.PartSpacing, o.BoxSpacing, o.ModSpacing)
	fmt.Fprintf(&b, " algo=%s claims=%t swap=%t order=%s margin=%d",
		orDefault(o.Algorithm, "line-expansion"), !o.NoClaimpoints, o.SwapObjective,
		orDefault(o.RouteOrder, "shortest"), o.Margin)
	fmt.Fprintf(&b, " degrade=%s", degrade)
	return b.String()
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func orDefaultInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// DegradedReport is attached to a response when the degradation ladder
// accepted a partial routing rather than failing the request: it names
// the routing configurations that were attempted and the nets that
// remained unrouted in the best result.
type DegradedReport struct {
	Reason   string   `json:"reason"`
	Attempts []string `json:"attempts,omitempty"`
	Unrouted []string `json:"unrouted"`
}

// degradedReport converts the schematic's degradation block.
func degradedReport(d *schematic.Degradation) *DegradedReport {
	if d == nil {
		return nil
	}
	return &DegradedReport{
		Reason:   d.Reason,
		Attempts: append([]string(nil), d.Attempts...),
		Unrouted: append([]string(nil), d.Unrouted...),
	}
}

// Report is the stable JSON view of a gen.Report: per-stage timings
// (shared wire names with /v1's "stages"), the routing attempts the
// degradation ladder made, the router's work counters, the
// degradation block, and the request's span tree.
type Report struct {
	Timings  gen.StageTimings  `json:"timings"`
	Attempts []string          `json:"attempts,omitempty"`
	Search   route.SearchStats `json:"route_stats"`
	Degraded *DegradedReport   `json:"degraded,omitempty"`
	Trace    *obs.TraceData    `json:"trace,omitempty"`
}

// Response is the body of a successful /v1/generate call (kept
// wire-identical to the pre-/v2 daemon; new fields go to ResponseV2).
type Response struct {
	Name     string            `json:"name"`
	Format   string            `json:"format"`
	Diagram  string            `json:"diagram"`
	Metrics  schematic.Metrics `json:"metrics"`
	Unrouted int               `json:"unrouted"`
	Cached   bool              `json:"cached"`
	// Degraded is set when the result is a best-effort partial routing
	// (see gen.DegradeBestEffort); callers that require complete
	// diagrams should check it before trusting the artwork.
	Degraded *DegradedReport `json:"degraded,omitempty"`
	// CacheKey is the hex SHA-256 content address of this result.
	CacheKey  string           `json:"cache_key"`
	ElapsedMs float64          `json:"elapsed_ms"`
	Stages    gen.StageTimings `json:"stages"`
}

// ResponseV2 is the body of a successful /v2/generate call: the /v1
// fields plus the full generation report (timings, attempts, search
// counters, degradation, span tree) under "report".
type ResponseV2 struct {
	Name      string            `json:"name"`
	Format    string            `json:"format"`
	Diagram   string            `json:"diagram"`
	Metrics   schematic.Metrics `json:"metrics"`
	Unrouted  int               `json:"unrouted"`
	Cached    bool              `json:"cached"`
	CacheKey  string            `json:"cache_key"`
	ElapsedMs float64           `json:"elapsed_ms"`
	Report    Report            `json:"report"`
}

// V1 adapts a v2 response to the /v1 wire shape (thin adapter; the
// pipeline only ever produces v2 responses).
func (r *ResponseV2) V1() *Response {
	return &Response{
		Name:      r.Name,
		Format:    r.Format,
		Diagram:   r.Diagram,
		Metrics:   r.Metrics,
		Unrouted:  r.Unrouted,
		Cached:    r.Cached,
		Degraded:  r.Report.Degraded,
		CacheKey:  r.CacheKey,
		ElapsedMs: r.ElapsedMs,
		Stages:    r.Report.Timings,
	}
}

// TraceID returns the response's trace identifier ("" when absent).
func (r *ResponseV2) TraceID() string {
	if r.Report.Trace == nil {
		return ""
	}
	return r.Report.Trace.TraceID
}

// ErrorResponse is the unified error envelope: every non-2xx JSON
// response across /v1 and /v2 (generate, batch, jobs, method/path
// errors) carries exactly this shape. Code repeats the HTTP status so
// the verdict survives embedding (batch items, proxied peer errors);
// TraceID is an edge-generated correlation id also set in the
// X-Netart-Trace-Id response header.
type ErrorResponse struct {
	Error   string `json:"error"`
	Code    int    `json:"code,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// BatchRequest is the body of POST /v1/batch and /v2/batch.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchItem is one outcome inside a BatchResponse: exactly one of
// Response or Error is set.
type BatchItem struct {
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
	// Status is the HTTP status the item would have had standalone.
	Status int `json:"status"`
	// Attempts counts how many times this item was executed; >1 means
	// the bounded-retry layer re-ran it after a transient failure.
	Attempts int `json:"attempts,omitempty"`
}

// BatchResponse preserves request order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// BatchItemV2 is one outcome inside a /v2 batch response.
type BatchItemV2 struct {
	Response *ResponseV2 `json:"response,omitempty"`
	Error    string      `json:"error,omitempty"`
	Status   int         `json:"status"`
	Attempts int         `json:"attempts,omitempty"`
}

// V1 adapts a v2 batch item to the /v1 wire shape.
func (it BatchItemV2) V1() BatchItem {
	out := BatchItem{Error: it.Error, Status: it.Status, Attempts: it.Attempts}
	if it.Response != nil {
		out.Response = it.Response.V1()
	}
	return out
}

// BatchResponseV2 preserves request order.
type BatchResponseV2 struct {
	Results []BatchItemV2 `json:"results"`
}

// HealthResponse is the body of GET /v1/healthz. Status is "ok" or
// "degraded"; degraded is advisory (still HTTP 200) and Reasons says
// why — a nearly-full queue or recovered panics since start.
type HealthResponse struct {
	Status  string   `json:"status"`
	Workers int      `json:"workers"`
	Queue   int      `json:"queue_depth"`
	Queued  int      `json:"queued"`
	Panics  uint64   `json:"panics"`
	Reasons []string `json:"reasons,omitempty"`
	// Store summarizes the result store when one is configured; disk
	// errors degrade the status (memory tier and recomputation still
	// serve, so degradation is advisory like the other reasons).
	Store *StoreHealth `json:"store,omitempty"`
	// Fleet summarizes peer health when this daemon is part of a
	// fleet; down peers degrade the status (their keys remap to live
	// replicas, so this too is advisory).
	Fleet   *FleetHealth `json:"fleet,omitempty"`
	UptimeS float64      `json:"uptime_s"`
}

// StoreHealth is the healthz view of the result store.
type StoreHealth struct {
	Backend    string `json:"backend"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	DiskErrors uint64 `json:"disk_errors"`
}

// FleetHealth is the healthz/stats view of the fleet health layer:
// this replica's opinion of every peer's circuit breaker. Down peers
// degrade the status (advisory — their keys remap to live replicas
// and every request still serves).
type FleetHealth struct {
	Self string `json:"self"`
	// Down counts peers currently excluded from the ownership set
	// (breaker open or half-open).
	Down  int          `json:"down"`
	Peers []PeerHealth `json:"peers"`
}

// PeerHealth is one peer's breaker state as this replica sees it.
type PeerHealth struct {
	URL   string `json:"url"`
	State string `json:"state"` // closed | half-open | open
	Live  bool   `json:"live"`
}
