package route

import (
	"context"
	"fmt"
	"sort"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/resilience"
)

// Options mirrors the EUREKA command line of Appendix F plus the
// claimpoint extension of §5.7.
type Options struct {
	// Claimpoints enables the §5.7 extension: every connected subsystem
	// terminal reserves the first track cell in front of it; the claims
	// of a net are released when its routing starts, and a final retry
	// pass over failed nets runs with all claims gone.
	Claimpoints bool
	// SwapObjective (-s) ranks minimum-bend candidates by wire length
	// first and crossings second instead of the default order.
	SwapObjective bool
	// Margin is the number of free tracks added around the placement
	// for routing. Sides with a fixed border (-u -d -l -r) get none:
	// wires cannot pass beyond the bounding box there, which forces
	// outgoing nets perpendicular to that border.
	Margin int
	// FixedBorder[d] fixes the border on side d (the EUREKA options
	// -l, -r, -u, -d index as geom.Left, geom.Right, geom.Up, geom.Down).
	FixedBorder [4]bool
	// Prerouted supplies nets with already drawn (partial or complete)
	// paths; they are added as obstacles before routing starts and the
	// router only adds the missing connections (§5.7).
	Prerouted map[*netlist.Net][]Segment
	// NoRetry disables the post-pass over failed nets (used by the
	// claimpoint ablation bench).
	NoRetry bool
	// OrderShortestFirst routes nets in order of increasing estimated
	// length (half-perimeter of the terminal bounding box) instead of
	// design order. This implements the net-ordering criterion the
	// paper lists under "recommendations for further research" (§7).
	// The gen/service/cmd layers enable it by default (it routes all
	// 222 LIFE nets where design order strands obs7); the paper's
	// design order stays available behind -route-order=design.
	OrderShortestFirst bool
	// Algorithm selects the search engine. The default is the paper's
	// line-expansion router; the baselines of §5.2 are available for
	// the comparison benches.
	Algorithm Algo
	// MaxPlaneArea caps the routing-plane area in points (0 =
	// unlimited). Oversized planes are rejected with a
	// *resilience.LimitError before any allocation, so one pathological
	// placement cannot exhaust the process.
	MaxPlaneArea int
	// Inject, when non-nil, arms the resilience.SiteRouteWavefront
	// fault site: it is fired once per wavefront search, and an
	// injected error makes that search fail soft (the terminal is
	// reported unrouted, matching the paper's best-effort failure
	// model) while an injected panic propagates to the caller's
	// Recover boundary.
	Inject *resilience.Injector
	// OnCommit, when non-nil, is invoked once per net of the main
	// routing pass, right after the net loop has laid its wires, in the
	// routing order (routeOrder). idx is the net's position in that
	// order, total the number of nets in the pass, and rn the net's
	// outcome at that point. The retry pass may later improve a net
	// reported failed here; the returned Result holds the authoritative
	// final geometry. The callback runs on the routing goroutine: it
	// must not block for long and must not mutate routing state.
	OnCommit func(idx, total int, rn *RoutedNet)
}

// ParseOrder maps the -route-order flag (and the service's route_order
// option) onto Options.OrderShortestFirst. The empty string means the
// default, which is shortest-first; the paper's design order stays
// available as "design".
func ParseOrder(s string) (shortestFirst bool, err error) {
	switch s {
	case "", "shortest":
		return true, nil
	case "design":
		return false, nil
	default:
		return false, fmt.Errorf("route: unknown order %q (shortest, design)", s)
	}
}

// Algo identifies a routing search engine.
type Algo int

// The available engines.
const (
	// AlgoLineExpansion is the paper's router (§5.5/§5.6).
	AlgoLineExpansion Algo = iota
	// AlgoLee is the Lee maze runner with the schematic objective
	// (bends first), §5.2.2 generalized with penalty costs.
	AlgoLee
	// AlgoLeeLength is the classic Lee router minimizing wire length.
	AlgoLeeLength
	// AlgoHightower is the Hightower line-search router (§5.2.3):
	// fast, but it may fail to find an existing connection.
	AlgoHightower
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case AlgoLineExpansion:
		return "line-expansion"
	case AlgoLee:
		return "lee-bends"
	case AlgoLeeLength:
		return "lee-length"
	case AlgoHightower:
		return "hightower"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

func (o Options) margin() int {
	if o.Margin <= 0 {
		return 6
	}
	return o.Margin
}

// RoutedNet is the outcome for one net.
type RoutedNet struct {
	Net      *netlist.Net
	Segments []Segment
	// Failed lists the terminals that could not be connected; empty
	// means fully routed.
	Failed []*netlist.Terminal
}

// OK reports whether the net routed completely.
func (rn *RoutedNet) OK() bool { return len(rn.Failed) == 0 }

// Result is the routing outcome for a whole placed design.
type Result struct {
	Placement *place.Result
	Plane     *Plane
	Nets      []*RoutedNet
	NetID     map[*netlist.Net]int32
	// Stats aggregates the line-expansion work counters over the run
	// (zero when a baseline algorithm handled the searches).
	Stats SearchStats
	byNet map[*netlist.Net]*RoutedNet
}

// Net returns the routing outcome for a specific net.
func (r *Result) Net(n *netlist.Net) *RoutedNet { return r.byNet[n] }

// UnroutedCount returns the number of nets with at least one
// unconnected terminal — the measure reported for figures 6.6/6.7.
func (r *Result) UnroutedCount() int {
	n := 0
	for _, rn := range r.Nets {
		if !rn.OK() {
			n++
		}
	}
	return n
}

// router carries the working state of one Route invocation. Each
// route owns its plane, arena and result and only reads the placement
// and options, so concurrent routes of one placement are independent.
type router struct {
	pl     *place.Result
	plane  *Plane
	opts   Options
	netID  map[*netlist.Net]int32
	result *Result
	cancel *cancelCheck

	// stats is where the search engines accumulate their counters; it
	// points at result.Stats.
	stats *SearchStats
	// ar is the lazily created search arena (arena.go) reused across
	// every line-expansion search this router runs.
	ar *searchArena
}

// arena returns the router's search arena, creating it on first use.
func (rt *router) arena() *searchArena {
	if rt.ar == nil {
		rt.ar = newSearchArena(rt.plane.lineGeom)
	}
	return rt.ar
}

// Route runs the routing phase over a placement.
func Route(pr *place.Result, opts Options) (*Result, error) {
	return RouteCtx(context.Background(), pr, opts)
}

// RouteCtx runs the routing phase over a placement with cancellation:
// the deadline or cancel signal of ctx is polled inside the wavefront
// loops of every search engine (the hottest paths), between nets, and
// before the retry pass, so a cancelled route returns within a bounded
// amount of residual work. On cancellation the partial result is
// discarded and ctx.Err() is returned.
func RouteCtx(ctx context.Context, pr *place.Result, opts Options) (*Result, error) {
	rt := &router{
		pl:     pr,
		opts:   opts,
		netID:  map[*netlist.Net]int32{},
		cancel: newCancelCheck(ctx),
	}
	if err := rt.buildPlane(); err != nil {
		return nil, err
	}
	rt.result = &Result{
		Placement: pr,
		Plane:     rt.plane,
		NetID:     rt.netID,
		byNet:     map[*netlist.Net]*RoutedNet{},
	}
	rt.stats = &rt.result.Stats
	if err := rt.addPrerouted(); err != nil {
		return nil, err
	}
	if opts.Claimpoints {
		rt.placeClaims()
	}
	rt.routeAll()
	if !opts.NoRetry && !rt.cancel.poll() {
		rt.retryFailed()
	}
	if rt.cancel.poll() {
		return nil, ctx.Err()
	}
	return rt.result, nil
}

// buildPlane sets up the obstacle configuration (ADD_OBSTACLE_BOUNDINGS):
// module outlines, system terminal points and the plane border.
func (rt *router) buildPlane() error {
	d := rt.pl.Design
	// Point bounds: a module rect of cells [min,max) occupies points
	// min..max inclusive.
	b := rt.pl.Bounds
	pb := geom.Rect{Min: b.Min, Max: b.Max} // already point-usable: Max row/col holds terminals
	m := rt.opts.margin()
	if !rt.opts.FixedBorder[geom.Left] {
		pb.Min.X -= m
	}
	if !rt.opts.FixedBorder[geom.Down] {
		pb.Min.Y -= m
	}
	if !rt.opts.FixedBorder[geom.Right] {
		pb.Max.X += m
	}
	if !rt.opts.FixedBorder[geom.Up] {
		pb.Max.Y += m
	}
	g := resilience.Guards{MaxPlaneArea: rt.opts.MaxPlaneArea}
	if err := g.CheckArea(pb.Max.X-pb.Min.X+1, pb.Max.Y-pb.Min.Y+1); err != nil {
		return fmt.Errorf("route: %w", err)
	}
	rt.plane = NewPlane(pb)

	for _, m := range d.Modules {
		pm, ok := rt.pl.Mods[m]
		if !ok {
			return fmt.Errorf("route: module %q not placed", m.Name)
		}
		r := pm.Rect()
		rt.plane.BlockRect(r.Min, r.Max)
	}
	for i, n := range d.Nets {
		rt.netID[n] = int32(i + 1)
	}
	// Terminal marks: connected terminals become endpoints of their
	// net; system terminal points are additionally blocked so no
	// foreign wire may overlap them.
	for _, n := range d.Nets {
		id := rt.netID[n]
		for _, t := range n.Terms {
			p, err := rt.pl.TermPos(t)
			if err != nil {
				return err
			}
			if err := rt.plane.SetTerminal(p, id); err != nil {
				return fmt.Errorf("route: net %q: %w", n.Name, err)
			}
		}
	}
	for _, st := range d.SysTerms {
		p := rt.pl.SysPos[st]
		rt.plane.BlockPoint(p)
	}
	return nil
}

// addPrerouted lays the supplied paths as obstacles and records which
// terminals they already connect.
func (rt *router) addPrerouted() error {
	// Deterministic order by net name.
	nets := make([]*netlist.Net, 0, len(rt.opts.Prerouted))
	for n := range rt.opts.Prerouted {
		nets = append(nets, n)
	}
	sort.Slice(nets, func(i, j int) bool { return nets[i].Name < nets[j].Name })
	for _, n := range nets {
		id, ok := rt.netID[n]
		if !ok {
			return fmt.Errorf("route: prerouted net %q not in design", n.Name)
		}
		if err := rt.plane.LayWire(id, rt.opts.Prerouted[n]); err != nil {
			return fmt.Errorf("route: prerouted net %q: %w", n.Name, err)
		}
	}
	return nil
}

// placeClaims reserves, for every connected subsystem terminal, the
// first track cell in front of it (§5.7).
func (rt *router) placeClaims() {
	for _, n := range rt.pl.Design.Nets {
		id := rt.netID[n]
		for _, t := range n.Terms {
			if t.Module == nil {
				continue
			}
			p, err := rt.pl.TermPos(t)
			if err != nil {
				continue
			}
			side, err := rt.pl.TermSide(t)
			if err != nil {
				continue
			}
			rt.plane.Claim(p.Add(side.Delta()), id)
		}
	}
}

// routeAll routes every net (ROUTING), one at a time: each search sees
// every earlier net's wires as obstacles (§5.6.2). The default order is
// design order, as in the paper; OrderShortestFirst is the §7
// extension.
func (rt *router) routeAll() {
	order := rt.routeOrder()
	byNet := map[*netlist.Net]*RoutedNet{}
	for i, n := range order {
		if rt.cancel.poll() {
			break // abandoned run; RouteCtx discards the result
		}
		byNet[n] = rt.routeNet(n)
		if rt.opts.OnCommit != nil {
			rt.opts.OnCommit(i, len(order), byNet[n])
		}
	}
	rt.publish(byNet)
}

// routeOrder returns the routing order: design order, or increasing
// estimated length with OrderShortestFirst. The sort is stable, so nets
// of equal estimate keep design order and the order is deterministic.
func (rt *router) routeOrder() []*netlist.Net {
	order := append([]*netlist.Net(nil), rt.pl.Design.Nets...)
	if rt.opts.OrderShortestFirst {
		est := make(map[*netlist.Net]int, len(order))
		for _, n := range order {
			est[n] = rt.halfPerimeter(n)
		}
		sort.SliceStable(order, func(i, j int) bool { return est[order[i]] < est[order[j]] })
	}
	return order
}

// publish records the per-net outcomes into the result in design order
// regardless of routing order. Nets missing from byNet (cancelled run)
// are reported with all terminals failed.
func (rt *router) publish(byNet map[*netlist.Net]*RoutedNet) {
	for _, n := range rt.pl.Design.Nets {
		rn := byNet[n]
		if rn == nil {
			rn = &RoutedNet{Net: n, Failed: append([]*netlist.Terminal(nil), n.Terms...)}
		}
		rt.result.Nets = append(rt.result.Nets, rn)
		rt.result.byNet[n] = rn
	}
}

// halfPerimeter estimates a net's routed length as the half-perimeter
// of its terminal bounding box.
func (rt *router) halfPerimeter(n *netlist.Net) int {
	first := true
	var lo, hi geom.Point
	for _, t := range n.Terms {
		p := rt.termPoint(t)
		if first {
			lo, hi, first = p, p, false
			continue
		}
		lo = geom.Pt(geom.Min(lo.X, p.X), geom.Min(lo.Y, p.Y))
		hi = geom.Pt(geom.Max(hi.X, p.X), geom.Max(hi.Y, p.Y))
	}
	return (hi.X - lo.X) + (hi.Y - lo.Y)
}

// termPoint resolves a terminal's plane point.
func (rt *router) termPoint(t *netlist.Terminal) geom.Point {
	p, _ := rt.pl.TermPos(t)
	return p
}

// escapeDirs returns the initial expansion directions for a terminal:
// the outward module side for subsystem terminals, all four directions
// for system terminals (INIT_ACTIVES).
func (rt *router) escapeDirs(t *netlist.Terminal) []geom.Dir {
	if t.Module == nil {
		return []geom.Dir{geom.Left, geom.Right, geom.Up, geom.Down}
	}
	side, err := rt.pl.TermSide(t)
	if err != nil {
		return nil
	}
	return []geom.Dir{side}
}

// routeNet routes one net: initiate with a point-to-point connection
// between the closest terminal pair, then attach every remaining
// terminal to the growing tree (INIT_NET / EXPAND_NET).
func (rt *router) routeNet(n *netlist.Net) *RoutedNet {
	rn := &RoutedNet{Net: n}
	id := rt.netID[n]
	rt.plane.ReleaseClaims(id)

	if pre, ok := rt.opts.Prerouted[n]; ok {
		rn.Segments = append(rn.Segments, pre...)
	}
	if n.Degree() < 2 && len(rn.Segments) == 0 {
		return rn // nothing to connect
	}

	connected, pending := rt.splitConnected(n, rn.Segments)
	if len(connected) == 0 && len(pending) >= 2 {
		// Initiation: order candidate pairs by distance and take the
		// first routable one ("when no solution is found, another pair
		// of points has to be selected").
		pair, segs, ok := rt.initiate(pending, id)
		if !ok {
			rn.Failed = append(rn.Failed, pending...)
			return rn
		}
		rn.Segments = append(rn.Segments, segs...)
		connected = append(connected, pair[0], pair[1])
		pending = removeTerms(pending, pair[0], pair[1])
	}

	// Expansion: attach remaining terminals, closest to the tree first.
	for len(pending) > 0 {
		sort.SliceStable(pending, func(i, j int) bool {
			return rt.distToTree(pending[i], rn.Segments, connected) <
				rt.distToTree(pending[j], rn.Segments, connected)
		})
		t := pending[0]
		pending = pending[1:]
		segs, ok := rt.connectToTree(t, id, connected, rn.Segments)
		if !ok {
			rn.Failed = append(rn.Failed, t)
			continue
		}
		if err := rt.plane.LayWire(id, segs); err != nil {
			// Should not happen: the search only uses legal cells.
			rn.Failed = append(rn.Failed, t)
			continue
		}
		rn.Segments = append(rn.Segments, segs...)
		connected = append(connected, t)
	}
	return rn
}

// splitConnected partitions the net's terminals into those already on
// the prerouted geometry and those still pending.
func (rt *router) splitConnected(n *netlist.Net, pre []Segment) (connected, pending []*netlist.Terminal) {
	onWire := map[geom.Point]bool{}
	for _, s := range pre {
		for _, p := range s.Points() {
			onWire[p] = true
		}
	}
	for _, t := range n.Terms {
		if onWire[rt.termPoint(t)] {
			connected = append(connected, t)
		} else {
			pending = append(pending, t)
		}
	}
	return connected, pending
}

// initiate makes the first point-to-point connection of a net.
func (rt *router) initiate(terms []*netlist.Terminal, id int32) ([2]*netlist.Terminal, []Segment, bool) {
	type pair struct {
		a, b *netlist.Terminal
		d    int
	}
	var pairs []pair
	for i := 0; i < len(terms); i++ {
		for j := i + 1; j < len(terms); j++ {
			pairs = append(pairs, pair{terms[i], terms[j],
				rt.termPoint(terms[i]).Manhattan(rt.termPoint(terms[j]))})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].d < pairs[j].d })
	const maxAttempts = 8
	for k, p := range pairs {
		if k >= maxAttempts {
			break
		}
		target := rt.termPoint(p.b)
		segs, ok := rt.search(p.a, id, func(q geom.Point) bool { return q == target },
			[]geom.Point{target}, nil)
		if !ok {
			continue
		}
		if err := rt.plane.LayWire(id, segs); err != nil {
			continue
		}
		return [2]*netlist.Terminal{p.a, p.b}, segs, true
	}
	return [2]*netlist.Terminal{}, nil, false
}

// connectToTree searches from terminal t to any point of the net's
// existing geometry (wires or connected terminal points). tree is the
// net's laid geometry; with the connected terminal points it forms the
// line-expansion engine's marked target set.
func (rt *router) connectToTree(t *netlist.Terminal, id int32, connected []*netlist.Terminal, tree []Segment) ([]Segment, bool) {
	connPts := map[geom.Point]bool{}
	for _, c := range connected {
		connPts[rt.termPoint(c)] = true
	}
	target := func(q geom.Point) bool {
		if connPts[q] {
			return true
		}
		return rt.plane.HNet(q) == id || rt.plane.VNet(q) == id
	}
	var hint []geom.Point
	for p := range connPts {
		hint = append(hint, p)
	}
	sort.Slice(hint, func(i, j int) bool {
		if hint[i].X != hint[j].X {
			return hint[i].X < hint[j].X
		}
		return hint[i].Y < hint[j].Y
	})
	return rt.search(t, id, target, hint, tree)
}

// search runs one search from a terminal using the selected engine.
// hint lists known target points (for engines that need a concrete
// point, like Hightower); tree is the net's laid geometry. Every
// reachable target point must lie within the bbox of hint/tree — the
// Lee engine's A* bound and the line engine's final-wave box rely on
// it.
func (rt *router) search(t *netlist.Terminal, id int32, target func(geom.Point) bool, hint []geom.Point, tree []Segment) ([]Segment, bool) {
	dirs := rt.escapeDirs(t)
	if len(dirs) == 0 {
		return nil, false
	}
	// Fault-injection site route.wavefront: one firing per search. An
	// injected error fails this search softly (the terminal is reported
	// unrouted and the degradation ladder decides what happens next); a
	// panic escapes to the nearest resilience.Recover.
	if rt.opts.Inject.Fire(resilience.SiteRouteWavefront) != nil {
		return nil, false
	}
	return rt.searchFrom(id, rt.termPoint(t), dirs, target, hint, tree)
}

// searchFrom runs one engine invocation from the point from escaping in
// dirs. For the line-expansion engine the target set — the hint points
// plus the net's laid tree — is precomputed as arena marks, replacing
// the per-cell predicate on the hot sweep.
func (rt *router) searchFrom(id int32, from geom.Point, dirs []geom.Dir, target func(geom.Point) bool, hint []geom.Point, tree []Segment) ([]Segment, bool) {
	switch rt.opts.Algorithm {
	case AlgoLee, AlgoLeeLength:
		tbox := ptBox(from)
		for _, h := range hint {
			tbox = boxAdd(tbox, h)
		}
		for _, s := range tree {
			tbox = boxAdd(boxAdd(tbox, s.A), s.B)
		}
		obj := LengthFirst
		if rt.opts.Algorithm == AlgoLee {
			obj = BendsFirst
			if rt.opts.SwapObjective {
				obj = LengthCrossBends
			}
		}
		return leeSearch(rt.plane, id, from, dirs, target, obj, tbox, rt.cancel)
	case AlgoHightower:
		// Hightower is point to point: aim at the nearest hint.
		best := geom.Point{}
		bestD := 1 << 30
		for _, h := range hint {
			if d := from.Manhattan(h); d < bestD {
				best, bestD = h, d
			}
		}
		if bestD == 1<<30 {
			return nil, false
		}
		return hightowerSearch(rt.plane, id, from, best)
	default:
		ls := newLineSearch(rt.plane, id, rt.opts.SwapObjective, rt.arena())
		ls.stats = rt.stats
		ls.cancel = rt.cancel
		ls.setTargets(hint, tree)
		rt.stats.Searches++
		return runSearch(ls, terminalActives(from, dirs))
	}
}

// runSearch is the wave loop every router search runs; the reference
// battery swaps in an unpruned loop to check the final-wave sweep.
var runSearch = (*lineSearch).run

// distToTree estimates a terminal's distance to the net's current
// geometry for ordering (not correctness).
func (rt *router) distToTree(t *netlist.Terminal, segs []Segment, connected []*netlist.Terminal) int {
	p := rt.termPoint(t)
	best := 1 << 30
	for _, c := range connected {
		if d := p.Manhattan(rt.termPoint(c)); d < best {
			best = d
		}
	}
	for _, s := range segs {
		if d := distToSegment(p, s); d < best {
			best = d
		}
	}
	return best
}

func distToSegment(p geom.Point, s Segment) int {
	c := s.Canon()
	cx := geom.Min(geom.Max(p.X, c.A.X), c.B.X)
	cy := geom.Min(geom.Max(p.Y, c.A.Y), c.B.Y)
	return p.Manhattan(geom.Pt(cx, cy))
}

func removeTerms(terms []*netlist.Terminal, drop ...*netlist.Terminal) []*netlist.Terminal {
	out := terms[:0:0]
	for _, t := range terms {
		skip := false
		for _, d := range drop {
			if t == d {
				skip = true
			}
		}
		if !skip {
			out = append(out, t)
		}
	}
	return out
}

// retryFailed releases every remaining claimpoint and re-attempts the
// failed terminals ("all unconnected terminals should be tried again
// after all the claimpoints have been removed", §5.7).
func (rt *router) retryFailed() {
	rt.plane.ReleaseAllClaims()
	for _, rn := range rt.result.Nets {
		if rt.cancel.poll() {
			return
		}
		if rn.OK() {
			continue
		}
		rt.completePending(rn)
	}
}

// completePending re-attempts every failed terminal of rn on the
// current plane, initiating the net first when it has no geometry yet.
func (rt *router) completePending(rn *RoutedNet) {
	id := rt.netID[rn.Net]
	pending := rn.Failed
	rn.Failed = nil
	connected := connectedTerms(rn, rt)

	// A net that never initiated first needs a point-to-point seed.
	if len(connected) == 0 && len(rn.Segments) == 0 && len(pending) >= 2 {
		if pair, segs, ok := rt.initiate(pending, id); ok {
			rn.Segments = append(rn.Segments, segs...)
			connected = append(connected, pair[0], pair[1])
			pending = removeTerms(pending, pair[0], pair[1])
		}
	}
	for _, t := range pending {
		if len(connected) == 0 && len(rn.Segments) == 0 {
			rn.Failed = append(rn.Failed, t)
			continue
		}
		segs, ok := rt.connectToTree(t, id, connected, rn.Segments)
		if !ok {
			rn.Failed = append(rn.Failed, t)
			continue
		}
		if err := rt.plane.LayWire(id, segs); err != nil {
			rn.Failed = append(rn.Failed, t)
			continue
		}
		rn.Segments = append(rn.Segments, segs...)
		connected = append(connected, t)
	}
}

// connectedTerms recomputes which terminals of a net touch its laid
// geometry.
func connectedTerms(rn *RoutedNet, rt *router) []*netlist.Terminal {
	onWire := map[geom.Point]bool{}
	for _, s := range rn.Segments {
		for _, p := range s.Points() {
			onWire[p] = true
		}
	}
	var out []*netlist.Terminal
	for _, t := range rn.Net.Terms {
		if onWire[rt.termPoint(t)] {
			out = append(out, t)
		}
	}
	return out
}
