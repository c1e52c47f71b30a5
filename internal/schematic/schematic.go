// Package schematic models the finished diagram — placed modules,
// placed system terminals and routed nets — and provides the quality
// metrics of §3.2 (wire length, bends, crossovers, branching nodes,
// signal flow), an independent structural verifier (standing in for the
// ESCHER simulation check of §6), text and SVG renderers, and the
// ESCHER file format of Appendix D.
package schematic

import (
	"fmt"
	"math/bits"
	"sort"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
)

// Diagram bundles a placement with an optional routing.
type Diagram struct {
	Design    *netlist.Design
	Placement *place.Result
	Routing   *route.Result // nil for placement-only diagrams
	// Degraded is non-nil when the diagram is a best-effort partial
	// result: the generation pipeline exhausted its degradation ladder
	// and kept the least-bad routing instead of failing the request.
	// Renderers append it as a diagnostic block so a degraded artwork
	// is never mistaken for a clean one.
	Degraded *Degradation
}

// Degradation reports what a partial diagram still preserves and what
// it lost — the machine-checkable record of a best-effort generation
// (the paper treats unrouted nets as reportable, not fatal; §6 lists
// them per figure).
type Degradation struct {
	// Attempts names the degradation-ladder rungs that were tried, in
	// order (e.g. "route[line-expansion]", "place[part-spacing+1]",
	// "place[spacing+1]", "place[spacing+2]").
	Attempts []string
	// Unrouted lists the incomplete nets as "net: term1 term2 ..."
	// (the terminals that stayed unconnected).
	Unrouted []string
	// Reason is a one-line human summary.
	Reason string
}

// Block renders the degradation report as a multi-line diagnostic
// block, one line per fact, suitable for appending to any text
// rendering.
func (dg *Degradation) Block() string {
	if dg == nil {
		return ""
	}
	s := "DEGRADED: " + dg.Reason + "\n"
	if len(dg.Attempts) > 0 {
		s += "  attempts:"
		for _, a := range dg.Attempts {
			s += " " + a
		}
		s += "\n"
	}
	for _, u := range dg.Unrouted {
		s += "  unrouted " + u + "\n"
	}
	return s
}

// FromPlacement wraps a placement-only diagram (the intermediate result
// of figure 3.2 before nets are added).
func FromPlacement(pr *place.Result) *Diagram {
	return &Diagram{Design: pr.Design, Placement: pr}
}

// FromRouting wraps a fully generated diagram.
func FromRouting(rr *route.Result) *Diagram {
	return &Diagram{Design: rr.Placement.Design, Placement: rr.Placement, Routing: rr}
}

// Metrics are the readability measures of §3.2: "The traceability of
// wires is enhanced by reducing wire length, the number of crossovers
// and the number of bends... the number of branching nodes is kept as
// low as possible", plus the left-to-right signal flow of Rule 3 and
// the unrouted count of §6.
type Metrics struct {
	WireLength int
	Bends      int
	Crossings  int
	Branches   int
	Unrouted   int
	Area       int
	// FlowRight is the fraction of driver→sink module pairs whose
	// driver terminal lies left of the sink terminal (Rule 3), in
	// [0,1]; NaN-free: 0 when no pairs exist.
	FlowRight float64
}

// netGraph is the point adjacency of one net's wire tree.
type netGraph struct {
	adj map[geom.Point][]geom.Point
}

func buildGraph(segs []route.Segment) *netGraph {
	g := &netGraph{adj: map[geom.Point][]geom.Point{}}
	link := func(a, b geom.Point) {
		for _, x := range g.adj[a] {
			if x == b {
				return
			}
		}
		g.adj[a] = append(g.adj[a], b)
		g.adj[b] = append(g.adj[b], a)
	}
	for _, s := range segs {
		pts := s.Points()
		for i := 1; i < len(pts); i++ {
			link(pts[i-1], pts[i])
		}
	}
	return g
}

// connected reports whether all the given points lie in one component
// of the graph.
func (g *netGraph) connected(pts []geom.Point) bool {
	if len(g.adj) == 0 {
		return len(pts) == 0
	}
	start := pts[0]
	if _, ok := g.adj[start]; !ok {
		return false
	}
	seen := map[geom.Point]bool{start: true}
	stack := []geom.Point{start}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range g.adj[p] {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	for _, p := range pts {
		if !seen[p] {
			return false
		}
	}
	// Also require the whole tree to be one component (no stray
	// islands).
	for p := range g.adj {
		if !seen[p] {
			return false
		}
	}
	return true
}

// Metrics computes the diagram's quality measures.
func (d *Diagram) Metrics() Metrics {
	var m Metrics
	m.Area = d.Placement.Bounds.Area()
	m.FlowRight = flowScore(d.Placement)
	if d.Routing == nil {
		return m
	}
	g := newWireGrid(d.Routing.Nets, true)
	for _, rn := range d.Routing.Nets {
		if !rn.OK() {
			m.Unrouted++
		}
		g.addNet(rn.Segments, d.Routing.NetID[rn.Net])
		b, br := g.bendsAndBranches()
		m.Bends += b
		m.Branches += br
		for _, s := range rn.Segments {
			m.WireLength += s.Len()
		}
	}
	m.Crossings = g.crossings()
	return m
}

// Neighbour-mask bits: the wire of the net at a point runs on to the
// grid neighbour in that direction.
const (
	nbRight uint8 = 1 << iota
	nbLeft
	nbUp
	nbDown
)

// nbBit maps a unit step to its neighbour bit (0 for any other step).
func nbBit(d geom.Point) uint8 {
	switch d {
	case geom.Pt(1, 0):
		return nbRight
	case geom.Pt(-1, 0):
		return nbLeft
	case geom.Pt(0, 1):
		return nbUp
	case geom.Pt(0, -1):
		return nbDown
	}
	return 0
}

// wireGrid is a dense point grid over a diagram's wires. For the net
// last added it holds, per point, the 4-bit mask of the grid neighbours
// the net's wire runs to — the point's degree and shape in the net's
// wire graph, without buildGraph's map. With crossings tracked it also
// keeps, per axis, the id of the last net whose wire passed each point.
// Routed wires are axis-aligned; a diagonal segment adds no mask bits.
type wireGrid struct {
	min  geom.Point
	w    int
	mask []uint8
	pts  []int   // indices holding a mask bit of the current net
	h, v []int32 // last net id per axis; nil unless crossings are tracked
}

// newWireGrid sizes the grid to the bounding box of every segment
// endpoint of nets (a segment's points lie inside its endpoints' box).
func newWireGrid(nets []*route.RoutedNet, crossings bool) *wireGrid {
	lo, hi := geom.Pt(1<<30, 1<<30), geom.Pt(-1<<30, -1<<30)
	for _, rn := range nets {
		for _, s := range rn.Segments {
			for _, p := range [2]geom.Point{s.A, s.B} {
				lo = geom.Pt(geom.Min(lo.X, p.X), geom.Min(lo.Y, p.Y))
				hi = geom.Pt(geom.Max(hi.X, p.X), geom.Max(hi.Y, p.Y))
			}
		}
	}
	g := &wireGrid{min: lo}
	if lo.X > hi.X {
		return g // no wires
	}
	g.w = hi.X - lo.X + 1
	n := g.w * (hi.Y - lo.Y + 1)
	g.mask = make([]uint8, n)
	if crossings {
		g.h, g.v = make([]int32, n), make([]int32, n)
	}
	return g
}

// addNet loads the neighbour masks of one net's segments, replacing the
// previous net's, and records id as the last net on every point's axis.
func (g *wireGrid) addNet(segs []route.Segment, id int32) {
	for _, i := range g.pts {
		g.mask[i] = 0
	}
	g.pts = g.pts[:0]
	set := func(i int, bit uint8) {
		if bit != 0 && g.mask[i]&bit == 0 {
			if g.mask[i] == 0 {
				g.pts = append(g.pts, i)
			}
			g.mask[i] |= bit
		}
	}
	for _, s := range segs {
		d := geom.Pt(sign(s.B.X-s.A.X), sign(s.B.Y-s.A.Y))
		fwd, back := nbBit(d), nbBit(geom.Pt(-d.X, -d.Y))
		for p := s.A; ; p = p.Add(d) {
			i := (p.Y-g.min.Y)*g.w + p.X - g.min.X
			if g.h != nil {
				if s.Horizontal() {
					g.h[i] = id
				} else {
					g.v[i] = id
				}
			}
			if p != s.A {
				set(i, back)
			}
			if p == s.B {
				break
			}
			set(i, fwd)
		}
	}
}

// bendsAndBranches counts the current net's direction changes (points
// with two perpendicular neighbours) and branching nodes (three or
// more neighbours).
func (g *wireGrid) bendsAndBranches() (bends, branches int) {
	for _, i := range g.pts {
		switch m := g.mask[i]; {
		case bits.OnesCount8(m) >= 3:
			branches++
		case bits.OnesCount8(m) == 2 && m != nbLeft|nbRight && m != nbUp|nbDown:
			bends++
		}
	}
	return bends, branches
}

// branchPoints returns the current net's branching nodes ordered by x,
// then y.
func (g *wireGrid) branchPoints() []geom.Point {
	var out []geom.Point
	for _, i := range g.pts {
		if bits.OnesCount8(g.mask[i]) >= 3 {
			out = append(out, geom.Pt(g.min.X+i%g.w, g.min.Y+i/g.w))
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].X != out[b].X {
			return out[a].X < out[b].X
		}
		return out[a].Y < out[b].Y
	})
	return out
}

// crossings counts the points where the last horizontal and the last
// vertical wire belong to two different nets.
func (g *wireGrid) crossings() int {
	n := 0
	for i, h := range g.h {
		if v := g.v[i]; h != 0 && v != 0 && h != v {
			n++
		}
	}
	return n
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// flowScore computes Rule 3 compliance: over all (driver terminal, sink
// terminal) pairs of each net living on distinct modules, the fraction
// where the driver's x is strictly less than the sink's x.
func flowScore(pr *place.Result) float64 {
	good, total := 0, 0
	for _, n := range pr.Design.Nets {
		for _, drv := range n.Terms {
			if drv.Module == nil || !drv.Type.CanDrive() {
				continue
			}
			dp, err := pr.TermPos(drv)
			if err != nil {
				continue
			}
			for _, snk := range n.Terms {
				if snk.Module == nil || snk.Module == drv.Module || !snk.Type.CanSink() {
					continue
				}
				if drv.Type == netlist.InOut && snk.Type == netlist.InOut {
					continue
				}
				sp, err := pr.TermPos(snk)
				if err != nil {
					continue
				}
				total++
				if dp.X < sp.X {
					good++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

// Verify checks the routed diagram independently of the router's own
// bookkeeping — the role the ESCHER simulation played in §6 ("To check
// whether the routing has been done correctly, the schematic diagram
// has been simulated"): every complete net's geometry must form one
// connected tree touching exactly its own terminals, wires may not
// enter module interiors or foreign terminals, no two nets may share a
// point in the same axis, and every crossing must be a plain
// perpendicular crossing of two straight runs.
func (d *Diagram) Verify() error {
	if err := d.Placement.Verify(); err != nil {
		return err
	}
	if d.Routing == nil {
		return nil
	}

	termOwner := map[geom.Point]*netlist.Net{}
	for _, n := range d.Design.Nets {
		for _, t := range n.Terms {
			p, err := d.Placement.TermPos(t)
			if err != nil {
				return err
			}
			if prev, dup := termOwner[p]; dup && prev != n {
				return fmt.Errorf("schematic: terminal position %v shared by nets %q and %q",
					p, prev.Name, n.Name)
			}
			termOwner[p] = n
		}
	}

	type occ struct {
		h, v *netlist.Net
	}
	occupied := map[geom.Point]*occ{}

	for _, rn := range d.Routing.Nets {
		for _, s := range rn.Segments {
			if s.A.X != s.B.X && s.A.Y != s.B.Y {
				return fmt.Errorf("schematic: net %q has a diagonal segment", rn.Net.Name)
			}
			for _, p := range s.Points() {
				// Module interiors are forbidden; outlines only at own
				// terminals.
				for _, mod := range d.Design.Modules {
					r := d.Placement.Mods[mod].Rect()
					inside := p.X > r.Min.X && p.X < r.Max.X && p.Y > r.Min.Y && p.Y < r.Max.Y
					if inside {
						return fmt.Errorf("schematic: net %q enters module %q at %v",
							rn.Net.Name, mod.Name, p)
					}
				}
				if owner, isTerm := termOwner[p]; isTerm && owner != rn.Net {
					return fmt.Errorf("schematic: net %q touches terminal of %q at %v",
						rn.Net.Name, owner.Name, p)
				}
				o := occupied[p]
				if o == nil {
					o = &occ{}
					occupied[p] = o
				}
				if s.Horizontal() {
					if o.h != nil && o.h != rn.Net {
						return fmt.Errorf("schematic: nets %q and %q overlap horizontally at %v",
							o.h.Name, rn.Net.Name, p)
					}
					o.h = rn.Net
				} else {
					if o.v != nil && o.v != rn.Net {
						return fmt.Errorf("schematic: nets %q and %q overlap vertically at %v",
							o.v.Name, rn.Net.Name, p)
					}
					o.v = rn.Net
				}
			}
		}
	}

	// Crossing points of two different nets must be straight-through
	// for both (no net ends or bends on a crossing).
	for _, rn := range d.Routing.Nets {
		g := buildGraph(rn.Segments)
		for p, ns := range g.adj {
			o := occupied[p]
			if o == nil || o.h == nil || o.v == nil || o.h == o.v {
				continue
			}
			// p is a crossing: this net must pass straight through.
			if len(ns) != 2 {
				return fmt.Errorf("schematic: net %q has a non-straight joint on a crossing at %v",
					rn.Net.Name, p)
			}
			d0, d1 := ns[0].Sub(p), ns[1].Sub(p)
			if d0.X*d1.X+d0.Y*d1.Y == 0 {
				return fmt.Errorf("schematic: net %q bends on a crossing at %v", rn.Net.Name, p)
			}
		}
	}

	// Connectivity: every complete net forms one tree over its
	// terminals.
	for _, rn := range d.Routing.Nets {
		if !rn.OK() || rn.Net.Degree() < 2 {
			continue
		}
		var pts []geom.Point
		for _, t := range rn.Net.Terms {
			p, err := d.Placement.TermPos(t)
			if err != nil {
				return err
			}
			pts = append(pts, p)
		}
		g := buildGraph(rn.Segments)
		if !g.connected(pts) {
			return fmt.Errorf("schematic: net %q geometry does not connect its terminals", rn.Net.Name)
		}
	}
	return nil
}
