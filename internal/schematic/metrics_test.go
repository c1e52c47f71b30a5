package schematic

import (
	"fmt"
	"testing"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/workload"
)

// mapBendsAndBranches is the map-based reference for the wire-grid
// counts: direction changes at degree-2 points and points of degree
// three or more of buildGraph's adjacency.
func mapBendsAndBranches(g *netGraph) (bends, branches int) {
	for p, ns := range g.adj {
		switch {
		case len(ns) == 2:
			d0 := ns[0].Sub(p)
			d1 := ns[1].Sub(p)
			if d0.X*d1.X+d0.Y*d1.Y == 0 { // perpendicular
				bends++
			}
		case len(ns) >= 3:
			branches++
		}
	}
	return bends, branches
}

// mapMetrics is the map-based reference for Diagram.Metrics: the net
// graph per net, and crossings from a point-keyed [hNet, vNet] map
// filled in net order (last writer wins per axis).
func mapMetrics(d *Diagram) Metrics {
	var m Metrics
	m.Area = d.Placement.Bounds.Area()
	m.FlowRight = flowScore(d.Placement)
	occupied := map[geom.Point][2]int32{}
	for _, rn := range d.Routing.Nets {
		if !rn.OK() {
			m.Unrouted++
		}
		id := d.Routing.NetID[rn.Net]
		b, br := mapBendsAndBranches(buildGraph(rn.Segments))
		m.Bends += b
		m.Branches += br
		for _, s := range rn.Segments {
			m.WireLength += s.Len()
			for _, p := range s.Points() {
				o := occupied[p]
				if s.Horizontal() {
					o[0] = id
				} else {
					o[1] = id
				}
				occupied[p] = o
			}
		}
	}
	for _, o := range occupied {
		if o[0] != 0 && o[1] != 0 && o[0] != o[1] {
			m.Crossings++
		}
	}
	return m
}

// shapeOf counts bends and branches of raw segments on a wire grid and
// checks the count against the map reference.
func shapeOf(t *testing.T, segs ...route.Segment) (bends, branches int) {
	t.Helper()
	g := newWireGrid([]*route.RoutedNet{{Segments: segs}}, false)
	g.addNet(segs, 1)
	bends, branches = g.bendsAndBranches()
	if rb, rbr := mapBendsAndBranches(buildGraph(segs)); rb != bends || rbr != branches {
		t.Errorf("wire grid bends=%d branches=%d, map reference %d, %d", bends, branches, rb, rbr)
	}
	return bends, branches
}

func TestBendCountExact(t *testing.T) {
	// A staircase with three corners.
	bends, branches := shapeOf(t,
		route.Segment{A: geom.Pt(0, 0), B: geom.Pt(4, 0)},
		route.Segment{A: geom.Pt(4, 0), B: geom.Pt(4, 3)},
		route.Segment{A: geom.Pt(4, 3), B: geom.Pt(8, 3)},
		route.Segment{A: geom.Pt(8, 3), B: geom.Pt(8, 6)},
	)
	if bends != 3 || branches != 0 {
		t.Errorf("bends=%d branches=%d, want 3, 0", bends, branches)
	}
}

func TestBranchCountExact(t *testing.T) {
	// A T: trunk with one stem.
	bends, branches := shapeOf(t,
		route.Segment{A: geom.Pt(0, 0), B: geom.Pt(8, 0)},
		route.Segment{A: geom.Pt(4, 0), B: geom.Pt(4, 5)},
	)
	if branches != 1 {
		t.Errorf("branches=%d, want 1", branches)
	}
	if bends != 0 {
		t.Errorf("bends=%d, want 0 (the T point is a branch, not a bend)", bends)
	}
}

func TestStraightRunNoBends(t *testing.T) {
	// Two collinear segments meeting end to end: the joint is neither a
	// bend nor a branch, whichever way the segments run.
	for _, second := range []route.Segment{
		{A: geom.Pt(4, 0), B: geom.Pt(9, 0)},
		{A: geom.Pt(9, 0), B: geom.Pt(4, 0)},
	} {
		bends, branches := shapeOf(t, route.Segment{A: geom.Pt(0, 0), B: geom.Pt(4, 0)}, second)
		if bends != 0 || branches != 0 {
			t.Errorf("bends=%d branches=%d, want 0, 0", bends, branches)
		}
	}
}

func TestConnectedDetectsIslands(t *testing.T) {
	g := buildGraph([]route.Segment{
		{A: geom.Pt(0, 0), B: geom.Pt(3, 0)},
		{A: geom.Pt(10, 10), B: geom.Pt(12, 10)},
	})
	if g.connected([]geom.Point{geom.Pt(0, 0)}) {
		t.Error("disconnected islands reported connected")
	}
	g2 := buildGraph([]route.Segment{{A: geom.Pt(0, 0), B: geom.Pt(3, 0)}})
	if !g2.connected([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}) {
		t.Error("straight run not connected")
	}
	if g2.connected([]geom.Point{geom.Pt(9, 9)}) {
		t.Error("foreign point reported connected")
	}
}

func TestCrossCountOnX(t *testing.T) {
	// Plus-shaped crossing of two different nets counted once.
	dg := fig61Diagram(t)
	base := dg.Metrics().Crossings
	if base != 0 {
		t.Fatalf("fig61 baseline crossings = %d", base)
	}
}

// TestMetricsMatchMapReference pins the wire-grid metrics to the map
// reference on every built-in design and seeded random designs, with
// claimpoints on and off (which changes which nets share points).
func TestMetricsMatchMapReference(t *testing.T) {
	type tc struct {
		name  string
		build func() *netlist.Design
		po    place.Options
	}
	cases := []tc{
		{"fig61", workload.Fig61, place.Options{PartSize: 6, BoxSize: 6}},
		{"quickstart", workload.Quickstart, place.Options{PartSize: 4, BoxSize: 4}},
		{"datapath", workload.Datapath16, place.Options{PartSize: 7, BoxSize: 5}},
		{"cpu", workload.CPU, place.Options{PartSize: 7, BoxSize: 5, ModSpacing: 1, BoxSpacing: 1}},
		{"chain", func() *netlist.Design { return workload.Chain(16) }, place.Options{PartSize: 7, BoxSize: 5}},
		{"life", workload.Life27, place.Options{PartSize: 5, BoxSize: 5, ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}},
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		cases = append(cases, tc{fmt.Sprintf("random%d", seed),
			func() *netlist.Design { return workload.Random(20+int(seed)*3, seed) },
			place.Options{PartSize: 4, BoxSize: 2}})
	}
	for _, c := range cases {
		for _, claims := range []bool{true, false} {
			dg := buildDiagram(t, c.build(), c.po, route.Options{Claimpoints: claims, OrderShortestFirst: true})
			got, want := dg.Metrics(), mapMetrics(dg)
			if got != want {
				t.Errorf("%s claims=%v: metrics %+v, map reference %+v", c.name, claims, got, want)
			}
			if want.Bends == 0 || want.WireLength == 0 {
				t.Errorf("%s claims=%v: degenerate reference %+v", c.name, claims, want)
			}
		}
	}
}
