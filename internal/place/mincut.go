package place

import (
	"sort"

	"netart/internal/geom"
	"netart/internal/netlist"
)

// MinCut implements the min-cut bipartitioning placement of §4.2.3
// (after Lauther [5]) as a baseline: the module set is recursively
// split into two halves so that the number of nets crossing the cut is
// minimized while the total module areas stay balanced; the cut
// direction alternates per level, assigning each subset a sub-rectangle
// of the placement area. Leaves (single modules) are placed in their
// region; a final legalization pass resolves the residual overlaps the
// discrete module sizes cause.
//
// As §4.5 explains, the approach minimizes congestion but "does not
// concern about the signal flow direction" — the property the
// comparison bench measures.
func MinCut(d *netlist.Design, spacing int) (*Result, error) {
	res := &Result{
		Design: d,
		Mods:   map[*netlist.Module]*PlacedModule{},
		SysPos: map[*netlist.Terminal]geom.Point{},
	}
	if spacing < 1 {
		spacing = 1
	}
	if len(d.Modules) == 0 {
		placeTerminals(res)
		res.Bounds = fullBounds(res)
		return res, nil
	}

	// Total area (with spacing halo) decides the root region.
	area := 0
	maxW, maxH := 0, 0
	for _, m := range d.Modules {
		area += (m.W + 2*spacing) * (m.H + 2*spacing)
		maxW = geom.Max(maxW, m.W+2*spacing)
		maxH = geom.Max(maxH, m.H+2*spacing)
	}
	side := 1
	for side*side < area*2 {
		side++
	}
	side = geom.Max(side, geom.Max(maxW, maxH))
	root := geom.R(0, 0, side, side)

	var targets []struct {
		m  *netlist.Module
		at geom.Point
	}
	var recurse func(mods []*netlist.Module, region geom.Rect, vertical bool)
	recurse = func(mods []*netlist.Module, region geom.Rect, vertical bool) {
		if len(mods) == 0 {
			return
		}
		if len(mods) == 1 {
			c := region.Center()
			targets = append(targets, struct {
				m  *netlist.Module
				at geom.Point
			}{mods[0], geom.Pt(c.X-mods[0].W/2, c.Y-mods[0].H/2)})
			return
		}
		a, b := bipartition(d, mods)
		areaOf := func(set []*netlist.Module) int {
			s := 0
			for _, m := range set {
				s += (m.W + 2*spacing) * (m.H + 2*spacing)
			}
			return s
		}
		fracNum, fracDen := areaOf(a), areaOf(a)+areaOf(b)
		if fracDen == 0 {
			fracNum, fracDen = 1, 2
		}
		var ra, rb geom.Rect
		if vertical { // vertical cut line: split x
			cut := region.Min.X + region.Dx()*fracNum/fracDen
			cut = geom.Min(geom.Max(cut, region.Min.X+1), region.Max.X-1)
			ra = geom.Rect{Min: region.Min, Max: geom.Pt(cut, region.Max.Y)}
			rb = geom.Rect{Min: geom.Pt(cut, region.Min.Y), Max: region.Max}
		} else {
			cut := region.Min.Y + region.Dy()*fracNum/fracDen
			cut = geom.Min(geom.Max(cut, region.Min.Y+1), region.Max.Y-1)
			ra = geom.Rect{Min: region.Min, Max: geom.Pt(region.Max.X, cut)}
			rb = geom.Rect{Min: geom.Pt(region.Min.X, cut), Max: region.Max}
		}
		recurse(a, ra, !vertical)
		recurse(b, rb, !vertical)
	}
	recurse(append([]*netlist.Module(nil), d.Modules...), root, true)

	// Legalize: place each module at the free position nearest its
	// region target (region order keeps the global structure).
	var placedRects []geom.Rect
	var origins originSearch
	for _, tg := range targets {
		pos := origins.best(tg.at, geom.Pt(tg.m.W, tg.m.H), placedRects, spacing)
		pm := &PlacedModule{Mod: tg.m, Pos: pos}
		res.Mods[tg.m] = pm
		placedRects = append(placedRects, pm.Rect())
	}

	res.ModuleBounds = moduleBounds(res)
	placeTerminals(res)
	res.Bounds = fullBounds(res)
	return res, nil
}

// bipartition splits modules into two halves minimizing the nets cut,
// by greedy improvement from an area-balanced seed split (a light
// variant of the iterative improvement the min-cut algorithm runs
// until "the overall count of nets cut can not be reduced further").
func bipartition(d *netlist.Design, mods []*netlist.Module) (a, b []*netlist.Module) {
	// Seed: alternate by connectivity-sorted order for a balanced start.
	sorted := append([]*netlist.Module(nil), mods...)
	all := map[*netlist.Module]bool{}
	for _, m := range mods {
		all[m] = true
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		return netlist.NetsBetween(sorted[i], all) > netlist.NetsBetween(sorted[j], all)
	})
	inA := map[*netlist.Module]bool{}
	for i, m := range sorted {
		if i%2 == 0 {
			inA[m] = true
		}
	}
	inSet := map[*netlist.Module]bool{}
	for _, m := range mods {
		inSet[m] = true
	}

	cut := func() int {
		c := 0
		for _, n := range d.Nets {
			hasA, hasB := false, false
			for _, t := range n.Terms {
				if t.Module == nil || !inSet[t.Module] {
					continue
				}
				if inA[t.Module] {
					hasA = true
				} else {
					hasB = true
				}
			}
			if hasA && hasB {
				c++
			}
		}
		return c
	}
	sizeA := 0
	for _, m := range mods {
		if inA[m] {
			sizeA++
		}
	}
	// Greedy single moves while the cut improves and balance holds
	// within one module of half.
	cur := cut()
	for improved := true; improved; {
		improved = false
		for _, m := range mods {
			wasA := inA[m]
			newSizeA := sizeA
			if wasA {
				newSizeA--
			} else {
				newSizeA++
			}
			if newSizeA < len(mods)/2-1 || newSizeA > (len(mods)+1)/2+1 {
				continue
			}
			inA[m] = !wasA
			if c := cut(); c < cur {
				cur = c
				sizeA = newSizeA
				improved = true
			} else {
				inA[m] = wasA
			}
		}
	}
	for _, m := range mods {
		if inA[m] {
			a = append(a, m)
		} else {
			b = append(b, m)
		}
	}
	if len(a) == 0 {
		a, b = b[:1], b[1:]
	}
	if len(b) == 0 {
		b, a = a[:1], a[1:]
	}
	return a, b
}

// CutCount returns the number of nets with modules on both sides of the
// vertical line x (used by the comparison bench's crossing-count
// metric).
func CutCount(res *Result, x int) int {
	c := 0
	for _, n := range res.Design.Nets {
		left, right := false, false
		for _, t := range n.Terms {
			if t.Module == nil {
				continue
			}
			pm, ok := res.Mods[t.Module]
			if !ok {
				continue
			}
			if pm.Rect().Center().X < x {
				left = true
			} else {
				right = true
			}
		}
		if left && right {
			c++
		}
	}
	return c
}
