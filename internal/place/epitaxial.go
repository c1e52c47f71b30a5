package place

import (
	"math"

	"netart/internal/geom"
	"netart/internal/netlist"
)

// Epitaxial implements the epitaxial growth placement of §4.2.2 as a
// baseline: starting from a seed (the most heavily connected module),
// the algorithm repeatedly takes the unplaced module with the maximum
// number of connections to the placed structure and moves it to the
// best available position, judged by the total wire length of its
// connections — "usually by trying all available positions and
// comparing the required length of all connections".
//
// Modules keep their library orientation; the paper's own placer (the
// Place function) is the one that rotates for signal flow. System
// terminals are placed on the perimeter exactly as in the main placer.
func Epitaxial(d *netlist.Design, spacing int) (*Result, error) {
	res := &Result{
		Design: d,
		Mods:   map[*netlist.Module]*PlacedModule{},
		SysPos: map[*netlist.Terminal]geom.Point{},
	}
	if len(d.Modules) == 0 {
		placeTerminals(res)
		res.Bounds = fullBounds(res)
		return res, nil
	}
	if spacing < 1 {
		spacing = 1
	}

	placedSet := map[*netlist.Module]bool{}
	var placedRects []geom.Rect

	// Seed: the module with the most distinct nets to other modules.
	all := d.ModuleSet()
	seed := d.Modules[0]
	best := -1
	for _, m := range d.Modules {
		if n := netlist.NetsBetween(m, all); n > best {
			seed, best = m, n
		}
	}
	place := func(m *netlist.Module, pos geom.Point) {
		pm := &PlacedModule{Mod: m, Pos: pos}
		res.Mods[m] = pm
		placedSet[m] = true
		// Record the rect inflated by the module's own white space so
		// facing sides accumulate both modules' routing room.
		r := pm.Rect()
		r.Min = r.Min.Sub(geom.Pt(spacing0(m, geom.Left, spacing), spacing0(m, geom.Down, spacing)))
		r.Max = r.Max.Add(geom.Pt(spacing0(m, geom.Right, spacing), spacing0(m, geom.Up, spacing)))
		placedRects = append(placedRects, r)
	}
	place(seed, geom.Pt(0, 0))

	for len(placedSet) < len(d.Modules) {
		// Next: unplaced module with max connections to the placed
		// structure (ties: design order).
		var next *netlist.Module
		bestConn := -1
		for _, m := range d.Modules {
			if placedSet[m] {
				continue
			}
			if c := netlist.NetsBetween(m, placedSet); c > bestConn {
				next, bestConn = m, c
			}
		}
		// Gravity of the placed terminals this module connects to.
		var sx, sy, n int
		for _, t := range next.Terms {
			if t.Net == nil {
				continue
			}
			for _, u := range t.Net.Terms {
				if u.Module == nil || !placedSet[u.Module] {
					continue
				}
				p := res.Mods[u.Module].TermPos(u)
				sx += p.X
				sy += p.Y
				n++
			}
		}
		target := boundsOf(placedRects).Center()
		if n > 0 {
			target = geom.Pt(sx/n, sy/n)
		}
		// Try all available positions around the target, comparing the
		// required length of all connections; the ring search
		// enumerates positions by distance so the scan is exhaustive
		// over the relevant neighbourhood.
		pos := bestWireLengthOrigin(res, next, target, placedRects, spacing)
		place(next, pos)
	}

	res.ModuleBounds = moduleBounds(res)
	placeTerminals(res)
	res.Bounds = fullBounds(res)
	return res, nil
}

// bestWireLengthOrigin scans candidate origins ring by ring around the
// target and returns the free position minimizing the total Manhattan
// wire length of the module's connections to already placed terminals.
// Scanning stops once a full ring beyond the current best cannot
// improve (wire length grows at least linearly with the ring radius).
func bestWireLengthOrigin(res *Result, m *netlist.Module, target geom.Point,
	placed []geom.Rect, spacingSlack int) geom.Point {

	// Per-side white space proportional to the connected terminal
	// count, as in the paper's own module placement: without it the
	// greedy packing walls terminals in and the routing baseline
	// degenerates.
	halo := [4]int{}
	for di, dir := range geom.Dirs {
		halo[di] = spacing0(m, dir, spacingSlack)
	}
	free := func(p geom.Point) bool {
		r := geom.Rect{
			Min: p.Sub(geom.Pt(halo[geom.Left], halo[geom.Down])),
			Max: p.Add(geom.Pt(m.W+halo[geom.Right], m.H+halo[geom.Up])),
		}
		for _, q := range placed {
			if r.Overlaps(q) {
				return false
			}
		}
		return true
	}
	// Collect the placed endpoints per net once.
	var anchors []geom.Point
	var termOff []geom.Point // offsets of m's terminals on those nets
	for _, t := range m.Terms {
		if t.Net == nil {
			continue
		}
		for _, u := range t.Net.Terms {
			if u.Module == nil || u.Module == m {
				continue
			}
			pm, ok := res.Mods[u.Module]
			if !ok {
				continue
			}
			anchors = append(anchors, pm.TermPos(u))
			termOff = append(termOff, t.Pos)
		}
	}
	cost := func(p geom.Point) int {
		c := 0
		for i, a := range anchors {
			c += p.Add(termOff[i]).Manhattan(a)
		}
		return c
	}

	ext := boundsOf(placed)
	limit := ext.Dx() + ext.Dy() + m.W + m.H + 2*spacingSlack + 12
	bestPos := geom.Point{}
	bestCost := math.MaxInt
	found := false
	for r := 0; r <= limit; r++ {
		if found && len(anchors) == 0 {
			break // no connections: the nearest free spot is as good as any
		}
		for _, p := range chebyshevRing(target, r) {
			if !free(p) {
				continue
			}
			if c := cost(p); c < bestCost {
				bestPos, bestCost, found = p, c, true
			}
		}
	}
	if !found {
		return geom.Pt(ext.Max.X+halo[geom.Left]+1, target.Y)
	}
	return bestPos
}

// spacing0 is the unrotated per-side white space: connected nets on
// that side plus the slack (without the paper placer's +1, since both
// neighbours contribute here).
func spacing0(m *netlist.Module, side geom.Dir, slack int) int {
	return spacing(m, geom.R0, side, 0) + (slack - 1)
}

// chebyshevRing enumerates the grid points at Chebyshev distance r from
// c.
func chebyshevRing(c geom.Point, r int) []geom.Point {
	if r == 0 {
		return []geom.Point{c}
	}
	out := make([]geom.Point, 0, 8*r)
	for x := -r; x <= r; x++ {
		out = append(out, c.Add(geom.Pt(x, r)), c.Add(geom.Pt(x, -r)))
	}
	for y := -r + 1; y <= r-1; y++ {
		out = append(out, c.Add(geom.Pt(r, y)), c.Add(geom.Pt(-r, y)))
	}
	return out
}
