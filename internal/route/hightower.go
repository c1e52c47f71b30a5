package route

import (
	"netart/internal/geom"
)

// This file implements the Hightower line router of §5.2.3 as a
// baseline: escape lines are run from both terminals; for each line the
// algorithm finds perpendicular escape lines, repeating until a line
// from the A set intersects one from the B set. It is fast for simple
// mazes but — exactly as the paper notes — "does not guarantee a
// connection whenever it exists" and degrades on complicated mazes.
// The escape-point selection here is the common textbook variant: the
// endpoints of each blocked line and the point closest to the target.

// htLine is one escape line with its pivot (the point it was escaped
// through) and parent for path reconstruction.
type htLine struct {
	seg    Segment // maximal free segment, canonical order
	pivot  geom.Point
	parent *htLine
}

// hightowerSearch attempts a point-to-point connection. It returns ok
// false both when no path exists and when the heuristic gives up.
func hightowerSearch(pl *Plane, net int32, from, to geom.Point) ([]Segment, bool) {
	passable := func(p geom.Point, horizontal bool) bool {
		if p == to || p == from {
			return true
		}
		if pl.Blocked(p) || pl.Bend(p) {
			return false
		}
		if cl := pl.Claimpoint(p); cl != 0 && cl != net {
			return false
		}
		var along int32
		if horizontal {
			along = pl.HNet(p)
		} else {
			along = pl.VNet(p)
		}
		return along == 0 || along == net
	}
	turnable := func(p geom.Point) bool {
		// A pivot must not sit on a foreign wire (no turning on
		// crossings).
		return (pl.HNet(p) == 0 || pl.HNet(p) == net) &&
			(pl.VNet(p) == 0 || pl.VNet(p) == net)
	}
	maximal := func(p geom.Point, horizontal bool) Segment {
		d := geom.Pt(1, 0)
		if !horizontal {
			d = geom.Pt(0, 1)
		}
		lo := p
		for passable(lo.Sub(d), horizontal) {
			lo = lo.Sub(d)
		}
		hi := p
		for passable(hi.Add(d), horizontal) {
			hi = hi.Add(d)
		}
		return Segment{lo, hi}
	}

	mkLines := func(p geom.Point, parent *htLine) []*htLine {
		var out []*htLine
		for _, horizontal := range []bool{true, false} {
			seg := maximal(p, horizontal)
			if seg.A == seg.B && parent != nil {
				continue
			}
			out = append(out, &htLine{seg: seg.Canon(), pivot: p, parent: parent})
		}
		return out
	}

	aLines := mkLines(from, nil)
	bLines := mkLines(to, nil)
	seen := map[geom.Point]bool{from: true, to: true}

	intersect := func(a, b *htLine) (geom.Point, bool) {
		ha, hb := a.seg.Horizontal(), b.seg.Horizontal()
		if ha == hb {
			// Parallel collinear overlap: pick a shared point.
			if ha && a.seg.A.Y == b.seg.A.Y {
				lo := geom.Max(a.seg.A.X, b.seg.A.X)
				hi := geom.Min(a.seg.B.X, b.seg.B.X)
				if lo <= hi {
					return geom.Pt(lo, a.seg.A.Y), true
				}
			}
			if !ha && a.seg.A.X == b.seg.A.X {
				lo := geom.Max(a.seg.A.Y, b.seg.A.Y)
				hi := geom.Min(a.seg.B.Y, b.seg.B.Y)
				if lo <= hi {
					return geom.Pt(a.seg.A.X, lo), true
				}
			}
			return geom.Point{}, false
		}
		h, v := a, b
		if !ha {
			h, v = b, a
		}
		x, y := v.seg.A.X, h.seg.A.Y
		if x >= h.seg.A.X && x <= h.seg.B.X && y >= v.seg.A.Y && y <= v.seg.B.Y {
			return geom.Pt(x, y), true
		}
		return geom.Point{}, false
	}

	buildPath := func(l *htLine, p geom.Point) []Segment {
		var segs []Segment
		for l != nil {
			segs = append(segs, Segment{p, l.pivot})
			p = l.pivot
			l = l.parent
		}
		return segs
	}

	const maxIter = 400
	for iter := 0; iter < maxIter; iter++ {
		// Check for intersections.
		for _, la := range aLines {
			for _, lb := range bLines {
				p, ok := intersect(la, lb)
				if !ok || !turnable(p) {
					continue
				}
				segsA := buildPath(la, p)
				segsB := buildPath(lb, p)
				// Reverse A so the full path runs from 'from' to 'to'.
				var path []Segment
				for i := len(segsA) - 1; i >= 0; i-- {
					path = append(path, Segment{segsA[i].B, segsA[i].A})
				}
				path = append(path, reverseSegs(segsB)...)
				return cleanSegments(path), true
			}
		}
		// Expand the smaller set: pick escape points on its lines.
		expandA := len(aLines) <= len(bLines)
		lines := aLines
		goal := to
		if !expandA {
			lines = bLines
			goal = from
		}
		var added []*htLine
		for _, l := range lines {
			for _, p := range escapePoints(l, goal) {
				if seen[p] || !turnable(p) {
					continue
				}
				seen[p] = true
				added = append(added, mkLines(p, l)...)
			}
			if len(added) > 0 {
				break // one escape per iteration, like the original
			}
		}
		if len(added) == 0 {
			return nil, false // stuck: the heuristic gives up
		}
		if expandA {
			aLines = append(aLines, added...)
		} else {
			bLines = append(bLines, added...)
		}
	}
	return nil, false
}

func reverseSegs(segs []Segment) []Segment {
	// segsB runs joint->pivot...->terminal, which is already the tail
	// direction we want (joint to terminal b).
	return segs
}

// escapePoints proposes pivots on a line: the point nearest the goal
// and the two endpoints (classic escape-point heuristics).
func escapePoints(l *htLine, goal geom.Point) []geom.Point {
	var out []geom.Point
	c := l.seg.Canon()
	if c.Horizontal() {
		x := geom.Min(geom.Max(goal.X, c.A.X), c.B.X)
		out = append(out, geom.Pt(x, c.A.Y))
	} else {
		y := geom.Min(geom.Max(goal.Y, c.A.Y), c.B.Y)
		out = append(out, geom.Pt(c.A.X, y))
	}
	out = append(out, c.A, c.B)
	return out
}
