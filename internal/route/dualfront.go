package route

import (
	"netart/internal/geom"
)

// This file implements the dual-front initiation of §5.5.3: "The search
// for an interconnection is initiated by the algorithm in both points...
// This yields two initiated wavefronts... Alternatingly, the expansion
// procedure is applied to all active segments forming one of the
// wavefronts. The process continues until a solution is found. A
// solution is found when an active line of the other wavefront is
// reached."
//
// Compared to the single-front search it roughly halves the searched
// area for long point-to-point connections, at the cost of a joint
// bookkeeping step where the two partial paths meet. Route uses it for
// net initiation when Options.DualFront is set; tree connections keep
// the single front (their target is an area, not a point).

// cellOwner records which active segment of a front covered a cell (in
// the active's own frame), so the other front can reconstruct the
// partial path from the meeting point.
type cellOwner struct {
	a     *active
	i, j  int
	cross int // crossings accumulated along the front's path to the cell
}

// frontState is one of the two wavefronts.
type frontState struct {
	search *lineSearch
	owner  map[int]cellOwner
	owned  []int // owner keys in the order they were first owned
	seen   int   // how many of the other front's owned cells are target marks here
	wave   []*active
}

// own records o as the owner of plane index idx unless the cell already
// has one.
func (f *frontState) own(idx int, o cellOwner) {
	if _, dup := f.owner[idx]; !dup {
		f.owner[idx] = o
		f.owned = append(f.owned, idx)
	}
}

// joint is a candidate combined solution.
type joint struct {
	segs   []Segment
	bends  int
	cross  int
	length int
}

// dualSearch runs the alternating two-front expansion between two
// terminal points. On success the combined path runs from the A start
// to the B start.
//
// Each front owns a private arena: the two coverage maps must stay
// independent (both fronts may sweep the same cell). A front's targets
// are the cells the other front owns, marked before each of its waves.
func dualSearch(pl *Plane, net int32, fromA geom.Point, dirsA []geom.Dir,
	fromB geom.Point, dirsB []geom.Dir, swap bool,
	stats *SearchStats, cancel *cancelCheck) ([]Segment, bool) {

	mk := func(from geom.Point, dirs []geom.Dir) *frontState {
		ls := newLineSearch(pl, net, swap, nil)
		ls.stats = stats
		ls.cancel = cancel
		f := &frontState{search: ls, owner: map[int]cellOwner{}}
		f.wave = terminalActives(from, dirs)
		for _, a := range f.wave {
			for i := a.iv.Lo; i <= a.iv.Hi; i++ {
				p := a.pt(i, a.index)
				if pl.InBounds(p) {
					idx := pl.idx(p)
					ls.ar.markCovered(idx, allDirBits)
					f.own(idx, cellOwner{a: a, i: i, j: a.index})
				}
			}
		}
		return f
	}
	fa := mk(fromA, dirsA)
	fb := mk(fromB, dirsB)

	var sols []joint
	for len(fa.wave) > 0 || len(fb.wave) > 0 {
		if cancel.poll() {
			return nil, false // abandoned search: caller checks ctx.Err()
		}
		if len(fa.wave) > 0 {
			expandFrontWave(pl, fa, fb, &sols, true, stats)
			if len(sols) > 0 {
				break
			}
		}
		if len(fb.wave) > 0 {
			expandFrontWave(pl, fb, fa, &sols, false, stats)
			if len(sols) > 0 {
				break
			}
		}
	}
	if len(sols) == 0 {
		return nil, false
	}
	best := sols[0]
	for _, s := range sols[1:] {
		if betterJoint(s, best, swap) {
			best = s
		}
	}
	return best.segs, true
}

func betterJoint(a, b joint, swap bool) bool {
	if a.bends != b.bends {
		return a.bends < b.bends
	}
	if swap {
		if a.length != b.length {
			return a.length < b.length
		}
		return a.cross < b.cross
	}
	if a.cross != b.cross {
		return a.cross < b.cross
	}
	return a.length < b.length
}

// expandFrontWave expands one full wave of `self`, records per-cell
// owners, and converts contacts with `other` into joint solutions.
func expandFrontWave(pl *Plane, self, other *frontState, sols *[]joint,
	selfIsA bool, stats *SearchStats) {

	ls := self.search
	for _, idx := range other.owned[self.seen:] {
		ls.ar.markTarget(idx)
	}
	self.seen = len(other.owned)
	var next []*active
	stats.addWave()
	for _, a := range self.wave {
		stats.addActive()
		advance, ok := ls.sweep(a, a.iv.Lo, a.iv.Hi, ls.borderCut(a), nil)
		if !ok {
			break // abandoned sweep; dualSearch's poll ends the search
		}
		self.recordOwners(pl, a, advance)
		next = ls.newActives(a, advance, ls.ar.crossAdv, ls.ar.crossOff, next, false)
	}
	for _, sol := range ls.sols {
		p := sol.a.pt(sol.i, sol.j)
		o, ok := other.owner[pl.idx(p)]
		if !ok {
			continue
		}
		selfSegs := pathBack(sol.a, sol.i, sol.j)
		otherSegs := pathBack(o.a, o.i, o.j)
		var combined []Segment
		if selfIsA {
			combined = append(reversePath(selfSegs), otherSegs...)
		} else {
			combined = append(reversePath(otherSegs), selfSegs...)
		}
		combined = cleanSegments(combined)
		*sols = append(*sols, joint{
			segs:   combined,
			bends:  len(combined) - 1,
			cross:  sol.cross + o.cross,
			length: totalLen(combined),
		})
	}
	ls.sols = nil
	self.wave = next
}

// reversePath flips a target→source segment list into source→target.
func reversePath(segs []Segment) []Segment {
	out := make([]Segment, len(segs))
	for i, s := range segs {
		out[len(segs)-1-i] = Segment{A: s.B, B: s.A}
	}
	return out
}

// recordOwners attributes to a every cell its sweep newly covered:
// cells 1..advance[k] of escape k, each with the crossings counted up to
// and including it.
func (f *frontState) recordOwners(pl *Plane, a *active, advance []int) {
	ar := f.search.ar
	step := a.step()
	for k, adv := range advance {
		i := a.iv.Lo + k
		c := a.cross
		cj := ar.crossAdv[ar.crossOff[k]:ar.crossOff[k+1]]
		for t := 1; t <= adv; t++ {
			if len(cj) > 0 && cj[0] == t {
				c++
				cj = cj[1:]
			}
			j := a.index + step*t
			f.own(pl.idx(a.pt(i, j)), cellOwner{a: a, i: i, j: j, cross: c})
		}
	}
}
