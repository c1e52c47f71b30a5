package route

import (
	"container/heap"

	"netart/internal/geom"
)

// This file implements the Lee maze runner of §5.2.2 as a baseline: a
// cell-by-cell wave expansion that guarantees a connection whenever one
// exists. The classic algorithm minimizes wire length; a set of penalty
// functions "may control the router to generate the minimum resistance
// path, such as a path with a minimum number of bends" (§5.2.2), which
// the Objective knob reproduces. The bends-first mode doubles as the
// independent reference implementation the line-expansion router is
// property-tested against.

// Objective selects the cost order of a search.
type Objective int

// The two cost orders.
const (
	// BendsFirst ranks (bends, crossings, length): the paper's
	// schematic objective (§5.4).
	BendsFirst Objective = iota
	// LengthFirst ranks (length, bends, crossings): the traditional
	// layout objective of the Lee router.
	LengthFirst
	// LengthCrossBends ranks (length, crossings, bends): the -s swap
	// applied to the traditional order, kept for the ablation bench.
	LengthCrossBends
)

// leeCost is a lexicographic cost triple.
type leeCost struct {
	bends, cross, length int
}

func (c leeCost) less(o leeCost, obj Objective) bool {
	var a, b [3]int
	switch obj {
	case LengthFirst:
		a = [3]int{c.length, c.bends, c.cross}
		b = [3]int{o.length, o.bends, o.cross}
	case LengthCrossBends:
		a = [3]int{c.length, c.cross, c.bends}
		b = [3]int{o.length, o.cross, o.bends}
	default:
		a = [3]int{c.bends, c.cross, c.length}
		b = [3]int{o.bends, o.cross, o.length}
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// leeState is a search node: a plane point entered while moving in a
// given direction.
type leeState struct {
	p geom.Point
	d geom.Dir
}

type leeItem struct {
	st   leeState
	cost leeCost
	idx  int
}

type leeQueue struct {
	items []*leeItem
	obj   Objective
}

func (q *leeQueue) Len() int { return len(q.items) }
func (q *leeQueue) Less(i, j int) bool {
	return q.items[i].cost.less(q.items[j].cost, q.obj)
}
func (q *leeQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].idx, q.items[j].idx = i, j
}
func (q *leeQueue) Push(x any) {
	it := x.(*leeItem)
	it.idx = len(q.items)
	q.items = append(q.items, it)
}
func (q *leeQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

// leeSearch runs a Dijkstra-style wave expansion (the Lee algorithm
// generalized with penalty costs) from a terminal point toward a target
// predicate. It obeys exactly the same legality rules as the
// line-expansion engine: wires may cross perpendicular foreign wires
// (cost), may never overlap parallel ones, stop at modules, bends,
// claims and the plane border, and cannot turn on a crossing cell.
//
// Once a goal is known, the expansion is A*-pruned: every target point
// lies inside tbox, so manhattanToBox(p, tbox) is an admissible lower
// bound on the remaining wire length from p. A state whose cost plus that bound cannot rank
// strictly better than the goal can never improve it — cost components
// only grow along a path and the lexicographic orders are translation
// invariant — so it is dropped, at the pop and at the push.
func leeSearch(pl *Plane, net int32, from geom.Point, dirs []geom.Dir,
	target func(geom.Point) bool, obj Objective, tbox geom.Rect,
	cancel *cancelCheck) ([]Segment, bool) {

	type visitKey struct {
		idx int
		d   geom.Dir
	}
	dist := map[visitKey]leeCost{}
	prev := map[leeState]leeState{}
	q := &leeQueue{obj: obj}
	heap.Init(q)

	crossingCell := func(p geom.Point, d geom.Dir) bool {
		var w int32
		if d == geom.Up || d == geom.Down {
			w = pl.HNet(p)
		} else {
			w = pl.VNet(p)
		}
		return w != 0 && w != net
	}
	stops := func(p geom.Point, d geom.Dir) bool {
		if pl.Blocked(p) || pl.Bend(p) {
			return true
		}
		if cl := pl.Claimpoint(p); cl != 0 && cl != net {
			return true
		}
		var along int32
		if d == geom.Up || d == geom.Down {
			along = pl.VNet(p)
		} else {
			along = pl.HNet(p)
		}
		return along != 0 // own-net along-wires are targets, handled earlier
	}

	var goal *leeState
	var goalCost leeCost
	haveGoal := false

	// beatable reports whether a state at p with the given cost could
	// still rank strictly better than the known goal (A* admissibility
	// prune; always true before a goal exists).
	beatable := func(p geom.Point, cost leeCost) bool {
		if !haveGoal {
			return true
		}
		cost.length += manhattanToBox(p, tbox)
		return cost.less(goalCost, obj)
	}

	push := func(st leeState, cost leeCost, from leeState, hasFrom bool) {
		if !beatable(st.p, cost) {
			return
		}
		key := visitKey{pl.idx(st.p), st.d}
		if old, ok := dist[key]; ok && !cost.less(old, obj) {
			return
		}
		dist[key] = cost
		if hasFrom {
			prev[st] = from
		}
		heap.Push(q, &leeItem{st: st, cost: cost})
	}

	// Seed: step out of the terminal in each allowed direction.
	for _, d := range dirs {
		np := from.Add(d.Delta())
		if target(np) {
			return []Segment{{from, np}}, true
		}
		if !pl.InBounds(np) || stops(np, d) {
			continue
		}
		cross := 0
		if crossingCell(np, d) {
			cross = 1
		}
		push(leeState{np, d}, leeCost{0, cross, 1}, leeState{from, d}, true)
	}

	for q.Len() > 0 {
		if cancel.tick() {
			return nil, false // abandoned wavefront: caller checks ctx.Err()
		}
		it := heap.Pop(q).(*leeItem)
		st, cost := it.st, it.cost
		key := visitKey{pl.idx(st.p), st.d}
		if best, ok := dist[key]; ok && best.less(cost, obj) {
			continue // stale entry
		}
		if !beatable(st.p, cost) {
			continue
		}
		onCrossing := crossingCell(st.p, st.d)
		for _, nd := range geom.Dirs {
			if nd == st.d.Opposite() {
				continue
			}
			turning := nd != st.d
			if turning && onCrossing {
				continue // crossings cannot be turning points
			}
			if turning && nd.Horizontal() == st.d.Horizontal() {
				continue // only perpendicular turns exist on a grid
			}
			np := st.p.Add(nd.Delta())
			ncost := cost
			ncost.length++
			if turning {
				ncost.bends++
			}
			if target(np) {
				if !haveGoal || ncost.less(goalCost, obj) {
					g := leeState{np, nd}
					prev[g] = st
					goal = &g
					goalCost = ncost
					haveGoal = true
				}
				continue
			}
			if !pl.InBounds(np) || stops(np, nd) {
				continue
			}
			if crossingCell(np, nd) {
				ncost.cross++
			}
			push(leeState{np, nd}, ncost, st, true)
		}
	}
	if !haveGoal {
		return nil, false
	}
	// Trace back: walk prev pointers, emitting a point chain, then
	// compress into segments.
	var pts []geom.Point
	cur := *goal
	for {
		pts = append(pts, cur.p)
		p, ok := prev[cur]
		if !ok {
			break
		}
		if p.p == from && p.d == cur.d || p.p == from {
			pts = append(pts, from)
			break
		}
		cur = p
	}
	return pointsToSegments(pts), true
}

// pointsToSegments compresses a chain of adjacent points into maximal
// axis-aligned segments.
func pointsToSegments(pts []geom.Point) []Segment {
	if len(pts) < 2 {
		return nil
	}
	var segs []Segment
	start := pts[0]
	for i := 1; i < len(pts); i++ {
		if i == len(pts)-1 {
			segs = append(segs, Segment{start, pts[i]})
			break
		}
		d0 := pts[i].Sub(pts[i-1])
		d1 := pts[i+1].Sub(pts[i])
		if d0 != d1 {
			segs = append(segs, Segment{start, pts[i]})
			start = pts[i]
		}
	}
	return cleanSegments(segs)
}
