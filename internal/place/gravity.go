package place

import (
	"math"
	"slices"

	"netart/internal/geom"
	"netart/internal/netlist"
)

// This file implements the gravity-center driven placement of boxes
// within partitions (§4.6.5), partitions within the diagram (§4.6.6)
// and system terminals on the border (§4.6.7).

// fpoint is a float gravity center; the paper divides integer sums, we
// keep fractions until the final target rounding to avoid bias.
type fpoint struct{ x, y float64 }

func (p fpoint) sub(q fpoint) geom.Point {
	return geom.Pt(int(math.Round(p.x-q.x)), int(math.Round(p.y-q.y)))
}

// groups keeps the shared-net counts of SELECT_NEXT_BOX and
// PARTITION_PLACEMENT while groups of modules (the boxes of one
// partition, or the partitions) are placed one by one: for every
// pending group, the number of nets it shares with the placed groups. Placing a group makes one pass over its nets; each net the
// placed groups touch for the first time credits every pending group on
// it once.
type groups struct {
	ix      *netlist.Index
	members [][]int
	of      []int32  // per module: group + 1, 0 outside every group
	placed  []bool   // per group
	conn    []int    // per group: nets shared with the placed groups
	last    []int32  // per group: the net that last credited it
	touched []uint32 // per net: == round once a placed group touches it
	shared  []uint32 // per net: == pick while it is shared by the picked group
	round   uint32
	pick    uint32
}

func newGroups(ix *netlist.Index) *groups {
	return &groups{
		ix:      ix,
		of:      make([]int32, len(ix.Design.Modules)),
		touched: make([]uint32, len(ix.Design.Nets)),
		shared:  make([]uint32, len(ix.Design.Nets)),
	}
}

// reset starts a round over new groups, given by their modules.
func (g *groups) reset(members [][]int) {
	for _, ms := range g.members {
		for _, m := range ms {
			g.of[m] = 0
		}
	}
	g.members = members
	for i, ms := range members {
		for _, m := range ms {
			g.of[m] = int32(i + 1)
		}
	}
	n := len(members)
	g.placed = slices.Grow(g.placed[:0], n)[:n]
	g.conn = slices.Grow(g.conn[:0], n)[:n]
	g.last = slices.Grow(g.last[:0], n)[:n]
	for i := range members {
		g.placed[i], g.conn[i], g.last[i] = false, 0, -1
	}
	g.round++
}

// next returns the position in pending of the group sharing the most
// nets with the placed groups, the first one on ties.
func (g *groups) next(pending []int) int {
	best := 0
	for i, grp := range pending {
		if g.conn[grp] > g.conn[pending[best]] {
			best = i
		}
	}
	return best
}

// place marks grp placed. It first marks the nets grp shares with the
// groups placed before it, which gravity then reads.
func (g *groups) place(grp int) {
	g.pick++
	g.placed[grp] = true
	for _, m := range g.members[grp] {
		for _, u := range g.ix.ModNets[m] {
			if g.touched[u.Net] == g.round {
				g.shared[u.Net] = g.pick
			}
		}
	}
	for _, m := range g.members[grp] {
		for _, u := range g.ix.ModNets[m] {
			n := u.Net
			if g.touched[n] == g.round {
				continue
			}
			g.touched[n] = g.round
			for _, v := range g.ix.NetMods[n] {
				if v < 0 || g.of[v] == 0 {
					continue
				}
				if h := g.of[v] - 1; !g.placed[h] && g.last[h] != n {
					g.last[h] = n
					g.conn[h]++
				}
			}
		}
	}
}

// termSum is a running sum of terminal positions.
type termSum struct{ x, y, n int }

// mean is the gravity center of the summed terminals. The sums are
// exact integers, so one division gives the float mean the paper's
// per-terminal float sums give.
func (s termSum) mean() fpoint {
	return fpoint{float64(s.x) / float64(s.n), float64(s.y) / float64(s.n)}
}

// addGravity adds to s the positions, offset by origin, of the
// terminals of mods (with design module ids) that lie on a net the
// last placed group shares with the groups placed before it.
func (g *groups) addGravity(s *termSum, mods []*PlacedModule, ids []int, origin geom.Point) {
	for i, pm := range mods {
		for k, t := range pm.Mod.Terms {
			if net := g.ix.TermNet[ids[i]][k]; net >= 0 && g.shared[net] == g.pick {
				p := origin.Add(pm.TermPos(t))
				s.x += p.X
				s.y += p.Y
				s.n++
			}
		}
	}
}

// placeBoxesInPartition implements BOX_PLACEMENT for one partition: the
// largest box is placed first; each following box is the most heavily
// connected unplaced one and lands at the free position minimizing the
// distance between the gravity centers of the shared-net terminals.
// Box origins are normalized so the partition's lower-left is (0,0);
// pp.size receives the partition bounding box inflated by PartSpacing.
func (pl *placer) placeBoxesInPartition(pp *placedPart) {
	if len(pp.boxes) == 0 {
		pp.size = geom.Pt(0, 0)
		return
	}
	// Largest box first (ties: first formed, which was the longest
	// string anyway).
	first := 0
	for i, pb := range pp.boxes {
		if pb.box.Len() > pp.boxes[first].box.Len() {
			first = i
		}
	}
	pp.boxes[0], pp.boxes[first] = pp.boxes[first], pp.boxes[0]
	pp.boxes[0].origin = geom.Pt(0, 0)

	members := make([][]int, len(pp.boxes))
	for i, pb := range pp.boxes {
		members[i] = pb.ids
	}
	g := pl.groups
	g.reset(members)
	g.place(0)
	placedRects := []geom.Rect{{Min: geom.Pt(0, 0), Max: pp.boxes[0].size}}
	ext := placedRects[0]
	placedIdx := []int{0}
	pending := make([]int, 0, len(pp.boxes)-1)
	for i := 1; i < len(pp.boxes); i++ {
		pending = append(pending, i)
	}

	for len(pending) > 0 {
		// SELECT_NEXT_BOX: most nets shared with the placed boxes.
		bestI := g.next(pending)
		i := pending[bestI]
		pending = append(pending[:bestI], pending[bestI+1:]...)
		pb := pp.boxes[i]
		g.place(i)

		var own termSum
		g.addGravity(&own, pb.mods, pb.ids, geom.Pt(0, 0))
		var fx, fy float64
		n1 := 0
		if own.n > 0 {
			for _, j := range placedIdx {
				q := pp.boxes[j]
				var qs termSum
				g.addGravity(&qs, q.mods, q.ids, q.origin)
				if qs.n > 0 {
					// Weight each placed box's own center by its
					// terminal count.
					c := qs.mean()
					fx += c.x * float64(qs.n)
					fy += c.y * float64(qs.n)
					n1 += qs.n
				}
			}
		}
		var target geom.Point
		if own.n > 0 && n1 > 0 {
			target = fpoint{fx / float64(n1), fy / float64(n1)}.sub(own.mean())
		} else {
			// No shared nets: abut to the right of what is placed.
			target = geom.Pt(ext.Max.X+1, 0)
		}
		pb.origin = pl.origins.best(target, pb.size, placedRects, pl.opts.BoxSpacing)
		r := geom.Rect{Min: pb.origin, Max: pb.origin.Add(pb.size)}
		placedRects = append(placedRects, r)
		ext = ext.Union(r)
		placedIdx = append(placedIdx, i)
	}

	// Normalize: shift so the partition's own lower-left is (0,0) plus
	// the partition margin.
	b := ext
	shift := geom.Pt(pl.opts.PartSpacing-b.Min.X, pl.opts.PartSpacing-b.Min.Y)
	for _, pb := range pp.boxes {
		pb.origin = pb.origin.Add(shift)
	}
	pp.size = geom.Pt(b.Dx()+2*pl.opts.PartSpacing, b.Dy()+2*pl.opts.PartSpacing)
}

func boundsOf(rects []geom.Rect) geom.Rect {
	var b geom.Rect
	for i, r := range rects {
		if i == 0 {
			b = r
		} else {
			b = b.Union(r)
		}
	}
	return b
}

// modIDs lists the design module ids of a placed partition.
func (pp *placedPart) modIDs() []int {
	if pp.fixed {
		return pp.ids
	}
	var ids []int
	for _, pb := range pp.boxes {
		ids = append(ids, pb.ids...)
	}
	return ids
}

// partGravity sums the terminal positions of pp's modules on the
// shared nets, with box origins applied and the partition origin added
// when absolute is true.
func (g *groups) partGravity(pp *placedPart, absolute bool) termSum {
	var s termSum
	if pp.fixed {
		g.addGravity(&s, pp.mods, pp.ids, geom.Pt(0, 0)) // already absolute
		return s
	}
	for _, pb := range pp.boxes {
		origin := pb.origin
		if absolute {
			origin = origin.Add(pp.origin)
		}
		g.addGravity(&s, pb.mods, pb.ids, origin)
	}
	return s
}

// pinnedPartition builds the pseudo partition holding the manually
// preplaced modules (PABLO -g: "the preplaced part will form a partition
// on its own"). Returns nil when nothing is pinned.
func pinnedPartition(ix *netlist.Index, opts Options) *placedPart {
	if len(opts.Fixed) == 0 {
		return nil
	}
	pp := &placedPart{fixed: true}
	for id, m := range ix.Design.Modules {
		fx, ok := opts.Fixed[m]
		if !ok {
			continue
		}
		pp.mods = append(pp.mods, &PlacedModule{Mod: m, Pos: fx.Pos, Orient: fx.Orient})
		pp.ids = append(pp.ids, id)
	}
	var b geom.Rect
	for i, pm := range pp.mods {
		if i == 0 {
			b = pm.Rect()
		} else {
			b = b.Union(pm.Rect())
		}
	}
	// Surround the pinned block with the same white space a box would
	// get, so the automatically placed partitions keep routing room
	// clear of its terminals.
	halo := [4]int{}
	for _, pm := range pp.mods {
		for di, dir := range geom.Dirs {
			if s := spacing(pm.Mod, pm.Orient, dir, opts.ModSpacing); s > halo[di] {
				halo[di] = s
			}
		}
	}
	l, r := halo[geom.Left], halo[geom.Right]
	dn, up := halo[geom.Down], halo[geom.Up]
	pp.origin = b.Min.Sub(geom.Pt(l, dn))
	pp.size = geom.Pt(b.Dx()+l+r, b.Dy()+dn+up)
	return pp
}

// placePartitions implements PARTITION_PLACEMENT: the partition with the
// most modules (or the pinned preplaced partition) is placed first; each
// following partition is the most heavily connected one and lands at the
// free position minimizing the gravity center distance.
func (pl *placer) placePartitions(parts []*placedPart, pinned *placedPart) {
	all := parts
	if pinned != nil {
		all = append([]*placedPart{pinned}, parts...)
	}
	if len(all) == 0 {
		return
	}
	members := make([][]int, len(all))
	for i, pp := range all {
		members[i] = pp.modIDs()
	}
	first := 0
	if pinned == nil {
		for i, ms := range members {
			if len(ms) > len(members[first]) {
				first = i
			}
		}
		all[first].origin = geom.Pt(0, 0)
	}
	g := pl.groups
	g.reset(members)
	g.place(first)
	placed := []*placedPart{all[first]}
	placedRects := []geom.Rect{{Min: all[first].origin, Max: all[first].origin.Add(all[first].size)}}
	ext := placedRects[0]
	pending := make([]int, 0, len(all)-1)
	for i := range all {
		if i != first {
			pending = append(pending, i)
		}
	}

	for len(pending) > 0 {
		bestI := g.next(pending)
		pp := all[pending[bestI]]
		g.place(pending[bestI])
		pending = append(pending[:bestI], pending[bestI+1:]...)

		own := g.partGravity(pp, false)
		var fx, fy float64
		n1 := 0
		for _, q := range placed {
			if qs := g.partGravity(q, true); qs.n > 0 {
				c := qs.mean()
				fx += c.x * float64(qs.n)
				fy += c.y * float64(qs.n)
				n1 += qs.n
			}
		}
		var target geom.Point
		if own.n > 0 && n1 > 0 {
			target = fpoint{fx / float64(n1), fy / float64(n1)}.sub(own.mean())
		} else {
			target = geom.Pt(ext.Max.X+1, 0)
		}
		pp.origin = pl.origins.best(target, pp.size, placedRects, pl.opts.PartSpacing)
		placed = append(placed, pp)
		r := geom.Rect{Min: pp.origin, Max: pp.origin.Add(pp.size)}
		placedRects = append(placedRects, r)
		ext = ext.Union(r)
	}
}

// originSearch finds free origins; it keeps its scratch space between
// calls.
type originSearch struct {
	blocked []geom.Rect // inclusive ranges of blocked origins
	xs      []int
	spans   []geom.Interval
}

// best finds the origin closest to target (squared Euclidean distance,
// the paper's criterion in PLACE_BOX / PLACE_PARTITION) such that the
// rectangle of the given size, inflated by spacing, overlaps none of
// the placed rectangles. Ties go to the smaller Chebyshev ring around
// target, then to the earlier point in chebyshevRing order: the point
// an exact ring-by-ring search meets first.
//
// Each placed rectangle blocks a box of origins. A winner p needs no
// search beyond the box edges: if p.X != target.X, the point one track
// closer to target.X is strictly closer, so a blocked box holds it and
// p.X lies just outside that box's x range. Hence p.X is target.X or
// one track outside a box, and p.Y is a free y of that column nearest
// to target.Y. Columns are visited by distance from target.X, stopping
// once the column alone is farther than the best point found. Every
// column has free points above and below all boxes, so the search
// cannot fail.
func (s *originSearch) best(target, size geom.Point, placed []geom.Rect, spacing int) geom.Point {
	if size.X+2*spacing <= 0 || size.Y+2*spacing <= 0 {
		return target // an empty rectangle overlaps nothing
	}
	s.blocked, s.xs = s.blocked[:0], append(s.xs[:0], target.X)
	for _, q := range placed {
		if q.Empty() {
			continue
		}
		b := geom.Rect{
			Min: geom.Pt(q.Min.X-size.X-spacing+1, q.Min.Y-size.Y-spacing+1),
			Max: geom.Pt(q.Max.X+spacing-1, q.Max.Y+spacing-1),
		}
		s.blocked = append(s.blocked, b)
		s.xs = append(s.xs, b.Min.X-1, b.Max.X+1)
	}
	// Sorted by Min.Y, each column's blocked spans come out sorted.
	slices.SortFunc(s.blocked, func(a, b geom.Rect) int { return a.Min.Y - b.Min.Y })
	slices.SortFunc(s.xs, func(a, b int) int {
		if c := geom.Abs(a-target.X) - geom.Abs(b-target.X); c != 0 {
			return c
		}
		return a - b
	})

	best, bestD := target, math.MaxInt
	for i, x := range s.xs {
		dx := x - target.X
		if dx*dx > bestD {
			break
		}
		if i > 0 && x == s.xs[i-1] {
			continue
		}
		lo, hi := s.freeY(x, target.Y)
		for _, y := range [2]int{lo, hi} {
			p := geom.Pt(x, y)
			if d := p.SqDist(target); d < bestD || (d == bestD && ringBefore(p.Sub(target), best.Sub(target))) {
				best, bestD = p, d
			}
		}
	}
	return best
}

// freeY returns the free origins of column x nearest to y from below
// and from above (both y when y itself is free).
func (s *originSearch) freeY(x, y int) (lo, hi int) {
	s.spans = s.spans[:0]
	for _, b := range s.blocked {
		if b.Min.X <= x && x <= b.Max.X {
			s.spans = append(s.spans, geom.Interval{Lo: b.Min.Y, Hi: b.Max.Y})
		}
	}
	// Merge the spans into maximal blocked runs and find y's.
	var run geom.Interval
	open := false
	for _, sp := range s.spans {
		if open && sp.Lo <= run.Hi+1 {
			run.Hi = geom.Max(run.Hi, sp.Hi)
			continue
		}
		if open && run.Lo <= y && y <= run.Hi || sp.Lo > y {
			break
		}
		run, open = sp, true
	}
	if open && run.Lo <= y && y <= run.Hi {
		return run.Lo - 1, run.Hi + 1
	}
	return y, y
}

// ringBefore reports whether offset a comes before offset b in the
// ring-by-ring order of chebyshevRing: smaller ring first, then within
// a ring the top and bottom rows by x (top first), then the right and
// left columns by y (right first).
func ringBefore(a, b geom.Point) bool {
	ra, pa := ringPos(a)
	rb, pb := ringPos(b)
	return ra < rb || (ra == rb && pa < pb)
}

func ringPos(p geom.Point) (r, pos int) {
	r = geom.Max(geom.Abs(p.X), geom.Abs(p.Y))
	switch {
	case p.Y == r:
		return r, 2 * (p.X + r)
	case p.Y == -r:
		return r, 2*(p.X+r) + 1
	case p.X == r:
		return r, 2*(2*r+1) + 2*(p.Y+r-1)
	default:
		return r, 2*(2*r+1) + 2*(p.Y+r-1) + 1
	}
}

// placeTerminals implements TERMINAL_PLACEMENT (§4.6.7): every system
// terminal goes to the free position on the ring one track outside the
// module bounding box that is closest to the gravity center of the
// subsystem terminals on its net. When a ring is full the search moves
// two tracks further out, keeping a free track between rings.
func placeTerminals(r *Result) {
	if len(r.Design.SysTerms) == 0 {
		return
	}
	// A ring position that is the outward escape cell of a connected
	// subsystem terminal would make that terminal unroutable (its only
	// approach track would be blocked); reserve those cells.
	var ring terminalRing
	ring.reset(r.ModuleBounds)
	for _, m := range r.Design.Modules {
		pm, ok := r.Mods[m]
		if !ok {
			continue
		}
		for _, tm := range m.Terms {
			if tm.Net != nil {
				ring.occupy(pm.TermPos(tm).Add(pm.TermSide(tm).Delta()))
			}
		}
	}
	grow := 0
	for _, st := range r.Design.SysTerms {
		g, ok := terminalGravity(r, st)
		if !ok {
			g = r.ModuleBounds.Center()
		}
		i := ring.nearest(g)
		for i < 0 {
			grow += 2
			ring.reset(r.ModuleBounds.Inset(-grow))
			i = ring.nearest(g)
		}
		ring.used[i] = true
		r.SysPos[st] = ring.pts[i]
	}
}

// terminalRing is one perimeter ring with its occupied positions.
type terminalRing struct {
	b    geom.Rect // the ring runs one track outside b
	pts  []geom.Point
	used []bool
}

// reset makes the ring the one around b, in order: the bottom and top
// rows by x, then the left and right columns by y. b
// uses cell semantics (Max exclusive), but module symbols occupy their
// outline points inclusively, so the ring runs from Min-1 to Max+1 in
// point coordinates.
func (tr *terminalRing) reset(b geom.Rect) {
	tr.b = b
	x0, y0 := b.Min.X-1, b.Min.Y-1
	x1, y1 := b.Max.X+1, b.Max.Y+1
	tr.pts = tr.pts[:0]
	for x := x0; x <= x1; x++ {
		tr.pts = append(tr.pts, geom.Pt(x, y0), geom.Pt(x, y1))
	}
	for y := y0 + 1; y <= y1-1; y++ {
		tr.pts = append(tr.pts, geom.Pt(x0, y), geom.Pt(x1, y))
	}
	tr.used = slices.Grow(tr.used[:0], len(tr.pts))[:len(tr.pts)]
	clear(tr.used)
}

// occupy marks p used when it lies on the ring.
func (tr *terminalRing) occupy(p geom.Point) {
	x0, y0 := tr.b.Min.X-1, tr.b.Min.Y-1
	x1, y1 := tr.b.Max.X+1, tr.b.Max.Y+1
	switch {
	case p.X < x0 || p.X > x1 || p.Y < y0 || p.Y > y1:
	case p.Y == y0:
		tr.used[2*(p.X-x0)] = true
	case p.Y == y1:
		tr.used[2*(p.X-x0)+1] = true
	case p.X == x0:
		tr.used[2*(x1-x0+1)+2*(p.Y-y0-1)] = true
	case p.X == x1:
		tr.used[2*(x1-x0+1)+2*(p.Y-y0-1)+1] = true
	}
}

// nearest returns the index of the free ring position closest to g,
// the first in ring order on ties, or -1 when the ring is full.
func (tr *terminalRing) nearest(g geom.Point) int {
	best, bestD := -1, math.MaxInt
	for i, p := range tr.pts {
		if d := p.SqDist(g); !tr.used[i] && d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// terminalGravity returns the mean position of the subsystem terminals
// connected to st's net.
func terminalGravity(r *Result, st *netlist.Terminal) (geom.Point, bool) {
	if st.Net == nil {
		return geom.Point{}, false
	}
	var sx, sy, n int
	for _, t := range st.Net.Terms {
		if t.Module == nil {
			continue
		}
		pm, ok := r.Mods[t.Module]
		if !ok {
			continue
		}
		p := pm.TermPos(t)
		sx += p.X
		sy += p.Y
		n++
	}
	if n == 0 {
		return geom.Point{}, false
	}
	return geom.Pt(sx/n, sy/n), true
}
