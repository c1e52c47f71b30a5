package place

import (
	"fmt"
	"math"

	"netart/internal/boxes"
	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/partition"
)

// This file keeps the map-based placement bookkeeping the package
// replaced with index-addressed counts (partition seeds and growth,
// CONSTRUCT_ROOTS / LONGEST_PATH, shared-net counting, the ring search
// for free origins, terminal placement and spacing). It recomputes every
// count from scratch, straight from the paper's definitions, and serves
// as the reference the differential battery (differential_test.go)
// holds Place to: the two must produce identical Results.

// refPlace is Place over the reference bookkeeping. exhausted reports
// that a system terminal found both terminal rings full, where the
// reference assigns the zero point.
func refPlace(d *netlist.Design, opts Options) (res *Result, exhausted bool, err error) {
	var free []*netlist.Module
	for _, m := range d.Modules {
		if _, pinned := opts.Fixed[m]; !pinned {
			free = append(free, m)
		}
	}
	parts := refPartitionSubset(d, free, partition.Config{
		MaxSize:        opts.PartSize,
		MaxConnections: opts.MaxConnections,
	})
	placedParts := make([]*placedPart, len(parts))
	for i, p := range parts {
		pp := &placedPart{part: p}
		for _, b := range refFormBoxes(d, p, opts.BoxSize) {
			pb, err := placeBoxModules(b, opts)
			if err != nil {
				return nil, false, err
			}
			pp.boxes = append(pp.boxes, pb)
		}
		refPlaceBoxesInPartition(d, pp, opts)
		placedParts[i] = pp
	}
	res = &Result{
		Design: d,
		Mods:   map[*netlist.Module]*PlacedModule{},
		SysPos: map[*netlist.Terminal]geom.Point{},
	}
	pinned := refPinnedPartition(d, opts)
	refPlacePartitions(d, placedParts, pinned, opts)
	if pinned != nil {
		for _, pm := range pinned.mods {
			res.Mods[pm.Mod] = pm
		}
	}
	for _, pp := range placedParts {
		placed := &PlacedPart{Part: pp.part}
		for _, pb := range pp.boxes {
			boxRect := geom.Rect{
				Min: pp.origin.Add(pb.origin),
				Max: pp.origin.Add(pb.origin).Add(pb.size),
			}
			placed.Boxes = append(placed.Boxes, &PlacedBox{Box: pb.box, Rect: boxRect})
			for _, pm := range pb.mods {
				res.Mods[pm.Mod] = &PlacedModule{
					Mod:    pm.Mod,
					Pos:    pp.origin.Add(pb.origin).Add(pm.Pos),
					Orient: pm.Orient,
				}
			}
		}
		placed.Rect = geom.Rect{Min: pp.origin, Max: pp.origin.Add(pp.size)}
		res.Parts = append(res.Parts, placed)
	}
	res.ModuleBounds = moduleBounds(res)
	exhausted = refPlaceTerminals(res)
	res.Bounds = fullBounds(res)
	return res, exhausted, nil
}

// --- partitioning (§4.6.3) ---

func refPartitionSubset(d *netlist.Design, modules []*netlist.Module, cfg partition.Config) []*partition.Part {
	free := make(map[*netlist.Module]bool, len(modules))
	order := make([]*netlist.Module, 0, len(modules))
	for _, m := range modules {
		if !free[m] {
			free[m] = true
			order = append(order, m)
		}
	}
	placed := map[*netlist.Module]bool{}
	var parts []*partition.Part
	for len(free) > 0 {
		seed := refTakeSeed(order, free, placed)
		delete(free, seed)
		part := refFormPartition(d, order, free, seed, cfg)
		for _, m := range part.Modules {
			placed[m] = true
		}
		parts = append(parts, part)
	}
	return parts
}

func refTakeSeed(order []*netlist.Module, free, placed map[*netlist.Module]bool) *netlist.Module {
	var best *netlist.Module
	bestFree, bestPlaced := -1, 0
	for _, m := range order {
		if !free[m] {
			continue
		}
		toFree := refNetsTo(m, func(u *netlist.Module) bool { return free[u] })
		toPlaced := netlist.NetsBetween(m, placed)
		if best == nil || toFree > bestFree ||
			(toFree == bestFree && toPlaced < bestPlaced) {
			best, bestFree, bestPlaced = m, toFree, toPlaced
		}
	}
	return best
}

// refNetsTo counts the distinct nets from m to other modules u with
// in(u).
func refNetsTo(m *netlist.Module, in func(*netlist.Module) bool) int {
	seen := map[*netlist.Net]bool{}
	count := 0
	for _, t := range m.Terms {
		n := t.Net
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		for _, u := range n.Terms {
			if u.Module != nil && u.Module != m && in(u.Module) {
				count++
				break
			}
		}
	}
	return count
}

func refFormPartition(d *netlist.Design, order []*netlist.Module, free map[*netlist.Module]bool,
	seed *netlist.Module, cfg partition.Config) *partition.Part {
	part := &partition.Part{Modules: []*netlist.Module{seed}}
	inPart := map[*netlist.Module]bool{seed: true}
	maxSize, maxConn := cfg.MaxSize, cfg.MaxConnections
	if maxSize < 1 {
		maxSize = 1
	}
	if maxConn <= 0 {
		maxConn = math.MaxInt
	}
	for len(free) > 0 && len(part.Modules) < maxSize &&
		refExternalConnections(d, inPart) < maxConn {
		var best *netlist.Module
		bestIn, bestOut := -1, 0
		for _, m := range order {
			if !free[m] {
				continue
			}
			toIn := netlist.NetsBetween(m, inPart)
			toOut := refNetsTo(m, func(u *netlist.Module) bool { return !inPart[u] })
			if best == nil || toIn > bestIn ||
				(toIn == bestIn && toOut < bestOut) {
				best, bestIn, bestOut = m, toIn, toOut
			}
		}
		if best == nil || bestIn == 0 {
			break
		}
		delete(free, best)
		inPart[best] = true
		part.Modules = append(part.Modules, best)
	}
	return part
}

func refExternalConnections(d *netlist.Design, inPart map[*netlist.Module]bool) int {
	count := 0
	for _, n := range d.Nets {
		inside, outside := false, false
		for _, t := range n.Terms {
			if t.Module != nil && inPart[t.Module] {
				inside = true
			} else {
				outside = true
			}
		}
		if inside && outside {
			count++
		}
	}
	return count
}

// --- box formation (§4.6.3) ---

func refFormBoxes(d *netlist.Design, p *partition.Part, maxBox int) []*boxes.Box {
	if maxBox < 1 {
		maxBox = 1
	}
	remaining := map[*netlist.Module]bool{}
	order := append([]*netlist.Module(nil), p.Modules...)
	for _, m := range order {
		remaining[m] = true
	}
	roots := refConstructRoots(p)
	var out []*boxes.Box
	for len(remaining) > 0 {
		var live []*netlist.Module
		for _, m := range order {
			if remaining[m] && roots[m] {
				live = append(live, m)
			}
		}
		if len(live) == 0 {
			for _, m := range order {
				if remaining[m] {
					live = append(live, m)
				}
			}
		}
		var maxPath []*netlist.Module
		for _, r := range live {
			path := refLongestPath([]*netlist.Module{r}, remaining, maxBox)
			if len(path) > len(maxPath) {
				maxPath = path
			}
		}
		for _, m := range maxPath {
			delete(remaining, m)
		}
		delete(roots, maxPath[0])
		out = append(out, &boxes.Box{Modules: maxPath})
	}
	return out
}

func refConstructRoots(p *partition.Part) map[*netlist.Module]bool {
	inPart := p.Set()
	roots := map[*netlist.Module]bool{}
	for _, m := range p.Modules {
		outside := refNetsTo(m, func(u *netlist.Module) bool { return !inPart[u] }) > 0
		sysIn := false
		for _, t := range m.Terms {
			if t.Net == nil {
				continue
			}
			for _, u := range t.Net.Terms {
				if u.Module == nil && (u.Type == netlist.In || u.Type == netlist.InOut) {
					sysIn = true
				}
			}
		}
		degree := refNetsTo(m, func(*netlist.Module) bool { return true })
		if outside || sysIn || degree == 1 {
			roots[m] = true
		}
	}
	return roots
}

func refLongestPath(path []*netlist.Module, remaining map[*netlist.Module]bool, maxBox int) []*netlist.Module {
	maxPath := append([]*netlist.Module(nil), path...)
	if len(path) >= maxBox {
		return maxPath
	}
	tail := path[len(path)-1]
	for _, cand := range refOutInSuccessors(tail) {
		onPath := false
		for _, x := range path {
			onPath = onPath || x == cand
		}
		if !remaining[cand] || onPath {
			continue
		}
		delete(remaining, cand)
		p := refLongestPath(append(path, cand), remaining, maxBox)
		remaining[cand] = true
		if len(p) > len(maxPath) {
			maxPath = p
		}
	}
	return maxPath
}

func refOutInSuccessors(m *netlist.Module) []*netlist.Module {
	var out []*netlist.Module
	seen := map[*netlist.Module]bool{}
	for _, t := range m.Terms {
		if t.Net == nil || !t.Type.CanDrive() {
			continue
		}
		for _, u := range t.Net.Terms {
			if u.Module == nil || u.Module == m || seen[u.Module] {
				continue
			}
			if u.Type.CanSink() {
				seen[u.Module] = true
				out = append(out, u.Module)
			}
		}
	}
	return out
}

// --- module white space (Appendix E) ---

func refSpacing(m *netlist.Module, o geom.Orient, side geom.Dir, slack int) int {
	seen := map[*netlist.Net]bool{}
	count := 0
	for _, t := range m.Terms {
		if t.Net == nil || seen[t.Net] {
			continue
		}
		orig, err := t.Side()
		if err != nil {
			continue
		}
		if o.RotateDir(orig) == side {
			seen[t.Net] = true
			count++
		}
	}
	return count + 1 + slack
}

// --- gravity placement of boxes and partitions (§4.6.5–4.6.6) ---

func refModSet(mods []*PlacedModule) map[*netlist.Module]bool {
	s := map[*netlist.Module]bool{}
	for _, pm := range mods {
		s[pm.Mod] = true
	}
	return s
}

func refSharedNets(d *netlist.Design, a, b map[*netlist.Module]bool) map[*netlist.Net]bool {
	out := map[*netlist.Net]bool{}
	for _, n := range d.Nets {
		inA, inB := false, false
		for _, t := range n.Terms {
			if t.Module == nil {
				continue
			}
			if a[t.Module] {
				inA = true
			}
			if b[t.Module] {
				inB = true
			}
		}
		if inA && inB {
			out[n] = true
		}
	}
	return out
}

func refGravity(mods []*PlacedModule, origin geom.Point, nets map[*netlist.Net]bool) (fpoint, int) {
	var sx, sy float64
	n := 0
	for _, pm := range mods {
		for _, t := range pm.Mod.Terms {
			if t.Net == nil || !nets[t.Net] {
				continue
			}
			p := origin.Add(pm.TermPos(t))
			sx += float64(p.X)
			sy += float64(p.Y)
			n++
		}
	}
	if n == 0 {
		return fpoint{}, 0
	}
	return fpoint{sx / float64(n), sy / float64(n)}, n
}

func refPlaceBoxesInPartition(d *netlist.Design, pp *placedPart, opts Options) {
	if len(pp.boxes) == 0 {
		pp.size = geom.Pt(0, 0)
		return
	}
	first := 0
	for i, pb := range pp.boxes {
		if pb.box.Len() > pp.boxes[first].box.Len() {
			first = i
		}
	}
	pp.boxes[0], pp.boxes[first] = pp.boxes[first], pp.boxes[0]
	pp.boxes[0].origin = geom.Pt(0, 0)
	placedRects := []geom.Rect{{Min: geom.Pt(0, 0), Max: pp.boxes[0].size}}
	placedIdx := []int{0}
	var pending []int
	for i := 1; i < len(pp.boxes); i++ {
		pending = append(pending, i)
	}
	for len(pending) > 0 {
		placedSet := map[*netlist.Module]bool{}
		for _, i := range placedIdx {
			for m := range refModSet(pp.boxes[i].mods) {
				placedSet[m] = true
			}
		}
		bestI, bestConn := 0, -1
		for pi, i := range pending {
			if conn := len(refSharedNets(d, refModSet(pp.boxes[i].mods), placedSet)); conn > bestConn {
				bestI, bestConn = pi, conn
			}
		}
		i := pending[bestI]
		pending = append(pending[:bestI], pending[bestI+1:]...)
		pb := pp.boxes[i]
		nets := refSharedNets(d, refModSet(pb.mods), placedSet)
		g0, n0 := refGravity(pb.mods, geom.Pt(0, 0), nets)
		var g1 fpoint
		n1 := 0
		if n0 > 0 {
			var sx, sy float64
			for _, j := range placedIdx {
				q := pp.boxes[j]
				if g, cnt := refGravity(q.mods, q.origin, nets); cnt > 0 {
					sx += g.x * float64(cnt)
					sy += g.y * float64(cnt)
					n1 += cnt
				}
			}
			if n1 > 0 {
				g1 = fpoint{sx / float64(n1), sy / float64(n1)}
			}
		}
		var target geom.Point
		if n0 > 0 && n1 > 0 {
			target = g1.sub(g0)
		} else {
			target = geom.Pt(boundsOf(placedRects).Max.X+1, 0)
		}
		pb.origin = refBestFreeOrigin(target, pb.size, placedRects, opts.BoxSpacing)
		placedRects = append(placedRects, geom.Rect{Min: pb.origin, Max: pb.origin.Add(pb.size)})
		placedIdx = append(placedIdx, i)
	}
	b := boundsOf(placedRects)
	shift := geom.Pt(opts.PartSpacing-b.Min.X, opts.PartSpacing-b.Min.Y)
	for _, pb := range pp.boxes {
		pb.origin = pb.origin.Add(shift)
	}
	pp.size = geom.Pt(b.Dx()+2*opts.PartSpacing, b.Dy()+2*opts.PartSpacing)
}

func refPartModSet(pp *placedPart) map[*netlist.Module]bool {
	if pp.fixed {
		return refModSet(pp.mods)
	}
	s := map[*netlist.Module]bool{}
	for _, pb := range pp.boxes {
		for _, pm := range pb.mods {
			s[pm.Mod] = true
		}
	}
	return s
}

func refPartGravity(pp *placedPart, nets map[*netlist.Net]bool, absolute bool) (fpoint, int) {
	var sx, sy float64
	n := 0
	addTerm := func(p geom.Point) {
		sx += float64(p.X)
		sy += float64(p.Y)
		n++
	}
	if pp.fixed {
		for _, pm := range pp.mods {
			for _, t := range pm.Mod.Terms {
				if t.Net != nil && nets[t.Net] {
					addTerm(pm.TermPos(t))
				}
			}
		}
	} else {
		for _, pb := range pp.boxes {
			for _, pm := range pb.mods {
				for _, t := range pm.Mod.Terms {
					if t.Net == nil || !nets[t.Net] {
						continue
					}
					p := pb.origin.Add(pm.TermPos(t))
					if absolute {
						p = p.Add(pp.origin)
					}
					addTerm(p)
				}
			}
		}
	}
	if n == 0 {
		return fpoint{}, 0
	}
	return fpoint{sx / float64(n), sy / float64(n)}, n
}

func refPinnedPartition(d *netlist.Design, opts Options) *placedPart {
	if len(opts.Fixed) == 0 {
		return nil
	}
	pp := &placedPart{fixed: true}
	for _, m := range d.Modules {
		if fx, ok := opts.Fixed[m]; ok {
			pp.mods = append(pp.mods, &PlacedModule{Mod: m, Pos: fx.Pos, Orient: fx.Orient})
		}
	}
	var b geom.Rect
	for i, pm := range pp.mods {
		if i == 0 {
			b = pm.Rect()
		} else {
			b = b.Union(pm.Rect())
		}
	}
	halo := [4]int{}
	for _, pm := range pp.mods {
		for di, dir := range geom.Dirs {
			if s := refSpacing(pm.Mod, pm.Orient, dir, opts.ModSpacing); s > halo[di] {
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

func refPlacePartitions(d *netlist.Design, parts []*placedPart, pinned *placedPart, opts Options) {
	var placed []*placedPart
	var placedRects []geom.Rect
	pending := append([]*placedPart(nil), parts...)
	if pinned != nil {
		placed = append(placed, pinned)
		placedRects = append(placedRects, geom.Rect{Min: pinned.origin, Max: pinned.origin.Add(pinned.size)})
	} else if len(pending) > 0 {
		first := 0
		for i, pp := range pending {
			if len(refPartModSet(pp)) > len(refPartModSet(pending[first])) {
				first = i
			}
		}
		p := pending[first]
		pending = append(pending[:first], pending[first+1:]...)
		p.origin = geom.Pt(0, 0)
		placed = append(placed, p)
		placedRects = append(placedRects, geom.Rect{Min: p.origin, Max: p.origin.Add(p.size)})
	}
	for len(pending) > 0 {
		placedSet := map[*netlist.Module]bool{}
		for _, pp := range placed {
			for m := range refPartModSet(pp) {
				placedSet[m] = true
			}
		}
		bestI, bestConn := 0, -1
		for i, pp := range pending {
			if conn := len(refSharedNets(d, refPartModSet(pp), placedSet)); conn > bestConn {
				bestI, bestConn = i, conn
			}
		}
		pp := pending[bestI]
		pending = append(pending[:bestI], pending[bestI+1:]...)
		nets := refSharedNets(d, refPartModSet(pp), placedSet)
		g0, n0 := refPartGravity(pp, nets, false)
		var g1 fpoint
		n1 := 0
		var sx, sy float64
		for _, q := range placed {
			g, n := refPartGravity(q, nets, true)
			sx += g.x * float64(n)
			sy += g.y * float64(n)
			n1 += n
		}
		if n1 > 0 {
			g1 = fpoint{sx / float64(n1), sy / float64(n1)}
		}
		var target geom.Point
		if n0 > 0 && n1 > 0 {
			target = g1.sub(g0)
		} else {
			target = geom.Pt(boundsOf(placedRects).Max.X+1, 0)
		}
		pp.origin = refBestFreeOrigin(target, pp.size, placedRects, opts.PartSpacing)
		placed = append(placed, pp)
		placedRects = append(placedRects, geom.Rect{Min: pp.origin, Max: pp.origin.Add(pp.size)})
	}
}

// refBestFreeOrigin is the exact ring search: a candidate found at
// distance d is only accepted once every ring with minimum distance
// <= d has been scanned.
func refBestFreeOrigin(target, size geom.Point, placed []geom.Rect, spacing int) geom.Point {
	free := func(p geom.Point) bool {
		r := geom.Rect{Min: p, Max: p.Add(size)}.Inset(-spacing)
		for _, q := range placed {
			if r.Overlaps(q) {
				return false
			}
		}
		return true
	}
	if len(placed) == 0 {
		return target
	}
	ext := boundsOf(placed)
	limit := ext.Dx() + ext.Dy() + size.X + size.Y + 2*spacing + 4
	best := geom.Point{}
	bestD := math.MaxInt
	found := false
	for r := 0; r <= limit; r++ {
		if found && bestD <= r*r {
			break
		}
		for _, p := range chebyshevRing(target, r) {
			if !free(p) {
				continue
			}
			if d := p.SqDist(target); d < bestD {
				best, bestD, found = p, d, true
			}
		}
	}
	if !found {
		return geom.Pt(ext.Max.X+spacing+1, target.Y)
	}
	return best
}

// --- terminal placement (§4.6.7) ---

func refPlaceTerminals(r *Result) (exhausted bool) {
	if len(r.Design.SysTerms) == 0 {
		return false
	}
	ring := refPerimeterRing(r.ModuleBounds)
	occupied := map[geom.Point]bool{}
	for _, m := range r.Design.Modules {
		pm, ok := r.Mods[m]
		if !ok {
			continue
		}
		for _, tm := range m.Terms {
			if tm.Net != nil {
				occupied[pm.TermPos(tm).Add(pm.TermSide(tm).Delta())] = true
			}
		}
	}
	for _, st := range r.Design.SysTerms {
		g, ok := terminalGravity(r, st)
		if !ok {
			g = r.ModuleBounds.Center()
		}
		best := geom.Point{}
		bestD := math.MaxInt
		for _, p := range ring {
			if d := p.SqDist(g); !occupied[p] && d < bestD {
				best, bestD = p, d
			}
		}
		if bestD == math.MaxInt {
			ring = refPerimeterRing(r.ModuleBounds.Inset(-2))
			for _, p := range ring {
				if d := p.SqDist(g); !occupied[p] && d < bestD {
					best, bestD = p, d
				}
			}
		}
		if bestD == math.MaxInt {
			exhausted = true
		}
		occupied[best] = true
		r.SysPos[st] = best
	}
	return exhausted
}

func refPerimeterRing(b geom.Rect) []geom.Point {
	x0, y0 := b.Min.X-1, b.Min.Y-1
	x1, y1 := b.Max.X+1, b.Max.Y+1
	var out []geom.Point
	for x := x0; x <= x1; x++ {
		out = append(out, geom.Pt(x, y0), geom.Pt(x, y1))
	}
	for y := y0 + 1; y <= y1-1; y++ {
		out = append(out, geom.Pt(x0, y), geom.Pt(x1, y))
	}
	return out
}

// resultDiff describes the first difference between two placements of
// the same design: module positions and orientations, system terminal
// positions, and the order, modules and rectangles of partitions and
// boxes. It returns "" when they are identical.
func resultDiff(want, got *Result) string {
	for _, m := range want.Design.Modules {
		w, g := want.Mods[m], got.Mods[m]
		if (w == nil) != (g == nil) || (w != nil && (w.Pos != g.Pos || w.Orient != g.Orient)) {
			return fmt.Sprintf("module %s: want %+v, got %+v", m.Name, w, g)
		}
	}
	if len(got.Mods) != len(want.Mods) {
		return fmt.Sprintf("%d modules placed, want %d", len(got.Mods), len(want.Mods))
	}
	for _, t := range want.Design.SysTerms {
		if w, g := want.SysPos[t], got.SysPos[t]; w != g {
			return fmt.Sprintf("system terminal %s: want %v, got %v", t.Name, w, g)
		}
	}
	if len(got.Parts) != len(want.Parts) {
		return fmt.Sprintf("%d partitions, want %d", len(got.Parts), len(want.Parts))
	}
	for i, wp := range want.Parts {
		gp := got.Parts[i]
		if wp.Rect != gp.Rect || !sameModules(wp.Part.Modules, gp.Part.Modules) || len(wp.Boxes) != len(gp.Boxes) {
			return fmt.Sprintf("partition %d: want %v %d boxes, got %v %d boxes", i, wp.Rect, len(wp.Boxes), gp.Rect, len(gp.Boxes))
		}
		for j, wb := range wp.Boxes {
			gb := gp.Boxes[j]
			if wb.Rect != gb.Rect || !sameModules(wb.Box.Modules, gb.Box.Modules) {
				return fmt.Sprintf("partition %d box %d: want %v, got %v", i, j, wb.Rect, gb.Rect)
			}
		}
	}
	if want.ModuleBounds != got.ModuleBounds || want.Bounds != got.Bounds {
		return fmt.Sprintf("bounds: want %v/%v, got %v/%v", want.ModuleBounds, want.Bounds, got.ModuleBounds, got.Bounds)
	}
	return ""
}

func sameModules(a, b []*netlist.Module) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
