package route

import (
	"math/bits"
	"sort"

	"netart/internal/geom"
)

// This file implements the line-expansion principle of §5.5/§5.6
// (after Heyns, Sansen & Beke [7]): whole active segments are expanded
// perpendicular to their direction; the borders of each expansion zone
// become the next wave's active segments. Waves are processed in order
// of their bend count, so the first wave that reaches the target yields
// a path with the minimum number of bends; scanning the complete wave
// before committing lets the router pick, among the minimum-bend
// solutions, the one with the fewest wire crossings and then the
// smallest wire length (§5.6.1; the -s option of Appendix F swaps the
// last two criteria).

// active is the ten-tuple of §5.6.2 in struct form: a segment of
// already-reached cells together with its expansion direction, wave
// (bend) number, crossing count, and its originator for the trace-back.
//
// The crossing count is a single value, not the paper's per-cell list:
// new actives are split at crossing cells (a crossing cannot be a
// turning point), so every cell of one active was reached across the
// same set of foreign wires and carries the same count.
type active struct {
	index  int           // the fixed coordinate: row for horizontal segments (dir up/down), column for vertical
	iv     geom.Interval // cell range along the segment
	dir    geom.Dir      // expansion direction, perpendicular to the segment
	bends  int           // wave number b
	cross  int           // crossings c on the path to every cell
	parent *active       // originator
}

// pt maps segment coordinates to plane points: i runs along the
// segment, j along the expansion axis.
func (a *active) pt(i, j int) geom.Point {
	if a.dir == geom.Up || a.dir == geom.Down {
		return geom.Pt(i, j)
	}
	return geom.Pt(j, i)
}

// step is the signed unit of the expansion axis.
func (a *active) step() int {
	if a.dir == geom.Up || a.dir == geom.Right {
		return 1
	}
	return -1
}

// solution records one contact with the target set.
type solution struct {
	a      *active
	i, j   int // contact coordinates in a's frame
	cross  int
	length int
	segs   []Segment
}

// lineSearch is one invocation of the expansion engine: route from a
// set of initial actives to the target marks of its arena.
//
// Coverage bookkeeping lives in the arena: one bit per expansion
// direction per cell — a cell stops an escape only when it was already
// swept in the same direction. This mirrors the paper's directional
// obstacle sets (new vertical actives are added to vertical-segments
// and block only horizontal escapes, and vice versa) and preserves the
// minimum bend guarantee: when an escape is stopped by a same-direction
// mark, every cell beyond it was already covered at an equal or lower
// wave number by the sweep that made the mark.
type lineSearch struct {
	pl     *Plane
	net    int32
	ar     *searchArena // target and covered marks + wavefront scratch; never nil
	views  [4]lineView  // the line view of each expansion direction
	tbox   geom.Rect    // inclusive bounding box of the target marks (setTargets)
	sols   []solution
	swap   bool         // -s: compare length before crossings
	stats  *SearchStats // optional counters; nil disables
	cancel *cancelCheck // optional cancellation; nil never cancels
}

// SearchStats counts the work the expansion engine performs — the
// quantities the §5.8 complexity discussion reasons about ("if the
// number of bends is small then a path will be found in no time
// because the number of possible paths will be small").
type SearchStats struct {
	Searches int `json:"searches"`  // individual connection searches run
	Waves    int `json:"waves"`     // wavefronts processed (one per bend level per search)
	Actives  int `json:"actives"`   // active segments expanded
	Cells    int `json:"cells"`     // cells visited, reach-probe and final-sweep visits included
	MaxBends int `json:"max_bends"` // deepest wave that produced a solution
	RipUps   int `json:"rip_ups"`   // failed nets the rip-up pass attempted to fix
	// Widened is always 0: every search runs once, on the full plane.
	// The field stays for the route_stats wire shape.
	Widened int `json:"widened"`
}

func (st *SearchStats) addWave() {
	if st != nil {
		st.Waves++
	}
}

func (st *SearchStats) addActive() {
	if st != nil {
		st.Actives++
	}
}

func (st *SearchStats) addCells(n int) {
	if st != nil {
		st.Cells += n
	}
}

func dirBit(d geom.Dir) uint8 { return 1 << uint(d) }

const allDirBits = 0x0f

// newLineSearch prepares one search. A nil arena gets a private one
// (used by callers without a router, like the dual-front fronts); a
// shared arena is acquired here, clearing the previous search's marks.
// The search has no targets until setTargets (or markTarget) adds them.
func newLineSearch(pl *Plane, net int32, swap bool, ar *searchArena) *lineSearch {
	if ar == nil {
		ar = newSearchArena(pl.lineGeom)
	}
	ar.acquire()
	s := &lineSearch{pl: pl, net: net, ar: ar, swap: swap,
		tbox: geom.Rect{Min: geom.Pt(1<<30, 1<<30), Max: geom.Pt(-1<<30, -1<<30)}}
	for _, d := range geom.Dirs {
		s.views[d] = s.view(d)
	}
	return s
}

// setTargets marks the target set in the arena: the given points plus
// every point of the tree segments. The tree segments are the wires the
// net has laid, so the mark set equals the cells where the plane reports
// the net's own wires, and the search reads marks instead of the plane.
// It also records the marks' bounding box, which confines the solution
// wave's probe and sweep (run).
func (s *lineSearch) setTargets(pts []geom.Point, tree []Segment) {
	for _, p := range pts {
		if s.pl.InBounds(p) {
			s.ar.markTarget(s.pl.idx(p))
			s.tbox = boxAdd(s.tbox, p)
		}
	}
	for _, sg := range tree {
		c := sg.Canon()
		s.tbox = boxAdd(boxAdd(s.tbox, c.A), c.B)
		for y := c.A.Y; y <= c.B.Y; y++ {
			for x := c.A.X; x <= c.B.X; x++ {
				s.ar.markTarget(s.pl.idx(geom.Pt(x, y)))
			}
		}
	}
}

// terminalActives builds the initial wave for a terminal at p escaping
// in the given directions (one outward direction for subsystem
// terminals, all four for system terminals, per INIT_ACTIVES).
func terminalActives(p geom.Point, dirs []geom.Dir) []*active {
	out := make([]*active, 0, len(dirs))
	for _, d := range dirs {
		a := &active{dir: d, bends: 0}
		if d == geom.Up || d == geom.Down {
			a.index = p.Y
			a.iv = geom.Iv(p.X, p.X)
		} else {
			a.index = p.X
			a.iv = geom.Iv(p.Y, p.Y)
		}
		out = append(out, a)
	}
	return out
}

// run processes waves in bend order until a wave produces solutions or
// the frontier dies out. It returns the winning path as cleaned
// segments ordered target→source.
//
// A read-only probe (reaches) first decides whether wave b touches a
// target at all. If it does, b is the solution wave: only the escape
// lines that cross the target box are swept (sweepFinal), in the usual
// active and cell order, and no next-wave actives are built. The
// solution pool best() ranks is the one a sweep of every active would
// find (DESIGN.md §5i).
func (s *lineSearch) run(starts []*active) ([]Segment, bool) {
	if len(starts) == 0 {
		return nil, false
	}
	// Mark the start cells covered so escapes do not re-enter them.
	for _, a := range starts {
		for i := a.iv.Lo; i <= a.iv.Hi; i++ {
			p := a.pt(i, a.index)
			if s.pl.InBounds(p) {
				s.ar.markCovered(s.pl.idx(p), allDirBits)
			}
		}
	}
	wave := starts
	for bends := 0; len(wave) > 0; bends++ {
		if s.cancel.poll() {
			return nil, false // abandoned search: caller checks ctx.Err()
		}
		s.stats.addWave()
		final := s.reaches(wave)
		// The two wavefront buffers ping-pong out of the arena: next
		// never aliases wave (starts is the caller's, and consecutive
		// waves use alternating buffers). A final wave leaves next empty,
		// so a sweep cancelled before its first contact ends the search.
		next := s.ar.waves[bends&1][:0]
		for _, a := range wave {
			if final {
				s.sweepFinal(a)
				continue
			}
			s.stats.addActive()
			next = s.expand(a, next)
		}
		s.ar.waves[bends&1] = next[:0]
		if len(s.sols) > 0 {
			if s.stats != nil && bends > s.stats.MaxBends {
				s.stats.MaxBends = bends
			}
			return cleanSegments(s.best().segs), true
		}
		wave = next
	}
	return nil, false
}

// boxLines returns the cells lo..hi of a whose escape lines cross the
// target box ahead of the segment, and the expansion-axis coordinate
// just past the box's far edge, where those escapes may stop: no target
// lies beyond it. lo > hi when no escape of a can reach the box.
func (s *lineSearch) boxLines(a *active) (lo, hi, cut int) {
	b := s.tbox
	clo, chi, alo, ahi := b.Min.X, b.Max.X, b.Min.Y, b.Max.Y
	if a.dir == geom.Left || a.dir == geom.Right {
		clo, chi, alo, ahi = b.Min.Y, b.Max.Y, b.Min.X, b.Max.X
	}
	lo, hi = geom.Max(a.iv.Lo, clo), geom.Min(a.iv.Hi, chi)
	if a.step() > 0 && ahi > a.index {
		return lo, hi, ahi + 1
	}
	if a.step() < 0 && alo < a.index {
		return lo, hi, alo - 1
	}
	return 1, 0, 0
}

// reaches is the solution-wave probe: it reports whether any escape of
// the wave contacts a target, scanning only the box lines (boxLines)
// against the covered marks of earlier waves. It writes no mark, so it
// ignores the marks the wave itself would make — which cannot decide
// whether the wave has a contact (DESIGN.md §5i).
func (s *lineSearch) reaches(wave []*active) bool {
	cells := 0
	defer func() { s.stats.addCells(cells) }()
	for _, a := range wave {
		lo, hi, cut := s.boxLines(a)
		v := &s.views[a.dir]
		step := a.step()
		b0, cutBit := a.index-v.bitMin, cut-v.bitMin
		for i := lo; i <= hi; i++ {
			if s.cancel.tick() {
				return false // abandoned: the full sweep's tick ends the wave
			}
			l := i - v.lineMin
			e := v.stop(l, b0, cutBit, step)
			// The probe visits the cells up to and including an event; a
			// cut ends it before the cut cell.
			cells += (e - b0) * step
			if e == cutBit {
				cells--
			}
			if e != cutBit && s.ar.isTarget(v.index(l, e)) {
				return true
			}
		}
	}
	return false
}

// sweepFinal sweeps active a of the solution wave: just its box lines,
// each stopping at the box's far edge, with the normal covered marks.
func (s *lineSearch) sweepFinal(a *active) {
	if lo, hi, cut := s.boxLines(a); lo <= hi {
		s.stats.addActive()
		s.sweep(a, lo, hi, cut)
	}
}

// lineView is what the escapes of one expansion direction scan: the
// plane's event and across boards of that orientation, the arena's
// covered board of that direction, and the map from (line, bit) to
// plane index. Lines run along the escapes and are numbered along the
// segment axis; bits count along the expansion axis.
type lineView struct {
	event, across, covered []uint64
	acrossNet              []int32 // net of the across wire, by plane index
	words                  int     // words per line
	lineMin, bitMin        int     // plane coordinates of line 0 and bit 0
	lineStride, bitStride  int     // plane-index strides of one line and one bit
}

// index returns the plane index of bit b of line l.
func (v *lineView) index(l, b int) int { return l*v.lineStride + b*v.bitStride }

// view returns the line view of escapes in direction d.
func (s *lineSearch) view(d geom.Dir) lineView {
	pl, ar := s.pl, s.ar
	if d.Horizontal() {
		return lineView{pl.rowEvent, pl.rowAcross, ar.covered[d], pl.vNet,
			pl.rowWords, pl.Bounds.Min.Y, pl.Bounds.Min.X, pl.w, 1}
	}
	return lineView{pl.colEvent, pl.colAcross, ar.covered[d], pl.hNet,
		pl.colWords, pl.Bounds.Min.X, pl.Bounds.Min.Y, 1, pl.w}
}

// stop returns where the escape along line l from bit b0, moving by
// step, stops: the first event or covered bit strictly ahead of b0 and
// before cutBit, or cutBit when the escape reaches the cut first. Every
// cell strictly between b0 and the stop is passed. A target stops the
// escape too: the covered boards carry the target marks.
func (v *lineView) stop(l, b0, cutBit, step int) int {
	off := l * v.words
	ev, cov := v.event[off:off+v.words], v.covered[off:off+v.words]
	if step > 0 {
		return nextSet(ev, cov, b0+1, cutBit)
	}
	return prevSet(ev, cov, b0-1, cutBit)
}

// nextSet returns the lowest bit in [from, cut) set in a|b, or cut.
func nextSet(a, b []uint64, from, cut int) int {
	if from >= cut {
		return cut
	}
	w := from >> 6
	x := (a[w] | b[w]) &^ (1<<(from&63) - 1)
	for x == 0 {
		w++
		if w<<6 >= cut {
			return cut
		}
		x = a[w] | b[w]
	}
	return min(w<<6|bits.TrailingZeros64(x), cut)
}

// prevSet returns the highest bit in (cut, from] set in a|b, or cut.
func prevSet(a, b []uint64, from, cut int) int {
	if from <= cut {
		return cut
	}
	w := from >> 6
	x := (a[w] | b[w]) & (2<<(from&63) - 1)
	for x == 0 {
		w--
		if w < 0 || w<<6+63 <= cut {
			return cut
		}
		x = a[w] | b[w]
	}
	return max(w<<6|(63-bits.LeadingZeros64(x)), cut)
}

// setRange sets bits [lo, hi) of line.
func setRange(line []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	wl, wh := lo>>6, (hi-1)>>6
	ml, mh := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-(hi-1)&63)
	if wl == wh {
		line[wl] |= ml & mh
		return
	}
	line[wl] |= ml
	for w := wl + 1; w < wh; w++ {
		line[w] = ^uint64(0)
	}
	line[wh] |= mh
}

// best picks the winning solution of the current wave: minimum
// crossings then minimum length, or the reverse under -s. Ties resolve
// to the earliest found, which is deterministic.
func (s *lineSearch) best() solution {
	sort.SliceStable(s.sols, func(x, y int) bool {
		a, b := s.sols[x], s.sols[y]
		if s.swap {
			if a.length != b.length {
				return a.length < b.length
			}
			return a.cross < b.cross
		}
		if a.cross != b.cross {
			return a.cross < b.cross
		}
		return a.length < b.length
	})
	return s.sols[0]
}

// expand implements EXPAND_SEGMENT: every cell of the active segment
// sends an escape line in the expansion direction (sweep) until it is
// stopped by the plane border, an obstacle, a previously searched zone,
// or the target. The stop profile then yields the perpendicular border
// segments, appended to out as the next wave (NEW_ACTIVES).
func (s *lineSearch) expand(a *active, out []*active) []*active {
	advance, ok := s.sweep(a, a.iv.Lo, a.iv.Hi, s.borderCut(a))
	if !ok {
		return out // abandoned sweep; run's wave poll ends the search
	}
	return s.newActives(a, advance, s.ar.crossAdv, s.ar.crossOff, out)
}

// borderCut is the expansion-axis coordinate just past the plane border
// ahead of a.
func (s *lineSearch) borderCut(a *active) int {
	b := s.pl.Bounds
	if a.dir.Horizontal() {
		if a.step() > 0 {
			return b.Max.X + 1
		}
		return b.Min.X - 1
	}
	if a.step() > 0 {
		return b.Max.Y + 1
	}
	return b.Min.Y - 1
}

// sweep runs the escapes of a's cells lo..hi in order, each until its
// natural stop or the expansion-axis coordinate cut, marking the swept
// cells covered and recording every target contact as a solution.
// advance[k] is how far the escape of cell lo+k travelled; the arena's
// crossAdv/crossOff hold, per cell, the advances at which it crossed a
// foreign wire. ok is false when the sweep was cancelled.
//
// Each escape is one scan of its line (lineView.stop) to its stop e.
// The cells before e carry no event, covered or target bit, so each is
// simply passed — with a crossing where the across board has a foreign
// wire. A claimpoint always stops: a search never meets its own net's
// claims, which routeNet releases before its first search (DESIGN.md
// §5i).
func (s *lineSearch) sweep(a *active, lo, hi, cut int) (advance []int, ok bool) {
	step := a.step()
	n := hi - lo + 1
	ar := s.ar
	advance = ar.advanceBuf(n)
	crossAdv := ar.crossAdv[:0]
	crossOff := ar.crossOffBuf(n + 1)

	v := &s.views[a.dir]
	b0, cutBit := a.index-v.bitMin, cut-v.bitMin
	net := s.net
	swept := 0
	for k := 0; k < n; k++ {
		if s.cancel.tick() {
			ar.crossAdv = crossAdv
			s.stats.addCells(swept)
			return nil, false
		}
		crossOff[k] = len(crossAdv)
		i := lo + k
		l := i - v.lineMin
		e := v.stop(l, b0, cutBit, step)

		// The run is the bits strictly between b0 and e.
		off := l * v.words
		runLo, runHi := b0+1, e
		if step < 0 {
			runLo, runHi = e+1, b0
		}
		acr := v.across[off : off+v.words]
		c := a.cross
		if step > 0 {
			for q := nextSet(acr, acr, runLo, runHi); q < runHi; q = nextSet(acr, acr, q+1, runHi) {
				if v.acrossNet[v.index(l, q)] != net {
					c++
					crossAdv = append(crossAdv, q-b0)
				}
			}
		} else {
			for q := prevSet(acr, acr, runHi-1, runLo-1); q >= runLo; q = prevSet(acr, acr, q-1, runLo-1) {
				if v.acrossNet[v.index(l, q)] != net {
					c++
					crossAdv = append(crossAdv, b0-q)
				}
			}
		}
		setRange(v.covered[off:off+v.words], runLo, runHi)
		adv := runHi - runLo
		advance[k] = adv
		swept += adv

		if e != cutBit && ar.isTarget(v.index(l, e)) {
			nj := e + v.bitMin
			segs := pathBack(a, i, nj)
			s.sols = append(s.sols, solution{
				a: a, i: i, j: nj,
				cross:  c,
				length: totalLen(segs),
				segs:   segs,
			})
		}
	}
	crossOff[n] = len(crossAdv)
	ar.crossAdv = crossAdv
	s.stats.addCells(swept)
	return advance, true
}

// newActives builds the perpendicular borders of the expansion zone.
// Between neighbouring escape columns with different advances, the
// taller column's extra cells border unexplored territory on the
// shorter side; they form a new active segment expanding toward it,
// with one more bend (NEW_ACTIVES). Border runs are split at crossing
// cells with a single monotone walk over each column's crossing list;
// each run's crossing count is the crossings at or before its first
// cell, uniform over the run because runs never contain a crossing.
func (s *lineSearch) newActives(a *active, advance, crossAdv, crossOff []int, out []*active) []*active {
	step := a.step()
	n := len(advance)
	adv := func(k int) int {
		if k < 0 || k >= n {
			return 0
		}
		return advance[k]
	}

	// decDir/incDir: the direction along the segment axis.
	var decDir, incDir geom.Dir
	if a.dir == geom.Up || a.dir == geom.Down {
		decDir, incDir = geom.Left, geom.Right
	} else {
		decDir, incDir = geom.Down, geom.Up
	}

	flush := func(i, loAdv, hiAdv, cross int, dir geom.Dir) {
		if loAdv > hiAdv {
			return
		}
		na := s.ar.newActive()
		*na = active{
			index:  i,
			iv:     geom.Iv(a.index+step*loAdv, a.index+step*hiAdv),
			dir:    dir,
			bends:  a.bends + 1,
			cross:  cross,
			parent: a,
		}
		out = append(out, na)
	}
	emit := func(k, fromAdv, toAdv int, dir geom.Dir) {
		// Border cells of column k from advance fromAdv+1 .. toAdv.
		i := a.iv.Lo + k
		cj := crossAdv[crossOff[k]:crossOff[k+1]]
		c := a.cross
		for len(cj) > 0 && cj[0] <= fromAdv {
			c++
			cj = cj[1:]
		}
		runLo := fromAdv + 1
		for len(cj) > 0 && cj[0] <= toAdv {
			flush(i, runLo, cj[0]-1, c, dir)
			c++
			runLo = cj[0] + 1
			cj = cj[1:]
		}
		flush(i, runLo, toAdv, c, dir)
	}

	for k := 0; k <= n; k++ {
		left, right := adv(k-1), adv(k)
		if left < right {
			// Column k reaches further: its upper cells border column
			// k-1's side; they expand toward decreasing segment axis.
			emit(k, left, right, decDir)
		} else if left > right {
			emit(k-1, right, left, incDir)
		}
	}
	return out
}

// pathBack reconstructs the route from a contact at (i, j) in a's frame
// back to the source terminal (RECONSTRUCT_PATH): each hop runs along
// the escape to the originator segment, then jumps into the
// originator's frame.
func pathBack(a *active, i, j int) []Segment {
	var segs []Segment
	for {
		from := a.pt(i, j)
		to := a.pt(i, a.index)
		if from != to {
			segs = append(segs, Segment{from, to})
		}
		if a.parent == nil {
			return segs
		}
		i, j = a.index, i
		a = a.parent
	}
}

func totalLen(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += s.Len()
	}
	return n
}

// cleanSegments merges adjacent collinear segments and drops degenerate
// ones, yielding the minimal corner representation of the path.
func cleanSegments(segs []Segment) []Segment {
	var out []Segment
	for _, s := range segs {
		if s.A == s.B {
			continue
		}
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.B == s.A && last.Horizontal() == s.Horizontal() {
				last.B = s.B
				continue
			}
		}
		out = append(out, s)
	}
	return out
}
