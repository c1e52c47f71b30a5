package route

import (
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
// set of initial actives to a target predicate over plane points.
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
	ar     *searchArena // covered marks + wavefront scratch; never nil
	target func(geom.Point) bool
	marks  bool      // target set precomputed as arena marks (setTargets)
	tbox   geom.Rect // inclusive bounding box of the target marks
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

// newLineSearch prepares one search epoch. A nil arena gets a private
// one (used by callers without a router, like the dual-front fronts);
// a shared arena is acquired here, expiring the previous search's marks.
func newLineSearch(pl *Plane, net int32, target func(geom.Point) bool, swap bool, ar *searchArena) *lineSearch {
	if ar == nil {
		ar = newSearchArena(len(pl.blocked))
	}
	ar.acquire()
	return &lineSearch{pl: pl, net: net, ar: ar, target: target, swap: swap}
}

// setTargets precomputes the target set as arena marks: the given
// points plus every point of the tree segments. This replaces the
// per-cell target closure of the hot sweep with one stamped-array load.
// It is only valid when the predicate is exactly "a listed point or the
// net's own laid geometry": the tree segments are the wires the net has
// laid, so the mark set equals the cells where the plane reports the
// net's own wires — and since no other net can ever write those values,
// dropping the plane reads keeps speculative read-set validation sound.
// It also records the marks' bounding box, which confines the solution
// wave's probe and sweep (run).
func (s *lineSearch) setTargets(pts []geom.Point, tree []Segment) {
	s.tbox = geom.Rect{Min: geom.Pt(1<<30, 1<<30), Max: geom.Pt(-1<<30, -1<<30)}
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
	s.marks = true
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
// With a marked target set, a read-only probe (reaches) first decides
// whether wave b touches a target at all. If it does, b is the solution
// wave: only the escape lines that cross the target box are swept
// (sweepFinal), in the usual active and cell order, and no next-wave
// actives are built. The solution pool best() ranks is the one a sweep
// of every active would find (DESIGN.md §5i).
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
		final := s.marks && s.reaches(wave)
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
// the wave contacts a target, walking only the box lines (boxLines)
// against the covered marks of earlier waves. It writes no mark, so it
// ignores the marks the wave itself would make — which cannot decide
// whether the wave has a contact (DESIGN.md §5i). Every read is noted
// on a journaled plane: the probe's verdict is part of the search
// outcome that speculative validation must cover.
func (s *lineSearch) reaches(wave []*active) bool {
	pl, ar := s.pl, s.ar
	spec := pl.sp != nil && pl.sp.active
	cells := 0
	defer func() { s.stats.addCells(cells) }()
	for _, a := range wave {
		lo, hi, cut := s.boxLines(a)
		didx, along, _, _ := s.axis(a)
		dbit := uint32(dirBit(a.dir))
		step := a.step()
		for i := lo; i <= hi; i++ {
			if s.cancel.tick() {
				return false // abandoned: the full sweep's tick ends the wave
			}
			idx := pl.idx(a.pt(i, a.index))
			for j := a.index + step; j != cut; j += step {
				idx += didx
				cells++
				if spec {
					pl.sp.note(int32(idx))
				}
				cw := ar.covered[idx]
				if cw>>coveredStampBits != ar.gen {
					cw = 0
				}
				if cw&targetBit != 0 {
					return true
				}
				if cw&dbit != 0 || s.halts(pl.stops[idx], idx, along) {
					break
				}
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

// halts reports whether an escape stops before entering plane index idx
// with stop bits m: a blocked point (module, foreign terminal), a bend
// of a routed net, a claimpoint of another net, or a wire running along
// the escape (along is its stop bit): nets may cross, never overlap
// (§5.3).
func (s *lineSearch) halts(m uint8, idx int, along uint8) bool {
	return m&(stopBlocked|stopBend|along) != 0 || m&stopClaim != 0 && s.pl.claim[idx] != s.net
}

// axis returns, for escapes in a's direction, the plane-index stride of
// one step, the stop bits of wires along and across the escape, and the
// net ids of the across wires (the crossable kind).
func (s *lineSearch) axis(a *active) (didx int, along, acrossBit uint8, across []int32) {
	if a.dir == geom.Up || a.dir == geom.Down {
		return a.step() * s.pl.w, stopVWire, stopHWire, s.pl.hNet
	}
	return a.step(), stopHWire, stopVWire, s.pl.vNet
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
	b := s.pl.Bounds
	lo, hi := b.Min.X, b.Max.X
	if a.dir == geom.Up || a.dir == geom.Down {
		lo, hi = b.Min.Y, b.Max.Y
	}
	cut := hi + 1
	if a.step() < 0 {
		cut = lo - 1
	}
	advance, ok := s.sweep(a, a.iv.Lo, a.iv.Hi, cut)
	if !ok {
		return out // abandoned sweep; run's wave poll ends the search
	}
	return s.newActives(a, advance, s.ar.crossAdv, s.ar.crossOff, out)
}

// sweep runs the escapes of a's cells lo..hi in order, each until its
// natural stop or the expansion-axis coordinate cut, marking the swept
// cells covered and recording every target contact as a solution.
// advance[k] is how far the escape of cell lo+k travelled; the arena's
// crossAdv/crossOff hold, per cell, the advances at which it crossed a
// foreign wire. ok is false when the sweep was cancelled.
func (s *lineSearch) sweep(a *active, lo, hi, cut int) (advance []int, ok bool) {
	step := a.step()
	n := hi - lo + 1
	ar := s.ar
	pl := s.pl
	advance = ar.advanceBuf(n)
	crossAdv := ar.crossAdv[:0]
	crossOff := ar.crossOffBuf(n + 1)

	// The escape moves one cell at a time along one axis, so the plane
	// index advances by a constant and every per-cell plane query reads
	// the derived stops byte plus the stamped covered word — two loads —
	// instead of five arrays. The cross-axis coordinate is fixed, so the
	// cut (the plane border, or the target box's far edge) is one
	// equality test on the expansion-axis coordinate.
	didx, alongBit, acrossBit, across := s.axis(a)
	spec := pl.sp != nil && pl.sp.active
	dbit := uint32(dirBit(a.dir))
	stamp := ar.gen << coveredStampBits

	covered := ar.covered
	stops := pl.stops
	gen := ar.gen
	marks := s.marks
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
		c := a.cross
		j := a.index
		idx := pl.idx(a.pt(i, j))
		adv := 0
		for {
			nj := j + step
			if nj == cut {
				break
			}
			nidx := idx + didx
			if spec {
				// One read note covers every field of the cell: the
				// journal tracks whole points, so this subsumes the
				// per-accessor notes of the generic path.
				pl.sp.note(int32(nidx))
			}
			cw := covered[nidx]
			if cw>>coveredStampBits != gen {
				cw = stamp
			}
			if uint32(stops[nidx])|(cw&(dbit|targetBit)) != 0 || !marks {
				// Slow path: some condition bit is set (or targets are a
				// closure) — decide hit / stop / crossing explicitly.
				var hit bool
				if marks {
					hit = cw&targetBit != 0
				} else {
					hit = s.target(a.pt(i, nj))
				}
				if hit {
					segs := pathBack(a, i, nj)
					s.sols = append(s.sols, solution{
						a: a, i: i, j: nj,
						cross:  c,
						length: totalLen(segs),
						segs:   segs,
					})
					break
				}
				// Own-net wires were already handled by the target test
				// above.
				m := stops[nidx]
				if cw&dbit != 0 || s.halts(m, nidx, alongBit) {
					break
				}
				// Perpendicular foreign wire: cross it (cell is passed
				// but unusable as a turning point).
				if m&acrossBit != 0 && across[nidx] != net {
					c++
					covered[nidx] = cw | dbit
					adv++
					crossAdv = append(crossAdv, adv)
					j = nj
					idx = nidx
					continue
				}
			}
			covered[nidx] = cw | dbit
			adv++
			j = nj
			idx = nidx
		}
		advance[k] = adv
		swept += adv
	}
	crossOff[n] = len(crossAdv)
	ar.crossAdv = crossAdv
	s.stats.addCells(swept)
	return advance, true
}

// wireAcross returns the net of a wire perpendicular to the expansion
// direction at p (the crossable kind).
func (s *lineSearch) wireAcross(p geom.Point, d geom.Dir) int32 {
	if d == geom.Up || d == geom.Down {
		return s.pl.HNet(p) // vertical escape crosses horizontal wires
	}
	return s.pl.VNet(p)
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
