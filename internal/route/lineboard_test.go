package route

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/workload"
)

// This file checks the word-level escape scans of lineexp.go against
// the per-cell loop they replace (DESIGN.md §5i "Line bitboards"), the
// derived line boards against the plane's authoritative arrays, and the
// own-claim invariant the scans rely on.

// Stop bits of the per-cell reference loop, recomputed from the
// authoritative plane arrays.
const (
	refBlocked uint8 = 1 << iota
	refBend
	refClaim
	refHWire
	refVWire
)

func refStops(pl *Plane, i int) uint8 {
	var m uint8
	if pl.blocked[i] {
		m |= refBlocked
	}
	if pl.bend[i] {
		m |= refBend
	}
	if pl.claim[i] != 0 {
		m |= refClaim
	}
	if pl.hNet[i] != 0 {
		m |= refHWire
	}
	if pl.vNet[i] != 0 {
		m |= refVWire
	}
	return m
}

// coveredBits returns the directions (dirBit mask) in which idx is
// covered this search. A target reads as covered in every direction.
func (ar *searchArena) coveredBits(idx int) uint8 {
	rw, rm, cw, cm := ar.bitAt(idx)
	var bits uint8
	for d, b := range ar.covered {
		w, m := cw, cm
		if geom.Dir(d).Horizontal() {
			w, m = rw, rm
		}
		if b[w]&m != 0 {
			bits |= dirBit(geom.Dir(d))
		}
	}
	return bits
}

// refAxis returns, for escapes in a's direction, the plane-index stride
// of one step, the stop bits of wires along and across the escape, and
// the net ids of the across wires.
func refAxis(pl *Plane, a *active) (didx int, along, acrossBit uint8, across []int32) {
	if a.dir.Horizontal() {
		return a.step(), refHWire, refVWire, pl.vNet
	}
	return a.step() * pl.w, refVWire, refHWire, pl.hNet
}

// refHalts is the per-cell stop test: a blocked point, a bend, a wire
// along the escape, or another net's claimpoint.
func refHalts(s *lineSearch, idx int, along uint8) bool {
	m := refStops(s.pl, idx)
	return m&(refBlocked|refBend|along) != 0 || m&refClaim != 0 && s.pl.claim[idx] != s.net
}

// refSweep is the per-cell escape loop lineSearch.sweep replaced: each
// escape steps one cell at a time, testing target, covered and stop
// bits per cell. It records solutions and cells on s like sweep does
// and returns the escape profile.
func refSweep(s *lineSearch, a *active, lo, hi, cut int) (advance, crossAdv, crossOff []int) {
	pl, ar := s.pl, s.ar
	step := a.step()
	didx, along, acrossBit, across := refAxis(pl, a)
	dbit := dirBit(a.dir)
	for i := lo; i <= hi; i++ {
		crossOff = append(crossOff, len(crossAdv))
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
			if ar.isTarget(nidx) {
				segs := pathBack(a, i, nj)
				s.sols = append(s.sols, solution{i: i, j: nj, cross: c, length: totalLen(segs), segs: segs})
				break
			}
			if ar.coveredBits(nidx)&dbit != 0 || refHalts(s, nidx, along) {
				break
			}
			if refStops(pl, nidx)&acrossBit != 0 && across[nidx] != s.net {
				c++
				crossAdv = append(crossAdv, adv+1)
			}
			ar.markCovered(nidx, dbit)
			adv++
			j, idx = nj, nidx
		}
		advance = append(advance, adv)
		s.stats.addCells(adv)
	}
	crossOff = append(crossOff, len(crossAdv))
	return advance, crossAdv, crossOff
}

// refReaches is the per-cell form of the solution-wave probe.
func refReaches(s *lineSearch, wave []*active) bool {
	pl, ar := s.pl, s.ar
	for _, a := range wave {
		lo, hi, cut := s.boxLines(a)
		didx, along, _, _ := refAxis(pl, a)
		dbit := dirBit(a.dir)
		for i := lo; i <= hi; i++ {
			idx := pl.idx(a.pt(i, a.index))
			for j := a.index + a.step(); j != cut; j += a.step() {
				idx += didx
				s.stats.addCells(1)
				if ar.isTarget(idx) {
					return true
				}
				if ar.coveredBits(idx)&dbit != 0 || refHalts(s, idx, along) {
					break
				}
			}
		}
	}
	return false
}

// checkLineBoards recomputes every line board from the plane's
// authoritative arrays and reports the first point where a board
// disagrees, or nil.
func checkLineBoards(pl *Plane) error {
	g := pl.lineGeom
	rowEvent, rowAcross := g.rowBoard(), g.rowBoard()
	colEvent, colAcross := g.colBoard(), g.colBoard()
	for y := 0; y < pl.h; y++ {
		for x := 0; x < pl.w; x++ {
			m := refStops(pl, y*pl.w+x)
			stop := m&(refBlocked|refBend|refClaim) != 0
			rw, rb := y*g.rowWords+x/64, uint64(1)<<(x%64)
			cw, cb := x*g.colWords+y/64, uint64(1)<<(y%64)
			if stop || m&refHWire != 0 {
				rowEvent[rw] |= rb
			}
			if m&refVWire != 0 {
				rowAcross[rw] |= rb
			}
			if stop || m&refVWire != 0 {
				colEvent[cw] |= cb
			}
			if m&refHWire != 0 {
				colAcross[cw] |= cb
			}
		}
	}
	for _, b := range []struct {
		name      string
		got, want []uint64
	}{
		{"rowEvent", pl.rowEvent, rowEvent}, {"rowAcross", pl.rowAcross, rowAcross},
		{"colEvent", pl.colEvent, colEvent}, {"colAcross", pl.colAcross, colAcross},
	} {
		if len(b.got) != len(b.want) {
			return fmt.Errorf("%s: %d words, want %d", b.name, len(b.got), len(b.want))
		}
		for w := range b.got {
			if b.got[w] != b.want[w] {
				return fmt.Errorf("%s word %d: %#x, want %#x", b.name, w, b.got[w], b.want[w])
			}
		}
	}
	return nil
}

func assertLineBoards(t testing.TB, tag string, pl *Plane) {
	t.Helper()
	if err := checkLineBoards(pl); err != nil {
		t.Fatalf("%s: line boards diverge from the plane arrays: %v", tag, err)
	}
}

// sweepSizes are the plane widths and heights the differential fuzz
// draws from: a single cell, both sides of one and two word boundaries,
// and lines of several words.
var sweepSizes = []int{1, 63, 64, 65, 128, 129, 200, 257}

// sweepCase is one random plane with a random search state, rebuilt
// identically for the word-level run and the per-cell reference.
type sweepCase struct {
	bounds  geom.Rect
	writes  func(pl *Plane)
	covered []coveredMark
	targets []geom.Point
	tree    []Segment
}

// coveredMark is a point already swept in the directions of bits.
type coveredMark struct {
	p    geom.Point
	bits uint8
}

func newSweepCase(rng *rand.Rand, w, h int) *sweepCase {
	org := geom.Pt(rng.Intn(7)-3, rng.Intn(7)-3)
	c := &sweepCase{bounds: geom.Rect{Min: org, Max: org.Add(geom.Pt(w-1, h-1))}}
	pt := func() geom.Point { return org.Add(geom.Pt(rng.Intn(w), rng.Intn(h))) }
	// Densities vary per plane, from empty lines to crowded ones.
	n := w * h
	count := func() int { return rng.Intn(n/4 + 2) }
	type write struct {
		kind int
		p    geom.Point
		net  int32
	}
	var ws []write
	for k, nk := 0, count(); k < nk; k++ {
		// Wires of the searching net (1) and of foreign nets on both
		// axes, blocked points, bends and foreign claimpoints.
		ws = append(ws, write{kind: rng.Intn(5), p: pt(), net: int32(1 + rng.Intn(3))})
	}
	c.writes = func(pl *Plane) {
		for _, wr := range ws {
			i := pl.idx(wr.p)
			switch wr.kind {
			case 0:
				pl.setH(i, wr.net)
			case 1:
				pl.setV(i, wr.net)
			case 2:
				pl.BlockPoint(wr.p)
			case 3:
				pl.setBend(i)
			case 4:
				pl.setClaim(i, 2+wr.net%2)
			}
		}
	}
	for k, nk := 0, count()/2; k < nk; k++ {
		c.covered = append(c.covered, coveredMark{pt(), uint8(1 + rng.Intn(allDirBits))})
	}
	for k, nk := 0, 1+rng.Intn(4); k < nk; k++ {
		c.targets = append(c.targets, pt())
	}
	if rng.Intn(2) == 0 {
		a := pt()
		b := geom.Pt(a.X, org.Y+rng.Intn(h))
		if rng.Intn(2) == 0 {
			b = geom.Pt(org.X+rng.Intn(w), a.Y)
		}
		c.tree = append(c.tree, Segment{a, b})
	}
	return c
}

// build returns a fresh plane and search in the case's state.
func (c *sweepCase) build() *lineSearch {
	pl := NewPlane(c.bounds)
	c.writes(pl)
	s := newLineSearch(pl, 1, false, nil)
	s.stats = &SearchStats{}
	for _, cv := range c.covered {
		s.ar.markCovered(pl.idx(cv.p), cv.bits)
	}
	s.setTargets(c.targets, c.tree)
	return s
}

// randomActive returns an active expanding in d from a random segment
// of the plane.
func randomActive(rng *rand.Rand, b geom.Rect, d geom.Dir) *active {
	segLo, segHi, expLo, expHi := b.Min.X, b.Max.X, b.Min.Y, b.Max.Y
	if d.Horizontal() {
		segLo, segHi, expLo, expHi = b.Min.Y, b.Max.Y, b.Min.X, b.Max.X
	}
	lo := segLo + rng.Intn(segHi-segLo+1)
	hi := lo + rng.Intn(segHi-lo+1)
	return &active{
		index: expLo + rng.Intn(expHi-expLo+1),
		iv:    geom.Iv(lo, hi),
		dir:   d,
		bends: rng.Intn(3),
		cross: rng.Intn(3),
	}
}

// solKey is the comparable part of a solution.
func solKey(sol solution) string {
	return fmt.Sprintf("i=%d j=%d cross=%d len=%d segs=%v", sol.i, sol.j, sol.cross, sol.length, sol.segs)
}

// diffSweep runs one active through the word-level sweep and the
// per-cell reference, with the cut at the plane border or at the target
// box's far edge, and requires identical outcomes. With an rng the
// word-level side runs as run's two phases do: it sweeps to a random
// cut strictly before that one, then resumes every escape that reached
// it. The resumed escapes contact later, so the solutions are then
// compared as a set.
func diffSweep(t *testing.T, c *sweepCase, a *active, boxCut bool, rng *rand.Rand) {
	t.Helper()
	got, ref := c.build(), c.build()
	lo, hi, cut := a.iv.Lo, a.iv.Hi, got.borderCut(a)
	tag := fmt.Sprintf("%v dir=%v index=%d iv=%v border", c.bounds, a.dir, a.index, a.iv)
	if boxCut {
		if lo, hi, cut = got.boxLines(a); lo > hi {
			return
		}
		tag = fmt.Sprintf("%v dir=%v index=%d lines=%d..%d cut=%d", c.bounds, a.dir, a.index, lo, hi, cut)
	}
	n := hi - lo + 1
	var near *nearProfile
	if rng != nil {
		span := (cut-a.index)*a.step() - 1 // cells before the cut
		if span < 1 {
			return
		}
		split := a.index + a.step()*(1+rng.Intn(span))
		tag += fmt.Sprintf(" split=%d", split)
		first, ok := got.sweep(a, lo, hi, split, nil)
		if !ok {
			t.Fatalf("%s: sweep cancelled", tag)
		}
		got.ar.resetNear()
		got.ar.keepNear(first)
		np := got.ar.near(0, n, split)
		near = &np
	}
	adv, ok := got.sweep(a, lo, hi, cut, near)
	if !ok {
		t.Fatalf("%s: sweep cancelled", tag)
	}
	gotCrossOff := got.ar.crossOff[:n+1]
	gotCrossAdv := got.ar.crossAdv[:gotCrossOff[n]]
	wantAdv, wantCrossAdv, wantCrossOff := refSweep(ref, a, lo, hi, cut)
	if !slices.Equal(adv, wantAdv) {
		t.Fatalf("%s: advance %v, want %v", tag, adv, wantAdv)
	}
	if !slices.Equal(gotCrossOff, wantCrossOff) || !slices.Equal(gotCrossAdv, wantCrossAdv) {
		t.Fatalf("%s: crossings %v/%v, want %v/%v", tag, gotCrossAdv, gotCrossOff, wantCrossAdv, wantCrossOff)
	}
	for d := range got.ar.covered {
		if !slices.Equal(got.ar.covered[d], ref.ar.covered[d]) {
			t.Fatalf("%s: covered marks of direction %v diverge", tag, geom.Dir(d))
		}
	}
	gotSols, wantSols := solKeys(got.sols), solKeys(ref.sols)
	if rng != nil {
		slices.Sort(gotSols)
		slices.Sort(wantSols)
	}
	if !slices.Equal(gotSols, wantSols) {
		t.Fatalf("%s: solutions %v, want %v", tag, gotSols, wantSols)
	}
	if got.stats.Cells != ref.stats.Cells {
		t.Fatalf("%s: %d cells, want %d", tag, got.stats.Cells, ref.stats.Cells)
	}
}

// solKeys returns the comparable parts of sols, in order.
func solKeys(sols []solution) []string {
	keys := make([]string, len(sols))
	for k, sol := range sols {
		keys[k] = solKey(sol)
	}
	return keys
}

// diffProbe runs a wave through the word-level probe and the per-cell
// reference and requires the same verdict and cells.
func diffProbe(t *testing.T, c *sweepCase, wave []*active) {
	t.Helper()
	got, ref := c.build(), c.build()
	tag := fmt.Sprintf("%v probe of %d actives", c.bounds, len(wave))
	verdict := got.reaches(wave)
	want := refReaches(ref, wave)
	if verdict != want {
		t.Fatalf("%s: reaches %v, want %v", tag, verdict, want)
	}
	if got.stats.Cells != ref.stats.Cells {
		t.Fatalf("%s: %d cells, want %d", tag, got.stats.Cells, ref.stats.Cells)
	}
}

// FuzzLineSweep is the differential test of the word-level escape
// scans: on random planes of every size class, the sweep (both cut
// kinds, all four directions), a sweep split at a cut and resumed, and
// the solution-wave probe must match the per-cell loop in advance
// profile, crossings, covered marks, solutions and cells.
func FuzzLineSweep(f *testing.F) {
	for k := range sweepSizes {
		f.Add(uint8(k), uint8(len(sweepSizes)-1-k), int64(k))
		f.Add(uint8(k), uint8(k), int64(100+k))
	}
	f.Fuzz(func(t *testing.T, ws, hs uint8, seed int64) {
		w := sweepSizes[int(ws)%len(sweepSizes)]
		h := sweepSizes[int(hs)%len(sweepSizes)]
		rng := rand.New(rand.NewSource(seed))
		c := newSweepCase(rng, w, h)
		assertLineBoards(t, "random plane", c.build().pl)
		for trial := 0; trial < 4; trial++ {
			var wave []*active
			for _, d := range geom.Dirs {
				a := randomActive(rng, c.bounds, d)
				diffSweep(t, c, a, false, nil)
				diffSweep(t, c, a, true, nil)
				diffSweep(t, c, a, false, rng)
				diffSweep(t, c, a, true, rng)
				wave = append(wave, a)
			}
			rng.Shuffle(len(wave), func(i, j int) { wave[i], wave[j] = wave[j], wave[i] })
			diffProbe(t, c, wave[:1+rng.Intn(len(wave))])
		}
	})
}

// TestSearchNeverMeetsOwnClaim pins the invariant that lets the escape
// scan treat every claimpoint as a stop: when a search runs, its own
// net holds no live claim (routeNet released them before its first
// search), and once the main pass is over — in the retry pass — no
// claim is live at all.
func TestSearchNeverMeetsOwnClaim(t *testing.T) {
	designs := slices.Clone(builtinCases)
	for seed := int64(0); seed < 20; seed++ {
		n := 12 + int(seed%5)*10
		designs = append(designs, builtinCase{fmt.Sprintf("random%d-%d", n, seed),
			func() *netlist.Design { return workload.Random(n, seed) }, place.Options{PartSize: 4, BoxSize: 2}, false})
	}
	var (
		tag            string
		mainDone       bool
		searches, late int
	)
	runSearch = func(s *lineSearch, starts []*active) ([]Segment, bool) {
		searches++
		for i, id := range s.pl.claim {
			if id == s.net {
				t.Fatalf("%s: net %d searches with its own claim live at plane index %d", tag, id, i)
			}
			if id != 0 && mainDone {
				t.Fatalf("%s: claim of net %d live in the retry pass", tag, id)
			}
		}
		if mainDone {
			late++
		}
		return s.run(starts)
	}
	defer func() { runSearch = (*lineSearch).run }()
	for _, d := range designs {
		if d.slow && testing.Short() {
			continue
		}
		for _, ord := range batteryOrders {
			tag, mainDone = d.name+"/"+ord.name, false
			ro := Options{Claimpoints: true, OrderShortestFirst: ord.shortest,
				OnCommit: func(idx, total int, _ *RoutedNet) { mainDone = idx == total-1 }}
			routeFresh(t, d.build, d.po, ro)
		}
	}
	if searches == 0 || late == 0 {
		t.Fatalf("vacuous: %d searches, %d in the retry pass", searches, late)
	}
}
