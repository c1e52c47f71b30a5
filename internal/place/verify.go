package place

import (
	"fmt"

	"netart/internal/boxes"
	"netart/internal/geom"
	"netart/internal/netlist"
)

// This file extends the §4.4 placement postcondition (Result.Verify)
// with the box-level properties of §4.6.4 and Appendix E. Where Verify
// checks the global contract — everything placed, nothing overlapping —
// VerifyBoxes re-derives the per-string invariants the module placer is
// supposed to establish and checks them against the finished Result:
//
//   - white space: each side of a module gets f = #distinct-nets-on-
//     that-side + 1 + slack empty tracks (Appendix E), and the box
//     rectangle is exactly the modules plus their white space — the
//     left/right gaps are equalities, not just minima;
//   - orientation: every non-head module is rotated so the terminal
//     connecting it to its predecessor faces left, and the head's
//     string terminal faces right, giving the left-to-right signal
//     flow of §4.6.4;
//   - the minimum-bend lemma: the net connecting two consecutive
//     string modules can be realized with at most two bends without
//     crossing any module outline in the box.
//
// The property battery (properties_test.go) runs this on random
// designs, so the placer is held to the paper's invariants, not merely
// to equality with its reference.

// VerifyBoxes checks the §4.6.4 module-placement invariants of every
// placed box against the options the placement ran with. It returns
// nil for results without structural info (baseline placers).
func (r *Result) VerifyBoxes(opts Options) error {
	slack := opts.ModSpacing
	for pi, pp := range r.Parts {
		for bi, pb := range pp.Boxes {
			if err := r.verifyBox(pi, bi, pb, slack); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *Result) verifyBox(pi, bi int, pb *PlacedBox, slack int) error {
	b := pb.Box
	if b.Len() == 0 {
		return fmt.Errorf("place: partition %d box %d is empty", pi, bi)
	}
	pms := make([]*PlacedModule, b.Len())
	for i, m := range b.Modules {
		pm, ok := r.Mods[m]
		if !ok {
			return fmt.Errorf("place: partition %d box %d: module %q not placed", pi, bi, m.Name)
		}
		if !pb.Rect.Contains(pm.Pos) {
			return fmt.Errorf("place: module %q at %v outside its box %v", m.Name, pm.Pos, pb.Rect)
		}
		pms[i] = pm
	}

	ctx := func(m *netlist.Module) string {
		return fmt.Sprintf("place: partition %d box %d module %q", pi, bi, m.Name)
	}

	// Horizontal white space: exact equalities against spacing().
	head := pms[0]
	if got, want := head.Pos.X-pb.Rect.Min.X, spacing(head.Mod, head.Orient, geom.Left, slack); got != want {
		return fmt.Errorf("%s: left white space %d, Appendix E wants %d", ctx(head.Mod), got, want)
	}
	last := pms[len(pms)-1]
	lw, _ := last.Size()
	if got, want := pb.Rect.Max.X-(last.Pos.X+lw), spacing(last.Mod, last.Orient, geom.Right, slack); got != want {
		return fmt.Errorf("%s: right white space %d, Appendix E wants %d", ctx(last.Mod), got, want)
	}
	for i := 1; i < len(pms); i++ {
		prev, cur := pms[i-1], pms[i]
		pw, _ := prev.Size()
		gap := cur.Pos.X - (prev.Pos.X + pw)
		want := spacing(prev.Mod, prev.Orient, geom.Right, slack) +
			spacing(cur.Mod, cur.Orient, geom.Left, slack)
		if gap != want {
			return fmt.Errorf("%s: gap to %q is %d tracks, white space rule wants %d",
				ctx(prev.Mod), cur.Mod.Name, gap, want)
		}
	}

	// Vertical white space: every module keeps its top/bottom tracks
	// free inside the box, and the box is exactly as tall as the
	// extreme module-plus-white-space — no slab of unexplained space.
	minDown, maxUp := 0, 0
	for i, pm := range pms {
		_, h := pm.Size()
		down := pm.Pos.Y - spacing(pm.Mod, pm.Orient, geom.Down, slack)
		up := pm.Pos.Y + h + spacing(pm.Mod, pm.Orient, geom.Up, slack)
		if down < pb.Rect.Min.Y {
			return fmt.Errorf("%s: bottom white space crosses the box floor (%d < %d)",
				ctx(pm.Mod), down, pb.Rect.Min.Y)
		}
		if up > pb.Rect.Max.Y {
			return fmt.Errorf("%s: top white space crosses the box ceiling (%d > %d)",
				ctx(pm.Mod), up, pb.Rect.Max.Y)
		}
		if i == 0 {
			minDown, maxUp = down, up
		} else {
			minDown, maxUp = geom.Min(minDown, down), geom.Max(maxUp, up)
		}
	}
	if minDown != pb.Rect.Min.Y {
		return fmt.Errorf("place: partition %d box %d: floor at %d but tightest module white space ends at %d",
			pi, bi, pb.Rect.Min.Y, minDown)
	}
	if maxUp != pb.Rect.Max.Y {
		return fmt.Errorf("place: partition %d box %d: ceiling at %d but tallest module white space ends at %d",
			pi, bi, pb.Rect.Max.Y, maxUp)
	}

	// Orientation and the minimum-bend lemma along the string.
	if len(pms) > 1 {
		tHead, _, ok := boxes.StringNet(b.Modules[0], b.Modules[1])
		if !ok {
			return fmt.Errorf("place: partition %d box %d: string broken between %q and %q",
				pi, bi, b.Modules[0].Name, b.Modules[1].Name)
		}
		if side := head.TermSide(tHead); side != geom.Right {
			return fmt.Errorf("%s: string terminal %q faces %v, want right", ctx(head.Mod), tHead.Name, side)
		}
	}
	for i := 1; i < len(pms); i++ {
		prev, cur := pms[i-1], pms[i]
		tPrev, tCur, ok := boxes.StringNet(prev.Mod, cur.Mod)
		if !ok {
			return fmt.Errorf("place: partition %d box %d: string broken between %q and %q",
				pi, bi, prev.Mod.Name, cur.Mod.Name)
		}
		if side := cur.TermSide(tCur); side != geom.Left {
			return fmt.Errorf("%s: input terminal %q faces %v, want left", ctx(cur.Mod), tCur.Name, side)
		}
		bends := minBends(prev, tPrev, cur, tCur, pms, pb.Rect)
		if bends > 2 {
			return fmt.Errorf("%s: net %q to %q needs %d bends, §4.6.4 guarantees at most 2",
				ctx(prev.Mod), tPrev.Net.Name, cur.Mod.Name, bends)
		}
	}
	return nil
}

// bendState is one (position, heading) node of the min-bend search.
type bendState struct {
	pos geom.Point
	dir geom.Dir
}

// minBends runs an obstacle-aware minimum-bend search (0-1 BFS over
// position×heading states) for the wire connecting tPrev on prev to
// tCur on cur: it leaves tPrev in the direction of the terminal's side,
// must arrive at tCur heading right (into the left-facing terminal),
// may not touch any module outline in the box except at the two
// terminals, and must stay within the box (inflated by one track of
// grace). It returns the minimum number of bends, or a large count
// when no path exists.
func minBends(prev *PlacedModule, tPrev *netlist.Terminal,
	cur *PlacedModule, tCur *netlist.Terminal,
	mods []*PlacedModule, box geom.Rect) int {
	const unreachable = 1 << 20
	start := bendState{prev.TermPos(tPrev), prev.TermSide(tPrev)}
	goal := bendState{cur.TermPos(tCur), geom.Right}
	bound := box.Inset(-1)

	// Module outlines block the wire: rects are inclusive of their Max
	// edge here, because terminals live on the outline itself.
	blocked := func(p geom.Point) bool {
		if p == start.pos || p == goal.pos {
			return false
		}
		for _, pm := range mods {
			r := pm.Rect()
			if p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y {
				return true
			}
		}
		return false
	}
	inBound := func(p geom.Point) bool {
		return p.X >= bound.Min.X && p.X <= bound.Max.X &&
			p.Y >= bound.Min.Y && p.Y <= bound.Max.Y
	}

	// 0-1 BFS: moving straight costs 0 bends, turning costs 1.
	cost := map[bendState]int{start: 0}
	deque := []bendState{start}
	for len(deque) > 0 {
		s := deque[0]
		deque = deque[1:]
		c := cost[s]
		if s == goal {
			return c
		}
		// Straight step (cost 0) goes to the front of the deque.
		if np := s.pos.Add(s.dir.Delta()); inBound(np) && !blocked(np) {
			ns := bendState{np, s.dir}
			if old, seen := cost[ns]; !seen || c < old {
				cost[ns] = c
				deque = append([]bendState{ns}, deque...)
			}
		}
		// Turns (cost 1) go to the back.
		for _, nd := range geom.Dirs {
			if nd == s.dir || nd == s.dir.Opposite() {
				continue
			}
			ns := bendState{s.pos, nd}
			if old, seen := cost[ns]; !seen || c+1 < old {
				cost[ns] = c + 1
				deque = append(deque, ns)
			}
		}
	}
	return unreachable
}
