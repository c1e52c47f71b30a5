// Package route implements the routing phase of the schematic diagram
// generator (Koster & Stok §5): a line-expansion router that finds, for
// every net, a path with a minimum number of bends, and among those the
// one with minimum wire crossings and then minimum wire length. The
// claimpoint and prerouted-net extensions of §5.7 are included, as are
// the surveyed baseline routers (Lee maze runner, Hightower line
// router, left-edge channel router) used in the comparison benches.
package route

import (
	"fmt"

	"netart/internal/geom"
)

// Segment is one axis-aligned piece of a routed wire, endpoints
// inclusive.
type Segment struct {
	A, B geom.Point
}

// Horizontal reports whether the segment runs along x.
func (s Segment) Horizontal() bool { return s.A.Y == s.B.Y }

// Len returns the track length of the segment.
func (s Segment) Len() int { return s.A.Manhattan(s.B) }

// Canon returns the segment with endpoints ordered by (x, y), so equal
// segments compare equal.
func (s Segment) Canon() Segment {
	if s.B.X < s.A.X || (s.B.X == s.A.X && s.B.Y < s.A.Y) {
		return Segment{s.B, s.A}
	}
	return s
}

// Points enumerates the grid points of the segment, inclusive.
func (s Segment) Points() []geom.Point {
	d := geom.Pt(sign(s.B.X-s.A.X), sign(s.B.Y-s.A.Y))
	var out []geom.Point
	p := s.A
	for {
		out = append(out, p)
		if p == s.B {
			return out
		}
		p = p.Add(d)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// Plane is the routing plane: a dense point grid carrying the obstacle
// configuration of §5.6.2. Six per-point arrays are authoritative:
//
//   - blocked points (module outlines and interiors, plane border,
//     foreign system terminals, claimpoints),
//   - per-direction wire occupancy (a point carrying a horizontal wire
//     of net k blocks horizontal wires of other nets but may be crossed
//     vertically),
//   - bends of routed nets, which block every expansion (the paper:
//     "the expansion is blocked only by modules, bends in nets and the
//     border of the plane"),
//   - terminal owners and claimpoint holders.
//
// The expansion engine reads none of them per cell. It scans line
// bitboards derived from them (DESIGN.md §5i): per escape orientation,
// an event board of the points that stop an escape and an across board
// of the wires it crosses. Like the paper's horizontal-segments /
// vertical-segments sets, they hold the obstacles line by line, so one
// word-level scan finds where an escape stops.
type Plane struct {
	// Bounds is the inclusive point region [Min.X..Max.X] x
	// [Min.Y..Max.Y]. Note this differs from geom.Rect cell semantics:
	// Max is a valid point.
	Bounds geom.Rect

	lineGeom
	blocked []bool
	termNet []int32 // net id (1-based) whose terminal sits here; 0 none
	hNet    []int32 // net id of wire running horizontally through here
	vNet    []int32
	bend    []bool
	claim   []int32 // net id holding a claimpoint here

	// claimOf indexes claim placements: every plane index ever claimed
	// by a net, appended on setClaim and never removed (entries whose
	// claim has since cleared are skipped on release). Claims are placed
	// once before routing and only removed afterwards, so the index stays
	// tiny and lets ReleaseClaims run in O(net's claims) instead of a
	// full-plane scan per net.
	claimOf map[int32][]int32

	// The line bitboards, derived state kept current by refresh on every
	// write of the arrays above. rowEvent/rowAcross serve Left/Right
	// escapes, colEvent/colAcross Up/Down escapes. An event bit marks a
	// point that stops the escape: blocked, a bend, a claimpoint, or a
	// wire running along the escape (nets may cross, never overlap,
	// §5.3). An across bit marks a wire perpendicular to the escape,
	// which it passes with a crossing unless the wire is its own net's.
	rowEvent, rowAcross []uint64
	colEvent, colAcross []uint64
}

// lineGeom is the layout of the line bitboards: one bit per plane
// point. A row board holds the points of row y-Min.Y at bits x-Min.X
// (the lines of Left/Right escapes); a column board holds the points of
// column x-Min.X at bits y-Min.Y (the lines of Up/Down escapes). Each
// line is padded to whole 64-bit words, and the padding bits stay zero.
type lineGeom struct {
	w, h               int
	rowWords, colWords int // words per row line, per column line
}

func newLineGeom(w, h int) lineGeom {
	return lineGeom{w: w, h: h, rowWords: (w + 63) / 64, colWords: (h + 63) / 64}
}

func (g lineGeom) rowBoard() []uint64 { return make([]uint64, g.h*g.rowWords) }
func (g lineGeom) colBoard() []uint64 { return make([]uint64, g.w*g.colWords) }

// bitAt locates plane index i on both layouts: its word and mask in a
// row board, then in a column board.
func (g lineGeom) bitAt(i int) (rw int, rm uint64, cw int, cm uint64) {
	y, x := i/g.w, i%g.w
	return y*g.rowWords + x>>6, 1 << (x & 63), x*g.colWords + y>>6, 1 << (y & 63)
}

// setBit sets or clears the bits m of board word w.
func setBit(board []uint64, w int, m uint64, on bool) {
	if on {
		board[w] |= m
	} else {
		board[w] &^= m
	}
}

// refresh recomputes the line-board bits of point i from the
// authoritative arrays. Every write of blocked, hNet, vNet, bend or
// claim ends here, so the boards never go stale.
func (pl *Plane) refresh(i int) {
	stop := pl.blocked[i] || pl.bend[i] || pl.claim[i] != 0
	h, v := pl.hNet[i] != 0, pl.vNet[i] != 0
	rw, rm, cw, cm := pl.bitAt(i)
	setBit(pl.rowEvent, rw, rm, stop || h)
	setBit(pl.rowAcross, rw, rm, v)
	setBit(pl.colEvent, cw, cm, stop || v)
	setBit(pl.colAcross, cw, cm, h)
}

// NewPlane returns an empty plane over the inclusive point region.
func NewPlane(bounds geom.Rect) *Plane {
	w := bounds.Max.X - bounds.Min.X + 1
	h := bounds.Max.Y - bounds.Min.Y + 1
	if w < 1 || h < 1 {
		w, h = 1, 1
	}
	n := w * h
	g := newLineGeom(w, h)
	return &Plane{
		Bounds:    bounds,
		lineGeom:  g,
		blocked:   make([]bool, n),
		termNet:   make([]int32, n),
		hNet:      make([]int32, n),
		vNet:      make([]int32, n),
		bend:      make([]bool, n),
		claim:     make([]int32, n),
		claimOf:   make(map[int32][]int32),
		rowEvent:  g.rowBoard(),
		rowAcross: g.rowBoard(),
		colEvent:  g.colBoard(),
		colAcross: g.colBoard(),
	}
}

// InBounds reports whether p is a point of the plane.
func (pl *Plane) InBounds(p geom.Point) bool {
	return p.X >= pl.Bounds.Min.X && p.X <= pl.Bounds.Max.X &&
		p.Y >= pl.Bounds.Min.Y && p.Y <= pl.Bounds.Max.Y
}

func (pl *Plane) idx(p geom.Point) int {
	return (p.Y-pl.Bounds.Min.Y)*pl.w + (p.X - pl.Bounds.Min.X)
}

// BlockRect blocks every point on the outline and interior of the
// inclusive point rectangle (a module symbol of size w x h at pos
// occupies points pos..pos+(w,h)).
func (pl *Plane) BlockRect(min, max geom.Point) {
	for y := geom.Max(min.Y, pl.Bounds.Min.Y); y <= geom.Min(max.Y, pl.Bounds.Max.Y); y++ {
		for x := geom.Max(min.X, pl.Bounds.Min.X); x <= geom.Min(max.X, pl.Bounds.Max.X); x++ {
			i := pl.idx(geom.Pt(x, y))
			pl.blocked[i] = true
			pl.refresh(i)
		}
	}
}

// BlockPoint blocks a single point.
func (pl *Plane) BlockPoint(p geom.Point) {
	if pl.InBounds(p) {
		i := pl.idx(p)
		pl.blocked[i] = true
		pl.refresh(i)
	}
}

// SetTerminal marks p as a terminal of the given net (1-based id). The
// point stays blocked for every other net but is a legal wire endpoint
// for its own.
func (pl *Plane) SetTerminal(p geom.Point, net int32) error {
	if !pl.InBounds(p) {
		return fmt.Errorf("route: terminal %v outside plane %v", p, pl.Bounds)
	}
	i := pl.idx(p)
	if pl.termNet[i] != 0 && pl.termNet[i] != net {
		return fmt.Errorf("route: terminal conflict at %v: nets %d and %d", p, pl.termNet[i], net)
	}
	pl.termNet[i] = net
	return nil
}

// Terminal returns the terminal net id at p (0 if none).
func (pl *Plane) Terminal(p geom.Point) int32 {
	if !pl.InBounds(p) {
		return 0
	}
	return pl.termNet[pl.idx(p)]
}

// Blocked reports whether p is a hard obstacle point (module, border
// handled by InBounds, or explicit block).
func (pl *Plane) Blocked(p geom.Point) bool {
	return !pl.InBounds(p) || pl.blocked[pl.idx(p)]
}

// HNet and VNet return the wire occupancy at p per axis.
func (pl *Plane) HNet(p geom.Point) int32 {
	if !pl.InBounds(p) {
		return 0
	}
	return pl.hNet[pl.idx(p)]
}

// VNet returns the net whose wire runs vertically through p.
func (pl *Plane) VNet(p geom.Point) int32 {
	if !pl.InBounds(p) {
		return 0
	}
	return pl.vNet[pl.idx(p)]
}

// Bend reports whether a routed net has a corner or junction at p.
func (pl *Plane) Bend(p geom.Point) bool {
	if !pl.InBounds(p) {
		return false
	}
	return pl.bend[pl.idx(p)]
}

// Claimpoint returns the net holding a claim at p (0 if none).
func (pl *Plane) Claimpoint(p geom.Point) int32 {
	if !pl.InBounds(p) {
		return 0
	}
	return pl.claim[pl.idx(p)]
}

// Claim reserves p for the given net (§5.7). It is a no-op if the point
// is blocked or already carries a wire or another claim: claimpoints
// are best effort.
func (pl *Plane) Claim(p geom.Point, net int32) {
	if !pl.InBounds(p) {
		return
	}
	i := pl.idx(p)
	if pl.blocked[i] || pl.hNet[i] != 0 || pl.vNet[i] != 0 || pl.claim[i] != 0 || pl.termNet[i] != 0 {
		return
	}
	pl.setClaim(i, net)
}

// ReleaseClaims removes every claimpoint of the given net ("when the
// routing of A and B starts, both their claimpoints are removed").
func (pl *Plane) ReleaseClaims(net int32) {
	for _, i := range pl.claimOf[net] {
		if pl.claim[i] == net {
			pl.setClaim(int(i), 0)
		}
	}
}

// ReleaseAllClaims removes every claimpoint, done before the final
// retry pass over unrouted nets.
func (pl *Plane) ReleaseAllClaims() {
	for _, idxs := range pl.claimOf {
		for _, i := range idxs {
			if pl.claim[i] != 0 {
				pl.setClaim(int(i), 0)
			}
		}
	}
}

// LayWire adds a routed wire to the obstacle configuration. Interior
// points of each segment get directional occupancy; segment joints
// (corners and junctions) are marked as bends, which block crossing.
// Endpoints on terminals stay crossable only by nothing — they get both
// directional marks.
func (pl *Plane) LayWire(net int32, segs []Segment) error {
	// Drop degenerate zero-length segments up front so they neither
	// mark occupancy nor fake junction endpoints.
	kept := segs[:0:0]
	for _, s := range segs {
		if s.A != s.B {
			kept = append(kept, s)
		}
	}
	segs = kept

	// First pass: validate.
	for _, s := range segs {
		if s.A.X != s.B.X && s.A.Y != s.B.Y {
			return fmt.Errorf("route: wire segment %v-%v not axis aligned", s.A, s.B)
		}
		for _, p := range s.Points() {
			if !pl.InBounds(p) {
				return fmt.Errorf("route: wire point %v outside plane", p)
			}
			i := pl.idx(p)
			if pl.blocked[i] && pl.termNet[i] != net {
				return fmt.Errorf("route: wire of net %d crosses obstacle at %v", net, p)
			}
			if pl.termNet[i] != 0 && pl.termNet[i] != net {
				return fmt.Errorf("route: wire of net %d touches foreign terminal at %v", net, p)
			}
			if s.Horizontal() {
				if h := pl.hNet[i]; h != 0 && h != net {
					return fmt.Errorf("route: horizontal overlap of nets %d and %d at %v", net, h, p)
				}
			} else {
				if v := pl.vNet[i]; v != 0 && v != net {
					return fmt.Errorf("route: vertical overlap of nets %d and %d at %v", net, v, p)
				}
			}
			if pl.bend[i] {
				// A segment may terminate on a bend of its own net (a
				// junction at an existing corner); it may never pass
				// through any bend, nor touch a foreign one.
				ownBend := pl.hNet[i] == net || pl.vNet[i] == net || pl.termNet[i] == net
				isEnd := p == s.A || p == s.B
				if !ownBend || !isEnd {
					return fmt.Errorf("route: wire of net %d crosses a bend at %v", net, p)
				}
			}
		}
	}

	// Second pass: occupancy.
	for _, s := range segs {
		for _, p := range s.Points() {
			i := pl.idx(p)
			if s.Horizontal() && s.Len() > 0 {
				pl.setH(i, net)
			}
			if !s.Horizontal() && s.Len() > 0 {
				pl.setV(i, net)
			}
		}
	}
	// Corner / junction marking: a point owned by this net in both
	// directions, or a segment endpoint that is not a terminal, becomes
	// a bend obstacle.
	ends := map[geom.Point]int{}
	for _, s := range segs {
		ends[s.A]++
		ends[s.B]++
	}
	for p, n := range ends {
		i := pl.idx(p)
		both := pl.hNet[i] == net && pl.vNet[i] == net
		// Corners (wire in both axes), junctions (several segment ends)
		// and endpoints landing on previously laid wire of the same net
		// block crossing; a plain terminal endpoint reached by a single
		// straight segment needs no mark (its point is blocked anyway).
		if both || n > 1 || pl.termNet[i] != net {
			pl.setBend(i)
		}
	}
	return nil
}

// Mutable-field setters. Every routing-time write goes through one of
// these, so the line boards are refreshed with the array they derive
// from.

func (pl *Plane) setH(i int, v int32) {
	pl.hNet[i] = v
	pl.refresh(i)
}

func (pl *Plane) setV(i int, v int32) {
	pl.vNet[i] = v
	pl.refresh(i)
}

func (pl *Plane) setBend(i int) {
	pl.bend[i] = true
	pl.refresh(i)
}

func (pl *Plane) setClaim(i int, v int32) {
	if v != 0 {
		pl.claimOf[v] = append(pl.claimOf[v], int32(i))
	}
	pl.claim[i] = v
	pl.refresh(i)
}

// Equal reports whether two planes carry byte-identical cell state
// (bounds and all six per-point arrays; the line boards are derived
// from them). Used by the determinism battery and the overlay fuzz
// target.
func (pl *Plane) Equal(o *Plane) bool {
	if pl.Bounds != o.Bounds || pl.w != o.w || pl.h != o.h {
		return false
	}
	for i := range pl.blocked {
		if pl.blocked[i] != o.blocked[i] || pl.termNet[i] != o.termNet[i] ||
			pl.hNet[i] != o.hNet[i] || pl.vNet[i] != o.vNet[i] ||
			pl.bend[i] != o.bend[i] || pl.claim[i] != o.claim[i] {
			return false
		}
	}
	return true
}
