package route

import "netart/internal/geom"

// This file holds the routing hot path's scratch arena and the small
// inclusive-box helpers the engines share (DESIGN.md §5i).
//
// searchArena is the per-router scratch the line-expansion engine draws
// its wavefront state from: the search's target and covered marks as
// line bitboards, cleared word by word when a search starts; actives
// bump-allocated from slabs; the reused per-sweep advance/crossing
// buffers and wavefront slices. Together these drop the router's
// per-net allocation cost to near zero (the seed allocated an O(plane)
// covered array per search).
//
// Boxes use inclusive point semantics throughout — both Min and Max are
// valid points, exactly like Plane.Bounds (and unlike geom.Rect's
// half-open cell reading).

// ptBox returns the degenerate inclusive rect holding exactly p.
func ptBox(p geom.Point) geom.Rect { return geom.Rect{Min: p, Max: p} }

// boxAdd extends the inclusive rect to cover p.
func boxAdd(r geom.Rect, p geom.Point) geom.Rect {
	r.Min.X = geom.Min(r.Min.X, p.X)
	r.Min.Y = geom.Min(r.Min.Y, p.Y)
	r.Max.X = geom.Max(r.Max.X, p.X)
	r.Max.Y = geom.Max(r.Max.Y, p.Y)
	return r
}

// manhattanToBox returns the Manhattan distance from p to the nearest
// point of the inclusive rect (0 when p is inside). It is the admissible
// remaining-length heuristic of the Lee engine's A* prune: every target
// point lies inside the rect, so no path from p can reach a target in
// fewer steps.
func manhattanToBox(p geom.Point, r geom.Rect) int {
	d := 0
	if p.X < r.Min.X {
		d += r.Min.X - p.X
	} else if p.X > r.Max.X {
		d += p.X - r.Max.X
	}
	if p.Y < r.Min.Y {
		d += r.Min.Y - p.Y
	} else if p.Y > r.Max.Y {
		d += p.Y - r.Max.Y
	}
	return d
}

// searchArena is the reusable scratch of the line-expansion engine. One
// arena serves one router, created lazily on its first search; a search
// acquires it, which clears the previous search's marks.
type searchArena struct {
	lineGeom

	// target holds the search's target marks (lineSearch.setTargets),
	// one bit per plane index. covered[d] holds, in the layout of
	// direction d's escape lines, the points already swept in direction
	// d: a point stops an escape only when it was swept in the same
	// direction. Every covered board is seeded with the target marks, so
	// the one scan of event|covered that finds an escape's stop also
	// finds its target contact; target then tells a contact from a stop.
	target  []uint64
	covered [4][]uint64

	// advance and crossAdv/crossOff are the per-sweep escape profile
	// buffers: advance[k] is how far segment cell k's escape travelled,
	// and crossAdv[crossOff[k]:crossOff[k+1]] lists the advance values
	// (in travel order) at which that escape crossed a foreign wire.
	advance  []int
	crossAdv []int
	crossOff []int

	// blocks bump-allocates actives in place-stable slabs, reused across
	// searches (all actives of a search are dead once its path is
	// reconstructed).
	blocks [][]active
	blockI int
	cellI  int

	// waves ping-pongs the two wavefront slices of run().
	waves [2][]*active
}

func newSearchArena(g lineGeom) *searchArena {
	ar := &searchArena{lineGeom: g, target: make([]uint64, (g.w*g.h+63)/64)}
	for d := range ar.covered {
		if geom.Dir(d).Horizontal() {
			ar.covered[d] = g.rowBoard()
		} else {
			ar.covered[d] = g.colBoard()
		}
	}
	return ar
}

// acquire starts a new search: every mark of the previous one is
// cleared and the active slab resets.
func (ar *searchArena) acquire() {
	clear(ar.target)
	for _, b := range ar.covered {
		clear(b)
	}
	ar.blockI, ar.cellI = 0, 0
}

// markTarget marks idx as a target of the current search, on the
// target board and, as a stop, on every covered board.
func (ar *searchArena) markTarget(idx int) {
	ar.target[idx>>6] |= 1 << (idx & 63)
	ar.markCovered(idx, allDirBits)
}

// isTarget reports whether idx is a target of the current search.
func (ar *searchArena) isTarget(idx int) bool {
	return ar.target[idx>>6]&(1<<(idx&63)) != 0
}

// markCovered marks idx covered in the directions of the dirBit mask.
func (ar *searchArena) markCovered(idx int, bits uint8) {
	rw, rm, cw, cm := ar.bitAt(idx)
	for d, b := range ar.covered {
		if bits&dirBit(geom.Dir(d)) == 0 {
			continue
		}
		if geom.Dir(d).Horizontal() {
			b[rw] |= rm
		} else {
			b[cw] |= cm
		}
	}
}

// newActive bump-allocates an active from the slab.
func (ar *searchArena) newActive() *active {
	if ar.blockI == len(ar.blocks) {
		ar.blocks = append(ar.blocks, make([]active, 512))
	}
	b := ar.blocks[ar.blockI]
	a := &b[ar.cellI]
	ar.cellI++
	if ar.cellI == len(b) {
		ar.blockI++
		ar.cellI = 0
	}
	return a
}

// advanceBuf returns an uninitialized advance buffer of n cells; a
// completed sweep writes every entry.
func (ar *searchArena) advanceBuf(n int) []int {
	if cap(ar.advance) < n {
		ar.advance = make([]int, n)
	}
	return ar.advance[:n]
}

// crossOffBuf returns an uninitialized offset buffer of n entries.
func (ar *searchArena) crossOffBuf(n int) []int {
	if cap(ar.crossOff) < n {
		ar.crossOff = make([]int, n)
	}
	return ar.crossOff[:n]
}
