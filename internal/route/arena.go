package route

import "netart/internal/geom"

// This file holds the routing hot path's scratch arena and the small
// inclusive-box helpers the engines share (DESIGN.md §5i).
//
// searchArena is the per-router scratch the line-expansion engine draws
// its wavefront state from. The covered bitmap is epoch-stamped so
// "clearing" it between searches is one counter increment; actives are
// bump-allocated from slabs; the per-sweep advance/crossing buffers and
// the wavefront slices are reused. Together these drop the router's
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

// coveredStampBits is the number of low bits of a covered word holding
// the per-cell search state — four direction bits plus the target bit;
// the rest is the search-epoch stamp.
const coveredStampBits = 5

// targetBit marks a cell as a member of the search's precomputed target
// set (lineSearch.setTargets), sharing the covered word so the hot sweep
// answers "target?" and "already swept?" with a single stamped load.
const targetBit = 1 << 4

// searchArena is the reusable scratch of the line-expansion engine. One
// arena serves one router (workers of the parallel scheduler each own
// one, created lazily for their private plane); a search acquires it by
// bumping the covered epoch, which invalidates every mark of the
// previous search in O(1).
type searchArena struct {
	// covered holds, per plane point, gen<<4 | direction bits: a cell
	// stops an escape only when it was already swept in the same
	// direction within the same search epoch. Stamps from older epochs
	// read as "not covered".
	covered []uint32
	gen     uint32

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

func newSearchArena(cells int) *searchArena {
	return &searchArena{covered: make([]uint32, cells)}
}

// acquire starts a new search epoch: previous covered marks expire by
// stamp and the active slab resets. The stamp space (32-4 bits) is
// cleared for real on the rare wrap.
func (ar *searchArena) acquire() {
	ar.gen++
	if ar.gen >= 1<<(32-coveredStampBits) {
		clear(ar.covered)
		ar.gen = 1
	}
	ar.blockI, ar.cellI = 0, 0
}

// markTarget stamps idx as a target of the current epoch. Called before
// the search sweeps (setTargets), so overwriting the word loses nothing.
func (ar *searchArena) markTarget(idx int) {
	w := ar.covered[idx]
	if w>>coveredStampBits != ar.gen {
		w = ar.gen << coveredStampBits
	}
	ar.covered[idx] = w | targetBit
}

// isTarget reports whether idx was stamped by markTarget this epoch.
func (ar *searchArena) isTarget(idx int) bool {
	w := ar.covered[idx]
	return w>>coveredStampBits == ar.gen && w&targetBit != 0
}

// coveredBits returns the direction mask of the current epoch at idx.
func (ar *searchArena) coveredBits(idx int) uint8 {
	w := ar.covered[idx]
	if w>>coveredStampBits != ar.gen {
		return 0
	}
	return uint8(w) & allDirBits
}

// markCovered ors direction bits into the current epoch's mask at idx.
func (ar *searchArena) markCovered(idx int, bits uint8) {
	w := ar.covered[idx]
	if w>>coveredStampBits != ar.gen {
		w = ar.gen << coveredStampBits
	}
	ar.covered[idx] = w | uint32(bits)
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

// advanceBuf returns a zeroed advance buffer of n cells.
func (ar *searchArena) advanceBuf(n int) []int {
	if cap(ar.advance) < n {
		ar.advance = make([]int, n)
	}
	buf := ar.advance[:n]
	clear(buf)
	return buf
}

// crossOffBuf returns an uninitialized offset buffer of n entries.
func (ar *searchArena) crossOffBuf(n int) []int {
	if cap(ar.crossOff) < n {
		ar.crossOff = make([]int, n)
	}
	return ar.crossOff[:n]
}
