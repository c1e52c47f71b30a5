package route

import (
	"sort"

	"netart/internal/geom"
)

// This file implements the copy-on-write speculation layer of the
// deterministic parallel router (see parallel.go): a per-plane journal
// that (a) records every *read* of mutable plane state made while a net
// is routed speculatively, so a later ordered commit can decide whether
// an intervening commit invalidated the speculation, and (b) records
// the *old value* of every mutable cell the speculation writes, so the
// speculative wires and claim releases can be rolled back in O(changes)
// and the worker's plane snapshot returns to the exact committed state.
//
// Only the four mutable-per-routing fields participate (hNet, vNet,
// bend, claim); blocked and termNet never change after buildPlane, so
// reads of them can never be invalidated and are not tracked. The
// tracking granularity is the plane point, not the field: a commit that
// writes any mutable field of a point a speculation read from counts
// as a conflict. That is conservative (it can only cause spurious
// re-routes, never wrong results) and keeps the hot-path cost at one
// nil check plus one epoch compare per query.

// Mutable plane fields, as journal tags.
const (
	fieldH uint8 = iota
	fieldV
	fieldBend
	fieldClaim
)

// undoEnt is one journaled write: the field's value at idx before the
// speculation touched it.
type undoEnt struct {
	idx   int32
	field uint8
	old   int32
}

// planeSpec is the speculation journal attached to a worker's private
// plane snapshot. It is enabled once per worker (enableSpec) and then
// cycled per net with beginSpec/rollbackSpec; the epoch counter makes
// the read-mark array reusable without clearing.
type planeSpec struct {
	active bool // between beginSpec and rollbackSpec

	// Read tracking: mark[i] == gen means point i was read this epoch.
	mark  []uint32
	gen   uint32
	reads []int32

	// Write journal: dirty[i] has a bit per mutable field that was
	// already journaled this speculation (so each (point, field) is
	// journaled at most once); undo lists the old values.
	dirty []uint8
	undo  []undoEnt
}

func (s *planeSpec) note(i int32) {
	if s.mark[i] != s.gen {
		s.mark[i] = s.gen
		s.reads = append(s.reads, i)
	}
}

func (s *planeSpec) journal(i int32, field uint8, old int32) {
	bit := uint8(1) << field
	if s.dirty[i]&bit == 0 {
		s.dirty[i] |= bit
		s.undo = append(s.undo, undoEnt{idx: i, field: field, old: old})
	}
}

// enableSpec attaches a speculation journal to the plane. Planes
// without a journal (the sequential router, the committed master plane)
// pay only a nil check on the query paths.
func (pl *Plane) enableSpec() {
	n := len(pl.blocked)
	pl.sp = &planeSpec{
		mark:  make([]uint32, n),
		dirty: make([]uint8, n),
	}
}

// beginSpec starts a fresh speculation epoch: the read set empties (by
// epoch bump, not by clearing) and writes start journaling.
func (pl *Plane) beginSpec() {
	s := pl.sp
	s.gen++
	if s.gen == 0 { // epoch wrapped: the mark array must really clear
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.gen = 1
	}
	s.reads = s.reads[:0]
	s.active = true
}

// specReadBits returns the plane points read since beginSpec as a
// fresh bitmap (one bit per plane index), plus the inclusive bounding
// rectangle of the read set in grid (column, row) coordinates. The
// bitmap form makes the committer's conflict check O(|writes|) bit
// tests instead of a scan over the read set — read sets span whole
// searched regions, so scanning them on the single committer goroutine
// would serialize the pipeline, while building the bitmap here costs
// the worker one pass it runs in parallel. The rectangle enables the
// committer's cheaper pre-filter: a commit whose write box does not
// intersect the read box cannot conflict, so the per-write bit tests
// are skipped entirely. A fresh allocation is required: the committer
// may still be validating while this worker starts its next epoch. An
// empty read set yields an inverted box (Min > Max), which intersects
// nothing.
func (pl *Plane) specReadBits() ([]uint64, geom.Rect) {
	s := pl.sp
	bits := make([]uint64, (len(pl.blocked)+63)/64)
	box := geom.Rect{Min: geom.Pt(1<<30, 1<<30), Max: geom.Pt(-1, -1)}
	for _, i := range s.reads {
		bits[i>>6] |= 1 << (uint(i) & 63)
		box = boxAdd(box, geom.Pt(int(i)%pl.w, int(i)/pl.w))
	}
	return bits, box
}

// rollbackSpec undoes every journaled write in reverse order, returning
// the plane to the exact state beginSpec saw, and stops journaling.
func (pl *Plane) rollbackSpec() {
	s := pl.sp
	for i := len(s.undo) - 1; i >= 0; i-- {
		e := s.undo[i]
		switch e.field {
		case fieldH:
			pl.hNet[e.idx] = e.old
		case fieldV:
			pl.vNet[e.idx] = e.old
		case fieldBend:
			pl.bend[e.idx] = e.old != 0
		case fieldClaim:
			pl.claim[e.idx] = e.old
		}
		pl.refreshStops(int(e.idx))
		s.dirty[e.idx] &^= 1 << e.field
	}
	s.undo = s.undo[:0]
	s.active = false
}

// Journal-aware mutable-field setters. All routing-time writes go
// through these so a speculation can be rolled back; with no active
// journal they compile down to the plain store.

func (pl *Plane) setH(i int, v int32) {
	if pl.sp != nil && pl.sp.active {
		pl.sp.journal(int32(i), fieldH, pl.hNet[i])
	}
	pl.hNet[i] = v
	pl.refreshStops(i)
}

func (pl *Plane) setV(i int, v int32) {
	if pl.sp != nil && pl.sp.active {
		pl.sp.journal(int32(i), fieldV, pl.vNet[i])
	}
	pl.vNet[i] = v
	pl.refreshStops(i)
}

func (pl *Plane) setBend(i int) {
	if pl.sp != nil && pl.sp.active {
		old := int32(0)
		if pl.bend[i] {
			old = 1
		}
		pl.sp.journal(int32(i), fieldBend, old)
	}
	pl.bend[i] = true
	pl.stops[i] |= stopBend
}

func (pl *Plane) setClaim(i int, v int32) {
	if pl.sp != nil && pl.sp.active {
		pl.sp.journal(int32(i), fieldClaim, pl.claim[i])
	}
	if v != 0 {
		pl.claimOf[v] = append(pl.claimOf[v], int32(i))
	}
	pl.claim[i] = v
	pl.refreshStops(i)
}

// noteRead records a mutable-state read at point index i (no-op without
// an active journal).
func (pl *Plane) noteRead(i int) {
	if pl.sp != nil && pl.sp.active {
		pl.sp.note(int32(i))
	}
}

// Clone returns a deep copy of the plane's cell state. The speculation
// journal is not cloned: the copy starts untracked.
func (pl *Plane) Clone() *Plane {
	cp := &Plane{Bounds: pl.Bounds, w: pl.w, h: pl.h}
	cp.blocked = append([]bool(nil), pl.blocked...)
	cp.termNet = append([]int32(nil), pl.termNet...)
	cp.hNet = append([]int32(nil), pl.hNet...)
	cp.vNet = append([]int32(nil), pl.vNet...)
	cp.bend = append([]bool(nil), pl.bend...)
	cp.claim = append([]int32(nil), pl.claim...)
	cp.claimOf = make(map[int32][]int32, len(pl.claimOf))
	for net, idxs := range pl.claimOf {
		cp.claimOf[net] = append([]int32(nil), idxs...)
	}
	cp.stops = append([]uint8(nil), pl.stops...)
	return cp
}

// Equal reports whether two planes carry byte-identical cell state
// (bounds and all six per-point arrays). Used by the determinism tests
// and the overlay fuzz target.
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

// opRecord is the replayable mutation log of one net's routing: the
// claim points it released followed by the wire groups it laid, in
// call order. Replaying an opRecord against a plane in the same state
// the recording ran against reproduces the exact same cell writes,
// which is how a validated speculation commits to the master plane and
// how worker snapshots sync to the committed prefix.
type opRecord struct {
	net    int32
	claims []int32     // plane indices whose claim was released
	wires  [][]Segment // LayWire calls, degenerate segments pre-filtered
}

// replayOps applies a recorded mutation log. The record must have been
// produced against a plane in this plane's current state (the ordered
// commit guarantees it), so no validation is needed.
func (pl *Plane) replayOps(r *opRecord) {
	for _, i := range r.claims {
		pl.setClaim(int(i), 0)
	}
	for _, segs := range r.wires {
		pl.commitWire(r.net, segs)
	}
}

// writeSet returns the sorted, deduplicated plane indices the record
// writes — released claims plus every wire point (bend marks land on
// segment endpoints, which are wire points) — and their inclusive
// bounding rectangle in grid (column, row) coordinates, matching the
// coordinate space of specReadBits' read box. This is the conflict set
// an ordered commit checks later speculations' read sets against; the
// box is the cheap first-stage filter. A record with no writes yields
// an inverted box, which intersects nothing.
func (r *opRecord) writeSet(pl *Plane) ([]int32, geom.Rect) {
	var out []int32
	out = append(out, r.claims...)
	for _, segs := range r.wires {
		for _, s := range segs {
			for _, p := range s.Points() {
				out = append(out, int32(pl.idx(p)))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Dedup in place.
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	out = out[:n]
	box := geom.Rect{Min: geom.Pt(1<<30, 1<<30), Max: geom.Pt(-1, -1)}
	for _, i := range out {
		box = boxAdd(box, geom.Pt(int(i)%pl.w, int(i)/pl.w))
	}
	return out, box
}
