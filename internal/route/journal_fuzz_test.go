package route

import (
	"context"
	"fmt"
	"testing"

	"netart/internal/geom"
)

// FuzzSearchJournal is the property test of the full-plane search
// engine running over the speculation journal with a reused arena —
// the exact configuration the parallel scheduler puts the hot path in.
// For an arbitrary obstacle field and nets of a point-to-point
// connection plus one branch onto the laid tree it requires:
//
//  1. flat-reference parity: the search on a journaled plane finds
//     exactly the segments (and search statistics) it finds on a flat,
//     journal-free clone, across several nets laid in sequence through
//     one shared arena;
//  2. reference-loop parity: on the flat plane, the unpruned
//     referenceRun finds the same segments, plane state and search
//     counters as the final-wave sweep;
//  3. read accounting: every cell on a found path was swept by the
//     engine, so it must appear in specReadBits' bitmap and fall
//     inside the read bounding box (the validation pre-filter's
//     snapshot of the read set);
//  4. exact rollback after reuse: rollbackSpec restores the
//     pre-speculation plane, and a second journal epoch over the same
//     arena (generations bumped, buffers reused) reproduces the first
//     epoch byte for byte before rolling back just as cleanly.

// boxContains reports whether p lies inside the inclusive rect r.
func boxContains(r geom.Rect, p geom.Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// fuzzNet routes one net through router.searchFrom, mirroring routeNet
// without the netlist scaffolding: a point-to-point connection from
// pts[0] to pts[1], laid, then a tree connection from pts[2] onto it.
// It returns one outcome line per search for cross-run comparison.
func fuzzNet(rt *router, id int32, pts [3]geom.Point) []string {
	dirs := []geom.Dir{geom.Right, geom.Up, geom.Left, geom.Down}
	to := pts[1]
	segs, ok := rt.searchFrom(id, pts[0], dirs, func(p geom.Point) bool { return p == to },
		[]geom.Point{to}, nil)
	if !ok {
		return []string{"unrouted"}
	}
	err := rt.plane.LayWire(id, segs)
	out := []string{fmt.Sprintf("%v lay=%v", segs, err)}
	if err != nil {
		return out
	}
	hint := []geom.Point{pts[0], pts[1]}
	onTree := func(p geom.Point) bool {
		return p == pts[0] || p == pts[1] || rt.plane.HNet(p) == id || rt.plane.VNet(p) == id
	}
	branch, ok := rt.searchFrom(id, pts[2], dirs, onTree, hint, segs)
	if !ok {
		return append(out, "branch unrouted")
	}
	return append(out, fmt.Sprintf("%v lay=%v", branch, rt.plane.LayWire(id, branch)))
}

// fuzzEpoch routes every net in order on the router's plane.
func fuzzEpoch(rt *router, nets [][3]geom.Point) []string {
	var out []string
	for i, pts := range nets {
		out = append(out, fuzzNet(rt, int32(i)+1, pts)...)
	}
	return out
}

func FuzzSearchJournal(f *testing.F) {
	f.Add(uint8(48), uint8(40), []byte{2, 2, 40, 30, 20, 5, 10, 28, 35, 5, 30, 38, 20, 20, 21, 20, 22, 20, 23, 20})
	f.Add(uint8(70), uint8(16), []byte{0, 0, 60, 10, 30, 0, 5, 5, 5, 6, 40, 12, 6, 5, 7, 7})
	f.Add(uint8(16), uint8(16), []byte{1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		width := int(w%64) + 16
		height := int(h%64) + 16
		bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(width-1, height-1)}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		pt := func() geom.Point { a, b := next(), next(); return geom.Pt(int(a)%width, int(b)%height) }

		// Two nets of three points each, then the remaining bytes
		// scatter obstacles (skipping the terminals so the nets stay
		// plausible).
		nets := [][3]geom.Point{{pt(), pt(), pt()}, {pt(), pt(), pt()}}
		isTerm := func(p geom.Point) bool {
			for _, pts := range nets {
				if p == pts[0] || p == pts[1] || p == pts[2] {
					return true
				}
			}
			return false
		}
		base := NewPlane(bounds)
		for n := 0; n < 40 && len(data) >= 2; n++ {
			if p := pt(); !isTerm(p) {
				base.BlockPoint(p)
			}
		}

		newRT := func(pl *Plane) *router {
			return &router{plane: pl, cancel: newCancelCheck(context.Background()), stats: &SearchStats{}}
		}

		// Flat reference: no journal.
		ref := newRT(base.Clone())
		refOut := fuzzEpoch(ref, nets)

		// Journaled run, epoch one.
		work := base.Clone()
		work.enableSpec()
		work.beginSpec()
		wrt := newRT(work)
		workOut := fuzzEpoch(wrt, nets)

		// (1) Flat-reference parity: outcomes, plane state, statistics.
		if fmt.Sprint(refOut) != fmt.Sprint(workOut) {
			t.Fatalf("journaled outcomes diverge:\n  flat %v\n  spec %v", refOut, workOut)
		}
		if !work.Equal(ref.plane) {
			t.Fatal("journaled plane diverges from flat reference")
		}
		if *ref.stats != *wrt.stats {
			t.Fatalf("search stats diverge:\n  flat %+v\n  spec %+v", *ref.stats, *wrt.stats)
		}

		// (2) The unpruned reference loop agrees with the final-wave sweep.
		full := newRT(base.Clone())
		var fullOut []string
		withReference(func() { fullOut = fuzzEpoch(full, nets) })
		if fmt.Sprint(fullOut) != fmt.Sprint(refOut) {
			t.Fatalf("final-wave sweep diverges from the reference loop:\n  reference %v\n  final     %v", fullOut, refOut)
		}
		if !full.plane.Equal(ref.plane) {
			t.Fatal("final-wave sweep plane diverges from the reference loop")
		}
		if r, g := *full.stats, *ref.stats; r.Searches != g.Searches || r.Waves != g.Waves || r.MaxBends != g.MaxBends {
			t.Fatalf("search counters diverge:\n  reference %+v\n  final     %+v", r, g)
		}

		// (3) Every swept path cell is in the read bitmap and box.
		bits, rbox := work.specReadBits()
		for id := int32(1); id <= int32(len(nets)); id++ {
			for i, v := range work.hNet {
				if v != id && work.vNet[i] != id {
					continue
				}
				p := geom.Pt(work.Bounds.Min.X+i%work.w, work.Bounds.Min.Y+i/work.w)
				if pts := nets[id-1]; p == pts[0] || p == pts[2] {
					// Search start cells are entered before the sweep
					// begins and may legitimately go unread.
					continue
				}
				if bits[i>>6]&(1<<(uint(i)&63)) == 0 {
					t.Fatalf("net %d wire cell %v missing from specReadBits", id, p)
				}
				if g := geom.Pt(i%work.w, i/work.w); !boxContains(rbox, g) {
					t.Fatalf("net %d wire cell %v outside read box %v", id, p, rbox)
				}
			}
		}

		// (4) Rollback restores the base, and a second epoch over the
		// reused journal and arena reproduces the first.
		work.rollbackSpec()
		if !work.Equal(base) {
			t.Fatal("rollback did not restore the pre-speculation state")
		}
		work.beginSpec()
		againOut := fuzzEpoch(wrt, nets)
		if fmt.Sprint(againOut) != fmt.Sprint(workOut) {
			t.Fatalf("second epoch diverges:\n  first  %v\n  second %v", workOut, againOut)
		}
		if !work.Equal(ref.plane) {
			t.Fatal("second epoch plane diverges from flat reference")
		}
		work.rollbackSpec()
		if !work.Equal(base) {
			t.Fatal("second rollback did not restore the base state")
		}
	})
}
