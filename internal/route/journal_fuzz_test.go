package route

import (
	"context"
	"fmt"
	"testing"

	"netart/internal/geom"
)

// FuzzSearchJournal is the property test of the full-plane search
// engine over a journal of searches: nets of a point-to-point
// connection plus one branch onto the laid tree, routed in sequence
// through one router and its reused arena. For an arbitrary obstacle
// field it requires:
//
//  1. reference-loop parity: the unpruned referenceRun finds the same
//     segments, plane state and search counters as the final-wave
//     sweep;
//  2. arena reuse: a second pass of the same journal through the same
//     router and arena (cleared on acquire, buffers reused), on a plane
//     built again from the fuzz bytes, reproduces the first pass byte
//     for byte, search statistics included.

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

// fuzzPass routes every net in order on the router's plane.
func fuzzPass(rt *router, nets [][3]geom.Point) []string {
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
		var obstacles []geom.Point
		for n := 0; n < 40 && len(data) >= 2; n++ {
			if p := pt(); !isTerm(p) {
				obstacles = append(obstacles, p)
			}
		}
		newPlane := func() *Plane {
			pl := NewPlane(bounds)
			for _, p := range obstacles {
				pl.BlockPoint(p)
			}
			return pl
		}
		newRT := func(pl *Plane) *router {
			return &router{plane: pl, cancel: newCancelCheck(context.Background()), stats: &SearchStats{}}
		}

		rt := newRT(newPlane())
		out := fuzzPass(rt, nets)

		// (1) The unpruned reference loop agrees with the final-wave sweep.
		full := newRT(newPlane())
		var fullOut []string
		withReference(func() { fullOut = fuzzPass(full, nets) })
		if fmt.Sprint(fullOut) != fmt.Sprint(out) {
			t.Fatalf("final-wave sweep diverges from the reference loop:\n  reference %v\n  final     %v", fullOut, out)
		}
		if !full.plane.Equal(rt.plane) {
			t.Fatal("final-wave sweep plane diverges from the reference loop")
		}
		if r, g := *full.stats, *rt.stats; r.Searches != g.Searches || r.Waves != g.Waves || r.MaxBends != g.MaxBends {
			t.Fatalf("search counters diverge:\n  reference %+v\n  final     %+v", r, g)
		}

		// (2) A second pass through the reused arena reproduces the first.
		first, firstStats := rt.plane, *rt.stats
		rt.plane, rt.stats = newPlane(), &SearchStats{}
		again := fuzzPass(rt, nets)
		if fmt.Sprint(again) != fmt.Sprint(out) {
			t.Fatalf("second pass diverges:\n  first  %v\n  second %v", out, again)
		}
		if !rt.plane.Equal(first) {
			t.Fatal("second pass plane diverges from the first")
		}
		if *rt.stats != firstStats {
			t.Fatalf("second pass stats diverge:\n  first  %+v\n  second %+v", firstStats, *rt.stats)
		}
	})
}
