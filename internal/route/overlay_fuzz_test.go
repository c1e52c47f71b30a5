package route

import (
	"fmt"
	"testing"

	"netart/internal/geom"
)

// FuzzPlaneOverlay is the property test of the speculation journal
// (spec.go): an arbitrary operation stream applied to a journaled
// plane must
//
//  1. produce exactly the cell state the same stream produces on a
//     flat, journal-free reference plane (the journal must never
//     change write semantics),
//  2. report every mutable-state read in specReadBits,
//  3. roll back to the exact pre-speculation state, and
//  4. behave identically on a second epoch over the same journal
//     (epoch reuse must not leak marks or dirty bits).
//
// The ops mirror what routing actually does to a plane: field reads,
// claim placement and release, LayWire (validated wires, error parity
// included), and the raw journaled setters.

// fuzzOps interprets data as an op stream against pl. reads, when
// non-nil, collects the plane indices of tracked mutable reads.
// LayWire outcomes are appended to errs so two runs can be compared.
func fuzzOps(pl *Plane, data []byte, reads map[int32]bool, errs *[]string) {
	w := pl.Bounds.Max.X - pl.Bounds.Min.X + 1
	h := pl.Bounds.Max.Y - pl.Bounds.Min.Y + 1
	pt := func(a, b byte) geom.Point {
		return geom.Pt(pl.Bounds.Min.X+int(a)%w, pl.Bounds.Min.Y+int(b)%h)
	}
	note := func(p geom.Point) {
		if reads != nil && pl.InBounds(p) {
			reads[int32(pl.idx(p))] = true
		}
	}
	for len(data) >= 4 {
		op, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		p := pt(a, b)
		net := int32(c%4) + 1
		switch op % 10 {
		case 0:
			pl.HNet(p)
			note(p)
		case 1:
			pl.VNet(p)
			note(p)
		case 2:
			pl.Bend(p)
			note(p)
		case 3:
			pl.Claimpoint(p)
			note(p)
		case 4:
			pl.Claim(p, net)
		case 5:
			pl.ReleaseClaims(net)
		case 6:
			// LayWire of a 1..3-long segment from p along one axis.
			if len(data) < 1 {
				return
			}
			d := data[0]
			data = data[1:]
			q := p
			length := int(d%3) + 1
			if d%2 == 0 {
				q.X += length
			} else {
				q.Y += length
			}
			err := pl.LayWire(net, []Segment{{A: p, B: q}})
			// A committed wire's validation pass read every wire point;
			// a failed one stopped mid-segment, so only track the clean
			// case (under-approximating the expected read set is safe —
			// the property is bitmap ⊇ tracked reads).
			if err == nil && reads != nil {
				for _, wp := range (Segment{A: p, B: q}).Points() {
					note(wp)
				}
			}
			*errs = append(*errs, fmt.Sprint(err))
		case 7:
			pl.setH(pl.idx(p), net)
		case 8:
			pl.setV(pl.idx(p), net)
		case 9:
			pl.setBend(pl.idx(p))
		}
	}
}

func FuzzPlaneOverlay(f *testing.F) {
	f.Add(uint8(8), uint8(8), []byte{6, 1, 1, 0, 2, 0, 1, 1, 1, 4, 3, 3, 2})
	f.Add(uint8(4), uint8(6), []byte{7, 0, 0, 1, 9, 0, 0, 0, 2, 0, 0, 0})
	f.Add(uint8(12), uint8(3), []byte{4, 5, 1, 2, 5, 0, 0, 2, 3, 5, 1, 0})
	f.Add(uint8(1), uint8(1), []byte{6, 0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		width := int(w%16) + 1
		height := int(h%16) + 1
		bounds := geom.Rect{Min: geom.Pt(-1, -2),
			Max: geom.Pt(-1+width-1, -2+height-1)}

		// Static setup derived from the same bytes: a blocked rect and a
		// couple of terminals, so reads and LayWire validation have
		// texture to hit.
		base := NewPlane(bounds)
		if len(data) >= 4 {
			p1 := geom.Pt(bounds.Min.X+int(data[0])%width, bounds.Min.Y+int(data[1])%height)
			p2 := geom.Pt(bounds.Min.X+int(data[2])%width, bounds.Min.Y+int(data[3])%height)
			base.BlockPoint(p1)
			_ = base.SetTerminal(p2, 1)
		}

		// Reference run: flat clone, no journal.
		ref := base.Clone()
		var refErrs []string
		fuzzOps(ref, data, nil, &refErrs)

		// Journaled run.
		work := base.Clone()
		work.enableSpec()
		work.beginSpec()
		reads := map[int32]bool{}
		var workErrs []string
		fuzzOps(work, data, reads, &workErrs)

		// (1) Same writes, journal active or not.
		if !work.Equal(ref) {
			t.Fatal("journaled plane diverges from flat reference after identical ops")
		}
		// LayWire error parity: the journal must not change validation.
		if len(refErrs) != len(workErrs) {
			t.Fatalf("LayWire outcome count %d vs %d", len(refErrs), len(workErrs))
		}
		for i := range refErrs {
			if refErrs[i] != workErrs[i] {
				t.Fatalf("LayWire outcome %d: %q (flat) vs %q (journaled)", i, refErrs[i], workErrs[i])
			}
		}
		// (2) Every tracked read is in the bitmap and inside the read box.
		bits, rbox := work.specReadBits()
		for i := range reads {
			if bits[i>>6]&(1<<(uint(i)&63)) == 0 {
				t.Fatalf("read of plane index %d missing from specReadBits", i)
			}
			if g := geom.Pt(int(i)%work.w, int(i)/work.w); !boxContains(rbox, g) {
				t.Fatalf("read of plane index %d outside read box %v", i, rbox)
			}
		}
		// (3) Rollback returns to the exact base state.
		work.rollbackSpec()
		if !work.Equal(base) {
			t.Fatal("rollback did not restore the pre-speculation state")
		}
		// (4) A second epoch over the reused journal behaves identically.
		work.beginSpec()
		var again []string
		fuzzOps(work, data, nil, &again)
		if !work.Equal(ref) {
			t.Fatal("second epoch diverges from the flat reference")
		}
		work.rollbackSpec()
		if !work.Equal(base) {
			t.Fatal("second rollback did not restore the base state")
		}
	})
}
