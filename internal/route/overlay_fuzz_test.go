package route

import (
	"fmt"
	"testing"

	"netart/internal/geom"
)

// FuzzPlaneOverlay is the property test of the line bitboards, the
// derived overlay the expansion engine scans instead of the plane's
// authoritative arrays: after every operation of an arbitrary stream
// the boards must equal the ones recomputed from the arrays
// (checkLineBoards). The stream must also be deterministic: the same
// bytes applied to a second plane built from them give the same cell
// state and the same LayWire outcomes.
//
// The ops mirror what routing actually does to a plane: field reads,
// claim placement and release, LayWire (validated wires, error parity
// included), and the raw mutable-field setters.

// fuzzOps interprets data as an op stream against pl. LayWire outcomes
// are appended to errs so two runs can be compared. The line boards are
// checked after every op.
func fuzzOps(t *testing.T, pl *Plane, data []byte, errs *[]string) {
	w := pl.Bounds.Max.X - pl.Bounds.Min.X + 1
	h := pl.Bounds.Max.Y - pl.Bounds.Min.Y + 1
	pt := func(a, b byte) geom.Point {
		return geom.Pt(pl.Bounds.Min.X+int(a)%w, pl.Bounds.Min.Y+int(b)%h)
	}
	for ; len(data) >= 4; assertLineBoards(t, "after op", pl) {
		op, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		p := pt(a, b)
		net := int32(c%4) + 1
		switch op % 10 {
		case 0:
			pl.HNet(p)
		case 1:
			pl.VNet(p)
		case 2:
			pl.Bend(p)
		case 3:
			pl.Claimpoint(p)
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
			*errs = append(*errs, fmt.Sprint(pl.LayWire(net, []Segment{{A: p, B: q}})))
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

		// Static setup derived from the same bytes: a blocked point and
		// a terminal, so reads and LayWire validation have texture to
		// hit.
		newPlane := func() *Plane {
			pl := NewPlane(bounds)
			if len(data) >= 4 {
				p1 := geom.Pt(bounds.Min.X+int(data[0])%width, bounds.Min.Y+int(data[1])%height)
				p2 := geom.Pt(bounds.Min.X+int(data[2])%width, bounds.Min.Y+int(data[3])%height)
				pl.BlockPoint(p1)
				_ = pl.SetTerminal(p2, 1)
			}
			return pl
		}

		first, second := newPlane(), newPlane()
		var firstErrs, secondErrs []string
		fuzzOps(t, first, data, &firstErrs)
		fuzzOps(t, second, data, &secondErrs)
		if !first.Equal(second) {
			t.Fatal("identical op streams leave different cell state")
		}
		if fmt.Sprint(firstErrs) != fmt.Sprint(secondErrs) {
			t.Fatalf("LayWire outcomes diverge:\n  first  %v\n  second %v", firstErrs, secondErrs)
		}
	})
}
