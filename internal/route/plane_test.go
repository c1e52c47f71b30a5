package route

import (
	"testing"

	"netart/internal/geom"
)

func TestPlaneBounds(t *testing.T) {
	pl := NewPlane(geom.R(-2, -2, 5, 5))
	if !pl.InBounds(geom.Pt(-2, -2)) || !pl.InBounds(geom.Pt(5, 5)) {
		t.Error("corner points should be in bounds (inclusive)")
	}
	if pl.InBounds(geom.Pt(6, 0)) || pl.InBounds(geom.Pt(0, -3)) {
		t.Error("outside points reported in bounds")
	}
	if !pl.Blocked(geom.Pt(99, 99)) {
		t.Error("outside must read as blocked")
	}
}

func TestPlaneBlockRect(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 10, 10))
	pl.BlockRect(geom.Pt(2, 2), geom.Pt(4, 5))
	// Inclusive outline and interior.
	for _, p := range []geom.Point{{X: 2, Y: 2}, {X: 4, Y: 5}, {X: 3, Y: 3}} {
		if !pl.Blocked(p) {
			t.Errorf("%v should be blocked", p)
		}
	}
	for _, p := range []geom.Point{{X: 1, Y: 2}, {X: 5, Y: 5}, {X: 2, Y: 6}} {
		if pl.Blocked(p) {
			t.Errorf("%v should be free", p)
		}
	}
	// Clipping outside the plane must not panic.
	pl.BlockRect(geom.Pt(-5, -5), geom.Pt(20, 1))
}

func TestPlaneTerminals(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 10, 10))
	p := geom.Pt(3, 3)
	if err := pl.SetTerminal(p, 7); err != nil {
		t.Fatal(err)
	}
	if pl.Terminal(p) != 7 {
		t.Error("Terminal lookup failed")
	}
	if err := pl.SetTerminal(p, 7); err != nil {
		t.Error("re-setting same net should be fine")
	}
	if err := pl.SetTerminal(p, 8); err == nil {
		t.Error("terminal conflict accepted")
	}
	if err := pl.SetTerminal(geom.Pt(99, 99), 1); err == nil {
		t.Error("out-of-plane terminal accepted")
	}
	if pl.Terminal(geom.Pt(99, 99)) != 0 {
		t.Error("out-of-plane Terminal should be 0")
	}
}

func TestPlaneClaims(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 10, 10))
	p := geom.Pt(4, 4)
	pl.Claim(p, 3)
	if pl.Claimpoint(p) != 3 {
		t.Error("claim not recorded")
	}
	pl.Claim(p, 5) // already claimed: no-op
	if pl.Claimpoint(p) != 3 {
		t.Error("claim overwritten")
	}
	pl.ReleaseClaims(3)
	if pl.Claimpoint(p) != 0 {
		t.Error("claim not released")
	}
	// Claims on blocked or wired points are no-ops.
	pl.BlockPoint(geom.Pt(6, 6))
	pl.Claim(geom.Pt(6, 6), 1)
	if pl.Claimpoint(geom.Pt(6, 6)) != 0 {
		t.Error("claim on blocked point accepted")
	}
	if err := pl.LayWire(2, []Segment{{geom.Pt(0, 8), geom.Pt(5, 8)}}); err != nil {
		t.Fatal(err)
	}
	pl.Claim(geom.Pt(3, 8), 1)
	if pl.Claimpoint(geom.Pt(3, 8)) != 0 {
		t.Error("claim on wire accepted")
	}
	pl.Claim(geom.Pt(1, 1), 9)
	pl.Claim(geom.Pt(2, 2), 9)
	pl.ReleaseAllClaims()
	if pl.Claimpoint(geom.Pt(1, 1)) != 0 || pl.Claimpoint(geom.Pt(2, 2)) != 0 {
		t.Error("ReleaseAllClaims incomplete")
	}
	// Out-of-bounds claim is a no-op, not a panic.
	pl.Claim(geom.Pt(-5, -5), 1)
	if pl.Claimpoint(geom.Pt(-5, -5)) != 0 {
		t.Error("out-of-bounds claim recorded")
	}
}

func TestLayWireMarksOccupancy(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 10, 10))
	segs := []Segment{
		{geom.Pt(1, 1), geom.Pt(5, 1)},
		{geom.Pt(5, 1), geom.Pt(5, 4)},
	}
	if err := pl.LayWire(1, segs); err != nil {
		t.Fatal(err)
	}
	if pl.HNet(geom.Pt(3, 1)) != 1 {
		t.Error("horizontal occupancy missing")
	}
	if pl.VNet(geom.Pt(5, 3)) != 1 {
		t.Error("vertical occupancy missing")
	}
	if !pl.Bend(geom.Pt(5, 1)) {
		t.Error("corner not marked as bend")
	}
	if pl.Bend(geom.Pt(3, 1)) {
		t.Error("straight cell marked as bend")
	}
	// Endpoints not on terminals are bend-marked too (future nets may
	// not cross a wire end).
	if !pl.Bend(geom.Pt(1, 1)) || !pl.Bend(geom.Pt(5, 4)) {
		t.Error("free-standing endpoints not marked")
	}
}

func TestLayWireTerminalEndpointNotBendMarked(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 10, 10))
	a, b := geom.Pt(1, 1), geom.Pt(8, 1)
	_ = pl.SetTerminal(a, 1)
	_ = pl.SetTerminal(b, 1)
	if err := pl.LayWire(1, []Segment{{a, b}}); err != nil {
		t.Fatal(err)
	}
	if pl.Bend(a) || pl.Bend(b) {
		t.Error("terminal endpoints of a straight wire must not be bends")
	}
}

// TestLayWireJunctionsWithoutAllocating lays a wire whose two straight
// segments meet on a terminal, plus a zero-length segment on another
// terminal, over fresh planes: only the meeting point becomes a bend
// (the degenerate segment fakes no junction), and laying allocates
// nothing.
func TestLayWireJunctionsWithoutAllocating(t *testing.T) {
	a, m, b := geom.Pt(1, 1), geom.Pt(5, 1), geom.Pt(9, 1)
	segs := []Segment{{a, a}, {a, m}, {m, b}}
	const runs = 20
	pls := make([]*Plane, runs+1) // AllocsPerRun adds one warm-up call
	for k := range pls {
		pls[k] = NewPlane(geom.R(0, 0, 10, 10))
		for _, p := range []geom.Point{a, m, b} {
			if err := pls[k].SetTerminal(p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := pls[k].LayWire(1, segs); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 0 {
		t.Errorf("LayWire allocates %.1f times per call, want 0", allocs)
	}
	for _, pl := range pls {
		if !pl.Bend(m) || pl.Bend(a) || pl.Bend(b) {
			t.Fatalf("bends a/m/b = %v/%v/%v, want only the junction m", pl.Bend(a), pl.Bend(m), pl.Bend(b))
		}
	}
}

func TestLayWireRejections(t *testing.T) {
	mk := func() *Plane {
		pl := NewPlane(geom.R(0, 0, 10, 10))
		pl.BlockRect(geom.Pt(4, 4), geom.Pt(6, 6))
		_ = pl.SetTerminal(geom.Pt(2, 8), 5)
		_ = pl.LayWire(2, []Segment{{geom.Pt(0, 2), geom.Pt(9, 2)}})
		return pl
	}
	cases := []struct {
		name string
		segs []Segment
	}{
		{"diagonal", []Segment{{geom.Pt(0, 0), geom.Pt(3, 3)}}},
		{"outside", []Segment{{geom.Pt(0, 0), geom.Pt(0, -5)}}},
		{"through module", []Segment{{geom.Pt(3, 5), geom.Pt(8, 5)}}},
		{"foreign terminal", []Segment{{geom.Pt(0, 8), geom.Pt(5, 8)}}},
		{"horizontal overlap", []Segment{{geom.Pt(1, 2), geom.Pt(6, 2)}}},
		{"through bend", []Segment{{geom.Pt(0, 2), geom.Pt(0, 9)},
			{geom.Pt(0, 9), geom.Pt(9, 9)}}}, // second wire later crosses own endpoint? no: first passes (0,2) endpoint bend of net 2
	}
	for _, c := range cases {
		pl := mk()
		if err := pl.LayWire(1, c.segs); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestLayWireCrossingAllowed(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 10, 10))
	if err := pl.LayWire(1, []Segment{{geom.Pt(0, 5), geom.Pt(10, 5)}}); err != nil {
		t.Fatal(err)
	}
	// A perpendicular wire of another net may cross mid-segment.
	if err := pl.LayWire(2, []Segment{{geom.Pt(5, 0), geom.Pt(5, 10)}}); err != nil {
		t.Fatalf("perpendicular crossing rejected: %v", err)
	}
	p := geom.Pt(5, 5)
	if pl.HNet(p) != 1 || pl.VNet(p) != 2 {
		t.Error("crossing occupancy wrong")
	}
}

func TestLayWireJunctionOnOwnBend(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 10, 10))
	if err := pl.LayWire(1, []Segment{
		{geom.Pt(0, 0), geom.Pt(5, 0)},
		{geom.Pt(5, 0), geom.Pt(5, 5)},
	}); err != nil {
		t.Fatal(err)
	}
	// A later connection of the same net may terminate on the corner.
	if err := pl.LayWire(1, []Segment{{geom.Pt(9, 0), geom.Pt(5, 0)}}); err != nil {
		t.Errorf("junction on own corner rejected: %v", err)
	}
	// But a foreign wire may not pass through it.
	if err := pl.LayWire(2, []Segment{{geom.Pt(5, 3), geom.Pt(5, 8)}}); err == nil {
		t.Error("foreign wire overlapping vertical run accepted")
	}
}

func TestZeroSizePlane(t *testing.T) {
	pl := NewPlane(geom.Rect{})
	if !pl.InBounds(geom.Pt(0, 0)) {
		t.Error("degenerate plane should hold its single point")
	}
}
