package route

import (
	"testing"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/workload"
)

// Positive half of the equivalence-checker tests: every result the
// router produces, on any workload, must pass
// VerifyEquivalence. The negative half corrupts routed geometry in
// targeted ways and asserts the checker catches each class of
// violation, so the positive half is known not to pass vacuously.

func TestEquivalenceHoldsAcrossWorkloads(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		po    place.Options
	}{
		{"fig61", workload.Fig61, place.Options{PartSize: 6, BoxSize: 6}},
		{"datapath_tight", workload.Datapath16, place.Options{PartSize: 1, BoxSize: 1}},
		{"datapath_wide", workload.Datapath16, place.Options{PartSize: 7, BoxSize: 5}},
	}
	for _, tc := range cases {
		// The "/workers0" suffix keeps the subtest names of the
		// battery's earlier worker-count axis stable.
		t.Run(tc.name+"/workers0", func(t *testing.T) {
			res := placeAndRoute(t, tc.build(), tc.po, Options{Claimpoints: true})
			if err := VerifyEquivalence(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEquivalenceHoldsSeeded(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res := placeAndRoute(t, workload.Random(10, seed),
			place.Options{PartSize: 4, BoxSize: 2}, Options{Claimpoints: true})
		if err := VerifyEquivalence(res); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// tamperBase routes a small fixed design and returns the result for
// corruption. Helper failures are fatal: the negative tests are
// meaningless without a valid baseline.
func tamperBase(t *testing.T) *Result {
	t.Helper()
	res := placeAndRoute(t, workload.Fig61(),
		place.Options{PartSize: 6, BoxSize: 6}, Options{Claimpoints: true})
	if err := VerifyEquivalence(res); err != nil {
		t.Fatalf("baseline not equivalent: %v", err)
	}
	return res
}

// routedNet returns the first fully routed net with wire geometry.
func routedNet(t *testing.T, res *Result) *RoutedNet {
	t.Helper()
	for _, rn := range res.Nets {
		if rn.OK() && len(rn.Segments) > 0 && len(rn.Net.Terms) >= 2 {
			return rn
		}
	}
	t.Fatal("no routed net with geometry")
	return nil
}

// otherRoutedNet returns a routed net different from avoid.
func otherRoutedNet(t *testing.T, res *Result, avoid *RoutedNet) *RoutedNet {
	t.Helper()
	for _, rn := range res.Nets {
		if rn != avoid && rn.OK() && len(rn.Segments) > 0 {
			return rn
		}
	}
	t.Fatal("no second routed net")
	return nil
}

func wantViolation(t *testing.T, res *Result, reason string) {
	t.Helper()
	err := VerifyEquivalence(res)
	if err == nil {
		t.Fatalf("tampered result passed equivalence (wanted %q)", reason)
	}
	if _, ok := err.(*EquivalenceError); !ok {
		t.Fatalf("got %T (%v), want *EquivalenceError", err, err)
	}
	t.Logf("caught as expected: %v", err)
}

func TestEquivalenceCatchesMissingWire(t *testing.T) {
	res := tamperBase(t)
	rn := routedNet(t, res)
	rn.Segments = nil // net still claims all terminals connected
	wantViolation(t, res, "connectivity")
}

func TestEquivalenceCatchesBrokenTree(t *testing.T) {
	res := tamperBase(t)
	rn := routedNet(t, res)
	// Drop one segment: some claimed terminal becomes unreachable or
	// loses its wire entirely.
	rn.Segments = rn.Segments[:len(rn.Segments)-1]
	wantViolation(t, res, "connectivity")
}

func TestEquivalenceCatchesSameAxisShort(t *testing.T) {
	res := tamperBase(t)
	a := routedNet(t, res)
	b := otherRoutedNet(t, res, a)
	// Duplicate one of b's segments into a: same-axis overlap.
	a.Segments = append(a.Segments, b.Segments[0])
	wantViolation(t, res, "same-axis short")
}

func TestEquivalenceCatchesJunctionShort(t *testing.T) {
	res := tamperBase(t)
	a := routedNet(t, res)
	b := otherRoutedNet(t, res, a)
	// End a perpendicular stub of net a exactly on a point of net b's
	// wire: a junction short even though the axes differ.
	var bs Segment
	found := false
	for _, s := range b.Segments {
		if s.Len() >= 2 {
			bs, found = s, true
			break
		}
	}
	if !found {
		t.Skip("no segment long enough to host a stub")
	}
	mid := bs.Points()[1]
	var stub Segment
	if bs.Horizontal() {
		stub = Segment{A: geom.Pt(mid.X, mid.Y-2), B: mid}
	} else {
		stub = Segment{A: geom.Pt(mid.X-2, mid.Y), B: mid}
	}
	a.Segments = append(a.Segments, stub)
	wantViolation(t, res, "junction short")
}

func TestEquivalenceCatchesForeignTerminal(t *testing.T) {
	res := tamperBase(t)
	a := routedNet(t, res)
	b := otherRoutedNet(t, res, a)
	// Run a wire of net a straight through one of net b's terminals.
	tp, err := res.Placement.TermPos(b.Net.Terms[0])
	if err != nil {
		t.Fatal(err)
	}
	a.Segments = append(a.Segments,
		Segment{A: geom.Pt(tp.X-1, tp.Y), B: geom.Pt(tp.X+1, tp.Y)})
	wantViolation(t, res, "foreign terminal")
}

// TestEquivalenceAllowsCrossing pins down the one legal interaction:
// two nets sharing a point as a perpendicular crossing, both passing
// straight through. The checker must not flag it.
func TestEquivalenceAllowsCrossing(t *testing.T) {
	res := tamperBase(t)
	crossings := 0
	type seen struct{ h, v bool }
	pts := map[geom.Point]map[string]seen{}
	for _, rn := range res.Nets {
		for _, s := range rn.Segments {
			for _, p := range s.Points() {
				if pts[p] == nil {
					pts[p] = map[string]seen{}
				}
				v := pts[p][rn.Net.Name]
				if s.Horizontal() {
					v.h = true
				} else {
					v.v = true
				}
				pts[p][rn.Net.Name] = v
			}
		}
	}
	for _, nets := range pts {
		if len(nets) == 2 {
			crossings++
		}
	}
	// The routed fig 6.1 plane does contain crossings; if not, this
	// guard is vacuous and should say so rather than silently pass.
	t.Logf("fig61 has %d shared wire points across nets", crossings)
	if err := VerifyEquivalence(res); err != nil {
		t.Fatalf("legal crossings flagged: %v", err)
	}
}
