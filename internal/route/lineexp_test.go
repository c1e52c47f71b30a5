package route

import (
	"fmt"
	"math/rand"
	"testing"

	"netart/internal/geom"
)

// randomPlane builds a plane with random rectangular obstacles and
// random pre-laid wires, plus two reachable terminal points on
// obstacle-free cells. Returns nil when the dice produce a degenerate
// configuration.
func randomPlane(rng *rand.Rand) (*Plane, geom.Point, geom.Point) {
	pl := NewPlane(geom.R(0, 0, 24, 24))
	for i := 0; i < 5; i++ {
		x, y := rng.Intn(20), rng.Intn(20)
		w, h := 1+rng.Intn(4), 1+rng.Intn(4)
		pl.BlockRect(geom.Pt(x, y), geom.Pt(x+w, y+h))
	}
	// A few foreign wires with corners.
	for i := 0; i < 3; i++ {
		x0, y0 := rng.Intn(22), rng.Intn(22)
		x1, y1 := rng.Intn(22), rng.Intn(22)
		segs := []Segment{
			{geom.Pt(x0, y0), geom.Pt(x1, y0)},
			{geom.Pt(x1, y0), geom.Pt(x1, y1)},
		}
		_ = pl.LayWire(int32(10+i), segs) // best effort; conflicts skipped
	}
	free := func() (geom.Point, bool) {
		for tries := 0; tries < 60; tries++ {
			p := geom.Pt(rng.Intn(25), rng.Intn(25))
			i := pl.idx(p)
			if !pl.blocked[i] && pl.hNet[i] == 0 && pl.vNet[i] == 0 && pl.termNet[i] == 0 {
				return p, true
			}
		}
		return geom.Point{}, false
	}
	a, ok1 := free()
	if !ok1 {
		return nil, geom.Point{}, geom.Point{}
	}
	b, ok2 := free()
	if !ok2 || a == b {
		return nil, geom.Point{}, geom.Point{}
	}
	_ = pl.SetTerminal(a, 1)
	_ = pl.SetTerminal(b, 1)
	return pl, a, b
}

// TestLineExpansionMatchesLee checks the guaranteed-solution property
// of §5.5.4 against an independent implementation: on random planes the
// line-expansion engine finds a connection exactly when the Lee
// reference does. Bend counts are compared too: line expansion can
// exceed the true minimum occasionally because same-wave zones cut each
// other off (the paper concedes this in §5.8, "finds in most cases the
// paths with a minimum number of bends"), so the test asserts the Lee
// minimum is never beaten, is matched most of the time, and the
// aggregate inflation stays small.
func TestLineExpansionMatchesLee(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tested, matched := 0, 0
	totalLE, totalLee := 0, 0
	for iter := 0; iter < 200; iter++ {
		pl, a, b := randomPlane(rng)
		if pl == nil {
			continue
		}
		allDirs := []geom.Dir{geom.Left, geom.Right, geom.Up, geom.Down}
		target := func(q geom.Point) bool { return q == b }

		ls := newLineSearch(pl, 1, target, false, nil)
		leSegs, leOK := ls.run(terminalActives(a, allDirs))
		// The same search over a marked target set takes the final-wave
		// probe and sweep; it must find the identical path.
		marked := newLineSearch(pl, 1, target, false, nil)
		marked.setTargets([]geom.Point{b}, nil)
		if mSegs, mOK := marked.run(terminalActives(a, allDirs)); mOK != leOK || fmt.Sprint(mSegs) != fmt.Sprint(leSegs) {
			t.Fatalf("iter %d: marked search %v (ok=%v), predicate search %v (ok=%v)", iter, mSegs, mOK, leSegs, leOK)
		}

		leeSegs, leeOK := leeSearch(pl, 1, a, allDirs, target, BendsFirst, pl.Bounds, nil)

		if leOK != leeOK {
			t.Fatalf("iter %d: lineexp ok=%v, lee ok=%v (a=%v b=%v)", iter, leOK, leeOK, a, b)
		}
		if !leOK {
			continue
		}
		tested++
		lb, leeB := segBends(leSegs), segBends(leeSegs)
		if lb != leeB {
			t.Fatalf("iter %d: lineexp %d bends, Lee optimum %d (a=%v b=%v)\nlineexp=%v\nlee=%v",
				iter, lb, leeB, a, b, leSegs, leeSegs)
		}
		matched++
		totalLE += lb
		totalLee += leeB
		checkEndpoints(t, leSegs, a, b)
		checkLegalPath(t, pl, 1, leSegs)
		checkLegalPath(t, pl, 1, leeSegs)
	}
	if tested < 100 {
		t.Fatalf("only %d usable random planes", tested)
	}
	if matched != tested || totalLE != totalLee {
		t.Errorf("bend totals diverged: %d vs %d over %d runs", totalLE, totalLee, tested)
	}
}

func checkEndpoints(t *testing.T, segs []Segment, a, b geom.Point) {
	t.Helper()
	if len(segs) == 0 {
		t.Fatal("empty path")
	}
	first, last := segs[0].A, segs[len(segs)-1].B
	if !(first == a && last == b || first == b && last == a) {
		t.Fatalf("path endpoints %v,%v do not match terminals %v,%v", first, last, a, b)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].A != segs[i-1].B {
			t.Fatalf("path not contiguous at segment %d", i)
		}
	}
}

// checkLegalPath re-validates a found path against the plane rules.
func checkLegalPath(t *testing.T, pl *Plane, net int32, segs []Segment) {
	t.Helper()
	for _, s := range segs {
		if s.A.X != s.B.X && s.A.Y != s.B.Y {
			t.Fatalf("diagonal segment %v", s)
		}
		for _, p := range s.Points() {
			i := pl.idx(p)
			if pl.blocked[i] && pl.termNet[i] != net {
				t.Fatalf("path crosses obstacle at %v", p)
			}
			if s.Horizontal() && pl.hNet[i] != 0 && pl.hNet[i] != net {
				t.Fatalf("path overlaps horizontal wire at %v", p)
			}
			if !s.Horizontal() && pl.vNet[i] != 0 && pl.vNet[i] != net {
				t.Fatalf("path overlaps vertical wire at %v", p)
			}
		}
	}
}

func TestTerminalActives(t *testing.T) {
	p := geom.Pt(3, 7)
	as := terminalActives(p, []geom.Dir{geom.Up, geom.Left})
	if len(as) != 2 {
		t.Fatalf("%d actives", len(as))
	}
	up := as[0]
	if up.index != 7 || up.iv != geom.Iv(3, 3) || up.dir != geom.Up {
		t.Errorf("up active wrong: %+v", up)
	}
	left := as[1]
	if left.index != 3 || left.iv != geom.Iv(7, 7) || left.dir != geom.Left {
		t.Errorf("left active wrong: %+v", left)
	}
	if up.pt(3, 8) != geom.Pt(3, 8) {
		t.Errorf("up.pt wrong")
	}
	if left.pt(7, 2) != geom.Pt(2, 7) {
		t.Errorf("left.pt wrong")
	}
	if up.step() != 1 || left.step() != -1 {
		t.Errorf("steps wrong")
	}
}

func TestCleanSegments(t *testing.T) {
	segs := []Segment{
		{geom.Pt(0, 0), geom.Pt(3, 0)},
		{geom.Pt(3, 0), geom.Pt(3, 0)}, // degenerate
		{geom.Pt(3, 0), geom.Pt(5, 0)}, // collinear with first
		{geom.Pt(5, 0), geom.Pt(5, 4)},
	}
	got := cleanSegments(segs)
	want := []Segment{
		{geom.Pt(0, 0), geom.Pt(5, 0)},
		{geom.Pt(5, 0), geom.Pt(5, 4)},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("segment %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSegmentHelpers(t *testing.T) {
	s := Segment{geom.Pt(5, 2), geom.Pt(1, 2)}
	if !s.Horizontal() || s.Len() != 4 {
		t.Error("Horizontal/Len wrong")
	}
	c := s.Canon()
	if c.A != geom.Pt(1, 2) || c.B != geom.Pt(5, 2) {
		t.Errorf("Canon = %v", c)
	}
	pts := s.Points()
	if len(pts) != 5 || pts[0] != geom.Pt(5, 2) || pts[4] != geom.Pt(1, 2) {
		t.Errorf("Points = %v", pts)
	}
	v := Segment{geom.Pt(0, 0), geom.Pt(0, 3)}
	if v.Horizontal() {
		t.Error("vertical segment reported horizontal")
	}
}

func TestCrossingCountsInObjective(t *testing.T) {
	// Two same-bend candidate channels; one requires crossing a foreign
	// wire. The router must take the crossing-free one under the
	// default objective.
	pl := NewPlane(geom.R(0, 0, 20, 20))
	// Foreign vertical wire cutting the lower channel.
	if err := pl.LayWire(9, []Segment{{geom.Pt(10, 0), geom.Pt(10, 8)}}); err != nil {
		t.Fatal(err)
	}
	// Wall forcing the path to pick row 4 (crossing) or row 12 (free).
	pl.BlockRect(geom.Pt(4, 5), geom.Pt(16, 10))
	a, b := geom.Pt(2, 4), geom.Pt(18, 4)
	_ = pl.SetTerminal(a, 1)
	_ = pl.SetTerminal(b, 1)

	ls := newLineSearch(pl, 1, func(q geom.Point) bool { return q == b }, false, nil)
	segs, ok := ls.run(terminalActives(a, []geom.Dir{geom.Right}))
	if !ok {
		t.Fatal("no path found")
	}
	// Straight along row 4 crosses the foreign wire once with 0 bends;
	// that is minimal-bend and must win despite the crossing (bends
	// dominate crossings).
	if got := segBends(segs); got != 0 {
		t.Errorf("%d bends, want 0: %v", got, segs)
	}
	crossings := 0
	for _, s := range segs {
		for _, p := range s.Points() {
			if s.Horizontal() && pl.VNet(p) == 9 {
				crossings++
			}
		}
	}
	if crossings != 1 {
		t.Errorf("%d crossings, want 1", crossings)
	}
}

func TestFewerCrossingsPreferredAtEqualBends(t *testing.T) {
	// Joining an own-net wire: every column of the same wave reaches the
	// target wire with one bend, but columns right of the foreign
	// vertical wire pay a crossing. The engine must join at the
	// crossing-free column.
	pl := NewPlane(geom.R(0, 0, 20, 20))
	// The net's own existing wire along row 10.
	if err := pl.LayWire(1, []Segment{{geom.Pt(0, 10), geom.Pt(20, 10)}}); err != nil {
		t.Fatal(err)
	}
	// Foreign vertical wire at x=6 cutting rows 0..9.
	if err := pl.LayWire(9, []Segment{{geom.Pt(6, 0), geom.Pt(6, 9)}}); err != nil {
		t.Fatal(err)
	}
	a := geom.Pt(4, 2)
	_ = pl.SetTerminal(a, 1)
	target := func(q geom.Point) bool { return pl.HNet(q) == 1 || pl.VNet(q) == 1 }
	ls := newLineSearch(pl, 1, target, false, nil)
	segs, ok := ls.run(terminalActives(a, []geom.Dir{geom.Right}))
	if !ok {
		t.Fatal("no path")
	}
	if got := segBends(segs); got != 1 {
		t.Fatalf("%d bends, want 1: %v", got, segs)
	}
	// The vertical run must be at x=5: right of the source (one step),
	// left of the foreign wire (no crossing). Joining further right
	// would cost a crossing; the engine prefers zero.
	for _, s := range segs {
		if !s.Horizontal() && s.A.X != 5 {
			t.Errorf("joined at column %d, want 5 (crossing-free): %v", s.A.X, segs)
		}
	}
	// And under -s (length first) the shortest join is the same column
	// here, so it must also succeed.
	ls2 := newLineSearch(pl, 1, target, true, nil)
	if _, ok := ls2.run(terminalActives(a, []geom.Dir{geom.Right})); !ok {
		t.Error("swap objective failed")
	}
}
