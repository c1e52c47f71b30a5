package route

import (
	"testing"

	"netart/internal/geom"
	"netart/internal/place"
	"netart/internal/workload"
)

func TestHightowerStraight(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 20, 20))
	a, b := geom.Pt(2, 5), geom.Pt(15, 5)
	_ = pl.SetTerminal(a, 1)
	_ = pl.SetTerminal(b, 1)
	segs, ok := hightowerSearch(pl, 1, a, b)
	if !ok {
		t.Fatal("straight connection not found")
	}
	if got := segBends(segs); got != 0 {
		t.Errorf("%d bends on a straight shot: %v", got, segs)
	}
	checkEndpoints(t, segs, a, b)
}

func TestHightowerLShape(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 20, 20))
	a, b := geom.Pt(2, 2), geom.Pt(15, 12)
	_ = pl.SetTerminal(a, 1)
	_ = pl.SetTerminal(b, 1)
	segs, ok := hightowerSearch(pl, 1, a, b)
	if !ok {
		t.Fatal("L connection not found")
	}
	if got := segBends(segs); got != 1 {
		t.Errorf("%d bends, Hightower should find the minimum-bend L: %v", got, segs)
	}
	checkLegalPath(t, pl, 1, segs)
}

func TestHightowerAroundObstacle(t *testing.T) {
	pl := NewPlane(geom.R(0, 0, 30, 30))
	pl.BlockRect(geom.Pt(10, 0), geom.Pt(12, 20))
	a, b := geom.Pt(2, 5), geom.Pt(25, 5)
	_ = pl.SetTerminal(a, 1)
	_ = pl.SetTerminal(b, 1)
	segs, ok := hightowerSearch(pl, 1, a, b)
	if !ok {
		t.Fatal("detour not found")
	}
	checkEndpoints(t, segs, a, b)
	checkLegalPath(t, pl, 1, segs)
}

func TestHightowerCanFail(t *testing.T) {
	// A walled-in target: failure must be reported, not looped.
	pl := NewPlane(geom.R(0, 0, 20, 20))
	pl.BlockRect(geom.Pt(8, 8), geom.Pt(16, 10))
	pl.BlockRect(geom.Pt(8, 10), geom.Pt(10, 16))
	pl.BlockRect(geom.Pt(8, 16), geom.Pt(16, 18))
	pl.BlockRect(geom.Pt(16, 8), geom.Pt(18, 18)) // pocket sealed
	a, b := geom.Pt(2, 2), geom.Pt(12, 12)
	_ = pl.SetTerminal(a, 1)
	_ = pl.SetTerminal(b, 1)
	if _, ok := hightowerSearch(pl, 1, a, b); ok {
		t.Error("found a path into a sealed pocket")
	}
}

func TestLeeLengthObjective(t *testing.T) {
	// Classic Lee minimizes length even at the cost of bends.
	pl := NewPlane(geom.R(0, 0, 30, 30))
	a, b := geom.Pt(2, 2), geom.Pt(20, 10)
	_ = pl.SetTerminal(a, 1)
	_ = pl.SetTerminal(b, 1)
	dirs := []geom.Dir{geom.Left, geom.Right, geom.Up, geom.Down}
	segs, ok := leeSearch(pl, 1, a, dirs, func(q geom.Point) bool { return q == b }, LengthFirst, pl.Bounds, nil)
	if !ok {
		t.Fatal("no path")
	}
	if got := totalLen(segs); got != a.Manhattan(b) {
		t.Errorf("length %d, want the Manhattan optimum %d", got, a.Manhattan(b))
	}
}

func TestRouteWithBaselineAlgorithms(t *testing.T) {
	for _, algo := range []Algo{AlgoLee, AlgoLeeLength, AlgoHightower} {
		d := workload.Fig61()
		pr, err := place.Place(d, place.Options{PartSize: 6, BoxSize: 6})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Route(pr, Options{Algorithm: algo, Claimpoints: true})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		// On the simple string network every engine should succeed.
		if got := res.UnroutedCount(); got != 0 {
			t.Errorf("%v: %d unrouted nets on fig 6.1", algo, got)
		}
	}
}

func TestAlgoString(t *testing.T) {
	for _, a := range []Algo{AlgoLineExpansion, AlgoLee, AlgoLeeLength, AlgoHightower, Algo(9)} {
		if a.String() == "" {
			t.Error("empty Algo string")
		}
	}
}

func TestBuildIntervals(t *testing.T) {
	pins := []ChannelPin{
		{X: 1, Net: 1, Top: true}, {X: 5, Net: 1},
		{X: 3, Net: 2, Top: true}, {X: 8, Net: 2}, {X: 6, Net: 2},
	}
	ivs, err := BuildIntervals(pins)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("%d intervals", len(ivs))
	}
	if ivs[0] != (ChannelInterval{1, 1, 5}) || ivs[1] != (ChannelInterval{2, 3, 8}) {
		t.Errorf("intervals: %+v", ivs)
	}
	if _, err := BuildIntervals([]ChannelPin{{X: 1, Net: 9}}); err == nil {
		t.Error("single-pin net accepted")
	}
}

func TestLeftEdgePacking(t *testing.T) {
	ivs := []ChannelInterval{
		{1, 0, 4}, {2, 5, 9}, {3, 2, 7}, {4, 8, 12}, {5, 10, 14},
	}
	tracks := LeftEdge(ivs)
	// Track 1: [0,4],[5,9],[10,14]; track 2: [2,7],[8,12].
	if len(tracks) != 2 {
		t.Fatalf("%d tracks, want 2: %+v", len(tracks), tracks)
	}
	if len(tracks[0]) != 3 || len(tracks[1]) != 2 {
		t.Errorf("track fill: %+v", tracks)
	}
	// No overlap within a track.
	for _, tr := range tracks {
		for i := 1; i < len(tr); i++ {
			if tr[i].Left <= tr[i-1].Right {
				t.Errorf("overlap in track: %+v", tr)
			}
		}
	}
	// All intervals assigned exactly once.
	n := 0
	for _, tr := range tracks {
		n += len(tr)
	}
	if n != len(ivs) {
		t.Errorf("%d of %d intervals assigned", n, len(ivs))
	}
}

func TestChannelDensityLowerBound(t *testing.T) {
	ivs := []ChannelInterval{{1, 0, 10}, {2, 2, 6}, {3, 4, 8}, {4, 12, 15}}
	if got := ChannelDensity(ivs); got != 3 {
		t.Errorf("density %d, want 3", got)
	}
	tracks := LeftEdge(ivs)
	if len(tracks) < 3 {
		t.Errorf("left edge used %d tracks, below density bound", len(tracks))
	}
}

func TestLeftEdgeNeverBelowDensity(t *testing.T) {
	// Property on deterministic pseudo-random instances.
	for seed := 0; seed < 20; seed++ {
		var ivs []ChannelInterval
		x := seed
		for n := 1; n <= 12; n++ {
			x = (x*1103515245 + 12345) & 0x7fffffff
			lo := x % 30
			x = (x*1103515245 + 12345) & 0x7fffffff
			w := 1 + x%10
			ivs = append(ivs, ChannelInterval{n, lo, lo + w})
		}
		tracks := LeftEdge(ivs)
		if len(tracks) < ChannelDensity(ivs) {
			t.Fatalf("seed %d: %d tracks below density %d", seed, len(tracks), ChannelDensity(ivs))
		}
		assigned := map[int]bool{}
		for _, tr := range tracks {
			for i, iv := range tr {
				if assigned[iv.Net] {
					t.Fatalf("net %d assigned twice", iv.Net)
				}
				assigned[iv.Net] = true
				if i > 0 && iv.Left <= tr[i-1].Right {
					t.Fatalf("seed %d: overlap in track", seed)
				}
			}
		}
		if len(assigned) != len(ivs) {
			t.Fatalf("seed %d: lost intervals", seed)
		}
	}
}
