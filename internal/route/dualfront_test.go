package route

import (
	"math/rand"
	"testing"

	"netart/internal/geom"
	"netart/internal/place"
	"netart/internal/workload"
)

// TestDualFrontMatchesSingleFront checks the §5.5.3 dual-front
// initiation against the single-front engine on random planes: identical
// solvability and identical minimum bend counts, with legal contiguous
// paths.
func TestDualFrontMatchesSingleFront(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tested := 0
	var stats SearchStats
	for iter := 0; iter < 200; iter++ {
		pl, a, b := randomPlane(rng)
		if pl == nil {
			continue
		}
		allDirs := []geom.Dir{geom.Left, geom.Right, geom.Up, geom.Down}

		single := newLineSearch(pl, 1, false, nil)
		single.setTargets([]geom.Point{b}, nil)
		sSegs, sOK := single.run(terminalActives(a, allDirs))

		dSegs, dOK := dualSearch(pl, 1, a, allDirs, b, allDirs, false, &stats, nil)

		if sOK != dOK {
			t.Fatalf("iter %d: single ok=%v dual ok=%v (a=%v b=%v)", iter, sOK, dOK, a, b)
		}
		if !sOK {
			continue
		}
		tested++
		sb, db := segBends(sSegs), segBends(dSegs)
		if db != sb {
			t.Fatalf("iter %d: dual %d bends, single %d (a=%v b=%v)\ndual=%v\nsingle=%v",
				iter, db, sb, a, b, dSegs, sSegs)
		}
		checkEndpoints(t, dSegs, a, b)
		checkLegalPath(t, pl, 1, dSegs)
	}
	if tested < 100 {
		t.Fatalf("only %d usable planes", tested)
	}
	if stats.Cells == 0 {
		t.Error("dual-front stats not recorded")
	}
}

func TestDualFrontRouteOption(t *testing.T) {
	// End-to-end with DualFront on: same completion as the default on
	// the §6 workloads.
	for _, mk := range []struct {
		name string
		opts place.Options
	}{
		{"fig61", place.Options{PartSize: 6, BoxSize: 6}},
		{"datapath", place.Options{PartSize: 7, BoxSize: 5}},
	} {
		d := workload.Fig61()
		if mk.name == "datapath" {
			d = workload.Datapath16()
		}
		pr, err := place.Place(d, mk.opts)
		if err != nil {
			t.Fatal(err)
		}
		res := mustRoute(t, pr, Options{Claimpoints: true, DualFront: true})
		if got := res.UnroutedCount(); got != 0 {
			t.Errorf("%s: %d unrouted with dual front", mk.name, got)
		}
		for _, rn := range res.Nets {
			if rn.OK() && rn.Net.Degree() >= 2 {
				assertTreeConnectsTerminals(t, res, rn)
			}
		}
	}
}

func TestDualFrontSearchesLess(t *testing.T) {
	// On a long empty-plane connection the dual front must sweep fewer
	// cells than a single front that expands every wave in full, the
	// loop both fronts run. The production single front, with its
	// final-wave reach sweep and penultimate-wave cut, sweeps fewer
	// cells than the dual front here (221 against 413); ROADMAP.md
	// tracks whether dual-front stays.
	mkPlane := func() (*Plane, geom.Point, geom.Point) {
		pl := NewPlane(geom.R(0, 0, 120, 120))
		a, b := geom.Pt(5, 60), geom.Pt(115, 61)
		_ = pl.SetTerminal(a, 1)
		_ = pl.SetTerminal(b, 1)
		return pl, a, b
	}
	allDirs := []geom.Dir{geom.Left, geom.Right, geom.Up, geom.Down}

	pl1, a1, b1 := mkPlane()
	var sStats SearchStats
	single := newLineSearch(pl1, 1, false, nil)
	single.setTargets([]geom.Point{b1}, nil)
	single.stats = &sStats
	// referenceRun is the unprobed loop: no final-wave reach sweep.
	if _, ok := referenceRun(single, terminalActives(a1, allDirs)); !ok {
		t.Fatal("single failed")
	}

	pl2, a2, b2 := mkPlane()
	var dStats SearchStats
	if _, ok := dualSearch(pl2, 1, a2, allDirs, b2, allDirs, false, &dStats, nil); !ok {
		t.Fatal("dual failed")
	}
	if dStats.Cells >= sStats.Cells {
		t.Errorf("dual front swept %d cells, single %d; expected a reduction",
			dStats.Cells, sStats.Cells)
	}
}
