package route

import (
	"fmt"
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/workload"
)

// This file is the windowed≡full battery. The solution wave of a
// line-expansion search is swept only through a window: the escape
// lines that cross the target box (lineexp.go run; DESIGN.md §5i).
// That is a pure performance device: the solution pool, and so the
// chosen path, must be the one a full sweep of every active finds.
// These tests route every built-in workload and seeded random designs
// twice — once with the production wave loop, once with referenceRun,
// which expands every active of every wave in full — across both net
// orderings, claimpoints on and off, and the -s objective swap, and
// require identical wire geometry, failures and search counters.

// referenceRun is the unpruned wave loop the final-wave sweep is checked
// against: every active of every wave is expanded in full, the solution
// wave included, and the solution pool is ranked once that wave is done.
func referenceRun(s *lineSearch, starts []*active) ([]Segment, bool) {
	if len(starts) == 0 {
		return nil, false
	}
	for _, a := range starts {
		for i := a.iv.Lo; i <= a.iv.Hi; i++ {
			if p := a.pt(i, a.index); s.pl.InBounds(p) {
				s.ar.markCovered(s.pl.idx(p), allDirBits)
			}
		}
	}
	wave := starts
	for bends := 0; len(wave) > 0; bends++ {
		s.stats.addWave()
		var next []*active
		for _, a := range wave {
			s.stats.addActive()
			next = s.expand(a, next)
		}
		if len(s.sols) > 0 {
			if s.stats != nil && bends > s.stats.MaxBends {
				s.stats.MaxBends = bends
			}
			return cleanSegments(s.best().segs), true
		}
		wave = next
	}
	return nil, false
}

// withReference runs f with every router search on referenceRun.
func withReference(f func()) {
	runSearch = referenceRun
	defer func() { runSearch = (*lineSearch).run }()
	f()
}

// assertMatchesReference routes the design with the reference loop and
// with the production loop and requires identical artwork and search
// counters, then machine-checks the result against the netlist and the
// routed plane's line boards against its arrays. Actives and Cells are
// exempt: they count the work the final-wave sweep saves.
func assertMatchesReference(t *testing.T, tag string, build func() *netlist.Design, po place.Options, ro Options) {
	t.Helper()
	var ref *Result
	withReference(func() { ref = routeFresh(t, build, po, ro) })
	got := routeFresh(t, build, po, ro)
	assertSameArtwork(t, tag, ref, got)
	assertLineBoards(t, tag, got.Plane)
	r, g := ref.Stats, got.Stats
	if r.Searches != g.Searches || r.Waves != g.Waves || r.MaxBends != g.MaxBends || r.RipUps != g.RipUps {
		t.Errorf("%s: search counters diverge:\n  reference %+v\n  final     %+v", tag, r, g)
	}
	if err := VerifyEquivalence(got); err != nil {
		t.Errorf("%s: result fails equivalence: %v", tag, err)
	}
}

// sweepVariants is the option matrix of the battery beyond ordering:
// claimpoints on/off × objective swap on/off.
var sweepVariants = []struct {
	name         string
	claims, swap bool
}{
	{"claims", true, false},
	{"claims+swap", true, true},
	{"noclaims", false, false},
	{"noclaims+swap", false, true},
}

// builtinCases are the built-in workloads at the placement options of
// their reference figures.
type builtinCase struct {
	name  string
	build func() *netlist.Design
	po    place.Options
	slow  bool
}

var builtinCases = []builtinCase{
	{"fig61", workload.Fig61, place.Options{PartSize: 6, BoxSize: 6}, false},
	{"quickstart", workload.Quickstart, place.Options{PartSize: 4, BoxSize: 4}, false},
	{"datapath", workload.Datapath16, place.Options{PartSize: 7, BoxSize: 5}, false},
	{"cpu", workload.CPU, place.Options{PartSize: 7, BoxSize: 5,
		ModSpacing: 1, BoxSpacing: 1}, false},
	{"chain", func() *netlist.Design { return workload.Chain(16) }, place.Options{PartSize: 7, BoxSize: 5}, false},
	{"life", workload.Life27, place.Options{PartSize: 5, BoxSize: 5,
		ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}, true},
}

func TestWindowedMatchesFullWorkloads(t *testing.T) {
	for _, tc := range builtinCases {
		for _, ord := range batteryOrders {
			t.Run(tc.name+"/"+ord.name, func(t *testing.T) {
				if tc.slow && testing.Short() {
					t.Skip("life battery skipped in -short mode")
				}
				for _, v := range sweepVariants {
					ro := Options{Claimpoints: v.claims, SwapObjective: v.swap, OrderShortestFirst: ord.shortest}
					assertMatchesReference(t, tc.name+"/"+ord.name+"/"+v.name, tc.build, tc.po, ro)
				}
			})
		}
	}
}

// TestWindowedMatchesFullSeeded drives the property over seeded random
// designs (the internal/workload generator).
func TestWindowedMatchesFullSeeded(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *netlist.Design { return workload.Random(12+int(seed%4)*8, seed) }
			po := place.Options{PartSize: 4, BoxSize: 2}
			for _, ord := range batteryOrders {
				for _, v := range sweepVariants {
					ro := Options{Claimpoints: v.claims, SwapObjective: v.swap, OrderShortestFirst: ord.shortest}
					assertMatchesReference(t, fmt.Sprintf("seed%d/%s/%s", seed, ord.name, v.name),
						build, po, ro)
				}
			}
		})
	}
}
