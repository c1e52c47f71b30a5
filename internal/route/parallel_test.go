package route

import (
	"fmt"
	"sync"
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/workload"
)

// This file is the router half of the determinism battery. Each case
// places its design once, routes that placement sequentially, and then
// routes the same placement from batteryRoutes goroutines at once:
// every concurrent result must equal the sequential one — same
// segments, same failures, same plane cell state, same search
// statistics. The degradation ladder (internal/gen) reuses one
// placement across its routing attempts, so under -race this proves the
// router writes nothing it shares with another route. The
// rendered-output half (ASCII + SVG byte equality through the full
// pipeline) lives in internal/gen.

// assertSameResult compares every observable field of two routing
// results.
func assertSameResult(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if want.Stats != got.Stats {
		t.Errorf("%s: stats diverge:\n  want %+v\n  got  %+v", tag, want.Stats, got.Stats)
	}
	assertSameArtwork(t, tag, want, got)
}

// assertSameArtwork compares the routed artwork — wire geometry, plane
// cell state, failures — but not the search statistics: the final-wave
// sweep and the reference loop visit different cell counts on the way
// to the same result.
func assertSameArtwork(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if !want.Plane.Equal(got.Plane) {
		t.Errorf("%s: plane cell state diverges", tag)
	}
	if want.UnroutedCount() != got.UnroutedCount() {
		t.Errorf("%s: unrouted %d (want) vs %d (got)", tag, want.UnroutedCount(), got.UnroutedCount())
	}
	if len(want.Nets) != len(got.Nets) {
		t.Fatalf("%s: net count %d vs %d", tag, len(want.Nets), len(got.Nets))
	}
	for i := range want.Nets {
		wn, gn := want.Nets[i], got.Nets[i]
		if wn.Net.Name != gn.Net.Name {
			t.Fatalf("%s: net order diverges at %d: %s vs %s", tag, i, wn.Net.Name, gn.Net.Name)
		}
		if len(wn.Segments) != len(gn.Segments) {
			t.Errorf("%s: net %s: %d vs %d segments", tag, wn.Net.Name, len(wn.Segments), len(gn.Segments))
			continue
		}
		for j := range wn.Segments {
			if wn.Segments[j] != gn.Segments[j] {
				t.Errorf("%s: net %s: segment %d %v vs %v", tag, wn.Net.Name, j, wn.Segments[j], gn.Segments[j])
				break
			}
		}
		if len(wn.Failed) != len(gn.Failed) {
			t.Errorf("%s: net %s: %d vs %d failed terminals", tag, wn.Net.Name, len(wn.Failed), len(gn.Failed))
			continue
		}
		for j := range wn.Failed {
			if wn.Failed[j].Label() != gn.Failed[j].Label() {
				t.Errorf("%s: net %s: failed terminal %d %s vs %s",
					tag, wn.Net.Name, j, wn.Failed[j].Label(), gn.Failed[j].Label())
			}
		}
	}
}

// routeFresh builds the design and placement from scratch and routes
// it, so two runs share no structure.
func routeFresh(t *testing.T, build func() *netlist.Design, po place.Options, ro Options) *Result {
	t.Helper()
	pr, err := place.Place(build(), po)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(pr, ro)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// batteryRoutes is how many goroutines route the shared placement at
// once.
const batteryRoutes = 4

// assertConcurrentMatchesSequential places the design once, routes the
// placement sequentially, then routes the same placement from
// batteryRoutes goroutines at once and requires each result to match.
func assertConcurrentMatchesSequential(t *testing.T, tag string, build func() *netlist.Design, po place.Options, ro Options) {
	t.Helper()
	pr, err := place.Place(build(), po)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Route(pr, ro)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, batteryRoutes)
	errs := make([]error, batteryRoutes)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = Route(pr, ro)
		}()
	}
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("%s route %d: %v", tag, g, errs[g])
		}
		assertSameResult(t, fmt.Sprintf("%s route %d", tag, g), seq, res)
	}
}

// batteryOrders spans the determinism matrix's net orderings.
var batteryOrders = []struct {
	name     string
	shortest bool
}{
	{"design", false},
	{"shortest", true},
}

func TestParallelMatchesSequentialWorkloads(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		po    place.Options
		slow  bool
	}{
		{"fig61", workload.Fig61, place.Options{PartSize: 6, BoxSize: 6}, false},
		{"datapath", workload.Datapath16, place.Options{PartSize: 7, BoxSize: 5}, false},
		{"life", workload.Life27, place.Options{PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}, true},
	}
	for _, tc := range cases {
		for _, ord := range batteryOrders {
			t.Run(tc.name+"/"+ord.name, func(t *testing.T) {
				if tc.slow && testing.Short() {
					t.Skip("life battery skipped in -short mode")
				}
				ro := Options{Claimpoints: true, OrderShortestFirst: ord.shortest}
				assertConcurrentMatchesSequential(t, tc.name+"/"+ord.name, tc.build, tc.po, ro)
			})
		}
	}
}

// TestParallelMatchesSequentialOptionMatrix runs the battery under
// every router feature that interacts with the plane state: claimpoint
// release, shortest-first ordering, the objective swap and the Lee
// baseline.
func TestParallelMatchesSequentialOptionMatrix(t *testing.T) {
	variants := []struct {
		name string
		ro   Options
	}{
		{"plain", Options{}},
		{"claims", Options{Claimpoints: true}},
		{"shortest", Options{Claimpoints: true, OrderShortestFirst: true}},
		{"swap", Options{Claimpoints: true, SwapObjective: true}},
		{"lee", Options{Claimpoints: true, Algorithm: AlgoLee}},
	}
	po := place.Options{PartSize: 5, BoxSize: 1}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			assertConcurrentMatchesSequential(t, v.name, workload.Datapath16, po, v.ro)
		})
	}
}

// TestParallelMatchesSequentialSeeded runs the battery over 20 seeded
// random designs (the internal/workload generator).
func TestParallelMatchesSequentialSeeded(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *netlist.Design { return workload.Random(12, seed) }
			po := place.Options{PartSize: 4, BoxSize: 2}
			assertConcurrentMatchesSequential(t, fmt.Sprintf("seed%d", seed), build, po, Options{Claimpoints: true})
		})
	}
}
