package route

import (
	"fmt"
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/workload"
)

// This file is the router half of the determinism battery: the
// parallel speculation scheduler must produce results byte-identical
// to the sequential router — same segments, same failures, same plane
// cell state, same search statistics — for every workload, seed and
// option combination. The rendered-output half (ASCII + SVG byte
// equality through the full pipeline) lives in internal/gen.

// assertSameResult compares every observable field of two routing
// results except the Speculation diagnostics block.
func assertSameResult(t *testing.T, tag string, seq, par *Result) {
	t.Helper()
	if seq.Stats != par.Stats {
		t.Errorf("%s: stats diverge:\n  seq %+v\n  par %+v", tag, seq.Stats, par.Stats)
	}
	assertSameArtwork(t, tag, seq, par)
}

// assertSameArtwork compares the routed artwork — wire geometry, plane
// cell state, failures — but not the search statistics: the final-wave
// sweep and the reference loop visit different cell counts on the way
// to the same result.
func assertSameArtwork(t *testing.T, tag string, seq, par *Result) {
	t.Helper()
	if !seq.Plane.Equal(par.Plane) {
		t.Errorf("%s: plane cell state diverges", tag)
	}
	if seq.UnroutedCount() != par.UnroutedCount() {
		t.Errorf("%s: unrouted %d (seq) vs %d (par)", tag, seq.UnroutedCount(), par.UnroutedCount())
	}
	if len(seq.Nets) != len(par.Nets) {
		t.Fatalf("%s: net count %d vs %d", tag, len(seq.Nets), len(par.Nets))
	}
	for i := range seq.Nets {
		sn, pn := seq.Nets[i], par.Nets[i]
		if sn.Net.Name != pn.Net.Name {
			t.Fatalf("%s: net order diverges at %d: %s vs %s", tag, i, sn.Net.Name, pn.Net.Name)
		}
		if len(sn.Segments) != len(pn.Segments) {
			t.Errorf("%s: net %s: %d vs %d segments", tag, sn.Net.Name, len(sn.Segments), len(pn.Segments))
			continue
		}
		for j := range sn.Segments {
			if sn.Segments[j] != pn.Segments[j] {
				t.Errorf("%s: net %s: segment %d %v vs %v", tag, sn.Net.Name, j, sn.Segments[j], pn.Segments[j])
				break
			}
		}
		if len(sn.Failed) != len(pn.Failed) {
			t.Errorf("%s: net %s: %d vs %d failed terminals", tag, sn.Net.Name, len(sn.Failed), len(pn.Failed))
			continue
		}
		for j := range sn.Failed {
			if sn.Failed[j].Label() != pn.Failed[j].Label() {
				t.Errorf("%s: net %s: failed terminal %d %s vs %s",
					tag, sn.Net.Name, j, sn.Failed[j].Label(), pn.Failed[j].Label())
			}
		}
	}
}

// routeFresh builds the design and placement from scratch and routes
// it: each run must be fully independent so parallel runs cannot see
// sequential state through shared structures.
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

var batteryWorkers = []int{2, 4, 8}

// batteryOrders spans the determinism matrix's net orderings, each run
// at worker counts {1 (the sequential baseline), 2, 4, 8}.
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
				seq := routeFresh(t, tc.build, tc.po, ro)
				for _, w := range batteryWorkers {
					pro := ro
					pro.Workers = w
					par := routeFresh(t, tc.build, tc.po, pro)
					if par.Speculation == nil {
						t.Fatalf("workers=%d: no speculation stats on parallel result", w)
					}
					assertSameResult(t, fmt.Sprintf("%s/%s workers=%d", tc.name, ord.name, w), seq, par)
				}
			})
		}
	}
}

// TestParallelMatchesSequentialOptionMatrix exercises the scheduler
// under every router feature that interacts with the plane state:
// claimpoint release, shortest-first ordering, the rip-up pass, the
// dual-front engine and the Lee baseline.
func TestParallelMatchesSequentialOptionMatrix(t *testing.T) {
	variants := []struct {
		name string
		ro   Options
	}{
		{"plain", Options{}},
		{"claims", Options{Claimpoints: true}},
		{"shortest", Options{Claimpoints: true, OrderShortestFirst: true}},
		{"ripup", Options{Claimpoints: true, RipUp: true}},
		{"dualfront", Options{Claimpoints: true, DualFront: true}},
		{"swap", Options{Claimpoints: true, SwapObjective: true}},
		{"lee", Options{Claimpoints: true, Algorithm: AlgoLee}},
	}
	po := place.Options{PartSize: 5, BoxSize: 1}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			seq := routeFresh(t, workload.Datapath16, po, v.ro)
			for _, w := range batteryWorkers {
				pro := v.ro
				pro.Workers = w
				par := routeFresh(t, workload.Datapath16, po, pro)
				assertSameResult(t, fmt.Sprintf("%s workers=%d", v.name, w), seq, par)
			}
		})
	}
}

// TestParallelMatchesSequentialSeeded routes 20 seeded random designs
// (the internal/workload generator) at every battery worker count.
func TestParallelMatchesSequentialSeeded(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *netlist.Design { return workload.Random(12, seed) }
			po := place.Options{PartSize: 4, BoxSize: 2}
			ro := Options{Claimpoints: true}
			seq := routeFresh(t, build, po, ro)
			for _, w := range batteryWorkers {
				pro := ro
				pro.Workers = w
				par := routeFresh(t, build, po, pro)
				assertSameResult(t, fmt.Sprintf("seed%d workers=%d", seed, w), seq, par)
			}
		})
	}
}

// TestParallelWorkerClamp: more workers than nets must clamp and still
// work (including the degenerate one-net design).
func TestParallelWorkerClamp(t *testing.T) {
	build := func() *netlist.Design { return workload.Random(3, 7) }
	po := place.Options{PartSize: 2, BoxSize: 1}
	seq := routeFresh(t, build, po, Options{Claimpoints: true})
	par := routeFresh(t, build, po, Options{Claimpoints: true, Workers: 64})
	assertSameResult(t, "clamp", seq, par)
	if par.Speculation.Workers > len(par.Nets) {
		t.Errorf("workers not clamped: %d workers for %d nets", par.Speculation.Workers, len(par.Nets))
	}
}

// TestParallelSpeculationAccounting: the scheduler's books must
// balance — every net is either a validated speculation or a requeue.
func TestParallelSpeculationAccounting(t *testing.T) {
	par := routeFresh(t, workload.Datapath16, place.Options{PartSize: 7, BoxSize: 5},
		Options{Claimpoints: true, Workers: 4})
	ss := par.Speculation
	if ss == nil {
		t.Fatal("no speculation stats")
	}
	if ss.Hits+ss.Misses != ss.Speculated {
		t.Errorf("hits %d + misses %d != speculated %d", ss.Hits, ss.Misses, ss.Speculated)
	}
	if ss.Misses != ss.Requeues {
		t.Errorf("misses %d != requeues %d under inline re-route", ss.Misses, ss.Requeues)
	}
	if ss.Hits+ss.Requeues != len(par.Nets) {
		t.Errorf("hits %d + requeues %d != %d nets", ss.Hits, ss.Requeues, len(par.Nets))
	}
	nets := 0
	for _, n := range ss.WorkerNets {
		nets += n
	}
	if nets != ss.Speculated {
		t.Errorf("per-worker nets %d != speculated %d", nets, ss.Speculated)
	}
}
