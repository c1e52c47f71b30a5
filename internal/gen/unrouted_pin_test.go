package gen

import (
	"context"
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/workload"
)

// This file pins the expected unrouted-net count of every built-in
// workload under its canonical options, so routing regressions (or
// silent improvements that should be celebrated and re-pinned) fail
// loudly instead of drifting.
//
// Under the benched shortest-first default every workload routes
// completely — including LIFE, whose long observer net obs7 strands
// under the paper's design order (the bin nets that route before it
// fence off the channel it needs; shorter-first packing leaves it
// room). That historical failure is not papered over: the design-order
// legacy pin below keeps obs7 as the one documented casualty, matching
// the regime the paper itself reports (2 of 222 nets initially
// unroutable on LIFE, §6 figure 6.6).

func unroutedCount(t *testing.T, build func() *netlist.Design, opts Options) (int, []string) {
	t.Helper()
	rep, err := Run(context.Background(), build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, rn := range rep.Routing.Nets {
		if !rn.OK() {
			names = append(names, rn.Net.Name)
		}
	}
	return rep.Routing.UnroutedCount(), names
}

// lifeFig67Options are the figure 6.7 spacings the dense LIFE fabric
// needs (shared with BenchmarkRouteGate's cold routes), under the
// benched shortest-first ordering default.
func lifeFig67Options() Options {
	return Options{
		Place: place.Options{PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3},
		Route: route.Options{Claimpoints: true, OrderShortestFirst: true},
	}
}

func TestPinnedUnroutedCounts(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		opts  Options
		want  int
		nets  []string // expected unrouted net names, when pinned
		slow  bool
	}{
		{"fig61", workload.Fig61, DefaultOptions(), 0, nil, false},
		{"datapath", workload.Datapath16, DefaultOptions(), 0, nil, false},
		{"cpu", workload.CPU, DefaultOptions(), 0, nil, false},
		{"life_fig67", workload.Life27, lifeFig67Options(), 0, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("life pin skipped in -short mode")
			}
			got, names := unroutedCount(t, tc.build, tc.opts)
			if got != tc.want {
				t.Fatalf("%s: %d unrouted nets %v, pinned %d %v",
					tc.name, got, names, tc.want, tc.nets)
			}
			for i, n := range tc.nets {
				if i >= len(names) || names[i] != n {
					t.Fatalf("%s: unrouted nets %v, pinned %v", tc.name, names, tc.nets)
				}
			}
		})
	}
}

// TestLifeDesignOrderLegacyPin keeps the paper's design-order result
// on the books: LIFE under figure 6.7 options with -route-order=design
// leaves exactly one net unrouted — obs7, an ordering casualty, not a
// capacity limit. If this ever changes, the ordering default's benched
// rationale (and the pin above) need re-examination together.
func TestLifeDesignOrderLegacyPin(t *testing.T) {
	if testing.Short() {
		t.Skip("life routing skipped in -short mode")
	}
	opts := lifeFig67Options()
	opts.Route.OrderShortestFirst = false
	got, names := unroutedCount(t, workload.Life27, opts)
	if got != 1 || len(names) != 1 || names[0] != "obs7" {
		t.Fatalf("design-order life: %d unrouted %v, pinned 1 [obs7]", got, names)
	}
}
