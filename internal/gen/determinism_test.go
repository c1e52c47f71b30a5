package gen

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/workload"
)

// This file is the rendered-output half of the determinism battery:
// the full pipeline — placement, parallel routing, schematic build,
// ASCII and SVG rendering — must produce byte-identical artwork for
// every worker count. The router-internal half (segments, plane cells,
// stats) lives in internal/route/parallel_test.go; this half proves no
// divergence hides in the layers above the router.

// renderPair runs the pipeline and returns the ASCII and SVG bytes.
func renderPair(t *testing.T, build func() *netlist.Design, opts Options) (string, string) {
	t.Helper()
	rep, err := Run(context.Background(), build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every battery run also passes the geometry-level equivalence
	// check: the wires must realize the netlist, not just match the
	// sequential wires.
	if err := route.VerifyEquivalence(rep.Routing); err != nil {
		t.Fatal(err)
	}
	var svg strings.Builder
	if err := rep.Diagram.WriteSVG(&svg); err != nil {
		t.Fatal(err)
	}
	return rep.Diagram.ASCII(), svg.String()
}

var renderBatteryWorkers = []int{2, 4, 8}

func TestRenderedOutputDeterministicWorkloads(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		opts  Options
		slow  bool
	}{
		{"fig61", workload.Fig61,
			Options{Place: place.Options{PartSize: 6, BoxSize: 6},
				Route: route.Options{Claimpoints: true}}, false},
		{"datapath", workload.Datapath16, DefaultOptions(), false},
		{"life", workload.Life27,
			Options{Place: place.Options{PartSize: 5, BoxSize: 5,
				ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3},
				Route: route.Options{Claimpoints: true}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("life battery skipped in -short mode")
			}
			seqASCII, seqSVG := renderPair(t, tc.build, tc.opts)
			for _, w := range renderBatteryWorkers {
				po := tc.opts
				po.RouteWorkers = w
				parASCII, parSVG := renderPair(t, tc.build, po)
				if parASCII != seqASCII {
					t.Errorf("workers=%d: ASCII rendering diverges from sequential", w)
				}
				if parSVG != seqSVG {
					t.Errorf("workers=%d: SVG rendering diverges from sequential", w)
				}
			}
		})
	}
}

// TestRenderedOutputDeterministicSeeded sweeps seeded random designs
// through the full pipeline at every battery worker count.
func TestRenderedOutputDeterministicSeeded(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *netlist.Design { return workload.Random(12, seed) }
			opts := Options{Place: place.Options{PartSize: 4, BoxSize: 2},
				Route: route.Options{Claimpoints: true}}
			seqASCII, seqSVG := renderPair(t, build, opts)
			for _, w := range renderBatteryWorkers {
				po := opts
				po.RouteWorkers = w
				parASCII, parSVG := renderPair(t, build, po)
				if parASCII != seqASCII || parSVG != seqSVG {
					t.Errorf("workers=%d: rendered output diverges from sequential", w)
				}
			}
		})
	}
}

// TestRouteWorkersReachesLadder asserts the RouteWorkers option really
// reaches the router (speculation stats appear) and that the
// degradation ladder inherits it on every rung.
func TestRouteWorkersReachesLadder(t *testing.T) {
	opts := DefaultOptions()
	opts.RouteWorkers = 4
	rep, err := Run(context.Background(), workload.Datapath16(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ss := rep.Routing.Speculation
	if ss == nil {
		t.Fatal("RouteWorkers=4 produced no speculation stats")
	}
	if ss.Workers < 2 {
		t.Fatalf("speculation ran with %d workers", ss.Workers)
	}
	// Explicit Route.Workers wins over the pipeline-level knob.
	opts2 := DefaultOptions()
	opts2.RouteWorkers = 4
	opts2.Route.Workers = 1
	rep2, err := Run(context.Background(), workload.Datapath16(), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Routing.Speculation != nil {
		t.Fatal("Route.Workers=1 override did not force sequential routing")
	}
}
