package gen

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/workload"
)

// This file is the rendered-output half of the determinism battery:
// the full pipeline — placement, routing, schematic build, ASCII and
// SVG rendering — run by several goroutines at once must produce
// byte-identical artwork on every run. The router-internal half
// (segments, plane cells, stats) lives in internal/route/parallel_test.go;
// this half proves no divergence, and under -race no shared write,
// hides in the layers above the router.

// render runs the pipeline and returns the ASCII and SVG bytes.
func render(build func() *netlist.Design, opts Options) (string, string, error) {
	rep, err := Run(context.Background(), build(), opts)
	if err != nil {
		return "", "", err
	}
	// Every battery run also passes the geometry-level equivalence
	// check: the wires must realize the netlist, not just match the
	// other runs' wires.
	if err := route.VerifyEquivalence(rep.Routing); err != nil {
		return "", "", err
	}
	var svg strings.Builder
	if err := rep.Diagram.WriteSVG(&svg); err != nil {
		return "", "", err
	}
	return rep.Diagram.ASCII(), svg.String(), nil
}

// renderBatteryRuns is how many pipeline runs render a case at once.
const renderBatteryRuns = 4

// assertConcurrentRendersMatch renders the design once, then from
// renderBatteryRuns goroutines at once, and requires every concurrent
// rendering to be byte-identical to the first.
func assertConcurrentRendersMatch(t *testing.T, build func() *netlist.Design, opts Options) {
	t.Helper()
	wantASCII, wantSVG, err := render(build, opts)
	if err != nil {
		t.Fatal(err)
	}
	type rendering struct {
		ascii, svg string
		err        error
	}
	runs := make([]rendering, renderBatteryRuns)
	var wg sync.WaitGroup
	for g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &runs[g]
			r.ascii, r.svg, r.err = render(build, opts)
		}()
	}
	wg.Wait()
	for g, r := range runs {
		switch {
		case r.err != nil:
			t.Errorf("run %d: %v", g, r.err)
		case r.ascii != wantASCII:
			t.Errorf("run %d: ASCII rendering diverges", g)
		case r.svg != wantSVG:
			t.Errorf("run %d: SVG rendering diverges", g)
		}
	}
}

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
			assertConcurrentRendersMatch(t, tc.build, tc.opts)
		})
	}
}

// TestRenderedOutputDeterministicSeeded runs the battery over seeded
// random designs.
func TestRenderedOutputDeterministicSeeded(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *netlist.Design { return workload.Random(12, seed) }
			opts := Options{Place: place.Options{PartSize: 4, BoxSize: 2},
				Route: route.Options{Claimpoints: true}}
			assertConcurrentRendersMatch(t, build, opts)
		})
	}
}
