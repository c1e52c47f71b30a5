package gen_test

import (
	"context"
	"testing"

	"netart/internal/gen"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/sim"
	"netart/internal/workload"
)

// TestEndToEndRandomProperty is the system-level invariant sweep: for a
// spread of random networks and knob settings, the full pipeline
// (partition → box → place → route) must produce diagrams that pass
// both the structural verifier and the artwork connectivity extraction
// — shorts, opens, overlaps or module collisions anywhere in the stack
// fail here.
func TestEndToEndRandomProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	type knob struct {
		p, b, s int
		placer  gen.Placer
	}
	knobs := []knob{
		{1, 1, 0, gen.PlacePaper},
		{4, 3, 0, gen.PlacePaper},
		{7, 5, 1, gen.PlacePaper},
		{5, 3, 0, gen.PlaceEpitaxial},
		{5, 3, 0, gen.PlaceMinCut},
		{5, 3, 0, gen.PlaceLogicColumns},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, k := range knobs {
			d := workload.Random(10, seed)
			rep, err := gen.Run(context.Background(), d, gen.Options{
				Placer: k.placer,
				Place:  place.Options{PartSize: k.p, BoxSize: k.b, ModSpacing: k.s},
				Route:  route.Options{Claimpoints: true},
			})
			if err != nil {
				t.Fatalf("seed %d placer %v p%d b%d: %v", seed, k.placer, k.p, k.b, err)
			}
			dg := rep.Diagram
			if err := dg.Verify(); err != nil {
				t.Errorf("seed %d placer %v p%d b%d: verify: %v", seed, k.placer, k.p, k.b, err)
				continue
			}
			// Extraction only checks fully routed nets.
			if err := sim.CheckExtraction(dg); err != nil {
				t.Errorf("seed %d placer %v p%d b%d: extract: %v", seed, k.placer, k.p, k.b, err)
			}
		}
	}
}

// TestExperimentDiagramsAllVerify runs every §6 experiment through the
// verifier and the artwork extraction.
func TestExperimentDiagramsAllVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is expensive")
	}
	for _, e := range gen.Experiments() {
		_, dg, err := gen.RunExperiment(e)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if err := dg.Verify(); err != nil {
			t.Errorf("%s: verify: %v", e.ID, err)
		}
		if err := sim.CheckExtraction(dg); err != nil {
			t.Errorf("%s: extract: %v", e.ID, err)
		}
	}
}

// TestCPUWorkloadGenerates runs the additional accumulator-CPU workload
// through the full pipeline with several knob settings.
func TestCPUWorkloadGenerates(t *testing.T) {
	for _, po := range []place.Options{
		{PartSize: 5, BoxSize: 4},
		{PartSize: 8, BoxSize: 5, ModSpacing: 1},
	} {
		d := workload.CPU()
		rep, err := gen.Run(context.Background(), d, gen.Options{
			Place: po,
			Route: route.Options{Claimpoints: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		dg := rep.Diagram
		if err := dg.Verify(); err != nil {
			t.Fatalf("p=%d: %v", po.PartSize, err)
		}
		if err := sim.CheckExtraction(dg); err != nil {
			t.Fatalf("p=%d: %v", po.PartSize, err)
		}
		if got := dg.Metrics().Unrouted; got > 2 {
			t.Errorf("p=%d: %d unrouted nets on the CPU workload", po.PartSize, got)
		}
	}
}
