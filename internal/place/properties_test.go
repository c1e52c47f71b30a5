package place

import (
	"fmt"
	"testing"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/workload"
)

// The property battery: instead of comparing against pinned output,
// these tests re-derive the §4.6.4 invariants (white-space rule,
// input-terminal orientation, minimum-bend lemma) via VerifyBoxes on
// every named workload and a sweep of seeded random designs. A
// placement can only pass by actually satisfying the paper's
// construction, so the battery catches classes of bugs byte-comparison
// cannot (e.g. a placer and its reference that are identically wrong).

// placeVerified places the design and runs both verifiers.
func placeVerified(t *testing.T, d *netlist.Design, opts Options) *Result {
	t.Helper()
	res, err := Place(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyBoxes(opts); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBoxPropertiesWorkloads(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		opts  Options
	}{
		{"fig61", workload.Fig61, Options{PartSize: 6, BoxSize: 6}},
		{"quickstart", workload.Quickstart, Options{PartSize: 4, BoxSize: 4}},
		{"datapath", workload.Datapath16, Options{PartSize: 7, BoxSize: 5}},
		{"datapath-slack", workload.Datapath16, Options{PartSize: 7, BoxSize: 5, ModSpacing: 2}},
		{"cpu", workload.CPU, Options{PartSize: 7, BoxSize: 5, ModSpacing: 1, BoxSpacing: 1}},
		{"life", workload.Life27, Options{PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "life" && testing.Short() {
				t.Skip("life battery skipped in -short mode")
			}
			placeVerified(t, tc.build(), tc.opts)
		})
	}
}

// TestBoxPropertiesSeeded checks the invariants on random designs.
// BoxSize must be at least 2 so multi-module strings actually form.
func TestBoxPropertiesSeeded(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opts := Options{PartSize: 4, BoxSize: 3, ModSpacing: int(seed % 3)}
			res := placeVerified(t, workload.Random(12, seed), opts)
			// Strings must actually exercise the multi-module
			// invariants somewhere in the sweep: a corpus of singleton
			// boxes would vacuously pass.
			if seed == 0 && boxCount(res) == len(res.Design.Modules) {
				t.Log("all boxes are singletons for this seed")
			}
		})
	}
}

func boxCount(r *Result) int {
	n := 0
	for _, pp := range r.Parts {
		n += len(pp.Boxes)
	}
	return n
}

// TestVerifyBoxesCatchesCorruption proves the verifier has teeth: a
// placement nudged off the white-space rule, or de-rotated, must fail.
func TestVerifyBoxesCatchesCorruption(t *testing.T) {
	opts := Options{PartSize: 6, BoxSize: 6}
	res := placeVerified(t, workload.Fig61(), opts)

	// Find a box with at least two modules and shift a non-head module
	// one track right: the inter-module gap equality must break.
	var victim *PlacedModule
	for _, pp := range res.Parts {
		for _, pb := range pp.Boxes {
			if len(pb.Box.Modules) > 1 {
				victim = res.Mods[pb.Box.Modules[1]]
			}
		}
	}
	if victim == nil {
		t.Fatal("fig61 produced no multi-module box")
	}
	victim.Pos = victim.Pos.Add(geom.Pt(1, 0))
	if err := res.VerifyBoxes(opts); err == nil {
		t.Error("VerifyBoxes accepted a placement with a corrupted module gap")
	}
	victim.Pos = victim.Pos.Sub(geom.Pt(1, 0))
	if err := res.VerifyBoxes(opts); err != nil {
		t.Fatalf("restored placement still fails: %v", err)
	}

	// De-rotate the module: its input terminal no longer faces left.
	old := victim.Orient
	for o := geom.R0; o < 4; o++ {
		if o != old {
			victim.Orient = o
			break
		}
	}
	if err := res.VerifyBoxes(opts); err == nil {
		t.Error("VerifyBoxes accepted a de-rotated module")
	}
	victim.Orient = old
	if err := res.VerifyBoxes(opts); err != nil {
		t.Fatalf("restored orientation still fails: %v", err)
	}
}
