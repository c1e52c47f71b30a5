package place

import (
	"fmt"
	"sync"
	"testing"

	"netart/internal/netlist"
	"netart/internal/workload"
)

// Place treats its design as read-only and keeps all its bookkeeping
// in the call, so placements running in parallel on one shared design
// must each return the sequential result, which in turn must equal the
// map-based reference (reference_test.go).

// parallelCallers is the number of goroutines placing one design at
// once.
const parallelCallers = 4

// placeInParallel places d from parallelCallers goroutines at once and
// checks every result against the reference placement.
func placeInParallel(t *testing.T, d *netlist.Design, opts Options) {
	t.Helper()
	want, _, err := refPlace(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, parallelCallers)
	errs := make([]error, parallelCallers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Place(d, opts)
		}()
	}
	wg.Wait()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if diff := resultDiff(want, r); diff != "" {
			t.Errorf("caller %d diverges from the reference: %s", i, diff)
		}
	}
}

func TestParallelPlacementDeterministicWorkloads(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		opts  Options
	}{
		{"fig61", workload.Fig61, Options{PartSize: 6, BoxSize: 6}},
		{"quickstart", workload.Quickstart, Options{PartSize: 4, BoxSize: 4}},
		{"datapath", workload.Datapath16, Options{PartSize: 7, BoxSize: 5}},
		{"cpu", workload.CPU, Options{PartSize: 7, BoxSize: 5, ModSpacing: 1, BoxSpacing: 1}},
		{"life", workload.Life27, Options{PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "life" && testing.Short() {
				t.Skip("life battery skipped in -short mode")
			}
			placeInParallel(t, tc.build(), tc.opts)
		})
	}
}

// TestParallelPlacementDeterministicSeeded does the same over seeded
// random designs.
func TestParallelPlacementDeterministicSeeded(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			placeInParallel(t, workload.Random(12, seed), Options{PartSize: 4, BoxSize: 2})
		})
	}
}
