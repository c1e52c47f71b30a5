package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// loadCommitted reads the repository's committed pipeline record, the
// baseline ci.sh gates against.
func loadCommitted(t *testing.T) *benchFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCH_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	f := &benchFile{}
	if err := json.Unmarshal(b, f); err != nil {
		t.Fatal(err)
	}
	return f
}

// slowed returns a fresh-run stand-in for the committed results with
// every route time of the named workloads multiplied by factor. The
// parallel speedup is dropped so only the route budget is judged.
func slowed(results []workloadResult, factor float64, names ...string) []workloadResult {
	out := make([]workloadResult, len(results))
	for i, r := range results {
		r.ParallelSpeedup = 0
		r.RouteSweep = append([]routeSweepPoint(nil), r.RouteSweep...)
		for _, n := range names {
			if r.Workload != n {
				continue
			}
			r.ColdStages.Route = time.Duration(float64(r.ColdStages.Route) * factor)
			for k := range r.RouteSweep {
				r.RouteSweep[k].RouteMs *= factor
			}
		}
		out[i] = r
	}
	return out
}

// TestGateCatchesLifeSlowdown pins that the committed baseline keeps
// life's route time under the gate: an unchanged run passes, a 25%
// slower life route fails, and the sub-millisecond workloads stay
// exempt from the budget.
func TestGateCatchesLifeSlowdown(t *testing.T) {
	committed := loadCommitted(t)
	var life *workloadResult
	for i := range committed.Results {
		if committed.Results[i].Workload == "life" {
			life = &committed.Results[i]
		}
	}
	if life == nil {
		t.Fatal("committed record has no life workload")
	}
	if ms := minRouteMs(*life); ms < gateMinRouteMs {
		t.Fatalf("life best route %.3fms is under the gate floor %dms: the budget would never be checked", ms, gateMinRouteMs)
	}

	if err := gateAgainst(committed, slowed(committed.Results, 1)); err != nil {
		t.Fatalf("unchanged run failed the gate: %v", err)
	}
	err := gateAgainst(committed, slowed(committed.Results, 1.25, "life"))
	if err == nil || !strings.Contains(err.Error(), "life:") {
		t.Fatalf("25%% slower life route passed the gate (err %v)", err)
	}
	if err := gateAgainst(committed, slowed(committed.Results, 3, "fig61", "datapath")); err != nil {
		t.Fatalf("noise-floor workloads were gated: %v", err)
	}
}
