// Benchpipe measures the end-to-end latency of the netlist→schematic
// pipeline through the service core and writes the results as JSON.
// It reports two numbers per workload:
//
//   - cold: the first generate (full parse→place→route→render run,
//     the cache misses), with the per-stage breakdown;
//   - warm: the best repeat of the identical request served from the
//     content-addressed result cache.
//
// The ratio between them is the cache's value proposition; the cold
// stage breakdown shows where the pipeline spends its time. CI runs
// this as `go run ./cmd/benchpipe -out BENCH_pipeline.json` so every
// build leaves a machine-readable latency record next to the binaries.
//
// A route-workers sweep rides along: each workload's route stage is
// re-run (cache off) at every worker count in -route-workers, and the
// per-workload parallel_speedup field reports sequential route time
// over the best parallel route time. A matching place-workers sweep
// does the same for the placement stage (-place-workers, place_sweep,
// place_parallel_speedup). The record carries cpus and gomaxprocs so
// a speedup of ~1.0 on a single-core runner reads as the hardware
// fact it is, not a scheduler defect — the determinism batteries, not
// this bench, are the parallel stages' correctness gates.
//
// With -service the bench targets the daemon tier instead: store
// cold/warm tail latency over a tiered disk-backed store, restart
// survival (hit rate and artwork identity across a stop/start over
// the same store directory), singleflight collapse under a 32-way
// stampede, the async job API (time to first SSE event and
// submit-to-terminal latency per workload), and a 3-replica
// in-process fleet with consistent-hash routing (hit rate, peer
// outcome counts, kill-one degradation). The output then defaults to
// BENCH_service.json.
//
// Each workload also records route_budget_ms — 1.2x its best observed
// sequential route time (cold stage or workers<=1 sweep point). With
// -gate FILE the run loads the committed bench record first and fails
// (after writing -out) when its own best route time exceeds the
// committed budget, or when parallel_speedup falls below
// 1.0 on a host with 4+ CPUs; CI runs
// `benchpipe -gate BENCH_pipeline.json -out <temp file>` so a >20%
// route-stage regression against the committed record fails the build
// without the run replacing that record.
//
// Usage:
//
//	benchpipe [-out BENCH_pipeline.json] [-workloads fig61,datapath,life]
//	          [-warm-runs 5] [-route-workers 1,2,4,N] [-place-workers 1,2,4,N]
//	          [-gate BENCH_pipeline.json]
//	benchpipe -service [-out BENCH_service.json] [-workloads fig61,quickstart]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"netart/internal/gen"
	"netart/internal/service"
)

// workloadResult is the per-workload slice of the output file.
type workloadResult struct {
	Workload string `json:"workload"`
	// ColdMs is the first (uncached) request's wall time; ColdStages
	// breaks it down per stage (parse_ms, place_ms, route_ms,
	// render_ms — the same wire names as the service APIs).
	ColdMs     float64          `json:"cold_ms"`
	ColdStages gen.StageTimings `json:"cold_stages"`
	// WarmMs is the best of -warm-runs cache-hit repeats.
	WarmMs   float64 `json:"warm_ms"`
	WarmRuns int     `json:"warm_runs"`
	// Speedup is ColdMs / WarmMs (0 when WarmMs is 0).
	Speedup  float64 `json:"speedup"`
	Unrouted int     `json:"unrouted"`
	// RouteSweep is the route-stage latency at each -route-workers
	// value (cache bypassed; best of two runs per point).
	RouteSweep []routeSweepPoint `json:"route_sweep,omitempty"`
	// ParallelSpeedup is the sequential route_ms over the best
	// parallel route_ms in the sweep (0 when the sweep has no
	// parallel points). On a single-core host this hovers around 1.0
	// regardless of worker count — see cpus/gomaxprocs at the top
	// level.
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	// RouteBudgetMs is the regression budget for this workload's route
	// stage: 1.2x the best observed sequential route time (20% headroom
	// over the committed number). The -gate flag of a later run compares
	// its own best observation against the committed file's budget.
	RouteBudgetMs float64 `json:"route_budget_ms,omitempty"`
	// PlaceSweep is the place-stage latency at each -place-workers
	// value (cache bypassed; best of two runs per point), and
	// PlaceParallelSpeedup the sequential place_ms over the best
	// parallel place_ms — the placement twin of the route sweep.
	PlaceSweep           []placeSweepPoint `json:"place_sweep,omitempty"`
	PlaceParallelSpeedup float64           `json:"place_parallel_speedup,omitempty"`
}

// routeSweepPoint is one (worker count, route latency) sample.
type routeSweepPoint struct {
	Workers int     `json:"workers"`
	RouteMs float64 `json:"route_ms"`
}

// placeSweepPoint is one (worker count, place latency) sample.
type placeSweepPoint struct {
	Workers int     `json:"workers"`
	PlaceMs float64 `json:"place_ms"`
}

// benchFile is the top-level shape of BENCH_pipeline.json.
type benchFile struct {
	GeneratedAt string `json:"generated_at"`
	// CPUs and GoMaxProcs describe the hardware the numbers were
	// taken on; parallel_speedup is meaningless without them.
	CPUs       int              `json:"cpus"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Results    []workloadResult `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpipe:", err)
		os.Exit(1)
	}
}

// parseSweep expands a -route-workers/-place-workers spec into a
// deduplicated list of worker counts; "N" means GOMAXPROCS. flagName
// is only used for error messages.
func parseSweep(flagName, spec string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n := runtime.GOMAXPROCS(0)
		if part != "N" && part != "n" {
			v, err := strconv.Atoi(part)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("bad %s entry %q", flagName, part)
			}
			n = v
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out, nil
}

func run() error {
	out := flag.String("out", "", "output file (- for stdout; default BENCH_pipeline.json, or BENCH_service.json with -service)")
	workloads := flag.String("workloads", "fig61,datapath,life", "comma-separated built-in workloads")
	warmRuns := flag.Int("warm-runs", 5, "cache-hit repeats per workload (best is reported)")
	sweepSpec := flag.String("route-workers", "1,2,4,N",
		"comma-separated route-worker counts for the sweep (N = GOMAXPROCS; empty disables)")
	placeSpec := flag.String("place-workers", "1,2,4,N",
		"comma-separated place-worker counts for the sweep (N = GOMAXPROCS; empty disables)")
	serviceMode := flag.Bool("service", false,
		"benchmark the service tier instead (store cold/warm tails, restart survival, singleflight stampede, 3-replica fleet)")
	gate := flag.String("gate", "",
		"committed bench file to gate against: fail when a workload's fresh cold route_ms exceeds the committed route_budget_ms, or when parallel_speedup drops below 1.0 on a 4+ CPU host")
	flag.Parse()

	if *serviceMode {
		if *out == "" {
			*out = "BENCH_service.json"
		}
		return runService(splitWorkloads(*workloads), *warmRuns, *out)
	}
	if *out == "" {
		*out = "BENCH_pipeline.json"
	}

	// Load the committed gate file before measuring so -gate and -out
	// may name the same path (CI gates against the committed record,
	// then overwrites it with the fresh one).
	var committed *benchFile
	if *gate != "" {
		b, err := os.ReadFile(*gate)
		if err != nil {
			return fmt.Errorf("-gate: %w", err)
		}
		committed = &benchFile{}
		if err := json.Unmarshal(b, committed); err != nil {
			return fmt.Errorf("-gate %s: %w", *gate, err)
		}
	}

	sweep, err := parseSweep("-route-workers", *sweepSpec)
	if err != nil {
		return err
	}
	placeSweep, err := parseSweep("-place-workers", *placeSpec)
	if err != nil {
		return err
	}

	srv := service.New(service.Config{Workers: 1, CacheEntries: 64})
	defer srv.Close()
	// The sweep server has no cache: route_workers is deliberately
	// excluded from the cache key (parallel output is byte-identical),
	// so sweep points after the first would otherwise be cache hits.
	sweepSrv := service.New(service.Config{Workers: 1, CacheEntries: 0})
	defer sweepSrv.Close()
	ctx := context.Background()

	file := benchFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		CPUs:        runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	for _, w := range strings.Split(*workloads, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		req := service.Request{Workload: w, Format: service.FormatSummary}
		if w == "life" {
			// Figure 6.7 options: the spacing the dense LIFE fabric needs.
			req.Options = service.GenOptions{PartSize: 5, BoxSize: 5,
				ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}
		}

		cold, err := srv.GenerateV2(ctx, &req)
		if err != nil {
			return fmt.Errorf("workload %s (cold): %w", w, err)
		}
		if cold.Cached {
			return fmt.Errorf("workload %s: first request reported cached", w)
		}
		res := workloadResult{
			Workload:   w,
			ColdMs:     cold.ElapsedMs,
			ColdStages: cold.Report.Timings,
			WarmRuns:   *warmRuns,
			Unrouted:   cold.Unrouted,
		}
		for i := 0; i < *warmRuns; i++ {
			warm, err := srv.GenerateV2(ctx, &req)
			if err != nil {
				return fmt.Errorf("workload %s (warm %d): %w", w, i, err)
			}
			if !warm.Cached {
				return fmt.Errorf("workload %s: warm request %d missed the cache", w, i)
			}
			if i == 0 || warm.ElapsedMs < res.WarmMs {
				res.WarmMs = warm.ElapsedMs
			}
		}
		if res.WarmMs > 0 {
			res.Speedup = res.ColdMs / res.WarmMs
		}

		// Route-workers sweep: same request, cache off, each worker
		// count best-of-two. Only the route stage is compared — parse,
		// place and render are identical work at every point.
		var seqMs, bestParMs float64
		for _, workers := range sweep {
			sreq := req
			sreq.Options.RouteWorkers = workers
			var best float64
			for rep := 0; rep < 2; rep++ {
				r, err := sweepSrv.GenerateV2(ctx, &sreq)
				if err != nil {
					return fmt.Errorf("workload %s (sweep workers=%d): %w", w, workers, err)
				}
				ms := float64(r.Report.Timings.Route) / float64(time.Millisecond)
				if rep == 0 || ms < best {
					best = ms
				}
			}
			res.RouteSweep = append(res.RouteSweep, routeSweepPoint{Workers: workers, RouteMs: best})
			if workers <= 1 {
				seqMs = best
			} else if bestParMs == 0 || best < bestParMs {
				bestParMs = best
			}
		}
		if seqMs > 0 && bestParMs > 0 {
			res.ParallelSpeedup = seqMs / bestParMs
		}

		// Place-workers sweep: identical shape, comparing only the
		// place stage. route_workers is left at the request default so
		// the placement delta is the only variable.
		var seqPlaceMs, bestParPlaceMs float64
		for _, workers := range placeSweep {
			sreq := req
			sreq.Options.PlaceWorkers = workers
			var best float64
			for rep := 0; rep < 2; rep++ {
				r, err := sweepSrv.GenerateV2(ctx, &sreq)
				if err != nil {
					return fmt.Errorf("workload %s (place sweep workers=%d): %w", w, workers, err)
				}
				ms := float64(r.Report.Timings.Place) / float64(time.Millisecond)
				if rep == 0 || ms < best {
					best = ms
				}
			}
			res.PlaceSweep = append(res.PlaceSweep, placeSweepPoint{Workers: workers, PlaceMs: best})
			if workers <= 1 {
				seqPlaceMs = best
			} else if bestParPlaceMs == 0 || best < bestParPlaceMs {
				bestParPlaceMs = best
			}
		}
		if seqPlaceMs > 0 && bestParPlaceMs > 0 {
			res.PlaceParallelSpeedup = seqPlaceMs / bestParPlaceMs
		}
		res.RouteBudgetMs = routeBudget(minRouteMs(res))

		file.Results = append(file.Results, res)
		fmt.Fprintf(os.Stderr, "benchpipe: %-10s cold %8.3fms  warm %8.3fms  (%.0fx)  par-route %.2fx  par-place %.2fx\n",
			w, res.ColdMs, res.WarmMs, res.Speedup, res.ParallelSpeedup, res.PlaceParallelSpeedup)
	}

	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(b); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, b, 0o644); err != nil {
		return err
	}
	// Gate after writing: the fresh record stays on disk for triage
	// even when the comparison fails the build.
	if committed != nil {
		return gateAgainst(committed, file.Results)
	}
	return nil
}

// gateMinRouteMs is the floor below which the route-budget gate does
// not apply: workloads whose committed route stage is this fast (fig61
// and datapath route in about a millisecond or less) are
// noise-dominated, so a 20% band around them would gate scheduler
// jitter, not regressions. life (tens of milliseconds) stays gated.
const gateMinRouteMs = 10

// routeBudget derives the regression budget from a measured route
// time: 20% headroom over the committed number.
func routeBudget(routeMs float64) float64 { return routeMs * 1.2 }

// minRouteMs is a workload's best observed sequential route time: the
// cold stage or any workers<=1 sweep point, whichever is lower. Both
// budget and gate use this minimum — a single cold measurement swings
// ±30% on a busy single-core runner, and gating noise against noise
// would make the 20% band meaningless.
func minRouteMs(r workloadResult) float64 {
	ms := durMs(r.ColdStages.Route)
	for _, p := range r.RouteSweep {
		if p.Workers <= 1 && p.RouteMs > 0 && p.RouteMs < ms {
			ms = p.RouteMs
		}
	}
	return ms
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

// gateAgainst compares the fresh results with the committed bench
// record. Two checks per workload present in both files:
//
//   - the fresh cold route_ms must not exceed the committed budget
//     (route_budget_ms, or 1.2x the committed route_ms for records
//     that predate the budget field) — skipped for noise-dominated
//     workloads under gateMinRouteMs;
//   - parallel_speedup must stay >= 1.0, checked only on hosts with
//     4+ CPUs (on smaller hosts the sweep measures scheduling
//     overhead, not parallelism — see the cpus field).
func gateAgainst(committed *benchFile, fresh []workloadResult) error {
	byName := map[string]workloadResult{}
	for _, r := range fresh {
		byName[r.Workload] = r
	}
	var failures []string
	for _, c := range committed.Results {
		r, ok := byName[c.Workload]
		if !ok {
			continue
		}
		cms := minRouteMs(c)
		if cms >= gateMinRouteMs {
			budget := c.RouteBudgetMs
			if budget == 0 {
				budget = routeBudget(cms)
			}
			if got := minRouteMs(r); got > budget {
				failures = append(failures, fmt.Sprintf(
					"%s: best route %.3fms exceeds committed budget %.3fms (committed best %.3fms)",
					c.Workload, got, budget, cms))
			}
		}
		if runtime.NumCPU() >= 4 && r.ParallelSpeedup > 0 && r.ParallelSpeedup < 1.0 {
			failures = append(failures, fmt.Sprintf(
				"%s: parallel_speedup %.2f < 1.0 on a %d-CPU host",
				c.Workload, r.ParallelSpeedup, runtime.NumCPU()))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate against committed bench failed:\n  %s",
			strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "benchpipe: gate passed (route budgets held, parallel speedup ok)")
	return nil
}
