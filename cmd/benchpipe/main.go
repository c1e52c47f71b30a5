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
// route time (cold stage or either of two cache-off repeats). With
// -gate FILE the run loads the committed bench record first and fails
// (after writing -out) when its own best route time exceeds the
// committed budget; CI runs
// `benchpipe -gate BENCH_pipeline.json -out <temp file>` so a >20%
// route-stage regression against the committed record fails the build
// without the run replacing that record.
//
// Usage:
//
//	benchpipe [-out BENCH_pipeline.json] [-workloads fig61,datapath,life]
//	          [-warm-runs 5] [-gate BENCH_pipeline.json]
//	benchpipe -service [-out BENCH_service.json] [-workloads fig61,quickstart]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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
	// RepeatRouteMs is the best route stage of two repeats of the
	// request with the cache bypassed (0 in records without repeats).
	RepeatRouteMs float64 `json:"repeat_route_ms,omitempty"`
	// RouteBudgetMs is the regression budget for this workload's route
	// stage: 1.2x the best observed route time (20% headroom over the
	// committed number). The -gate flag of a later run compares
	// its own best observation against the committed file's budget.
	RouteBudgetMs float64 `json:"route_budget_ms,omitempty"`
}

// benchFile is the top-level shape of BENCH_pipeline.json.
type benchFile struct {
	GeneratedAt string `json:"generated_at"`
	// CPUs and GoMaxProcs describe the hardware the numbers were
	// taken on.
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

func run() error {
	out := flag.String("out", "", "output file (- for stdout; default BENCH_pipeline.json, or BENCH_service.json with -service)")
	workloads := flag.String("workloads", "fig61,datapath,life", "comma-separated built-in workloads")
	warmRuns := flag.Int("warm-runs", 5, "cache-hit repeats per workload (best is reported)")
	serviceMode := flag.Bool("service", false,
		"benchmark the service tier instead (store cold/warm tails, restart survival, singleflight stampede, 3-replica fleet)")
	gate := flag.String("gate", "",
		"committed bench file to gate against: fail when a workload's fresh best route_ms exceeds the committed route_budget_ms")
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

	srv := service.New(service.Config{Workers: 1, CacheEntries: 64})
	defer srv.Close()
	// The repeat server has no cache, so every repeat routes again.
	uncached := service.New(service.Config{Workers: 1, CacheEntries: 0})
	defer uncached.Close()
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

		// Two cache-off repeats of the same request: a single cold
		// route time is too noisy to budget or gate on alone.
		for rep := 0; rep < 2; rep++ {
			r, err := uncached.GenerateV2(ctx, &req)
			if err != nil {
				return fmt.Errorf("workload %s (repeat %d): %w", w, rep, err)
			}
			ms := float64(r.Report.Timings.Route) / float64(time.Millisecond)
			if rep == 0 || ms < res.RepeatRouteMs {
				res.RepeatRouteMs = ms
			}
		}

		res.RouteBudgetMs = routeBudget(minRouteMs(res))

		file.Results = append(file.Results, res)
		fmt.Fprintf(os.Stderr, "benchpipe: %-10s cold %8.3fms  warm %8.3fms  (%.0fx)  best route %.3fms\n",
			w, res.ColdMs, res.WarmMs, res.Speedup, minRouteMs(res))
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

// minRouteMs is a workload's best observed route time: the cold stage
// or the best cache-off repeat, whichever is lower. Both budget and
// gate use this minimum — a single cold measurement swings ±30% on a
// busy single-core runner, and gating noise against noise would make
// the 20% band meaningless.
func minRouteMs(r workloadResult) float64 {
	ms := durMs(r.ColdStages.Route)
	if r.RepeatRouteMs > 0 && r.RepeatRouteMs < ms {
		ms = r.RepeatRouteMs
	}
	return ms
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

// gateAgainst compares the fresh results with the committed bench
// record: for every workload present in both files, the fresh best
// route time (minRouteMs) must not exceed the committed budget
// (route_budget_ms, or 1.2x the committed best for records that
// predate the budget field). Noise-dominated workloads under
// gateMinRouteMs are exempt.
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
		if cms < gateMinRouteMs {
			continue
		}
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
	if len(failures) > 0 {
		return fmt.Errorf("gate against committed bench failed:\n  %s",
			strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "benchpipe: gate passed (route budgets held)")
	return nil
}
