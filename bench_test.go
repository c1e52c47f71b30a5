// Package netart's top-level benchmarks regenerate every table and
// figure of the evaluation in §6 of Koster & Stok (EUT 89-E-219), plus
// the ablations behind the design choices the paper argues for in §4.5
// and §5.4 and the claimpoint claim of §5.7. Custom metrics are
// attached with b.ReportMetric; EXPERIMENTS.md records the paper-vs-
// measured comparison.
//
// Run with: go test -bench=. -benchmem
package netart

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"netart/internal/geom"

	"netart/internal/gen"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/schematic"
	"netart/internal/service"
	"netart/internal/workload"
)

// benchExperiment times one §6 experiment end to end and reports its
// diagram metrics.
func benchExperiment(b *testing.B, idx int) {
	b.Helper()
	e := gen.Experiments()[idx]
	var last gen.Row
	for i := 0; i < b.N; i++ {
		row, _, err := gen.RunExperiment(e)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(float64(last.Unrouted), "unrouted")
	b.ReportMetric(float64(last.Metrics.WireLength), "wire")
	b.ReportMetric(float64(last.Metrics.Bends), "bends")
	b.ReportMetric(float64(last.Metrics.Crossings), "crossings")
	b.ReportMetric(last.Metrics.FlowRight, "flow")
	b.ReportMetric(last.PlaceTime.Seconds()*1000, "place-ms")
	b.ReportMetric(last.RouteTime.Seconds()*1000, "route-ms")
}

// Figures 6.1–6.7 (Table 6.1 rows), one benchmark each.

func BenchmarkFig61(b *testing.B) { benchExperiment(b, 0) }
func BenchmarkFig62(b *testing.B) { benchExperiment(b, 1) }
func BenchmarkFig63(b *testing.B) { benchExperiment(b, 2) }
func BenchmarkFig64(b *testing.B) { benchExperiment(b, 3) }
func BenchmarkFig65(b *testing.B) { benchExperiment(b, 4) }
func BenchmarkFig66(b *testing.B) { benchExperiment(b, 5) }
func BenchmarkFig67(b *testing.B) { benchExperiment(b, 6) }

// BenchmarkTable61 runs the whole suite per iteration — the "Timing
// Figures" table in one number — and reports the paper's headline
// ratio: routing the automatically placed LIFE network versus the
// hand-placed one (the paper measured 11:36 / 1:32 ≈ 7.6).
func BenchmarkTable61(b *testing.B) {
	var rows []gen.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = gen.Table61()
		if err != nil {
			b.Fatal(err)
		}
	}
	hand := rows[5].RouteTime.Seconds()
	auto := rows[6].RouteTime.Seconds()
	if hand > 0 {
		b.ReportMetric(auto/hand, "life-auto/hand-ratio")
	}
	total := 0
	for _, r := range rows {
		total += r.Unrouted
	}
	b.ReportMetric(float64(total), "unrouted-total")
}

// BenchmarkClaimpointsAblation measures the §5.7 claim: "in practice, a
// decrease of about 75% in the number of unroutable nets may be
// obtained". It routes the hand-placed LIFE network with and without
// the claimpoint extension (retry pass disabled for the bare run so the
// mechanism is isolated).
func BenchmarkClaimpointsAblation(b *testing.B) {
	run := func(b *testing.B, claims, retry bool) int {
		e := gen.Experiments()[5]
		e.Options.Route = route.Options{Claimpoints: claims, NoRetry: !retry}
		unrouted := 0
		for i := 0; i < b.N; i++ {
			row, _, err := gen.RunExperiment(e)
			if err != nil {
				b.Fatal(err)
			}
			unrouted = row.Unrouted
		}
		b.ReportMetric(float64(unrouted), "unrouted")
		return unrouted
	}
	var bare, full int
	b.Run("bare", func(b *testing.B) { bare = run(b, false, false) })
	b.Run("claimpoints", func(b *testing.B) { full = run(b, true, true) })
	if bare > 0 {
		reduction := 100 * float64(bare-full) / float64(bare)
		b.Logf("unroutable nets: %d -> %d (%.0f%% reduction; paper: ~75%%)", bare, full, reduction)
	}
}

// BenchmarkRouterComparison contrasts the paper's line-expansion router
// with the surveyed baselines of §5.2 on the figure 6.4 diagram: the
// Lee runner with the schematic objective, the classic length-first Lee
// runner, and the Hightower line router (fast but incomplete).
func BenchmarkRouterComparison(b *testing.B) {
	for _, algo := range []route.Algo{
		route.AlgoLineExpansion, route.AlgoLee, route.AlgoLeeLength, route.AlgoHightower,
	} {
		b.Run(algo.String(), func(b *testing.B) {
			d := workload.Datapath16()
			pr, err := place.Place(d, place.Options{PartSize: 7, BoxSize: 5})
			if err != nil {
				b.Fatal(err)
			}
			var m schematic.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr, err := route.Route(pr, route.Options{Algorithm: algo, Claimpoints: true})
				if err != nil {
					b.Fatal(err)
				}
				m = schematic.FromRouting(rr).Metrics()
				b.StopTimer()
				// A fresh plane per iteration: rebuild the placement
				// result is cheap, the plane is rebuilt inside Route.
				b.StartTimer()
			}
			b.ReportMetric(float64(m.Unrouted), "unrouted")
			b.ReportMetric(float64(m.Bends), "bends")
			b.ReportMetric(float64(m.WireLength), "wire")
			b.ReportMetric(float64(m.Crossings), "crossings")
		})
	}
}

// BenchmarkPlacementComparison contrasts the paper's placement with the
// §4.2/§4.3 baselines on the datapath network, reporting the properties
// §4.5 argues about: signal flow (min-cut "does not concern about the
// signal flow direction") and wire crossings after routing.
func BenchmarkPlacementComparison(b *testing.B) {
	for _, placer := range []gen.Placer{
		gen.PlacePaper, gen.PlaceEpitaxial, gen.PlaceMinCut, gen.PlaceLogicColumns,
	} {
		b.Run(placer.String(), func(b *testing.B) {
			opts := gen.Options{
				Placer: placer,
				Place:  place.Options{PartSize: 7, BoxSize: 5},
				Route:  route.Options{Claimpoints: true},
			}
			var m schematic.Metrics
			for i := 0; i < b.N; i++ {
				rep, err := gen.Run(context.Background(), workload.Datapath16(), opts)
				if err != nil {
					b.Fatal(err)
				}
				m = rep.Diagram.Metrics()
			}
			b.ReportMetric(m.FlowRight, "flow")
			b.ReportMetric(float64(m.Crossings), "crossings")
			b.ReportMetric(float64(m.WireLength), "wire")
			b.ReportMetric(float64(m.Unrouted), "unrouted")
			b.ReportMetric(float64(m.Area), "area")
		})
	}
}

// BenchmarkNetOrderAblation measures the §7 future-work item we
// implemented: routing shorter nets first versus the paper's design
// order, on the automatically placed LIFE network (the hardest case).
func BenchmarkNetOrderAblation(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		shortest bool
	}{{"design-order", false}, {"shortest-first", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			e := gen.Experiments()[6] // figure 6.7
			e.Options.Route.OrderShortestFirst = cfg.shortest
			unrouted := 0
			for i := 0; i < b.N; i++ {
				row, _, err := gen.RunExperiment(e)
				if err != nil {
					b.Fatal(err)
				}
				unrouted = row.Unrouted
			}
			b.ReportMetric(float64(unrouted), "unrouted")
		})
	}
}

// BenchmarkObjectiveSwap measures the EUREKA -s option: length-first
// tie-breaking versus the default crossing-first order (§5.6.1,
// Appendix F).
func BenchmarkObjectiveSwap(b *testing.B) {
	for _, cfg := range []struct {
		name string
		swap bool
	}{{"bends-cross-length", false}, {"bends-length-cross", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			d := workload.Datapath16()
			pr, err := place.Place(d, place.Options{PartSize: 7, BoxSize: 5})
			if err != nil {
				b.Fatal(err)
			}
			var m schematic.Metrics
			for i := 0; i < b.N; i++ {
				rr, err := route.Route(pr, route.Options{Claimpoints: true, SwapObjective: cfg.swap})
				if err != nil {
					b.Fatal(err)
				}
				m = schematic.FromRouting(rr).Metrics()
			}
			b.ReportMetric(float64(m.Crossings), "crossings")
			b.ReportMetric(float64(m.WireLength), "wire")
		})
	}
}

// BenchmarkChannelRouter exercises the §5.2.4 baseline on synthetic
// channel instances, reporting how close the left-edge packing stays to
// the density lower bound.
func BenchmarkChannelRouter(b *testing.B) {
	mkPins := func(n, seed int) []route.ChannelPin {
		var pins []route.ChannelPin
		x := seed
		for net := 1; net <= n; net++ {
			x = (x*1103515245 + 12345) & 0x7fffffff
			lo := x % 60
			x = (x*1103515245 + 12345) & 0x7fffffff
			w := 1 + x%20
			pins = append(pins,
				route.ChannelPin{X: lo, Net: net, Top: true},
				route.ChannelPin{X: lo + w, Net: net})
		}
		return pins
	}
	tracks, density := 0, 0
	for i := 0; i < b.N; i++ {
		for seed := 0; seed < 10; seed++ {
			pins := mkPins(40, seed)
			ivs, err := route.BuildIntervals(pins)
			if err != nil {
				b.Fatal(err)
			}
			tracks = len(route.LeftEdge(ivs))
			density = route.ChannelDensity(ivs)
		}
	}
	b.ReportMetric(float64(tracks), "tracks")
	b.ReportMetric(float64(density), "density")
}

// BenchmarkChainScaling measures generation cost growth with network
// size on string networks (the §4.6.8/§5.8 complexity discussion).
func BenchmarkChainScaling(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := workload.Chain(n)
				rep, err := gen.Run(context.Background(), d, gen.Options{
					Place: place.Options{PartSize: n, BoxSize: n},
					Route: route.Options{Claimpoints: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Diagram.Metrics().Unrouted != 0 {
					b.Fatal("chain failed to route")
				}
			}
		})
	}
}

// BenchmarkPlaceScaling measures how the placement phase alone grows
// with network size: seeded random networks at the fresh-random
// service mix's options (PartSize 7, BoxSize 5) and string networks in
// one partition and box, as BenchmarkChainScaling runs them. Each size
// is placed once per iteration; the design is built outside the timer.
func BenchmarkPlaceScaling(b *testing.B) {
	run := func(b *testing.B, d *netlist.Design, opts place.Options) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := place.Place(d, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{50, 100, 200, 400, 800} {
		b.Run(fmt.Sprintf("random/n=%d", n), func(b *testing.B) {
			run(b, workload.Random(n, 3), place.Options{PartSize: 7, BoxSize: 5})
		})
	}
	for _, n := range []int{64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("chain/n=%d", n), func(b *testing.B) {
			run(b, workload.Chain(n), place.Options{PartSize: n, BoxSize: n})
		})
	}
}

// BenchmarkLineExpansionSearch isolates the router core: one
// point-to-point search across a mostly empty plane per iteration, the
// unit the §5.8 complexity argument reasons about ("if the number of
// bends is small then a path will be found in no time").
func BenchmarkLineExpansionSearch(b *testing.B) {
	d := netlist.NewDesign("bench")
	mk := func(name string, ts netlist.TermSpec) *netlist.Module {
		m, err := d.AddModule(name, "", 2, 2, []netlist.TermSpec{ts})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	ma := mk("A", netlist.TermSpec{Name: "Y", Type: netlist.Out, Pos: geom.Pt(2, 1)})
	mb := mk("B", netlist.TermSpec{Name: "A", Type: netlist.In, Pos: geom.Pt(0, 1)})
	if err := d.Connect("w", "A", "Y"); err != nil {
		b.Fatal(err)
	}
	if err := d.Connect("w", "B", "A"); err != nil {
		b.Fatal(err)
	}
	pr := &place.Result{
		Design: d,
		Mods: map[*netlist.Module]*place.PlacedModule{
			ma: {Mod: ma, Pos: geom.Pt(0, 0)},
			mb: {Mod: mb, Pos: geom.Pt(60, 40)},
		},
		SysPos: map[*netlist.Terminal]geom.Point{},
	}
	pr.ModuleBounds = geom.R(0, 0, 62, 42)
	pr.Bounds = pr.ModuleBounds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := route.Route(pr, route.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rr.UnroutedCount() != 0 {
			b.Fatal("search failed")
		}
	}
}

// BenchmarkCompletionLadder stacks the completion mechanisms on the
// hardest canonical case (figure 6.5's pinned-controller placement):
// bare sequential routing, the §5.7 retry pass, claimpoints, the §7
// shortest-first ordering, and the rip-up extension.
func BenchmarkCompletionLadder(b *testing.B) {
	ladder := []struct {
		name string
		opts route.Options
	}{
		{"bare", route.Options{NoRetry: true}},
		{"retry", route.Options{}},
		{"claims+retry", route.Options{Claimpoints: true}},
		{"claims+shortest", route.Options{Claimpoints: true, OrderShortestFirst: true}},
		{"claims+ripup", route.Options{Claimpoints: true, RipUp: true}},
	}
	for _, step := range ladder {
		b.Run(step.name, func(b *testing.B) {
			e := gen.Experiments()[4] // figure 6.5
			e.Options.Route = step.opts
			unrouted := 0
			for i := 0; i < b.N; i++ {
				row, _, err := gen.RunExperiment(e)
				if err != nil {
					b.Fatal(err)
				}
				unrouted = row.Unrouted
			}
			b.ReportMetric(float64(unrouted), "unrouted")
		})
	}
}

// BenchmarkServiceGenerate measures the netartd service core, cold
// versus warm cache. "cold" disables the result cache so every
// iteration runs the full pipeline through the worker pool; "warm"
// primes the content-addressed cache once and then serves the LIFE
// workload from it — warm-direct through the service core, warm-http
// through a real POST /v1/generate round trip. The warm paths are the
// <1ms acceptance gate of the service subsystem.
func BenchmarkServiceGenerate(b *testing.B) {
	lifeReq := service.Request{
		Workload: "life",
		Format:   service.FormatSummary,
		Options: service.GenOptions{
			PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3,
		},
	}

	b.Run("cold", func(b *testing.B) {
		s := service.New(service.Config{Workers: 1, CacheEntries: 0})
		defer s.Close()
		req := service.Request{Workload: "fig61", Format: service.FormatASCII,
			Options: service.GenOptions{PartSize: 6, BoxSize: 6}}
		for i := 0; i < b.N; i++ {
			if _, err := s.Generate(context.Background(), &req); err != nil {
				b.Fatal(err)
			}
		}
		st := s.Stats()
		b.ReportMetric(float64(st.Cache.Misses)/float64(b.N), "miss/op")
	})

	b.Run("warm-direct", func(b *testing.B) {
		s := service.New(service.Config{Workers: 2, CacheEntries: 64})
		defer s.Close()
		if _, err := s.Generate(context.Background(), &lifeReq); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := s.Generate(context.Background(), &lifeReq)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("warm request missed the cache")
			}
		}
		st := s.Stats()
		b.ReportMetric(float64(st.Cache.Hits)/float64(b.N), "hit/op")
	})

	b.Run("warm-http", func(b *testing.B) {
		s := service.New(service.Config{Workers: 2, CacheEntries: 64})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		body, err := json.Marshal(lifeReq)
		if err != nil {
			b.Fatal(err)
		}
		post := func() *service.Response {
			r, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			defer r.Body.Close()
			if r.StatusCode != http.StatusOK {
				b.Fatalf("status %d", r.StatusCode)
			}
			var resp service.Response
			if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
				b.Fatal(err)
			}
			return &resp
		}
		post() // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !post().Cached {
				b.Fatal("warm request missed the cache")
			}
		}
	})
}

// BenchmarkDualFront measures the §5.5.3 two-front initiation against
// the default single front on the datapath diagram: equivalent results,
// less area searched.
func BenchmarkDualFront(b *testing.B) {
	for _, cfg := range []struct {
		name string
		dual bool
	}{{"single-front", false}, {"dual-front", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			d := workload.Datapath16()
			pr, err := place.Place(d, place.Options{PartSize: 7, BoxSize: 5})
			if err != nil {
				b.Fatal(err)
			}
			var cells, unrouted int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr, err := route.Route(pr, route.Options{Claimpoints: true, DualFront: cfg.dual})
				if err != nil {
					b.Fatal(err)
				}
				cells = rr.Stats.Cells
				unrouted = rr.UnroutedCount()
			}
			b.ReportMetric(float64(cells), "cells-swept")
			b.ReportMetric(float64(unrouted), "unrouted")
		})
	}
}
