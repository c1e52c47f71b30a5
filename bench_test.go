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
	"reflect"
	"testing"

	"netart/internal/geom"

	"netart/internal/gen"
	"netart/internal/netlist"
	"netart/internal/obs"
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
// shortest-first ordering, and the degradation ladder's re-placement
// with wider white space (design order, best-effort).
func BenchmarkCompletionLadder(b *testing.B) {
	ladder := []struct {
		name    string
		opts    route.Options
		degrade gen.DegradeMode
	}{
		{"bare", route.Options{NoRetry: true}, gen.DegradeNone},
		{"retry", route.Options{}, gen.DegradeNone},
		{"claims+retry", route.Options{Claimpoints: true}, gen.DegradeNone},
		{"claims+shortest", route.Options{Claimpoints: true, OrderShortestFirst: true}, gen.DegradeNone},
		{"claims+re-place", route.Options{Claimpoints: true}, gen.DegradeBestEffort},
	}
	for _, step := range ladder {
		b.Run(step.name, func(b *testing.B) {
			e := gen.Experiments()[4] // figure 6.5
			e.Options.Route = step.opts
			e.Options.Degrade = step.degrade
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

	// warm-http-svg serves a real diagram from the store: an inline
	// Random(40) SVG request through Handler() and POST /v2/generate,
	// so a hit pays for decoding the stored value and encoding the
	// artwork. The client only reads the body, so ns/op and B/op are
	// the server's hit path plus the loopback round trip.
	b.Run("warm-http-svg", func(b *testing.B) {
		s := service.New(service.Config{Workers: 2, CacheEntries: 64})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		d := workload.Random(40, 1)
		var calls, nets, ios bytes.Buffer
		for _, err := range []error{
			netlist.WriteCallFile(&calls, d),
			netlist.WriteNetListFile(&nets, d),
			netlist.WriteIOFile(&ios, d),
		} {
			if err != nil {
				b.Fatal(err)
			}
		}
		body, err := json.Marshal(service.Request{Name: d.Name, Calls: calls.String(),
			Netlist: nets.String(), IO: ios.String(), Format: service.FormatSVG})
		if err != nil {
			b.Fatal(err)
		}
		var out bytes.Buffer // reused, so the client allocates little
		post := func() {
			r, err := http.Post(ts.URL+"/v2/generate", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			defer r.Body.Close()
			out.Reset()
			if _, err := out.ReadFrom(r.Body); err != nil || r.StatusCode != http.StatusOK {
				b.Fatalf("status %d, read error %v", r.StatusCode, err)
			}
		}
		post() // prime
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
		b.StopTimer()
		if hits := s.Stats().Cache.Hits; hits != uint64(b.N) {
			b.Fatalf("%d store hits for %d warm requests", hits, b.N)
		}
		b.ReportMetric(float64(out.Len())/1024, "resp-KB")
	})
}

// ladderCase is one design of the degradation-ladder corpus with the
// placement and routing options it is generated with.
type ladderCase struct {
	d  *netlist.Design
	po place.Options
	ro route.Options
}

// ladderCorpus builds BenchmarkLadder's corpus: Random(10…50) × seeds
// 1–8 × part sizes {1, 3, 7} at box size 5, each routed in design and
// shortest-first order with claimpoints on and margin 2 — 240 designs.
// The ladder re-places, so a case carries its design, not a placement.
func ladderCorpus() []ladderCase {
	var cases []ladderCase
	for n := 10; n <= 50; n += 10 {
		for seed := int64(1); seed <= 8; seed++ {
			for _, ps := range []int{1, 3, 7} {
				for _, shortest := range []bool{false, true} {
					cases = append(cases, ladderCase{workload.Random(n, seed),
						place.Options{PartSize: ps, BoxSize: 5},
						route.Options{Claimpoints: true, Margin: 2, OrderShortestFirst: shortest}})
				}
			}
		}
	}
	return cases
}

// ladderAttempt is one routing attempt of a ladder climb, read from its
// route.attempt span.
type ladderAttempt struct {
	config   string // the attempt's name, e.g. "place[spacing+1]"
	unrouted int    // nets this attempt left unrouted
	us       int64  // the attempt's wall time in microseconds, re-placement included
}

// climbLadder generates c under the best-effort policy and returns its
// attempts in order, plus the ratio of the shipped routing plane's area
// to the base routing's (1 when the base shipped).
func climbLadder(tb testing.TB, c ladderCase) ([]ladderAttempt, float64) {
	o := obs.NewObserver(nil, "ladder")
	rep, err := gen.Run(context.Background(), c.d, gen.Options{
		Place: c.po, Route: c.ro, Degrade: gen.DegradeBestEffort, Observer: o,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var out []ladderAttempt
	for _, sp := range o.Snapshot().Find("route").Children {
		if sp.Stage != "route.attempt" {
			continue
		}
		config, _ := sp.Attrs["config"].(string)
		unrouted, _ := sp.Attrs["unrouted"].(int64)
		out = append(out, ladderAttempt{config, int(unrouted), sp.ElapsedUs})
	}
	if len(out) != len(rep.Attempts) {
		tb.Fatalf("%d route.attempt spans for attempts %v", len(out), rep.Attempts)
	}
	if len(out) == 1 {
		return out, 1
	}
	base, err := gen.Run(context.Background(), c.d, gen.Options{Place: c.po, Route: c.ro})
	if err != nil {
		tb.Fatal(err)
	}
	return out, float64(planeArea(rep.Routing)) / float64(planeArea(base.Routing))
}

// planeArea is the size of a routing's plane in points.
func planeArea(rr *route.Result) int {
	b := rr.Plane.Bounds
	return (b.Max.X - b.Min.X + 1) * (b.Max.Y - b.Min.Y + 1)
}

// ladderStats summarizes one climb of the whole corpus. Every design
// starts on the same base configuration, so ladder positions and
// attempt names agree across the corpus.
type ladderStats struct {
	names    []string  // attempt name by ladder position
	unrouted []int     // nets left after each position, each design counting its best attempt so far
	secs     []float64 // seconds each position's attempts took
	climbed  int       // designs whose base left nets unrouted
	area     float64   // mean shipped/base plane-area ratio over the climbed designs
}

// climbCorpus climbs the ladder on every design of ladderCorpus.
func climbCorpus(tb testing.TB) ladderStats {
	var st ladderStats
	var climbs [][]ladderAttempt
	for _, c := range ladderCorpus() {
		as, ratio := climbLadder(tb, c)
		climbs = append(climbs, as)
		if len(as) > 1 {
			st.climbed++
			st.area += ratio
		}
		for k, a := range as {
			if k == len(st.names) {
				st.names = append(st.names, a.config)
			}
			if a.config != st.names[k] {
				tb.Fatalf("attempt %d is %s here, %s elsewhere", k, a.config, st.names[k])
			}
		}
	}
	if st.climbed > 0 {
		st.area /= float64(st.climbed)
	}
	st.unrouted = make([]int, len(st.names))
	st.secs = make([]float64, len(st.names))
	for _, as := range climbs {
		best := as[0].unrouted
		for k := range st.names {
			// A design that stopped early keeps its best for the rungs
			// it did not need.
			if k < len(as) {
				best = min(best, as[k].unrouted)
				st.secs[k] += float64(as[k].us) / 1e6
			}
			st.unrouted[k] += best
		}
	}
	return st
}

// BenchmarkLadder climbs the degradation ladder over ladderCorpus and
// reports, for each position on the ladder, the nets still unrouted
// after it and the seconds its attempts took (a rung's re-placement
// included), plus the designs climbed and their mean plane-area ratio,
// shipped against base. One iteration routes the whole corpus: run it
// with -benchtime=1x.
func BenchmarkLadder(b *testing.B) {
	var st ladderStats
	for i := 0; i < b.N; i++ {
		st = climbCorpus(b)
	}
	b.ReportMetric(float64(st.climbed), "climbed")
	b.ReportMetric(st.area, "area-ratio")
	for k, name := range st.names {
		b.ReportMetric(float64(st.unrouted[k]), name+"-unrouted")
		b.ReportMetric(st.secs[k], name+"-s")
	}
}

// TestLadderCorpus climbs ladderCorpus once under best-effort and pins
// what the ladder achieves: the base routing leaves 867 nets unrouted
// on 103 designs, partition spacing +1 leaves 6, and every spacing +1
// completes the rest, so no design needs the last rung.
func TestLadderCorpus(t *testing.T) {
	st := climbCorpus(t)
	names := []string{"route[line-expansion]", "place[part-spacing+1]", "place[spacing+1]"}
	if !reflect.DeepEqual(st.names, names) {
		t.Errorf("attempts %v, want %v", st.names, names)
	}
	if unrouted := []int{867, 6, 0}; !reflect.DeepEqual(st.unrouted, unrouted) {
		t.Errorf("nets left after each attempt %v, want %v", st.unrouted, unrouted)
	}
	if st.climbed != 103 {
		t.Errorf("%d designs climbed, want 103", st.climbed)
	}
}
