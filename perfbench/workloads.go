package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"netart/internal/netlist"
	"netart/internal/service"
	"netart/internal/workload"
)

// item is one request the benchmark can send, with what its response
// must satisfy.
type item struct {
	body   []byte // JSON body of POST /v2/generate
	name   string // design name the response must carry
	format string
	// design identifies the routed design (name and options, not the
	// format); routed_nets_ratio counts each distinct design once.
	design string
	nets   int

	// cached is the required value of the response's "cached" field
	// after set-up; preload responses must be computed.
	cached bool
	// allRouted requires unrouted == 0.
	allRouted bool

	// same requires every response to carry the diagram want: a golden
	// file when preset, else the first response served for the item.
	same bool
	mu   sync.Mutex
	want *string
}

// expect returns the diagram the item's responses must equal, adopting
// got as the reference when none is set yet.
func (it *item) expect(got string) string {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.want == nil {
		it.want = &got
	}
	return *it.want
}

// inputs is everything one run sends, generated from the seed before
// any timing starts.
type inputs struct {
	preload []*item // hot set, sent during set-up
	warmup  []*item // fixed untimed requests that end set-up
	stream  []*item // timed requests in order; the phase ends early if it runs out
}

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name    string
	clients int
	config  func(storeDir string) service.Config
	build   func(seed int64, seconds float64) (*inputs, error)
}

var workloads = []*workloadSpec{
	{name: "life-cold", clients: 1, config: lifeColdConfig, build: buildLifeCold},
	{name: "fresh-random", clients: 2, config: freshRandomConfig, build: buildFreshRandom},
	{name: "hot-mix", clients: 2, config: hotMixConfig, build: buildHotMix},
}

func findWorkload(name string) (*workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, ", "))
}

// Stream capacities: the most requests per second a workload can
// complete on a fast host, with headroom, so the timed phase never
// runs out of generated inputs.
const (
	lifeColdRate    = 40
	freshRandomRate = 250
	hotMixRate      = 5000
)

// lifeOptions are the Fig. 6.7 options of the life network.
var lifeOptions = service.GenOptions{PartSize: 5, BoxSize: 5, ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}

// ---- life-cold ----

func lifeColdConfig(string) service.Config {
	// CacheEntries 0 disables the result store: every request computes.
	return service.Config{CacheEntries: 0}
}

func buildLifeCold(seed int64, seconds float64) (*inputs, error) {
	it, err := builtinItem("life", lifeOptions, service.FormatSVG)
	if err != nil {
		return nil, err
	}
	it.allRouted, it.same = true, true
	stream := make([]*item, int(seconds*lifeColdRate)+1)
	for i := range stream {
		stream[i] = it
	}
	return &inputs{warmup: []*item{it, it, it}, stream: stream}, nil
}

// ---- fresh-random ----

func freshRandomConfig(string) service.Config {
	return service.Config{CacheEntries: -1} // the default mem store
}

func buildFreshRandom(seed int64, seconds float64) (*inputs, error) {
	// The warm-up designs do not depend on the seed, so every set-up does
	// the same work; the timed stream does.
	const warm = 40
	warmup, err := freshDesigns(0, 4, warm)
	if err != nil {
		return nil, err
	}
	stream, err := freshDesigns(seed, 1, int(seconds*freshRandomRate)+1)
	if err != nil {
		return nil, err
	}
	return &inputs{warmup: warmup, stream: stream}, nil
}

// freshDesigns is n inline SVG requests whose module counts cycle
// evenly over 20..60 (17 is coprime to 41).
func freshDesigns(seed int64, stream, n int) ([]*item, error) {
	out := make([]*item, n)
	for i := range out {
		it, err := randomItem(20+(i*17)%41, designSeed(seed, stream, i), service.FormatSVG)
		if err != nil {
			return nil, err
		}
		out[i] = it
	}
	return out, nil
}

// ---- hot-mix ----

const (
	hotMixMemEntries = 64  // mem tier, smaller than the hot set
	hotRandomDesigns = 95  // each in svg and summary: 190 keys
	hotMixWarmup     = 200 // Zipf draws that end set-up
	freshEvery       = 33  // one request in 33 (~3%) is a never-seen design
)

func hotMixConfig(dir string) service.Config {
	return service.Config{StoreBackend: "tiered", StoreDir: dir, CacheEntries: hotMixMemEntries}
}

// goldenBuiltins are the five builtins at their golden-corpus options.
var goldenBuiltins = []struct {
	name string
	opts service.GenOptions
}{
	{"fig61", service.GenOptions{PartSize: 6, BoxSize: 6, RouteOrder: "design"}},
	{"quickstart", service.GenOptions{PartSize: 4, BoxSize: 4, RouteOrder: "design"}},
	{"datapath", service.GenOptions{}},
	{"cpu", service.GenOptions{PartSize: 7, BoxSize: 5, ModSpacing: 1, BoxSpacing: 1, RouteOrder: "design"}},
	{"life", withOrder(lifeOptions, "design")},
}

func withOrder(o service.GenOptions, order string) service.GenOptions {
	o.RouteOrder = order
	return o
}

func buildHotMix(seed int64, seconds float64) (*inputs, error) {
	var builtins, randoms []*item
	for _, b := range goldenBuiltins {
		for _, format := range []string{service.FormatSVG, service.FormatASCII} {
			it, err := builtinItem(b.name, b.opts, format)
			if err != nil {
				return nil, err
			}
			golden, err := os.ReadFile(filepath.Join("internal", "gen", "testdata", "golden", b.name+"."+format))
			if err != nil {
				return nil, fmt.Errorf("golden corpus: %w", err)
			}
			g := string(golden)
			it.want, it.same = &g, true
			builtins = append(builtins, it)
		}
	}
	// The hot set does not depend on the seed, so every set-up preloads
	// the same work; the draws and the never-seen designs do.
	for j := 0; j < hotRandomDesigns; j++ {
		for _, format := range []string{service.FormatSVG, service.FormatSummary} {
			it, err := randomItem(10+(j*13)%31, designSeed(0, 2, j), format)
			if err != nil {
				return nil, err
			}
			it.same = true
			randoms = append(randoms, it)
		}
	}
	// Zipf rank → key. Builtins sit at fixed ranks, the heavy life keys
	// further down, so the head of the distribution has the same shape
	// for every seed.
	builtinRanks := []int{3, 6, 10, 15, 21, 28, 36, 45, 55, 66}
	hot := make([]*item, 0, len(builtins)+len(randoms))
	for rank, b, r := 0, 0, 0; b < len(builtins) || r < len(randoms); rank++ {
		if b < len(builtins) && rank == builtinRanks[b] {
			hot = append(hot, builtins[b])
			b++
		} else {
			hot = append(hot, randoms[r])
			r++
		}
	}
	for _, it := range hot {
		it.cached = true // preloaded: every later request is a store hit
	}

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rand.New(rand.NewSource(0)), 1.1, 4, uint64(len(hot)-1))
	warmup := make([]*item, hotMixWarmup)
	for i := range warmup {
		warmup[i] = hot[zipf.Uint64()]
	}
	zipf = rand.NewZipf(rng, 1.1, 4, uint64(len(hot)-1))
	stream := make([]*item, int(seconds*hotMixRate)+1)
	fresh := 0
	for i := range stream {
		if i%freshEvery == freshEvery/2 {
			// Never-seen designs cycle through the three renderers, so
			// each runs in the timed phase.
			format := []string{service.FormatSVG, service.FormatSummary, service.FormatASCII}[fresh%3]
			it, err := randomItem(10+(fresh*13)%31, designSeed(seed, 3, fresh), format)
			if err != nil {
				return nil, err
			}
			stream[i] = it
			fresh++
			continue
		}
		stream[i] = hot[zipf.Uint64()]
	}
	preload := append(append([]*item(nil), builtins...), randoms...)
	return &inputs{preload: preload, warmup: warmup, stream: stream}, nil
}

// ---- items ----

// designSeed gives each generated design its own workload.Random seed:
// stream picks the purpose (1 timed, 2 hot set, 3 never-seen, 4
// warm-up), i the position. Seed 0 marks inputs shared by every seed.
func designSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*100_000_007 + int64(i)
}

func builtinItem(name string, opts service.GenOptions, format string) (*item, error) {
	d := builtinDesigns[name]
	if d == nil {
		return nil, fmt.Errorf("no builtin %q", name)
	}
	return newItem(service.Request{Workload: name, Options: opts, Format: format}, d.Name, len(d.Nets))
}

// randomItem is an inline Appendix-A netlist of workload.Random(n, seed).
func randomItem(n int, seed int64, format string) (*item, error) {
	d := workload.Random(n, seed)
	var calls, nets, io strings.Builder
	if err := netlist.WriteCallFile(&calls, d); err != nil {
		return nil, err
	}
	if err := netlist.WriteNetListFile(&nets, d); err != nil {
		return nil, err
	}
	if err := netlist.WriteIOFile(&io, d); err != nil {
		return nil, err
	}
	req := service.Request{Name: d.Name, Calls: calls.String(), Netlist: nets.String(), IO: io.String(), Format: format}
	return newItem(req, d.Name, len(d.Nets))
}

func newItem(req service.Request, name string, nets int) (*item, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	opts, err := json.Marshal(req.Options)
	if err != nil {
		return nil, err
	}
	return &item{body: body, name: name, format: req.Format, design: name + string(opts), nets: nets}, nil
}

// builtinDesigns are the benchmark's own parse of the service's
// builtin workloads, used to size items and by the traced replay.
var builtinDesigns = map[string]*netlist.Design{
	"fig61":      workload.Fig61(),
	"quickstart": workload.Quickstart(),
	"datapath":   workload.Datapath16(),
	"cpu":        workload.CPU(),
	"life":       workload.Life27(),
}

// ---- output checks ----

// reply is the part of a ResponseV2 the checks read.
type reply struct {
	Name     string `json:"name"`
	Format   string `json:"format"`
	Diagram  string `json:"diagram"`
	Unrouted int    `json:"unrouted"`
	Cached   bool   `json:"cached"`
}

// check validates one response against its item; preload responses
// must be computed, later ones cached as the item says. It returns the
// decoded reply, or a description of the first failed check.
func check(it *item, status int, body []byte, preload bool) (*reply, error) {
	if status != 200 {
		return nil, fmt.Errorf("%s: status %d: %.200s", it.name, status, body)
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("%s: response: %v", it.name, err)
	}
	switch {
	case r.Name != it.name || r.Format != it.format:
		return nil, fmt.Errorf("%s/%s: response names %s/%s", it.name, it.format, r.Name, r.Format)
	case r.Diagram == "":
		return nil, fmt.Errorf("%s: empty diagram", it.name)
	case it.format == service.FormatSVG && !strings.HasPrefix(r.Diagram, "<svg"):
		return nil, fmt.Errorf("%s: diagram is not SVG", it.name)
	case r.Cached != (it.cached && !preload):
		return nil, fmt.Errorf("%s/%s: cached=%v, want %v", it.name, it.format, r.Cached, it.cached && !preload)
	case it.allRouted && r.Unrouted != 0:
		return nil, fmt.Errorf("%s: %d nets unrouted", it.name, r.Unrouted)
	case r.Unrouted < 0 || r.Unrouted > it.nets:
		return nil, fmt.Errorf("%s: unrouted %d of %d nets", it.name, r.Unrouted, it.nets)
	}
	if it.same {
		if want := it.expect(r.Diagram); r.Diagram != want {
			return nil, fmt.Errorf("%s/%s: diagram differs from the reference (%d vs %d bytes)",
				it.name, it.format, len(r.Diagram), len(want))
		}
	}
	return &r, nil
}
