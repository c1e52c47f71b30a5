package main

// The traced run attributes each request's time to netart's layers. The
// handler is wrapped to time ServeHTTP, and the server checks every
// routing it computes (Config.VerifyRouting). Every /v2/generate
// response carries the program's own span tree (Report.Trace: parse,
// verify, place, route with its attempts, render) and the router's
// counters (Report.Search); the traced run reads its layer times and
// counts from there. What the program does not time, the client replays
// after the round trip by calling the same public functions: request
// decode, response encode, the cache-key material, the §4.6.3 placement
// sub-steps, and the store calls on a store of the server's shape. The
// handler time left over is service.unattributed: pool hand-off,
// singleflight, key hashing, readability metrics, trace snapshots and
// whatever else the service does between layers.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"netart/internal/boxes"
	"netart/internal/library"
	"netart/internal/netlist"
	"netart/internal/obs"
	"netart/internal/partition"
	"netart/internal/service"
	"netart/internal/store"
)

// span is one timed call in a request's tree; parent "" is the root.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Ms     float64 `json:"ms"`
	SelfMs float64 `json:"self_ms"`
}

// spanKey names a span and its parent.
type spanKey struct{ name, parent string }

// spanAgg accumulates one span over all traced requests.
type spanAgg struct {
	ms     []float64
	selfMs float64
}

// counts are the work counters read from responses and replays.
type counts struct {
	requests, computed, values      int
	routeMs                         float64
	partitions, boxes               int
	searches, waves, actives, cells int
	widened, nets, routedNets       int
	responseBytes, svgs, svgBytes   int
	valueBytes                      int
}

// tracer reads and replays traced requests and aggregates their spans.
type tracer struct {
	dir   string
	lib   *library.Library
	store store.Store // the benchmark's own store of the server's shape; nil when caching is off

	mu       sync.Mutex
	spans    map[spanKey]*spanAgg
	c        counts
	samples  [][]span // the first few request trees
	keys     map[*item]string
	failures int
}

func newTracer(w *workloadSpec) (*tracer, error) {
	t := &tracer{lib: library.Builtin(), spans: map[spanKey]*spanAgg{}, keys: map[*item]string{}}
	dir, err := os.MkdirTemp(scratchDir, "replay-")
	if err != nil {
		return nil, err
	}
	t.dir = dir
	// The same composition the service builds from its config.
	switch cfg := w.config(dir); {
	case cfg.StoreBackend == "tiered":
		disk, err := store.NewDisk(dir, store.DiskOptions{Namespace: "v1", MaxBytes: 256 << 20})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		t.store = store.NewTiered(store.NewMem(cfg.CacheEntries, nil), disk, nil)
	case cfg.CacheEntries < 0:
		t.store = store.NewMem(256, nil)
	case cfg.CacheEntries > 0:
		t.store = store.NewMem(cfg.CacheEntries, nil)
	}
	return t, nil
}

func (t *tracer) close() {
	if t.store != nil {
		_ = t.store.Close()
	}
	os.RemoveAll(t.dir)
}

// preloaded mirrors a preload response into the benchmark's store, as
// the server stored it.
func (t *tracer) preloaded(it *item, body []byte) {
	if t.store == nil {
		return
	}
	var resp service.ResponseV2
	err := json.Unmarshal(body, &resp)
	if err == nil {
		t.mu.Lock()
		t.keys[it] = resp.CacheKey
		t.mu.Unlock()
		var val []byte
		if val, err = json.Marshal(resp); err == nil {
			err = t.store.Put(context.Background(), resp.CacheKey, val)
		}
	}
	if err != nil {
		t.fail(fmt.Errorf("%s: preload: %v", it.name, err))
	}
}

// warmed mirrors the warm-up's lookups, so the store's tiers hold what
// the server's hold when the traced phase starts.
func (t *tracer) warmed(in *inputs) {
	if t.store == nil {
		return
	}
	for _, it := range in.warmup {
		if key, ok := t.keys[it]; ok {
			_, _, _ = t.store.Get(context.Background(), key)
		}
	}
}

func (t *tracer) fail(err error) {
	noteFailure(err)
	t.mu.Lock()
	t.failures++
	t.mu.Unlock()
}

// onSample reads and replays one traced request; it runs on the client
// goroutine after the round trip.
func (t *tracer) onSample(handler time.Duration, it *item, s *sample, body []byte) {
	var resp service.ResponseV2
	if err := json.Unmarshal(body, &resp); err != nil {
		t.fail(fmt.Errorf("%s: %v", it.name, err))
		return
	}
	r := replay{t: t, it: it}
	if err := r.run(&resp); err != nil {
		t.fail(fmt.Errorf("%s: %w", it.name, err))
		return
	}
	r.c.requests = 1
	r.c.responseBytes = len(body)
	t.record(s.rt, handler, &r)
}

// replay is one request's spans under service.handler and the counters
// read for it.
type replay struct {
	t        *tracer
	it       *item
	children []span
	c        counts
}

const handlerSpan = "service.handler"

func msOf(us int64) float64 { return float64(us) / 1000 }

// timed runs f as span name under parent.
func (r *replay) timed(name, parent string, f func() error) error {
	t0 := time.Now()
	err := f()
	r.children = append(r.children, span{Name: name, Parent: parent, Ms: float64(time.Since(t0)) / float64(time.Millisecond)})
	return err
}

func (r *replay) run(resp *service.ResponseV2) error {
	var req service.Request
	if err := r.timed("service.decode", handlerSpan, func() error {
		dec := json.NewDecoder(bytes.NewReader(r.it.body))
		dec.DisallowUnknownFields()
		return dec.Decode(&req)
	}); err != nil {
		return err
	}
	if resp.Report.Trace == nil || resp.Report.Trace.Root == nil {
		return fmt.Errorf("response carries no span tree")
	}
	stages := map[string]*obs.SpanData{}
	for _, sd := range resp.Report.Trace.Root.Children {
		if stages[sd.Stage] != nil {
			return fmt.Errorf("span tree has two %q stages", sd.Stage)
		}
		stages[sd.Stage] = sd
	}
	parse := stages["parse"]
	if parse == nil {
		return fmt.Errorf("span tree has no parse stage")
	}
	layer := "netlist.load"
	if req.Workload != "" {
		layer = "netlist.clone"
	}
	r.children = append(r.children, span{Name: layer, Parent: handlerSpan, Ms: msOf(parse.ElapsedUs)})

	// The design, resolved again outside every span, for the replays.
	d, err := r.t.design(&req)
	if err != nil {
		return err
	}
	_ = r.timed("netlist.canonical", layer, func() error {
		h := sha256.New()
		_ = netlist.WriteIOFile(h, d)
		_ = netlist.WriteNetListFile(h, d)
		h.Sum(nil)
		return nil
	})

	ctx := context.Background()
	if st := r.t.store; st != nil {
		var val []byte
		var found bool
		if err := r.timed("store.get", handlerSpan, func() error {
			var err error
			val, found, err = st.Get(ctx, resp.CacheKey)
			return err
		}); err != nil {
			return err
		}
		if found != resp.Cached {
			return fmt.Errorf("replayed store lookup found=%v, served cached=%v", found, resp.Cached)
		}
		if found {
			r.c.values++
			r.c.valueBytes += len(val)
			if err := r.timed("store.unmarshal", handlerSpan, func() error {
				var v service.ResponseV2
				return json.Unmarshal(val, &v)
			}); err != nil {
				return err
			}
		}
	}
	if !resp.Cached {
		if err := r.computed(resp, &req, stages); err != nil {
			return err
		}
	}
	return r.timed("service.encode", handlerSpan, func() error {
		enc := json.NewEncoder(io.Discard)
		enc.SetEscapeHTML(false)
		return enc.Encode(resp)
	})
}

// computed files the pipeline stages of a computed response and replays
// the placement sub-steps and the store put.
func (r *replay) computed(resp *service.ResponseV2, req *service.Request, stages map[string]*obs.SpanData) error {
	place, route, render := stages["place"], stages["route"], stages["render"]
	switch {
	case place == nil || route == nil || render == nil:
		return fmt.Errorf("computed response lacks a place, route or render stage")
	case stages["verify"] == nil:
		return fmt.Errorf("computed response was not checked by route.VerifyEquivalence")
	}
	r.c.computed = 1
	v := stages["verify"]
	r.children = append(r.children,
		span{Name: "verify", Parent: handlerSpan, Ms: msOf(v.ElapsedUs)},
		span{Name: "place", Parent: handlerSpan, Ms: msOf(place.ElapsedUs)},
		span{Name: "route", Parent: handlerSpan, Ms: msOf(route.ElapsedUs)},
		span{Name: "schematic." + resp.Format, Parent: handlerSpan, Ms: msOf(render.ElapsedUs)})
	// The route stage is the router's attempts followed by
	// schematic.FromRouting; the stage's self time is the latter.
	for _, a := range route.Children {
		if a.Stage == "route.attempt" {
			r.c.routeMs += msOf(a.ElapsedUs)
			r.children = append(r.children, span{Name: "route.attempt", Parent: "route", Ms: msOf(a.ElapsedUs)})
		}
	}
	if resp.Format == service.FormatSVG {
		r.c.svgs++
		r.c.svgBytes += len(resp.Diagram)
	}
	st := resp.Report.Search
	r.c.searches, r.c.waves, r.c.actives, r.c.cells, r.c.widened = st.Searches, st.Waves, st.Actives, st.Cells, st.Widened
	nets, _ := attrInt(stages["parse"], "nets")
	r.c.nets, r.c.routedNets = nets, nets-resp.Unrouted

	// The §4.6.3 sub-steps place.Place runs first, on a fresh copy of
	// the design; their counts must equal what the place stage reports.
	d, err := r.t.design(req)
	if err != nil {
		return err
	}
	po := placeOptions(req.Options)
	var parts []*partition.Part
	var bxs [][]*boxes.Box
	_ = r.timed("place.partition", "place", func() error {
		parts = partition.Partition(d, partition.Config{MaxSize: po.partSize, MaxConnections: po.maxConnections})
		return nil
	})
	_ = r.timed("place.boxes", "place", func() error {
		bxs = boxes.Form(d, parts, boxes.Config{MaxBoxSize: po.boxSize})
		return nil
	})
	nb := 0
	for _, b := range bxs {
		nb += len(b)
	}
	wantParts, _ := attrInt(place, "partitions")
	wantBoxes, _ := attrInt(place, "boxes")
	if len(parts) != wantParts || nb != wantBoxes {
		return fmt.Errorf("replayed placement sub-steps give %d partitions and %d boxes, the place stage %d and %d",
			len(parts), nb, wantParts, wantBoxes)
	}
	r.c.partitions, r.c.boxes = wantParts, wantBoxes

	if st := r.t.store; st != nil {
		val, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		r.c.values++
		r.c.valueBytes += len(val)
		return r.timed("store.put", handlerSpan, func() error {
			return st.Put(context.Background(), resp.CacheKey, val)
		})
	}
	return nil
}

// attrInt reads an integer span attribute (JSON numbers decode as
// float64).
func attrInt(sd *obs.SpanData, key string) (int, bool) {
	f, ok := sd.Attrs[key].(float64)
	return int(f), ok
}

// record files one request: the root, transport and handler spans, the
// layer spans with their self times, and the counters.
func (t *tracer) record(rt, handler time.Duration, r *replay) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	tree := []span{
		{Name: "request", Ms: ms(rt)},
		{Name: "service.transport", Parent: "request", Ms: ms(rt - handler)},
		{Name: handlerSpan, Parent: "request", Ms: ms(handler)},
	}
	tree = append(tree, r.children...)
	childMs := map[string]float64{}
	for _, s := range tree {
		if s.Parent != "" {
			childMs[s.Parent] += s.Ms
		}
	}
	for i := range tree {
		tree[i].SelfMs = tree[i].Ms - childMs[tree[i].Name]
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range tree {
		k := spanKey{s.Name, s.Parent}
		a := t.spans[k]
		if a == nil {
			a = &spanAgg{}
			t.spans[k] = a
		}
		a.ms = append(a.ms, s.Ms)
		a.selfMs += s.SelfMs
	}
	t.c.add(&r.c)
	if len(t.samples) < 8 {
		t.samples = append(t.samples, tree)
	}
}

func (c *counts) add(o *counts) {
	c.requests += o.requests
	c.computed += o.computed
	c.values += o.values
	c.routeMs += o.routeMs
	c.partitions += o.partitions
	c.boxes += o.boxes
	c.searches += o.searches
	c.waves += o.waves
	c.actives += o.actives
	c.cells += o.cells
	c.widened += o.widened
	c.nets += o.nets
	c.routedNets += o.routedNets
	c.responseBytes += o.responseBytes
	c.svgs += o.svgs
	c.svgBytes += o.svgBytes
	c.valueBytes += o.valueBytes
}

// design resolves a request to a private design as the service does:
// a clone of a builtin, or inline text loaded against the builtin
// library and validated.
func (t *tracer) design(req *service.Request) (*netlist.Design, error) {
	if req.Workload != "" {
		return builtinDesigns[req.Workload].Clone(), nil
	}
	d, err := netlist.Load(req.Name, strings.NewReader(req.Calls), strings.NewReader(req.Netlist),
		strings.NewReader(req.IO), t.lib)
	if err != nil {
		return nil, err
	}
	return d, d.Validate(1)
}

// subStepOptions are the options the placement sub-steps read.
type subStepOptions struct{ partSize, boxSize, maxConnections int }

// placeOptions applies the service's defaults (part size 7, box size 5)
// to the request's placement options. A wrong default shows as a count
// mismatch with the place stage, which fails the run.
func placeOptions(o service.GenOptions) subStepOptions {
	po := subStepOptions{partSize: o.PartSize, boxSize: o.BoxSize, maxConnections: o.MaxConnections}
	if po.partSize == 0 {
		po.partSize = 7
	}
	if po.boxSize == 0 {
		po.boxSize = 5
	}
	return po
}

// ---- per-layer metrics and the report ----

// layerMetrics derives the per-layer metrics from the traced phase (t)
// and, for process and store counters, the untraced phase (u). A layer
// the workload's path never runs reads 0.
func (t *tracer) layerMetrics(u *phase) map[string]float64 {
	mean := func(name string) float64 {
		var sum float64
		var n int
		for k, a := range t.spans {
			if k.name == name {
				for _, v := range a.ms {
					sum += v
				}
				n += len(a.ms)
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	selfMean := func(name string) float64 {
		var sum float64
		var n int
		for k, a := range t.spans {
			if k.name == name {
				sum += a.selfMs
				n += len(a.ms)
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	per := func(n, d int) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	c := t.c
	m := map[string]float64{
		"service.handler_ms":        mean(handlerSpan),
		"service.transport_ms":      mean("service.transport"),
		"service.decode_ms":         mean("service.decode"),
		"service.encode_ms":         mean("service.encode"),
		"service.response_kb":       per(c.responseBytes, c.requests) / 1024,
		"service.unattributed_ms":   selfMean(handlerSpan),
		"netlist.load_ms":           mean("netlist.load"),
		"netlist.clone_ms":          mean("netlist.clone"),
		"netlist.canonical_ms":      mean("netlist.canonical"),
		"place.ms":                  mean("place"),
		"place.partition_ms":        mean("place.partition"),
		"place.boxes_ms":            mean("place.boxes"),
		"place.partitions":          per(c.partitions, c.computed),
		"place.boxes":               per(c.boxes, c.computed),
		"route.searches":            per(c.searches, c.computed),
		"route.waves":               per(c.waves, c.computed),
		"route.actives":             per(c.actives, c.computed),
		"route.cells":               per(c.cells, c.computed),
		"route.widened_ratio":       per(c.widened, c.searches),
		"route.routed_ratio":        per(c.routedNets, c.nets),
		"schematic.from_routing_ms": selfMean("route"),
		"schematic.svg_ms":          mean("schematic.svg"),
		"schematic.ascii_ms":        mean("schematic.ascii"),
		"schematic.summary_ms":      mean("schematic.summary"),
		"schematic.svg_kb":          per(c.svgBytes, c.svgs) / 1024,
		"store.get_ms":              mean("store.get"),
		"store.put_ms":              mean("store.put"),
		"store.unmarshal_ms":        mean("store.unmarshal"),
		"store.value_kb":            per(c.valueBytes, c.values) / 1024,
	}
	m["route.ms"] = 0
	if c.computed > 0 {
		m["route.ms"] = c.routeMs / float64(c.computed)
	}
	n := len(u.samples)
	hits := u.stats.Cache.Hits - u.statsStart.Cache.Hits
	misses := u.stats.Cache.Misses - u.statsStart.Cache.Misses
	m["store.hit_ratio"] = per(int(hits), int(hits+misses))
	memHits, allHits := tierHits(u)
	m["store.mem_hit_ratio"] = per(memHits, allHits)
	m["runtime.gc_pause_ms_per_req"] = per(int(u.gcPauseNs), n) / 1e6
	m["runtime.gc_cycles_per_req"] = per(int(u.gcCycles), n)
	m["process.cpu_util"] = u.cpu.Seconds() / (u.wall.Seconds() * float64(nproc()))
	return m
}

// tierHits returns the mem-tier hits and the hits of all tiers over
// the phase, from the server's /v1/stats store block.
func tierHits(p *phase) (mem, all int) {
	if p.stats.Store == nil || p.statsStart.Store == nil {
		return 0, 0
	}
	for i, tier := range p.stats.Store.Tiers {
		d := int(tier.Hits - p.statsStart.Store.Tiers[i].Hits)
		all += d
		if tier.Tier == "mem" {
			mem += d
		}
	}
	return mem, all
}

// spanReport is one span name in the traced-run report.
type spanReport struct {
	Name        string  `json:"name"`
	Parent      string  `json:"parent,omitempty"`
	Calls       int     `json:"calls"`
	MeanMs      float64 `json:"mean_ms"`
	P50Ms       float64 `json:"p50_ms"`
	TotalMs     float64 `json:"total_ms"`
	SelfTotalMs float64 `json:"self_total_ms"`
	// SelfPerRequestMs is the self time averaged over all traced
	// requests, so the self times of all spans sum to the mean request.
	SelfPerRequestMs float64 `json:"self_per_request_ms"`
}

// traceReport is the JSON file a traced run writes.
type traceReport struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Host     map[string]any     `json:"host"`
	Untraced map[string]float64 `json:"untraced"`
	Traced   map[string]float64 `json:"traced"`
	// Overhead is the traced minus the untraced end-to-end figure.
	Overhead       map[string]float64 `json:"tracing_overhead"`
	UnattributedMs float64            `json:"unattributed_per_request_ms"`
	Spans          []spanReport       `json:"spans"`
	Metrics        map[string]float64 `json:"metrics"`
	Failures       []string           `json:"failures,omitempty"`
	Samples        [][]span           `json:"sample_requests"`
}

func (t *tracer) report(w *workloadSpec, seed int64, seconds float64, u, tp *phase, metrics map[string]float64) *traceReport {
	rep := &traceReport{
		Workload: w.name, Seed: seed, Seconds: seconds, Host: hostShape(),
		Untraced: endToEndSummary(u), Traced: endToEndSummary(tp),
		Overhead: map[string]float64{}, Metrics: metrics, Samples: t.samples,
		UnattributedMs: metrics["service.unattributed_ms"],
	}
	for k, v := range rep.Traced {
		if k != "requests" && k != "windows" {
			rep.Overhead[k] = v - rep.Untraced[k]
		}
	}
	requests := float64(t.c.requests)
	for k, a := range t.spans {
		sorted := append([]float64(nil), a.ms...)
		sort.Float64s(sorted)
		var total float64
		for _, v := range sorted {
			total += v
		}
		sr := spanReport{Name: k.name, Parent: k.parent, Calls: len(sorted), MeanMs: total / float64(len(sorted)),
			P50Ms: percentile(sorted, 0.5), TotalMs: total, SelfTotalMs: a.selfMs}
		if requests > 0 {
			sr.SelfPerRequestMs = a.selfMs / requests
		}
		rep.Spans = append(rep.Spans, sr)
	}
	sort.Slice(rep.Spans, func(i, j int) bool { return rep.Spans[i].SelfTotalMs > rep.Spans[j].SelfTotalMs })
	failMu.Lock()
	rep.Failures = append([]string(nil), failures...)
	failMu.Unlock()
	return rep
}
