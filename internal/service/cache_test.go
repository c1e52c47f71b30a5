package service

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"netart/internal/gen"
	"netart/internal/netlist"
	"netart/internal/store"
	"netart/internal/workload"
)

// inlineRequest writes d as inline Appendix A text, the way a client
// that holds a netlist of its own sends it.
func inlineRequest(t testing.TB, d *netlist.Design, format string) Request {
	t.Helper()
	var calls, nets, io strings.Builder
	if err := netlist.WriteCallFile(&calls, d); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteNetListFile(&nets, d); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteIOFile(&io, d); err != nil {
		t.Fatal(err)
	}
	return Request{Name: d.Name, Calls: calls.String(), Netlist: nets.String(), IO: io.String(), Format: format}
}

// TestCacheKeysStable pins the content address of the five builtins at
// their golden-corpus options and of one inline Random design. The keys
// are what the disk store files entries under, so a change to the
// canonical design or option form must come with a keyVersion bump;
// a rewrite of the serializers that keeps their output byte for byte
// keeps these keys.
func TestCacheKeysStable(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 0})
	defer s.Close()
	inline := inlineRequest(t, workload.Random(25, 11), FormatSVG)
	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{Workload: "fig61", Format: FormatSVG,
			Options: GenOptions{PartSize: 6, BoxSize: 6, RouteOrder: "design"}},
			"9908cf2e1fd8f44d3b9cfbde0d72a17f9907354420c9123993c890daf9c83e7c"},
		{Request{Workload: "quickstart", Format: FormatSVG,
			Options: GenOptions{PartSize: 4, BoxSize: 4, RouteOrder: "design"}},
			"c4720a5f9a07a046c01538e2a4ce3414c5b7523ae3f26b48036a732371e54cdd"},
		{Request{Workload: "datapath", Format: FormatSVG},
			"d50bc490de9e82db0dace40c39647ae48f6cab247f09017da6dc2a73aeb0bf80"},
		{Request{Workload: "cpu", Format: FormatSVG,
			Options: GenOptions{PartSize: 7, BoxSize: 5, ModSpacing: 1, BoxSpacing: 1, RouteOrder: "design"}},
			"d9ec24c0c1c6bf6779d7ba2d5db7284ce689b20c6fceeca40739e3a97b2f1859"},
		{Request{Workload: "life", Format: FormatSVG,
			Options: GenOptions{PartSize: 5, BoxSize: 5, ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3, RouteOrder: "design"}},
			"db080a3cffcc6a4244a22f1739478101b7291d04971355a9ca2e54bb8b478bf1"},
		{inline,
			"38e0103d77b9ac0c001a7c07855c0c58f6655a89fde0698d293554084ecdc69c"},
	} {
		name := tc.req.Workload
		if name == "" {
			name = tc.req.Name
		}
		resp, err := s.GenerateV2(context.Background(), &tc.req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.CacheKey != tc.want {
			t.Errorf("%s: cache key %s, want %s", name, resp.CacheKey, tc.want)
		}
	}
}

// TestCacheKeyCopiesNothing: hashing a cache key, or the key memo's
// request digest, copies none of the hashed text to the heap, however
// long it is ([]byte(s) of more than 32 bytes would).
func TestCacheKeyCopiesNothing(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 0})
	defer s.Close()
	_, canonical, err := s.resolveDesign(&Request{Workload: "life"})
	if err != nil {
		t.Fatal(err)
	}
	if len(canonical) < 4096 {
		t.Fatalf("life's canonical form is %d bytes; the check wants one over 4 KB", len(canonical))
	}
	options := GenOptions{}.canonical(gen.DegradeNone)
	if n := testing.AllocsPerRun(100, func() { makeCacheKey(canonical, options, FormatSVG) }); n != 0 {
		t.Errorf("makeCacheKey allocates %v times per key", n)
	}
	req := inlineRequest(t, workload.Random(40, 1), FormatSVG)
	if n := testing.AllocsPerRun(100, func() { digestRequest(&req, options, FormatSVG) }); n != 0 {
		t.Errorf("digestRequest allocates %v times per digest", n)
	}
}

// rootStages lists the stages directly under a response's trace root,
// in order.
func rootStages(t *testing.T, r *ResponseV2) []string {
	t.Helper()
	if r.Report.Trace == nil || r.Report.Trace.Root == nil {
		t.Fatal("response carries no trace")
	}
	var out []string
	for _, sp := range r.Report.Trace.Root.Children {
		out = append(out, sp.Stage)
	}
	return out
}

// TestStoreSpans: an enabled store's lookup and fill are spans of the
// request. A stored miss reads parse, store.get (hit=0), the pipeline
// and store.put; the repeat reads parse and store.get (hit=1) alone,
// and both spans carry the value's size. With the store off neither
// span exists.
func TestStoreSpans(t *testing.T) {
	req := Request{Workload: "fig61", Format: FormatSVG}
	attr := func(r *ResponseV2, stage, key string) int64 {
		t.Helper()
		sp := r.Report.Trace.Find(stage)
		if sp == nil {
			t.Fatalf("no %s span", stage)
		}
		v, ok := sp.Attrs[key].(int64)
		if !ok {
			t.Fatalf("%s span has no integer %s attribute: %v", stage, key, sp.Attrs)
		}
		return v
	}

	s := New(Config{Workers: 1, CacheEntries: 8})
	defer s.Close()
	miss, err := s.GenerateV2(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"parse", "store.get", "place", "route", "render", "store.put"}
	if got := rootStages(t, miss); !reflect.DeepEqual(got, want) {
		t.Errorf("stored miss traces %v, want %v", got, want)
	}
	if attr(miss, "store.get", "hit") != 0 || attr(miss, "store.get", "bytes") != 0 {
		t.Errorf("miss's store.get attrs %v, want hit=0 bytes=0", miss.Report.Trace.Find("store.get").Attrs)
	}
	putBytes := attr(miss, "store.put", "bytes")
	if putBytes <= int64(len(miss.Diagram)) {
		t.Errorf("store.put bytes=%d, want more than the %d-byte diagram", putBytes, len(miss.Diagram))
	}

	hit, err := s.GenerateV2(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("repeat missed the store")
	}
	if got := rootStages(t, hit); !reflect.DeepEqual(got, []string{"parse", "store.get"}) {
		t.Errorf("hit traces %v, want [parse store.get]", got)
	}
	if attr(hit, "store.get", "hit") != 1 || attr(hit, "store.get", "bytes") != putBytes {
		t.Errorf("hit's store.get attrs %v, want hit=1 bytes=%d", hit.Report.Trace.Find("store.get").Attrs, putBytes)
	}

	off := New(Config{Workers: 1, CacheEntries: 0})
	defer off.Close()
	cold, err := off.GenerateV2(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if got := rootStages(t, cold); !reflect.DeepEqual(got, []string{"parse", "place", "route", "render"}) {
		t.Errorf("store off traces %v, want no store spans", got)
	}
}

// TestHitEqualsMiss: a response served from the store is the computed
// response on the wire, apart from the three per-request fields:
// cached, elapsed_ms and report.trace.
func TestHitEqualsMiss(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 8})
	defer s.Close()
	req := inlineRequest(t, workload.Random(25, 3), FormatSVG)
	miss, err := s.GenerateV2(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := s.GenerateV2(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached || !hit.Cached {
		t.Fatalf("cached: miss %v, hit %v", miss.Cached, hit.Cached)
	}
	if !strings.HasPrefix(hit.Diagram, "<svg") {
		t.Fatalf("hit serves no SVG: %.40q", hit.Diagram)
	}
	if hit.Diagram != miss.Diagram {
		t.Error("hit's diagram differs from the miss's")
	}
	if m, h := normalizeResp(t, miss), normalizeResp(t, hit); !bytes.Equal(m, h) {
		t.Errorf("hit differs from miss beyond cached, elapsed_ms and report.trace:\n%s\n%s", m, h)
	}
}

// TestUnframedValueRecomputed: a value in the store's earlier format
// (the whole response as JSON) is refused, deleted and recomputed, and
// the repeat is then served from the framed value that replaced it.
// This is the upgrade path of a daemon restarted over an older disk
// store.
func TestUnframedValueRecomputed(t *testing.T) {
	req := Request{Workload: "fig61", Format: FormatSVG}
	ref := New(Config{Workers: 1, CacheEntries: 0})
	defer ref.Close()
	want, err := ref.GenerateV2(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	disk, err := store.NewDisk(dir, store.DiskOptions{Namespace: keyVersion})
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Put(context.Background(), want.CacheKey, old); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(Config{Workers: 1, CacheEntries: 8, StoreBackend: "tiered", StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.Stats().Cache.Entries; n != 1 {
		t.Fatalf("store reloaded %d entries, want the planted 1", n)
	}
	first, err := s.GenerateV2(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("an unframed value was served")
	}
	if st := s.Stats().Cache; st.Hits != 0 || st.Misses != 1 {
		t.Errorf("cache counted %d hits, %d misses; want the refused value as 1 miss", st.Hits, st.Misses)
	}
	val, ok, err := s.cache.backend.Get(context.Background(), want.CacheKey)
	if err != nil || !ok || bytes.Equal(val, old) {
		t.Fatalf("the refused value was not replaced (found %v, err %v)", ok, err)
	}
	if _, err := decodeStored(val); err != nil {
		t.Fatalf("the replacement does not decode: %v", err)
	}
	second, err := s.GenerateV2(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat after the recompute missed the store")
	}
	if artworkOf(t, second) != artworkOf(t, want) || second.Metrics != want.Metrics {
		t.Error("served artwork differs from the reference")
	}
}

// maxExactTiming bounds the stage timings FuzzStoredValue compares:
// gen.StageTimings travels as millisecond floats, which carry whole
// microseconds exactly only up to about 25 days.
const maxExactTiming = time.Duration(1) << 50

// FuzzStoredValue feeds arbitrary bytes to the stored-value decoder. It
// must never panic, and a value that decodes must re-encode to a value
// that decodes to the same response: the same diagram bytes and the
// same wire form.
func FuzzStoredValue(f *testing.F) {
	resp := ResponseV2{
		Name: "fig61", Format: FormatSVG, Diagram: "<svg>\x00\xff</svg>\n", Unrouted: 1,
		CacheKey: strings.Repeat("ab", 32), ElapsedMs: 1.5,
		Report: Report{
			Timings:  gen.StageTimings{Place: 1234 * time.Microsecond},
			Attempts: []string{"route[line-expansion]"},
			Degraded: &DegradedReport{Reason: "r", Unrouted: []string{"n: a.b"}},
		},
	}
	framed, err := encodeStored(resp)
	if err != nil {
		f.Fatal(err)
	}
	whole, err := json.Marshal(resp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(framed)
	f.Add(whole)
	f.Add(framed[:frameHeader+7])
	f.Fuzz(func(t *testing.T, val []byte) {
		r1, err := decodeStored(val)
		if err != nil {
			return
		}
		for _, d := range []time.Duration{r1.Report.Timings.Parse, r1.Report.Timings.Place, r1.Report.Timings.Route, r1.Report.Timings.Render} {
			if d > maxExactTiming || d < -maxExactTiming {
				t.Skip("stage timing beyond the ms-float codec's exact range")
			}
		}
		again, err := encodeStored(r1)
		if err != nil {
			t.Fatalf("a decoded value does not re-encode: %v", err)
		}
		r2, err := decodeStored(again)
		if err != nil {
			t.Fatalf("a re-encoded value does not decode: %v", err)
		}
		if r2.Diagram != r1.Diagram {
			t.Fatalf("diagram %q became %q", r1.Diagram, r2.Diagram)
		}
		w1, err1 := json.Marshal(r1)
		w2, err2 := json.Marshal(r2)
		if err1 != nil || err2 != nil || !bytes.Equal(w1, w2) {
			t.Fatalf("response changed across a round trip (%v, %v):\n%s\n%s", err1, err2, w1, w2)
		}
	})
}
