package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// normalizeResp strips the per-request fields (elapsed time, trace,
// cache flag) so two responses can be compared for byte-identical
// artwork. Everything else — diagram, metrics, cache key, stage
// timings, attempts — is the stored result and must match exactly.
func normalizeResp(t *testing.T, r *ResponseV2) []byte {
	t.Helper()
	c := *r
	c.Cached = false
	c.ElapsedMs = 0
	c.Report.Trace = nil
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// corruptOnlyDiskEntry flips a payload byte in every entry file under
// the store directory (there is exactly one in the tests that use it).
func corruptOnlyDiskEntry(t *testing.T, root string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		b[len(b)-1] ^= 0xFF
		n++
		return os.WriteFile(path, b, 0o644)
	})
	if err != nil || n == 0 {
		t.Fatalf("corrupting store entries: n=%d err=%v", n, err)
	}
}

// TestRestartSurvival is the tentpole acceptance check: a tiered store
// over a temp dir is filled, the server is stopped, a fresh server
// over the same directory must serve every earlier request (fig61 and
// quickstart) as a cache hit with byte-identical artwork.
func TestRestartSurvival(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, StoreBackend: "tiered", StoreDir: dir, CacheEntries: 64}
	reqs := []*Request{
		{Workload: "fig61", Format: FormatSummary},
		{Workload: "quickstart", Format: FormatSummary},
	}
	ctx := context.Background()

	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firsts := make([]*ResponseV2, len(reqs))
	for i, req := range reqs {
		first, err := s1.GenerateV2(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if first.Cached {
			t.Fatalf("%s: cold request claims to be cached", req.Workload)
		}
		firsts[i] = first
	}
	// Same process, warm memory tier: sanity-check the hit path.
	warm, err := s1.GenerateV2(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat request missed the warm store")
	}
	s1.Close()

	// "Restart": a fresh server over the same store directory.
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Cache.Entries; got != len(reqs) {
		t.Fatalf("restarted store reloaded %d entries, want %d", got, len(reqs))
	}
	for i, req := range reqs {
		revived, err := s2.GenerateV2(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !revived.Cached {
			t.Fatalf("%s: restarted server recomputed instead of serving the persisted entry", req.Workload)
		}
		if a, b := normalizeResp(t, firsts[i]), normalizeResp(t, revived); string(a) != string(b) {
			t.Fatalf("%s: artwork changed across restart:\n%s\n%s", req.Workload, a, b)
		}
	}
	if hits := s2.Stats().Cache.Hits; hits != uint64(len(reqs)) {
		t.Fatalf("restarted server counted %d hits, want %d", hits, len(reqs))
	}
}

// TestStoreDiskBackend exercises the disk-only composition through the
// service (no memory tier at all).
func TestStoreDiskBackend(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(Config{Workers: 1, StoreBackend: "disk", StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	req := &Request{Workload: "fig61", Format: FormatSummary}
	if _, err := s.GenerateV2(ctx, req); err != nil {
		t.Fatal(err)
	}
	r2, err := s.GenerateV2(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("disk backend did not serve the repeat")
	}
	st := s.Stats().Store
	if st == nil || st.Backend != "disk" || len(st.Tiers) != 1 || st.Tiers[0].Tier != "disk" {
		t.Fatalf("store stats = %+v", st)
	}
	if st.Tiers[0].Hits != 1 || st.Tiers[0].Puts != 1 {
		t.Fatalf("disk tier counters = %+v, want 1 hit / 1 put", st.Tiers[0])
	}
}

// TestStoreConfigErrors: disk-backed stores without a directory and
// unknown backends must fail construction, not at request time.
func TestStoreConfigErrors(t *testing.T) {
	if _, err := NewServer(Config{StoreBackend: "disk"}); err == nil {
		t.Error("disk backend without StoreDir accepted")
	}
	if _, err := NewServer(Config{StoreBackend: "etcd"}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := NewServer(Config{Peers: []string{"http://a:1"}}); err == nil {
		t.Error("peer list without SelfURL accepted")
	}
}

// TestSingleflightCollapse is the tentpole acceptance check: 32
// concurrent identical cold requests execute the pipeline exactly
// once — 1 leader, 31 shared — and produce identical bodies.
func TestSingleflightCollapse(t *testing.T) {
	const N = 32
	s, err := NewServer(Config{Workers: N, QueueDepth: N, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	req := &Request{Workload: "fig61", Format: FormatSummary}
	// Recompute the content address the way process() does, so the
	// leader can hold until every follower is blocked on that key.
	design, canonical, err := s.resolveDesign(req)
	if err != nil || design == nil {
		t.Fatal(err)
	}
	opts, err := req.Options.resolve()
	if err != nil {
		t.Fatal(err)
	}
	key := makeCacheKey(canonical, req.Options.canonical(opts.Degrade), FormatSummary).String()

	s.flightHook = func() {
		deadline := time.Now().Add(10 * time.Second)
		for s.flight.Waiters(key) < N-1 {
			if time.Now().After(deadline) {
				t.Errorf("only %d followers joined before the leader ran", s.flight.Waiters(key))
				return
			}
			runtime.Gosched()
		}
	}

	ctx := context.Background()
	responses := make([]*ResponseV2, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, gerr := s.GenerateV2(ctx, req)
			if gerr != nil {
				t.Errorf("request %d: %v", i, gerr)
				return
			}
			responses[i] = r
		}(i)
	}
	wg.Wait()

	if got := s.obs.SFLeader.Value(); got != 1 {
		t.Errorf("singleflight leader count = %d, want 1", got)
	}
	if got := s.obs.SFShared.Value(); got != N-1 {
		t.Errorf("singleflight shared count = %d, want %d", got, N-1)
	}
	// The pipeline ran once: one route-stage observation.
	if got := s.Stats().Stages["route"].Count; got != 1 {
		t.Errorf("route stage ran %d times, want 1", got)
	}
	base := normalizeResp(t, responses[0])
	for i := 1; i < N; i++ {
		if responses[i] == nil {
			continue
		}
		if b := normalizeResp(t, responses[i]); string(b) != string(base) {
			t.Fatalf("response %d differs from response 0:\n%s\n%s", i, b, base)
		}
	}
}

// TestHealthzStoreSection: /v1/healthz reports the store backend and
// shape, and a failing disk tier degrades the status while the memory
// tier keeps serving.
func TestHealthzStoreSection(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, StoreBackend: "tiered", StoreDir: dir, CacheEntries: 8})

	if _, err := s.GenerateV2(context.Background(), &Request{Workload: "fig61", Format: FormatSummary}); err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	_, body := getJSON(t, ts.URL+"/v1/healthz")
	decode(t, body, &h)
	if h.Status != "ok" {
		t.Fatalf("status = %q, reasons = %v", h.Status, h.Reasons)
	}
	if h.Store == nil || h.Store.Backend != "tiered" || h.Store.Entries != 1 || h.Store.Bytes <= 0 {
		t.Fatalf("store health = %+v", h.Store)
	}
	if h.Store.DiskErrors != 0 {
		t.Fatalf("fresh store reports %d disk errors", h.Store.DiskErrors)
	}

	// Damage the persisted entry the way a failing disk would, then
	// restart over the same dir (cold memory tier) so the next request
	// reads — and rejects — the corrupt disk entry.
	corruptOnlyDiskEntry(t, dir)
	s2, ts2 := newTestServer(t, Config{Workers: 1, StoreBackend: "tiered", StoreDir: dir, CacheEntries: 8})
	if _, err := s2.GenerateV2(context.Background(), &Request{Workload: "fig61", Format: FormatSummary}); err != nil {
		t.Fatal(err)
	}
	var h2 HealthResponse
	_, body2 := getJSON(t, ts2.URL+"/v1/healthz")
	decode(t, body2, &h2)
	if h2.Store == nil || h2.Store.DiskErrors == 0 {
		t.Fatalf("corrupt disk entry not reflected in health: %+v", h2.Store)
	}
	if h2.Status != "degraded" {
		t.Fatalf("status = %q with %d disk errors, want degraded", h2.Status, h2.Store.DiskErrors)
	}
	found := false
	for _, r := range h2.Reasons {
		if strings.HasPrefix(r, "store:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no store reason in %v", h2.Reasons)
	}
}
