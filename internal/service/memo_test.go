package service

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"netart/internal/gen"
	"netart/internal/resilience"
	"netart/internal/workload"
)

// generate runs req on s and fails the test on an error.
func generate(t *testing.T, s *Server, req Request) *ResponseV2 {
	t.Helper()
	resp, err := s.GenerateV2(context.Background(), &req)
	if err != nil {
		t.Fatalf("%s%s: %v", req.Workload, req.Name, err)
	}
	return resp
}

// parseAttr reads an integer attribute of a response's parse stage.
func parseAttr(t *testing.T, r *ResponseV2, key string) int64 {
	t.Helper()
	sp := r.Report.Trace.Find("parse")
	if sp == nil {
		t.Fatal("response has no parse stage")
	}
	v, ok := sp.Attrs[key].(int64)
	if !ok {
		t.Fatalf("parse stage has no integer %s attribute: %v", key, sp.Attrs)
	}
	return v
}

// TestRepeatSkipsParse: a byte-identical repeat takes its key from the
// memo (parse attribute memo=1) and is served from the store with the
// hit's usual tree. The same design spelled differently is a new text,
// so it parses (memo=0), and canonicalization still finds the stored
// value under the same key. Builtins go through the same memo.
func TestRepeatSkipsParse(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 8})
	defer s.Close()
	req := inlineRequest(t, workload.Random(40, 7), FormatSVG)

	first := generate(t, s, req)
	if first.Cached || parseAttr(t, first, "memo") != 0 {
		t.Fatalf("first request: cached %v, memo %d; want a parsed miss", first.Cached, parseAttr(t, first, "memo"))
	}
	second := generate(t, s, req)
	if !second.Cached || parseAttr(t, second, "memo") != 1 {
		t.Fatalf("repeat: cached %v, memo %d; want a memo hit served from the store", second.Cached, parseAttr(t, second, "memo"))
	}
	if got := rootStages(t, second); !reflect.DeepEqual(got, []string{"parse", "store.get"}) {
		t.Errorf("memo hit traces %v, want [parse store.get]", got)
	}
	for _, attr := range []string{"modules", "nets"} {
		if a, b := parseAttr(t, first, attr), parseAttr(t, second, attr); a != b {
			t.Errorf("parse %s: %d from the parse, %d from the memo", attr, a, b)
		}
	}

	// The same design with a comment and its net-list records reversed.
	lines := strings.Split(strings.TrimSuffix(req.Netlist, "\n"), "\n")
	slices.Reverse(lines)
	respelled := req
	respelled.Netlist = "# the same design, spelled differently\n" + strings.Join(lines, "\n") + "\n"
	third := generate(t, s, respelled)
	if !third.Cached || parseAttr(t, third, "memo") != 0 || third.CacheKey != first.CacheKey {
		t.Errorf("respelled request: cached %v, memo %d, key %s; want a parsed hit under %s",
			third.Cached, parseAttr(t, third, "memo"), third.CacheKey, first.CacheKey)
	}

	builtin := Request{Workload: "fig61", Format: FormatSVG}
	generate(t, s, builtin)
	if again := generate(t, s, builtin); !again.Cached || parseAttr(t, again, "memo") != 1 {
		t.Errorf("builtin repeat: cached %v, memo %d; want a memo hit", again.Cached, parseAttr(t, again, "memo"))
	}
}

// TestKeyMemoAgreesWithParse: on a memo hit, a request is served under
// the key a fresh server derives by parsing it, across the builtins,
// the chain workload and inline designs. The digest in front of the
// memo tells apart texts that differ in any key-defining field.
func TestKeyMemoAgreesWithParse(t *testing.T) {
	fresh := New(Config{Workers: 1, CacheEntries: 0})
	defer fresh.Close()
	s := New(Config{Workers: 2, CacheEntries: 64})
	defer s.Close()

	// The five builtins at their golden-corpus options.
	reqs := []Request{
		{Workload: "fig61", Format: FormatSummary, Options: GenOptions{PartSize: 6, BoxSize: 6, RouteOrder: "design"}},
		{Workload: "quickstart", Format: FormatSummary, Options: GenOptions{PartSize: 4, BoxSize: 4, RouteOrder: "design"}},
		{Workload: "datapath", Format: FormatSummary},
		{Workload: "cpu", Format: FormatSummary,
			Options: GenOptions{PartSize: 7, BoxSize: 5, ModSpacing: 1, BoxSpacing: 1, RouteOrder: "design"}},
		{Workload: "life", Format: FormatSummary,
			Options: GenOptions{PartSize: 5, BoxSize: 5, ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3, RouteOrder: "design"}},
	}
	for _, n := range []int{0, 8, 16} {
		reqs = append(reqs, Request{Workload: "chain", ChainLength: n, Format: FormatSummary})
	}
	for i := 0; i < 20; i++ {
		format := []string{FormatSVG, FormatSummary}[i%2]
		reqs = append(reqs, inlineRequest(t, workload.Random(10+i, int64(100+i)), format))
	}
	for _, req := range reqs {
		name := req.Workload + strconv.Itoa(req.ChainLength) + req.Name
		generate(t, s, req)
		hit := generate(t, s, req)
		if !hit.Cached || parseAttr(t, hit, "memo") != 1 {
			t.Errorf("%s: repeat cached %v, memo %d; want a memo hit", name, hit.Cached, parseAttr(t, hit, "memo"))
		}
		if want := coldKey(t, fresh, &req); hit.CacheKey != want {
			t.Errorf("%s: served under %s on a memo hit, parsed to %s", name, hit.CacheKey, want)
		}
	}

	options := GenOptions{}.canonical(gen.DegradeNone)
	base := Request{Name: "d", Calls: "a INV\nb INV\n", Netlist: "w a Y\nw b A\n", IO: "x in\n"}
	digests := map[requestDigest]string{digestRequest(&base, options, FormatSVG): "base"}
	if digestRequest(&base, options, FormatSVG) != digestRequest(&base, options, FormatSVG) {
		t.Fatal("the digest of one request changes between calls")
	}
	for _, v := range []struct {
		name            string
		req             Request
		options, format string
	}{
		{"call record into netlist", Request{Name: "d", Calls: "a INV\n", Netlist: "b INV\nw a Y\nw b A\n", IO: "x in\n"}, options, FormatSVG},
		{"net record into io", Request{Name: "d", Calls: "a INV\nb INV\n", Netlist: "w a Y\n", IO: "w b A\nx in\n"}, options, FormatSVG},
		{"io record into calls", Request{Name: "d", Calls: "a INV\nb INV\nx in\n", Netlist: "w a Y\nw b A\n"}, options, FormatSVG},
		{"name takes a byte of calls", Request{Name: "da", Calls: " INV\nb INV\n", Netlist: "w a Y\nw b A\n", IO: "x in\n"}, options, FormatSVG},
		{"workload takes the name", Request{Workload: "d", Calls: "a INV\nb INV\n", Netlist: "w a Y\nw b A\n", IO: "x in\n"}, options, FormatSVG},
		{"chain length", Request{Name: "d", ChainLength: 8, Calls: "a INV\nb INV\n", Netlist: "w a Y\nw b A\n", IO: "x in\n"}, options, FormatSVG},
		{"options only", base, GenOptions{SwapObjective: true}.canonical(gen.DegradeNone), FormatSVG},
		{"degrade default only", base, GenOptions{}.canonical(gen.DegradeBestEffort), FormatSVG},
		{"format only", base, options, FormatASCII},
	} {
		d := digestRequest(&v.req, v.options, v.format)
		if prev, ok := digests[d]; ok {
			t.Errorf("%s: digest equals that of %s", v.name, prev)
		}
		digests[d] = v.name
	}
}

// TestStaleMemoEntryRecomputes: a memo hit whose value has left the
// store parses late and recomputes. The artwork is the same, the tree
// keeps one root-level parse stage (the late parse is its own span),
// timings.parse_ms counts both, and the next repeat is a hit again.
func TestStaleMemoEntryRecomputes(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 8})
	defer s.Close()
	for _, req := range []Request{
		inlineRequest(t, workload.Random(30, 5), FormatSVG),
		{Workload: "fig61", Format: FormatSVG},
	} {
		name := req.Workload + req.Name
		first := generate(t, s, req)
		if err := s.cache.backend.Delete(context.Background(), first.CacheKey); err != nil {
			t.Fatal(err)
		}
		stale := generate(t, s, req)
		if stale.Cached || parseAttr(t, stale, "memo") != 1 {
			t.Fatalf("%s: after the delete, cached %v and memo %d; want a memo hit that recomputes",
				name, stale.Cached, parseAttr(t, stale, "memo"))
		}
		want := []string{"parse", "store.get", "parse.late", "place", "route", "render", "store.put"}
		if got := rootStages(t, stale); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stale memo entry traces %v, want %v", name, got, want)
		}
		if stale.Diagram != first.Diagram || stale.CacheKey != first.CacheKey || stale.Metrics != first.Metrics {
			t.Errorf("%s: the recomputed artwork differs from the first", name)
		}
		tr := stale.Report.Trace
		if got, want := stale.Report.Timings.Parse, tr.Find("parse").Elapsed()+tr.Find("parse.late").Elapsed(); got != want {
			t.Errorf("%s: timings.parse %v, want parse plus parse.late = %v", name, got, want)
		}
		if next := generate(t, s, req); !next.Cached || parseAttr(t, next, "memo") != 1 {
			t.Errorf("%s: the repeat after the recompute: cached %v, memo %d; want a memo hit",
				name, next.Cached, parseAttr(t, next, "memo"))
		}
	}
}

// TestKeyMemoYieldsToFaults: the memo never stands between a request
// and the parse fault site, so an armed parse:error fires on a
// byte-identical repeat; and while faults are armed the memo is not
// consulted.
func TestKeyMemoYieldsToFaults(t *testing.T) {
	inj := resilience.NewInjector(1)
	s := New(Config{Workers: 1, CacheEntries: 8, Inject: inj})
	defer s.Close()
	req := Request{Workload: "fig61", Format: FormatSummary}
	generate(t, s, req)
	if again := generate(t, s, req); parseAttr(t, again, "memo") != 1 {
		t.Fatal("the repeat missed the memo before faults were armed")
	}

	if err := inj.Arm(resilience.Rule{Site: resilience.SiteParse, Mode: resilience.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := s.GenerateV2(context.Background(), &req)
	var ie *resilience.InjectedError
	if !errors.As(err, &ie) || ie.Site != resilience.SiteParse {
		t.Fatalf("armed repeat: %v, want the injected parse fault", err)
	}
	// The rule is spent but still armed: the request parses.
	if r := generate(t, s, req); r.Cached || parseAttr(t, r, "memo") != 0 {
		t.Errorf("with faults armed: cached %v, memo %d; want neither store nor memo", r.Cached, parseAttr(t, r, "memo"))
	}
}

// TestKeyMemoLRU: the memo allocates nothing before its first insert,
// holds keyMemoEntries entries, and evicts the least recently used, a
// lookup counting as a use. Workers that race to make it lose no entry.
func TestKeyMemoLRU(t *testing.T) {
	digest := func(i int) requestDigest { return digestRequest(&Request{Name: strconv.Itoa(i)}, "", "") }
	entry := func(i int) memoEntry {
		return memoEntry{key: makeCacheKey(strconv.Itoa(i), "", ""), modules: i, nets: 2 * i}
	}

	var m keyMemo
	if _, ok := m.get(digest(0)); ok || m.mem.Load() != nil {
		t.Fatal("an empty memo answered a lookup or allocated for one")
	}
	const n = 1100
	for i := 0; i < n; i++ {
		m.put(digest(i), entry(i))
	}
	if got := m.mem.Load().Len(); got != keyMemoEntries {
		t.Fatalf("memo holds %d entries after %d inserts, want %d", got, n, keyMemoEntries)
	}
	for i := 0; i < n; i++ {
		e, ok := m.get(digest(i))
		if survives := i >= n-keyMemoEntries; ok != survives || (ok && e != entry(i)) {
			t.Fatalf("entry %d: found %v (%+v), want found %v", i, ok, e, survives)
		}
	}

	var lru keyMemo
	for i := 0; i < keyMemoEntries; i++ {
		lru.put(digest(i), entry(i))
	}
	lru.get(digest(0))
	lru.put(digest(keyMemoEntries), entry(keyMemoEntries))
	if _, ok := lru.get(digest(0)); !ok {
		t.Error("a looked-up entry was evicted")
	}
	if _, ok := lru.get(digest(1)); ok {
		t.Error("the least recently used entry survived")
	}

	var racy keyMemo
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * 50; i < (g+1)*50; i++ {
				racy.put(digest(i), entry(i))
				racy.get(digest(i))
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 400; i++ {
		if e, ok := racy.get(digest(i)); !ok || e != entry(i) {
			t.Errorf("entry %d was lost while workers raced to make the memo", i)
		}
	}
}
