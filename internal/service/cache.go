package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync/atomic"

	"netart/internal/obs"
	"netart/internal/resilience"
	"netart/internal/store"
)

// keyVersion versions the cache-key scheme AND the store namespace:
// the disk layout lives under <store-dir>/<keyVersion>, so bumping
// the scheme strands old persisted entries instead of ever serving
// one against a key built by different rules.
const keyVersion = "v1"

// cacheKey is the content address of one generation request: the
// SHA-256 of the canonical netlist serialization plus the canonical
// option string plus the output format (see DESIGN.md "Service result
// cache"). Canonicalizing through the parsed design means two
// syntactically different but semantically identical inline netlists
// (reordered records, comments, whitespace) hash to the same key.
type cacheKey [sha256.Size]byte

// makeCacheKey hashes the canonical request identity. Fields are
// separated by NUL bytes so concatenations cannot collide.
func makeCacheKey(canonicalDesign, canonicalOptions, format string) cacheKey {
	return sum256(false, "netartd/"+keyVersion+"\x00", canonicalDesign, "\x00", canonicalOptions, "\x00", format)
}

func (k cacheKey) String() string { return hex.EncodeToString(k[:]) }

// sum256 is the SHA-256 of parts in order, each part preceded by its
// length as 8 big-endian bytes when lengths is set. The parts reach
// the hasher through a stack chunk, so hashing copies nothing to the
// heap: []byte(s) of more than 32 bytes would be a heap copy, and the
// chunk stays on the stack only while h.Write is devirtualized, which
// holds inside the function that calls sha256.New.
func sum256(lengths bool, parts ...string) (sum [sha256.Size]byte) {
	h := sha256.New()
	var chunk [512]byte
	for _, p := range parts {
		if lengths {
			binary.BigEndian.PutUint64(chunk[:8], uint64(len(p)))
			h.Write(chunk[:8])
		}
		for len(p) > 0 {
			n := copy(chunk[:], p)
			h.Write(chunk[:n])
			p = p[n:]
		}
	}
	h.Sum(sum[:0])
	return sum
}

// requestDigest identifies a request's key-defining text: the fields
// that choose its design, the canonical option string and the format.
// It stands in for the cache key in the key memo, so it needs the same
// collision resistance: a collision would serve one design's artwork
// for another.
type requestDigest [sha256.Size]byte

// digestRequest hashes the fields of req that decide its design, with
// the canonical options (the server's degrade default applied) and the
// resolved format. Each field is length-prefixed, so text cannot move
// between fields unnoticed.
func digestRequest(req *Request, options, format string) requestDigest {
	var chain [8]byte
	binary.BigEndian.PutUint64(chain[:], uint64(req.ChainLength))
	return sum256(true, req.Workload, string(chain[:]), req.Name, req.Calls, req.Netlist, req.IO, options, format)
}

// keyMemoEntries bounds the key memo: five times the 200-key hot set
// of perfbench's hot-mix workload.
const keyMemoEntries = 1024

// keyMemo maps a request digest to the cache key that request's text
// parsed to and its design's module and net counts, so a byte-identical
// repeat finds its key without building its design. It is a store.Mem
// without a recorder, made at the first insert: a daemon whose store
// is off never allocates it.
type keyMemo struct {
	mem atomic.Pointer[store.Mem]
}

// memoEntry is what the key memo holds for one digest.
type memoEntry struct {
	key           cacheKey
	modules, nets int
}

// memoValueLen is an encoded memoEntry: the key, then the two counts
// as 8 big-endian bytes each.
const memoValueLen = sha256.Size + 16

// get returns the entry for d, promoting it to most recently used.
func (m *keyMemo) get(d requestDigest) (memoEntry, bool) {
	mem := m.mem.Load()
	if mem == nil {
		return memoEntry{}, false
	}
	val, ok, _ := mem.Get(context.Background(), string(d[:]))
	if !ok || len(val) != memoValueLen {
		return memoEntry{}, false
	}
	var e memoEntry
	copy(e.key[:], val)
	e.modules = int(binary.BigEndian.Uint64(val[sha256.Size:]))
	e.nets = int(binary.BigEndian.Uint64(val[sha256.Size+8:]))
	return e, true
}

// put records e under d, evicting the least recently used entry beyond
// keyMemoEntries.
func (m *keyMemo) put(d requestDigest, e memoEntry) {
	mem := m.mem.Load()
	if mem == nil {
		m.mem.CompareAndSwap(nil, store.NewMem(keyMemoEntries, nil))
		mem = m.mem.Load()
	}
	val := make([]byte, memoValueLen)
	copy(val, e.key[:])
	binary.BigEndian.PutUint64(val[sha256.Size:], uint64(e.modules))
	binary.BigEndian.PutUint64(val[sha256.Size+8:], uint64(e.nets))
	_ = mem.Put(context.Background(), string(d[:]), val)
}

// resultStore adapts the pluggable store.Store tier to the service:
// it owns the ResponseV2 ↔ bytes serialization, the request-level
// hit/miss counters (the per-tier view lives in
// netart_store_events_total), and — in exactly one place — the rule
// that the store is bypassed while fault injection is armed, so every
// backend (mem, disk, tiered) inherits it.
type resultStore struct {
	backend store.Store // nil disables caching entirely
	backing string      // config backend name, for the health surface
	inject  *resilience.Injector

	// Request-level event counters shared with /metrics and /v1/stats.
	hits   *obs.Counter
	misses *obs.Counter

	// memo is consulted and filled only while the store is enabled.
	memo keyMemo
}

// newResultStore wraps backend (which may be nil = caching disabled).
func newResultStore(backend store.Store, backing string, inject *resilience.Injector, m *obs.Pipeline) *resultStore {
	return &resultStore{
		backend: backend,
		backing: backing,
		inject:  inject,
		hits:    m.CacheHits,
		misses:  m.CacheMisses,
	}
}

// faultsArmed is THE single site of the cache-while-faults-armed
// rule: while any injection rule is armed, cached artwork must not
// be served (a chaos run must not be masked by earlier hits) and
// results must not be stored (an injected failure must never poison
// cached artwork). get, put, and the singleflight/peer layers all
// consult this one helper.
func (c *resultStore) faultsArmed() bool { return c.inject.Enabled() }

// enabled reports whether lookups/stores run at all.
func (c *resultStore) enabled() bool { return c.backend != nil && !c.faultsArmed() }

// get returns the stored response for k. Misses are counted except
// while faults are armed (bypass, not a miss); a disabled store
// counts misses, matching the previous cache semantics. An enabled
// store's lookup is the request's "store.get" span, with the value's
// size and whether it was served.
func (c *resultStore) get(ctx context.Context, o *obs.Observer, k cacheKey) (ResponseV2, bool) {
	if c.faultsArmed() {
		return ResponseV2{}, false
	}
	if c.backend == nil {
		c.misses.Add(1)
		return ResponseV2{}, false
	}
	sp := o.StartSpan("store.get")
	defer sp.End()
	val, ok, err := c.backend.Get(ctx, k.String())
	sp.SetAttr("bytes", int64(len(val)))
	if err != nil || !ok {
		sp.SetAttr("hit", 0)
		c.misses.Add(1)
		return ResponseV2{}, false
	}
	resp, derr := decodeStored(val)
	if derr != nil {
		// A value that does not decode (corruption, or a value from
		// before the framed format) is dropped and recomputed.
		_ = c.backend.Delete(ctx, k.String())
		sp.SetAttr("hit", 0)
		c.misses.Add(1)
		return ResponseV2{}, false
	}
	sp.SetAttr("hit", 1)
	c.hits.Add(1)
	return resp, true
}

// put stores a response under k, as the request's "store.put" span.
// Store errors are advisory (counted by the backend; the response is
// still correct and served).
func (c *resultStore) put(ctx context.Context, o *obs.Observer, k cacheKey, resp ResponseV2) {
	if !c.enabled() {
		return
	}
	sp := o.StartSpan("store.put")
	defer sp.End()
	val, err := encodeStored(resp)
	if err != nil {
		return
	}
	sp.SetAttr("bytes", int64(len(val)))
	_ = c.backend.Put(ctx, k.String(), val)
}

// A stored value is framed so that a hit decodes a small header, not
// the artwork:
//
//	[4-byte big-endian n][n bytes: the response as JSON, Diagram empty, Report.Trace nil][the diagram]
//
// The trace is not stored, because every hit serves a trace of its own.
// A value whose length field runs past its end, or whose header does
// not parse, is corrupt. A value written before the framed format is
// whole JSON starting `{"n`, so its length field reads 2,065,853,025
// and it is refused like any other corrupt value.
const frameHeader = 4

var errFrame = errors.New("service: stored value's header runs past its end")

// encodeStored frames resp for the store.
func encodeStored(resp ResponseV2) ([]byte, error) {
	diagram := resp.Diagram
	resp.Diagram = ""
	resp.Report.Trace = nil
	hdr, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	val := make([]byte, frameHeader, frameHeader+len(hdr)+len(diagram))
	binary.BigEndian.PutUint32(val, uint32(len(hdr)))
	val = append(val, hdr...)
	return append(val, diagram...), nil
}

// decodeStored reads a framed value. The diagram is copied out once, so
// the response never aliases val (the memory tier hands out its own
// slice).
func decodeStored(val []byte) (ResponseV2, error) {
	var resp ResponseV2
	if len(val) < frameHeader {
		return resp, errFrame
	}
	n := uint64(binary.BigEndian.Uint32(val))
	if n > uint64(len(val)-frameHeader) {
		return resp, errFrame
	}
	body := val[frameHeader:]
	if err := json.Unmarshal(body[:n], &resp); err != nil {
		return ResponseV2{}, err
	}
	resp.Diagram = string(body[n:])
	resp.Report.Trace = nil // never stored; a forged one is dropped
	return resp, nil
}

// len reports the backend entry count (0 when disabled).
func (c *resultStore) len() int {
	if c.backend == nil {
		return 0
	}
	return c.backend.Len()
}

// tiers returns the backend's per-tier stats, flattened.
func (c *resultStore) tiers() []store.Stats {
	if c.backend == nil {
		return nil
	}
	return c.backend.Stats().Flatten()
}

// bytes sums the stored bytes across tiers; diskErrors sums the error
// counters of persistent tiers (the healthz degradation signal).
func (c *resultStore) bytes() int64 {
	var n int64
	for _, t := range c.tiers() {
		n += t.Bytes
	}
	return n
}

func (c *resultStore) diskErrors() uint64 {
	var n uint64
	for _, t := range c.tiers() {
		if t.Tier == "disk" {
			n += t.Errors
		}
	}
	return n
}

// close releases the backend.
func (c *resultStore) close() {
	if c.backend != nil {
		_ = c.backend.Close()
	}
}

// CacheStats is the /v1/stats slice owned by the result store. Hits
// and misses are request-level (any-tier); Evictions counts the
// memory tier, matching the pre-store-tier wire meaning.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func (c *resultStore) stats(capacity int, evictions *obs.Counter) CacheStats {
	return CacheStats{
		Entries:   c.len(),
		Capacity:  capacity,
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: evictions.Value(),
	}
}

// StoreTierStats is the /v1/stats and /v1/healthz view of one store
// tier.
type StoreTierStats struct {
	Tier      string `json:"tier"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	Errors    uint64 `json:"errors"`
}

// StoreStats is the "store" block of /v1/stats.
type StoreStats struct {
	Backend string           `json:"backend"`
	Tiers   []StoreTierStats `json:"tiers,omitempty"`
}

func (c *resultStore) storeStats() *StoreStats {
	if c.backend == nil {
		return nil
	}
	out := &StoreStats{Backend: c.backing}
	for _, t := range c.tiers() {
		out.Tiers = append(out.Tiers, StoreTierStats{
			Tier:      t.Tier,
			Entries:   t.Entries,
			Bytes:     t.Bytes,
			Hits:      t.Hits,
			Misses:    t.Misses,
			Puts:      t.Puts,
			Evictions: t.Evictions,
			Errors:    t.Errors,
		})
	}
	return out
}
