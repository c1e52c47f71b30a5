// Package store is the pluggable persistent result-store tier of the
// netartd daemon: content-addressed response bytes behind a single
// Store interface with three compositions — an in-memory LRU (Mem), a
// content-addressed on-disk store that survives restarts (Disk), and a
// memory-over-disk write-through combination (Tiered).
//
// Keys are content addresses (the service's hex SHA-256 cache keys),
// values are opaque byte blobs (the service's framed encoding of a
// finished response). Because the pipeline is deterministic and the
// key hashes every result-affecting input, a stored value never goes
// stale: the only reasons to drop an entry are capacity (LRU
// eviction) and corruption (CRC mismatch on disk).
//
// Stores are namespaced by the cache-key version: bumping the version
// changes the disk layout root, so entries written by an older key
// scheme are ignored rather than ever served against the wrong key.
//
// The sibling packages store/singleflight (collapse of concurrent
// identical computations) and store/cluster (consistent-hash
// ownership of keys across a replica fleet) build the fleet tier on
// top of this interface.
package store

import "context"

// Store is the result-store contract shared by every backend. All
// methods are safe for concurrent use. Get and Put take a context so
// slow backends (disk today, network tomorrow) stay cancelable.
type Store interface {
	// Get returns the value bytes for key. The second result is false
	// on a miss; a nil error with found=false is the normal miss path.
	// Backends degrade corruption into a miss (recorded in Stats) so a
	// damaged entry costs a recomputation, never a failed request.
	Get(ctx context.Context, key string) ([]byte, bool, error)
	// Put stores value under key, evicting older entries as its
	// capacity bounds require. Backends that cannot persist (a failing
	// disk) record the error in Stats and return it; callers may treat
	// a failed Put as advisory — the result is still correct, it just
	// will not be served from this store later.
	Put(ctx context.Context, key string, value []byte) error
	// Delete removes key if present (no error when absent).
	Delete(ctx context.Context, key string) error
	// Len reports the current entry count.
	Len() int
	// Stats reports the backend's counters; tiered backends report one
	// Stats per tier under Tiers.
	Stats() Stats
	// Close releases the backend's resources. Write-through backends
	// persist continuously, so Close is cheap; it must be safe to call
	// once after all other calls have returned.
	Close() error
}

// Stats is one backend's observable state. Counter semantics follow
// the event names passed to the Recorder.
type Stats struct {
	Tier      string  `json:"tier"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Puts      uint64  `json:"puts"`
	Evictions uint64  `json:"evictions"`
	Errors    uint64  `json:"errors"`
	Tiers     []Stats `json:"tiers,omitempty"`
}

// Flatten returns the leaf tiers of a stats tree (itself when leaf).
func (s Stats) Flatten() []Stats {
	if len(s.Tiers) == 0 {
		return []Stats{s}
	}
	var out []Stats
	for _, t := range s.Tiers {
		out = append(out, t.Flatten()...)
	}
	return out
}

// Event names reported to a Recorder. Tier names are "mem" and "disk".
const (
	EventHit     = "hit"     // Get found the key in this tier
	EventMiss    = "miss"    // Get did not find the key in this tier
	EventPut     = "put"     // a value was stored in this tier
	EventEvict   = "evict"   // capacity bound dropped an entry
	EventPromote = "promote" // a lower-tier hit was copied into this tier
	EventError   = "error"   // an IO/corruption fault was absorbed
)

// Recorder receives one call per store event; backends call it in
// addition to maintaining their own Stats counters so an external
// metric set (obs) can mirror store activity without polling. A nil
// Recorder is valid and free.
type Recorder func(tier, event string)

func (r Recorder) emit(tier, event string) {
	if r != nil {
		r(tier, event)
	}
}
