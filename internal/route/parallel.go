package route

import (
	"sync"
	"sync/atomic"
	"time"

	"netart/internal/geom"
	"netart/internal/netlist"
)

// This file implements the deterministic parallel routing engine: a
// speculation scheduler that routes up to Options.Workers nets
// concurrently, each against a private snapshot of the routing plane
// with a copy-on-write journal (spec.go), and commits results strictly
// in the canonical net order. The construction mirrors software
// transactional memory with ordered commit:
//
//   - every worker owns a full clone of the plane, kept in sync with
//     the committed prefix by replaying the commit log;
//   - a speculation records its read set (every mutable plane cell the
//     search consulted) and its write log (claim releases and laid
//     wires), then rolls its writes back so the snapshot returns to
//     the committed prefix;
//   - the committer takes speculations in canonical order. A
//     speculation is valid iff no net committed after its snapshot
//     prefix wrote a cell it read: a deterministic search that
//     observed only unchanged cells makes exactly the decisions it
//     would have made sequentially, so replaying its write log yields
//     the sequential outcome (induction over the commit order).
//     Invalid speculations are discarded and the net is re-routed on
//     the master plane, which by construction is in the exact
//     sequential state.
//
// Dispatch is windowed by a token semaphore: at most Workers nets are
// claimed beyond the committed prefix, so a speculation never runs
// against a snapshot more than Workers-1 commits stale. That bounds
// both the validation window and the conflict probability.
//
// The result — paths, bends, plane state, stats, unrouted set — is
// byte-identical to the sequential router for every input and seed;
// the determinism battery (parallel_test.go) enforces this. The only
// observable difference is the Result.Speculation diagnostics block.
// One caveat: with an armed fault injector the *firing order* of
// fault sites differs between sequential and parallel runs, so
// injected-fault outcomes are reproducible only for a fixed worker
// count.

// SpecStats reports the parallel scheduler's work: how speculation
// fared and how the load spread over the workers. Purely diagnostic.
type SpecStats struct {
	// Workers is the worker count the route ran with (after clamping
	// to the net count).
	Workers int `json:"workers"`
	// Speculated counts speculations the committer examined.
	Speculated int `json:"speculated"`
	// Hits counts speculations that validated and committed as-is.
	Hits int `json:"hits"`
	// Misses counts speculations invalidated by a conflicting commit.
	Misses int `json:"misses"`
	// Requeues counts nets re-routed on the master plane after a miss
	// (equal to Misses under the current inline re-route policy; kept
	// separate so a re-dispatching scheduler can distinguish them).
	Requeues int `json:"requeues"`
	// WorkerNets is the number of speculations each worker produced.
	WorkerNets []int `json:"worker_nets"`
	// WorkerBusy is each worker's wall-clock busy time in seconds,
	// from first claim to exit.
	WorkerBusy []float64 `json:"worker_busy_seconds"`
}

// add accumulates a committed speculation's counters. All fields sum
// except MaxBends, which is a running maximum, so the total over the
// commit order equals the sequential total over the routing order.
func (st *SearchStats) add(o *SearchStats) {
	st.Searches += o.Searches
	st.Waves += o.Waves
	st.Actives += o.Actives
	st.Cells += o.Cells
	if o.MaxBends > st.MaxBends {
		st.MaxBends = o.MaxBends
	}
	st.RipUps += o.RipUps
}

// specResult is what a worker hands the committer for one net.
type specResult struct {
	idx      int         // position in the canonical order
	syncedAt int         // committed prefix length the speculation ran against
	rn       *RoutedNet  // routing outcome (nil if the worker panicked)
	rec      *opRecord   // replayable write log
	reads    []uint64    // bitmap over plane indices of cells the speculation read
	rbox     geom.Rect   // bounding box of the read set (grid coords)
	stats    SearchStats // search work, accounted only if the speculation commits
	panicVal any         // recovered panic; the committer re-raises it
}

// commitEntry is one committed net in the log workers sync from.
type commitEntry struct {
	rec    *opRecord
	writes []int32   // sorted deduplicated cell indices rec writes
	wbox   geom.Rect // bounding box of writes (grid coords)
}

// routeAllParallel is the Workers>1 implementation of routeAll.
func (rt *router) routeAllParallel() {
	order := rt.routeOrder()
	n := len(order)
	workers := rt.opts.Workers
	if workers > n {
		workers = n
	}
	spec := &SpecStats{
		Workers:    workers,
		WorkerNets: make([]int, workers),
		WorkerBusy: make([]float64, workers),
	}
	rt.result.Speculation = spec
	if n == 0 {
		rt.publish(nil)
		return
	}

	var (
		sched = newSpecSched(n, workers)
		log   = make([]commitEntry, n)
	)
	// Snapshots are taken before the committer loop starts: the master
	// plane must not change while a clone is in progress.
	for w := 0; w < workers; w++ {
		wrt := &router{
			pl:     rt.pl,
			opts:   rt.opts,
			netID:  rt.netID,
			plane:  rt.plane.Clone(),
			cancel: newCancelCheck(rt.ctx),
		}
		wrt.plane.enableSpec()
		sched.wg.Add(1)
		go specWorker(w, wrt, order, log, sched, spec)
	}

	byNet := make(map[*netlist.Net]*RoutedNet, n)
	var panicked any
	commitOne := func(k int, res *specResult) {
		spec.Speculated++
		if rt.validate(log, res, k) {
			// Hit: replay the speculation's writes onto the master
			// plane (now in the exact state the validation proved the
			// speculation effectively ran against) and account its
			// search work in commit order.
			spec.Hits++
			rt.plane.replayOps(res.rec)
			rt.stats.add(&res.stats)
			writes, wbox := res.rec.writeSet(rt.plane)
			log[k] = commitEntry{rec: res.rec, writes: writes, wbox: wbox}
			byNet[order[k]] = res.rn
		} else {
			// Miss: the speculation observed cells a later commit
			// changed. Discard it (including its stats) and route the
			// net on the master plane, recording the ops so workers
			// can sync.
			spec.Misses++
			spec.Requeues++
			rec := &opRecord{net: rt.netID[order[k]]}
			rt.rec = rec
			byNet[order[k]] = rt.routeNet(order[k])
			rt.rec = nil
			writes, wbox := rec.writeSet(rt.plane)
			log[k] = commitEntry{rec: rec, writes: writes, wbox: wbox}
		}
		if rt.opts.OnCommit != nil {
			// The commit point: the master plane now reflects this net's
			// outcome, in canonical order — identical to the sequential
			// loop's per-net callback.
			rt.opts.OnCommit(k, n, byNet[order[k]])
		}
	}
	for k := 0; k < n && panicked == nil; {
		if rt.cancel.poll() {
			break // abandoned run; RouteCtx discards the result
		}
		res := <-sched.ready[k]
		// Batched commit: after the blocking receive, drain every
		// already-buffered consecutive speculation into the same batch
		// and publish once — one release-store of the committed length
		// and a burst of dispatch tokens — instead of a publish per net.
		// Each speculation is still validated against the log extended
		// by its batch predecessors, so the outcome is identical to the
		// one-at-a-time loop; batching only coalesces the coordination.
		batch := 0
		for {
			if res.panicVal != nil {
				panicked = res.panicVal
				break
			}
			commitOne(k+batch, res)
			batch++
			if k+batch >= n {
				break
			}
			var more bool
			select {
			case res = <-sched.ready[k+batch]:
				more = true
			default:
			}
			if !more {
				break
			}
		}
		if batch > 0 {
			sched.commit(k+batch, batch)
		}
		k += batch
	}
	sched.stop()
	sched.wg.Wait()
	if panicked != nil {
		// Surface worker panics on the calling goroutine so the
		// caller's resilience.Recover boundary sees them exactly as it
		// would from the sequential router.
		panic(panicked)
	}
	rt.publish(byNet)
}

// validate reports whether a speculation may commit at position k: no
// entry committed in [syncedAt, k) may have written a cell it read.
// Each log entry is first screened by rectangle intersection — a commit
// whose write box is disjoint from the speculation's read box cannot
// have written a read cell, so the bit tests are skipped. Surviving
// entries pay a bit test per written cell — intentionally independent
// of the read-set size, which can span the whole searched region.
func (rt *router) validate(log []commitEntry, res *specResult, k int) bool {
	rb := res.rbox
	for j := res.syncedAt; j < k; j++ {
		e := &log[j]
		if e.wbox.Min.X > rb.Max.X || e.wbox.Max.X < rb.Min.X ||
			e.wbox.Min.Y > rb.Max.Y || e.wbox.Max.Y < rb.Min.Y {
			continue
		}
		for _, w := range e.writes {
			if res.reads[w>>6]&(1<<(uint(w)&63)) != 0 {
				return false
			}
		}
	}
	return true
}

// specSched is the coordination state between the committer and the
// speculation workers.
type specSched struct {
	// ready carries each net's speculation to the committer. Buffered
	// (cap 1) so a worker never blocks on a send: exactly one result is
	// produced per index.
	ready []chan *specResult
	// next is the dispatch counter: workers claim indices in canonical
	// order by fetch-and-add.
	next atomic.Int64
	// committedN is the length of the committed prefix of log. The
	// committer stores it (release) after writing the log entry;
	// workers load it (acquire) before reading log, which is the only
	// synchronization the log needs.
	committedN atomic.Int64
	// tokens windows the dispatch: a worker takes a token per claim,
	// the committer returns one per commit, so at most cap(tokens)
	// indices are in flight beyond the committed prefix.
	tokens chan struct{}
	// stopped is closed when the committer abandons the loop (cancel
	// or forwarded panic) so workers blocked on a token exit.
	stopped chan struct{}
	wg      sync.WaitGroup
}

func newSpecSched(n, workers int) *specSched {
	s := &specSched{
		ready:   make([]chan *specResult, n),
		tokens:  make(chan struct{}, workers),
		stopped: make(chan struct{}),
	}
	for i := range s.ready {
		s.ready[i] = make(chan *specResult, 1)
	}
	for i := 0; i < workers; i++ {
		s.tokens <- struct{}{}
	}
	return s
}

// commit publishes the log through entry newLen-1 to the workers and
// opens m dispatch slots (one per net of the batch). The caller must
// have written log[..newLen) before calling. The token sends cannot
// block: each returns a token a claim consumed, so in-channel tokens
// never exceed the channel's worker-count capacity.
func (s *specSched) commit(newLen, m int) {
	s.committedN.Store(int64(newLen))
	for i := 0; i < m; i++ {
		s.tokens <- struct{}{}
	}
}

// stop releases workers waiting for a dispatch slot. Idempotent use is
// not needed: the committer calls it exactly once.
func (s *specSched) stop() { close(s.stopped) }

// specWorker is one speculation goroutine: claim the next net in
// canonical order (window permitting), sync the private snapshot to
// the committed prefix, route the net under the journal, roll the
// writes back and hand the recording to the committer.
func specWorker(w int, wrt *router, order []*netlist.Net, log []commitEntry, sched *specSched, spec *SpecStats) {
	defer sched.wg.Done()
	start := time.Now()
	defer func() { spec.WorkerBusy[w] = time.Since(start).Seconds() }()
	synced := 0 // committed prefix this worker's snapshot reflects
	for {
		select {
		case <-sched.stopped:
			return
		case <-sched.tokens:
		}
		k := int(sched.next.Add(1) - 1)
		if k >= len(order) {
			return
		}
		res := &specResult{idx: k}
		func() {
			defer func() {
				if r := recover(); r != nil {
					// A panic (typically an injected fault) must not
					// crash the process from a bare goroutine; forward
					// it so the committer re-raises it on the caller's
					// stack, inside the caller's Recover boundary.
					res.panicVal = r
				}
			}()
			// Sync: replay commits the snapshot hasn't seen. The
			// acquire-load pairs with the committer's release-store,
			// so log[..c) is fully visible.
			c := int(sched.committedN.Load())
			for ; synced < c; synced++ {
				wrt.plane.replayOps(log[synced].rec)
			}
			res.syncedAt = synced
			// Speculate under the journal, then roll back so the
			// snapshot returns to the committed prefix.
			rec := &opRecord{net: wrt.netID[order[k]]}
			wrt.rec = rec
			wrt.stats = &res.stats
			wrt.plane.beginSpec()
			res.rn = wrt.routeNet(order[k])
			res.reads, res.rbox = wrt.plane.specReadBits()
			wrt.plane.rollbackSpec()
			res.rec = rec
			spec.WorkerNets[w]++
		}()
		sched.ready[k] <- res
		if res.panicVal != nil {
			return // snapshot state is undefined; retire the worker
		}
	}
}
