#!/bin/sh
# ci.sh — the repo's test tiers.
#
#   tier 1 (default):  go vet + gofmt + build + full test suite (shuffled)
#                      (+ staticcheck when installed, + the routing
#                      determinism batteries under -race, + the
#                      golden-corpus check, + a coverage floor on the
#                      placement packages, + 5s fuzz smokes of the
#                      Appendix-A netlist parser, the router's search
#                      sequence, the word-level escape sweep and the
#                      placement reference battery,
#                      + the observability allocation
#                      guard, + the store-tier -race battery (LRU /
#                      disk / singleflight / fleet), + the fleet chaos
#                      battery under -race (peers blackholed / killed /
#                      restored mid-run), + the async job battery under
#                      -race (submit/stream/cancel lifecycle, SSE
#                      ordering, jobs chaos gate), + the API-surface
#                      golden check pinning the HTTP contract, + the
#                      route gate: cold life route time against an
#                      in-process calibration kernel, as a median ratio
#                      held to the committed one)
#   tier 2 (-race):    tier 1 with the race detector (slower; exercises
#                      the netartd worker pool / cache / stats paths and
#                      the chaos suite's injected panics); the route
#                      gate still runs without it
#
# Usage: ./ci.sh [-race]
set -eu
cd "$(dirname "$0")"

RACE=""
if [ "${1:-}" = "-race" ]; then
	RACE="-race"
fi

echo "== go vet ./..."
go vet ./...

# Formatting: gofmt must have nothing to rewrite anywhere in the tree,
# so formatting drift fails here instead of riding along unnoticed.
echo "== gofmt -l ."
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "$UNFORMATTED"
	echo "ci.sh: FAIL — gofmt would rewrite the files above" >&2
	exit 1
fi

if command -v staticcheck >/dev/null 2>&1; then
	echo "== staticcheck ./..."
	staticcheck ./...
else
	echo "== staticcheck not installed; skipping"
fi

echo "== go build ./..."
go build ./...

# -shuffle=on randomizes test (and subtest-source) execution order, so
# accidental inter-test state dependencies fail loudly instead of
# riding on declaration order. The seed is printed on failure for
# replay with -shuffle=SEED.
echo "== go test ${RACE} -shuffle=on ./..."
go test ${RACE} -shuffle=on ./...

# Determinism batteries under the race detector: one placement routed
# from four goroutines at once, and four concurrent pipeline runs, must
# be data-race-free AND byte-identical to a sequential run (segments,
# plane cells, stats, ASCII, SVG), and the router's final-wave sweep
# must match the unpruned reference loop. Tier 2's full -race pass
# above already covers them; tier 1 runs just the batteries with -race
# -short so every default CI run still proves the contract.
if [ -z "${RACE}" ]; then
	echo "== determinism batteries: go test -race -short -run 'Parallel|Rendered|WindowedMatchesFull' ./internal/route ./internal/gen"
	go test -race -short -run 'Parallel|Rendered|WindowedMatchesFull' ./internal/route ./internal/gen
fi

# Golden corpus: the pinned ASCII/SVG artwork of every built-in
# workload must match byte for byte. After an intentional pipeline
# change, regenerate with `go test ./internal/gen -run TestGoldenCorpus
# -update` and commit the diff. (The full `go test ./...` above runs
# this too; the explicit step makes a corpus drift fail with its own
# headline instead of hiding in the package list.)
echo "== golden corpus: go test -run TestGoldenCorpus ./internal/gen"
go test -run TestGoldenCorpus ./internal/gen

# Coverage floor on the placement stack: the packages this repo's
# property/determinism batteries guard must stay thoroughly executed.
# The floor is deliberately below current coverage (see git log) — it
# is a ratchet against rot, not a target.
echo "== coverage floor (>= 85%): ./internal/place ./internal/boxes ./internal/partition"
COV_OUT="$(go test -cover ./internal/place ./internal/boxes ./internal/partition)"
echo "$COV_OUT"
echo "$COV_OUT" | awk '
	/coverage:/ {
		for (i = 1; i <= NF; i++) if ($i == "coverage:") pct = $(i+1)
		sub(/%.*/, "", pct)
		if (pct + 0 < 85) { print "ci.sh: FAIL — " $2 " coverage " pct "% below the 85% floor"; bad = 1 }
	}
	END { exit bad }
' || exit 1

# Fuzz smoke: short bounded runs of the netlist parser fuzz target, of
# the router's full-plane search sequence (reference-loop parity,
# arena reuse), of the word-level escape sweep
# and probe against the per-cell reference loop, and of the placer
# against its map-based reference. Regressions show up as crashers
# within seconds; the long exploratory runs stay a manual job
# (go test -fuzz=FuzzParseDesign ./internal/netlist,
# -fuzz=FuzzSearchJournal or -fuzz=FuzzLineSweep ./internal/route,
# -fuzz=FuzzPlaceReference ./internal/place).
echo "== go test -fuzz=FuzzParseDesign -fuzztime=5s ./internal/netlist"
go test -run='^$' -fuzz=FuzzParseDesign -fuzztime=5s ./internal/netlist
echo "== go test -fuzz=FuzzSearchJournal -fuzztime=5s ./internal/route"
go test -run='^$' -fuzz=FuzzSearchJournal -fuzztime=5s ./internal/route
echo "== go test -fuzz=FuzzLineSweep -fuzztime=5s ./internal/route"
go test -run='^$' -fuzz=FuzzLineSweep -fuzztime=5s ./internal/route
echo "== go test -fuzz=FuzzPlaceReference -fuzztime=5s ./internal/place"
go test -run='^$' -fuzz=FuzzPlaceReference -fuzztime=5s ./internal/place

# Allocation guard: the disabled observer / metric paths must stay
# allocation-free, or every un-traced request pays for observability it
# didn't ask for. Every Benchmark*Disabled must report 0 allocs/op.
echo "== allocation guard: go test -bench='Disabled$' -benchmem ./internal/obs"
BENCH_OUT="$(go test -run='^$' -bench='Disabled$' -benchmem ./internal/obs)"
echo "$BENCH_OUT"
if ! echo "$BENCH_OUT" | grep -q '^Benchmark.*Disabled'; then
	echo "ci.sh: FAIL — no Disabled benchmarks ran" >&2
	exit 1
fi
if echo "$BENCH_OUT" | grep '^Benchmark.*Disabled' | grep -qv ' 0 allocs/op'; then
	echo "ci.sh: FAIL — disabled observability path allocates" >&2
	exit 1
fi

# Store tier: the pluggable result store (mem/disk/tiered LRU, crash
# consistency, GC), the singleflight group and the consistent-hash
# fleet layer must be data-race-free. Tier 2's full -race pass above
# already covers them; tier 1 runs the store packages plus the
# service-level restart-survival / stampede / in-process-fleet tests
# under -race explicitly so a concurrency regression fails with its
# own headline.
if [ -z "${RACE}" ]; then
	echo "== store tier: go test -race ./internal/store/..."
	go test -race ./internal/store/...
	echo "== store tier: go test -race -run 'TestRestartSurvival|TestSingleflightCollapse|TestFleet' ./internal/service"
	go test -race -run 'TestRestartSurvival|TestSingleflightCollapse|TestFleet' ./internal/service
fi

# Fleet chaos battery: three replicas under mixed traffic while peers
# are blackholed, killed and restored through the network-layer fault
# plan. Zero non-4xx errors, artwork byte-identical to a fleet-less
# reference, deterministic re-sharding, hedge + breaker metrics
# populated — all under the race detector, bounded by -timeout.
echo "== fleet chaos battery: go test -race -timeout 120s -run 'TestFleetChaosBattery|TestSingleflightCollapsesProxiedRequest|TestSingleflightFollowersSurviveOpenBreaker' ./internal/service"
go test -race -timeout 120s -run 'TestFleetChaosBattery|TestSingleflightCollapsesProxiedRequest|TestSingleflightFollowersSurviveOpenBreaker' ./internal/service

# Async job battery: the /v2/jobs lifecycle (cancel while queued,
# cancel mid-route, TTL eviction, SSE disconnect, restart from the
# disk store), the job-vs-sync byte-identity and SSE net-order
# checks, and the jobs chaos gate (pipeline faults must surface as
# failed job states, never as 5xx on the async HTTP surface) — all
# under the race detector. Tier 2's full -race pass above already
# covers these; the explicit tier-1 step gives regressions their own
# headline.
if [ -z "${RACE}" ]; then
	echo "== async job battery: go test -race ./internal/jobs + 'TestJob|TestChaosJobs' ./internal/service"
	go test -race ./internal/jobs
	go test -race -timeout 300s -run 'TestJob|TestChaosJobs' ./internal/service
fi

# API-surface tripwire: the HTTP route table and every response shape
# are pinned to internal/service/testdata/api_surface.golden. An
# intentional contract change regenerates the fixture with
# `go test ./internal/service -run TestAPISurface -update` — anything
# else failing here is an accidental API break.
echo "== API surface: go test -run TestAPISurface ./internal/service"
go test -run TestAPISurface ./internal/service

# Route gate: routing speed, measured as a ratio so a slow host does
# not read as a slow router. BenchmarkRouteGate interleaves 31 cold
# life routes (Fig. 6.7 options) with a fixed calibration kernel in one
# process and fails when the median route/kernel ratio exceeds the
# ratio committed in internal/gen/routegate_test.go by more than its
# band. It runs alone and never under -race, which slows the route far
# more than the kernel; `go test ./...` runs no benchmark, so it times
# nothing. After a deliberate change in routing speed, re-measure the
# ratio as that file says and commit it with the change. (Restart
# survival and re-shard-then-serve-warm, once greps over a service
# latency record, are assertions of TestRestartSurvival and
# TestFleetChaosBattery in the store and fleet steps above.)
echo "== route gate: go test -run '^\$' -bench '^BenchmarkRouteGate\$' -benchtime 1x ./internal/gen"
go test -run '^$' -bench '^BenchmarkRouteGate$' -benchtime 1x ./internal/gen

echo "ci.sh: all green"
