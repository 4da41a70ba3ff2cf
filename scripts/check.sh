#!/bin/sh
# Full local check: build, vet, tests, the race detector, and the benchmark
# regression gate. Tier-1 (build + go test ./...) is what CI gates on; vet
# and -race catch what plain tests miss, and benchsnap -compare enforces the
# ROADMAP ≤2% regression budget against the committed snapshot.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== gofmt"
# git ls-files keeps the benchmark's build directory out of the scan.
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
	echo "check: FAIL — gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== go test ./..."
go test ./...
echo "== run every example"
# Run, not just compile: quickstart fails if CheckLegal rejects its
# schedule, so this is the public API's end-to-end smoke test.
for d in examples/*/; do go run "./$d" >/dev/null; done
echo "== benchmark module: go vet + go test (bench/ is its own module)"
(cd bench && go vet . && go test .)
echo "== go test -race ./..."
go test -race ./...
echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz '^FuzzScheduleBlock$' -fuzztime 10s .
go test -run '^$' -fuzz '^FuzzScheduleTrace$' -fuzztime 10s .
go test -run '^$' -fuzz '^FuzzStepCache$' -fuzztime 10s .
go test -run '^$' -fuzz '^FuzzExactOracle$' -fuzztime 10s .
go test -run '^$' -fuzz '^FuzzSpeculativeTrace$' -fuzztime 10s .
go test -run '^$' -fuzz '^FuzzScheduleLoop$' -fuzztime 10s .
go test -run '^$' -fuzz '^FuzzRankRefresh$' -fuzztime 10s ./internal/rank
go test -run '^$' -fuzz '^FuzzLookaheadMatchesReference$' -fuzztime 10s ./internal/core
go test -run '^$' -fuzz '^FuzzBuildGraphs$' -fuzztime 10s ./internal/deps
go test -run '^$' -fuzz '^FuzzContentHash$' -fuzztime 10s ./internal/graph
echo "== optimality-gap quick sweep (E1GAP, reduced instance count)"
# The full 60-instance sweep lives in EXPERIMENTS.md; a 15-instance pass
# keeps the heuristic-vs-exact differential honest on every check without
# blowing the time budget.
go run ./cmd/experiments -t E1GAP -n 15
echo "== optimality against the exact oracle (T4)"
# The paper's optimality claims checked against internal/opt: Rank vs the
# block optimum, Lookahead vs the trace optimum, the loop general case vs
# the loop II oracle. Exits non-zero on FAIL.
go run ./cmd/experiments -t T4
echo "== faultinject hooks must stay test-only"
# The fault-injection registry is for tests: no non-test file outside the
# package itself may assign a hook (matches `faultinject.X = ...`, not `==`).
if grep -rn --include='*.go' -E 'faultinject\.[A-Z][A-Za-z]* *=[^=]' . \
	| grep -v '_test\.go:' \
	| grep -v '^\./internal/faultinject/'; then
	echo "check: FAIL — faultinject hook assigned outside tests" >&2
	exit 1
fi
echo "== scheduling engine must stay map-free"
# The PR 5 zero-allocation core replaced every hot-path map[graph.NodeID]T
# with dense slices indexed by compact node ID; a map sneaking back into the
# engine packages reintroduces per-schedule hashing and allocation. Tests may
# use maps freely (oracles, seen-sets).
if grep -rn --include='*.go' 'map\[graph\.NodeID\]' \
	./internal/rank ./internal/idle ./internal/core ./internal/loops \
	| grep -v '_test\.go:'; then
	echo "check: FAIL — map[graph.NodeID] in engine non-test code (use dense slices)" >&2
	exit 1
fi
echo "== metrics record path must stay zero-alloc and lock/map-free"
# The always-on metrics layer is only viable because recording is a handful
# of striped atomics. Two guards: the allocs-per-op test must report exactly
# zero, and the record path source must never grow a map, mutex, channel, or
# interface.
go test -run '^TestRecordPathZeroAlloc$' -count=1 ./internal/metrics
if grep -nE 'map\[|sync\.(Mutex|RWMutex)|interface *\{|chan ' internal/metrics/record.go; then
	echo "check: FAIL — internal/metrics/record.go grew a map/lock/chan/interface" >&2
	exit 1
fi
echo "== stream push must stay at its exact allocation count"
# The streaming scheduler's pitch is bounded per-push cost: the engine reuses
# its walk, compaction buffers, and CSR scratch, so a steady-state push
# allocates a small constant — exactly 14 on a step-cache hit (the escaping
# BlockResult) and 29 on a miss (plus the merge/delay schedules).
go test -run '^TestStreamPushAllocBudget$' -count=1 .
echo "== step-cache hits must stay within their allocation budget"
# A push that replays a cached fragment must stay far below the uncached
# merge path's allocation cost — the step cache's whole point is O(fragment)
# replay with near-zero allocation.
go test -run '^TestStepCacheHitAllocBudget$' -count=1 .
echo "== speculation-off trace path must stay at its exact allocation count"
# The speculative parallel dispatch gate must cost an integer compare on the
# default small-trace path: pinned at exactly 121 allocs/op.
go test -run '^TestScheduleTraceAllocExactSpecOff$' -count=1 .
echo "== speculative, step-cache and stream results must be deterministic across runs and -cpu"
# The same invariant CI's parallel-determinism job enforces: speculation,
# step-cache replay and streaming are bit-identical to the sequential walk
# regardless of GOMAXPROCS or repetition. Every driver runs on a pooled or
# long-lived walk, so state leaking between calls would surface here.
go test -run 'Speculative|ParallelTrace|StepCache|Stream' -count=2 -cpu=1,4 ./...
echo "== benchsnap -compare BENCH_PR29.json"
go run ./cmd/benchsnap -compare BENCH_PR29.json
echo "check: OK"
