GO ?= go

.PHONY: build test check bench bench-snapshot experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Build + vet + tests + race detector + benchmark regression gate
# (scripts/check.sh).
check:
	./scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem

# Refresh the committed benchmark snapshot the ≤2% regression budget is
# measured against.
bench-snapshot:
	$(GO) run ./cmd/benchsnap -o BENCH_PR12.json

experiments:
	$(GO) run ./cmd/experiments
