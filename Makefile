# Braidio build and reproduction targets. Stdlib-only Go; everything runs
# offline.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test vet race fuzz cover bench bench-smoke bench-diff repro csv examples clean

all: build vet test

build:
	$(GO) build ./...

# vet also fails when any Go file is not gofmt-clean.
vet:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# Default test gate: vet everything, run the full suite, then re-run the
# concurrency-sensitive internal packages under the race detector.
test: vet
	$(GO) test ./...
	$(GO) test -race ./internal/...

race:
	$(GO) test -race ./...

# Short fuzz passes over the frame codec, the line-coding round trip,
# the network planner, and the serve journal decoder (extend -fuzztime
# for deeper runs). FuzzDecode
# covers arbitrary buffers; FuzzDecodeMutated covers single-mutation
# corruption of valid frames (bit flips and truncations at the
# validation boundaries); FuzzPlan covers adversarial topologies
# (NaN/infinite positions, negative loads, degenerate batteries) against
# net.Plan's typed-error contract; FuzzDecodeJournalLine covers arbitrary
# and single-mutation journal lines against the serve journal decoder's
# record-or-error contract; FuzzDeviceBody covers arbitrary and
# single-mutation /v1/register and /v1/update bodies against the device
# endpoints' status contract and the following epoch; FuzzRecoverSegment
# covers byte-mutated segment heads against recovery's contract (an
# error, or a state that replays to the reference digest).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecode$$ -fuzztime=10s ./internal/frame
	$(GO) test -run=NONE -fuzz=FuzzDecodeMutated -fuzztime=10s ./internal/frame
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/linecode
	$(GO) test -run=NONE -fuzz=FuzzPlan -fuzztime=10s ./internal/net
	$(GO) test -run=NONE -fuzz=FuzzDecodeJournalLine -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzDeviceBody -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzRecoverSegment -fuzztime=10s ./internal/serve

# Coverage floors for the paper-critical packages (offload solver, hub
# engine, MAC, network scheduler). Set a few points below current
# measurements (92.1 / 86.8 / 90.4 as of PR 5; 87.0 for net as of PR 10)
# so refactors have headroom but coverage cannot silently erode; raise
# the floors when coverage improves.
COVER_FLOOR_CORE ?= 90.0
COVER_FLOOR_HUB  ?= 84.0
COVER_FLOOR_MAC  ?= 88.0
COVER_FLOOR_NET  ?= 85.0

cover:
	@set -e; \
	for spec in core:$(COVER_FLOOR_CORE) hub:$(COVER_FLOOR_HUB) mac:$(COVER_FLOOR_MAC) net:$(COVER_FLOOR_NET); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		out=$$($(GO) test -count=1 -coverprofile=cover_$$pkg.out ./internal/$$pkg); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		awk -v pkg="$$pkg" -v pct="$$pct" -v floor="$$floor" 'BEGIN { \
			if (pct == "" || pct + 0 < floor + 0) { \
				printf "FAIL: internal/%s coverage %s%% below floor %s%%\n", pkg, pct, floor; exit 1 \
			} \
			printf "ok: internal/%s coverage %s%% >= floor %s%%\n", pkg, pct, floor }'; \
	done

# Run the benchmark suite (paper tables/figures, the waveform engine and
# Monte Carlo sweeps, the hub/fleet engine, the serve epoch/contention
# benchmarks, plus the network scheduler), keep the raw text, and
# distill it into the machine-readable perf record BENCH_pr10.json.
bench:
	$(GO) test -run=NONE -bench=. -benchmem . ./internal/hub ./internal/serve ./internal/net | tee bench_output.txt
	$(GO) run ./cmd/braidio-bench -benchjson BENCH_pr10.json < bench_output.txt

# Quick compile-and-run smoke over every benchmark in the repo (one
# iteration each); CI runs this to keep benchmarks from bit-rotting.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Regression gate: re-run the root suite briefly and diff it against the
# committed baseline record. The threshold is generous (+200%) because
# CI runners vary widely in clock speed — this catches algorithmic
# regressions (work or allocations growing by integer factors), not
# single-digit-percent noise. benchtime is time-based, not -Nx: a fixed
# iteration count under-amortizes warm-up for sub-microsecond benchmarks
# and false-positives the gate.
bench-diff:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=100ms . ./internal/hub ./internal/serve ./internal/net > bench_diff_output.txt
	$(GO) run ./cmd/braidio-bench -benchjson bench_new.json < bench_diff_output.txt
	$(GO) run ./cmd/braidio-bench -benchdiff BENCH_pr10.json -threshold 2.0 bench_new.json

# Print every reproduced artifact to stdout.
repro:
	$(GO) run ./cmd/braidio-bench

# Write machine-readable CSVs for all artifacts to out/.
csv:
	$(GO) run ./cmd/braidio-bench -csv out/ > /dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/wearable-sync
	$(GO) run ./examples/camera-stream
	$(GO) run ./examples/regime-explorer
	$(GO) run ./examples/body-hub

clean:
	rm -rf out/ test_output.txt bench_output.txt bench_diff_output.txt bench_new.json cover_*.out
