GO ?= go
FUZZTIME ?= 30s

.PHONY: build test race race-stress vet bench bench-json bench-smoke check fuzz obs-smoke fleet-smoke chaos-smoke perfbench-smoke loc examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repeated race runs of the fleet, whose real-TCP tests are where timing
# flakes surface first: a faster serving path shifts every close/ack race.
race-stress:
	$(GO) test -race -short -count=20 ./internal/fleet/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$'

# One iteration of the serving path's micro-benchmarks (ingest decoder,
# settled kernel and a persistent fleet session's open-submit-close), of
# stream production (generate, encode, split), all ns/access, of Equation 1
# pricing, and of the §3.4 larger-cache study (heuristic vs exhaustive on an
# 8-bank geometry), so they keep compiling and running.
bench-smoke:
	$(GO) test -run='^$$' -bench='^(BenchmarkStreamDecoderFeed|BenchmarkKernelUnified|BenchmarkFleetSessionOpen|BenchmarkGenerate|BenchmarkEncode|BenchmarkSplit|BenchmarkEnergyEvaluate|BenchmarkScalableSpace)$$' -benchtime=1x .

# Fast-kernel vs reference throughput on the standard sweep shapes,
# recorded machine-readably (see cmd/stcbench; BENCH_10.json is committed).
bench-json:
	$(GO) run ./cmd/stcbench -json BENCH_10.json

# End-to-end observability smoke: stcd's local daemon up with telemetry,
# endpoints scraped, event log explained (see scripts/obs_smoke.sh).
obs-smoke:
	bash scripts/obs_smoke.sh

# End-to-end fleet smoke: stcd serving three sessions over the wire
# protocol, metrics/allocator/explainer asserted (see scripts/fleet_smoke.sh).
fleet-smoke:
	bash scripts/fleet_smoke.sh

# Self-healing smoke: the seeded network-chaos soak, then a reconnecting
# client, bounded shutdown drain, and checkpoint scrub against real
# binaries (see scripts/chaos_smoke.sh).
chaos-smoke:
	bash scripts/chaos_smoke.sh

# perfbench/ is its own module, so `go test ./...` at the root never builds
# it; this compiles the benchmark against the current engine and tuner API
# and runs its tests.
perfbench-smoke:
	cd perfbench && $(GO) test ./...

# go test runs one -fuzz pattern per invocation, so each target gets its own.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadDinero -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzStreamDecoder -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run='^$$' -fuzz=FuzzFastSimVsReference -fuzztime=$(FUZZTIME) ./internal/fastsim/
	$(GO) test -run='^$$' -fuzz=FuzzFusedVsReference -fuzztime=$(FUZZTIME) ./internal/fastsim/
	$(GO) test -run='^$$' -fuzz=FuzzLiveKernelVsReference -fuzztime=$(FUZZTIME) ./internal/fastsim/
	$(GO) test -run='^$$' -fuzz=FuzzIngest -fuzztime=$(FUZZTIME) ./internal/fleet/
	$(GO) test -run='^$$' -fuzz=FuzzChaosnetFraming -fuzztime=$(FUZZTIME) ./internal/fleet/
	$(GO) test -run='^$$' -fuzz=FuzzDPVsBruteForce -fuzztime=$(FUZZTIME) ./internal/fleet/allocator/
	$(GO) test -run='^$$' -fuzz=FuzzSearchMachine -fuzztime=$(FUZZTIME) ./internal/tuner/

# Run every program under examples/; the first non-zero exit fails the target.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# Non-test Go lines outside perfbench/ (and the benchmark's build cache):
# the code-size figure ROADMAP item 3 tracks from change to change.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l

# check is the tier-1 gate: build, vet, and the full test suite — which
# includes the checkpoint round-trip/corruption-recovery tests and the
# chaos kill/restart soak.
check: build vet test
