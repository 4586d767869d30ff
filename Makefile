GO ?= go

.PHONY: all build test race vet fmt golden doclint debug-smoke chaos-smoke \
	health-smoke serve-smoke fuzz-smoke overhead check bench clean loc knobs

# DOC_PKGS are the packages held to the godoc floor by doclint: the
# paper-critical stack plus the serving layer and the facade.
DOC_PKGS = internal/fault internal/fabric internal/coi internal/core \
	internal/trace internal/metrics internal/telemetry internal/health \
	internal/serve .

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean, and prints the offenders.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# golden pins the -metrics exposition format; it runs first in check
# because it is fast and a telemetry-schema drift should fail loudly
# before the full race run. Regenerate with:
#   $(GO) test ./cmd/hsbench -run TestExpositionGolden -update
golden:
	$(GO) test ./cmd/hsbench -run TestExpositionGolden

# doclint fails on any undocumented exported declaration (or missing
# package comment) in the paper-critical packages.
doclint:
	$(GO) run ./scripts/doclint $(DOC_PKGS)

# debug-smoke boots hsbench with the live debug server and asserts
# every endpoint answers 200 with plausible content.
debug-smoke:
	./scripts/debug_smoke.sh

# chaos-smoke runs the Real-mode hetero matmul under the seeded fault
# injector (retry and breaker profiles) and asserts the result still
# verifies with a nonzero number of injected faults — the resilience
# layer's CI gate (OPERATIONS.md).
chaos-smoke:
	./scripts/chaos_smoke.sh

# health-smoke drives a seeded chaos-profile run under the health
# engine end-to-end: the breaker-trip and quarantine rules must take
# /debug/health ok→critical (readiness probe failing), the journal
# must record the deterministic event skeleton, and the verdict must
# recover to ok after the runtime finalizes (OPERATIONS.md).
health-smoke:
	$(GO) test -run 'TestHealthSmoke$$' -count=1 -v .

# serve-smoke is the serving layer's CI gate: boot hsserve with two
# tenants at 2:1 weights, saturate both with hsbench's load mode, and
# assert throughput shares match the weights within ±10%, queue-depth
# peaks stay within the bound, the hstreams_tenant_* families are
# populated, and SIGTERM shutdown leaks zero buffers (SERVING.md).
serve-smoke:
	./scripts/serve_smoke.sh

# FUZZ_TARGETS are the native fuzz targets, as package:target.
FUZZ_TARGETS = internal/coi:FuzzDecode internal/core:FuzzDecodeCheckpoint \
	internal/fabric:FuzzAddrSpace internal/trace:FuzzFlightRecorder \
	internal/telemetry:FuzzStoreWindow internal/serve:FuzzServeRequests

# fuzz-smoke runs every target under the native fuzzer for a short,
# fixed time each: no input may panic a decoder, and whatever it
# accepts must re-encode to an equal value (the checkpoint target also
# replays what it accepts); the AddrSpace target checks the allocator's
# invariants after every op of a random alloc/free sequence, and the
# flight-recorder target checks a small ring against a by-value model
# after every op of a random record/snapshot/reset sequence, and the
# store-window target checks every windowed query of a small telemetry
# store against a by-value reference after a random write sequence, and
# the serve target posts a random body to the tenant, buffer, submit or
# negotiate endpoint and checks the status set, the error envelope and
# the tenant's buffer accounting. A crasher
# lands in <package>/testdata/fuzz/<target>; commit it as a regression
# seed.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run='^$$' -fuzz="^$${t#*:}$$" -fuzztime=10s ./$${t%%:*} || exit 1; \
	done

# overhead holds the observation stack and the layering to their
# wall-clock bounds on this host: the flight recorder and the
# trace + telemetry + health stack each within 5% of a bare tier-1
# matmul (interleaved median of per-round ratios, re-measured once
# when over), and an 8 MB hStreams transfer within 2x of the raw
# fabric DMA. Each benchmark runs once and fails the run over its
# bound. Tier-1 (go test ./...) asserts only their deterministic
# proxies, so it cannot fail for the host's reasons; bench
# (go run ./bench) times the scheduler and the per-layer costs.
overhead:
	$(GO) test -run '^$$' -bench '^Benchmark(TraceOverhead|TelemetryOverhead|Layering)$$' -benchtime 1x .

# check is the pre-commit gate: build, vet, formatting, the doc lint,
# the exposition golden, tests under the race detector, the wall-clock
# overhead bounds, the chaos smoke, the health smoke, the serving
# smoke, and the decoder fuzz smoke.
check: build vet fmt doclint golden race overhead chaos-smoke health-smoke serve-smoke fuzz-smoke

bench:
	$(GO) run ./cmd/hsbench -fig all

# loc prints non-test, non-generated Go lines per package (bench/
# excluded) — the figures ROADMAP and simplicity PRs quote. Not part of
# check: it reports, it does not gate.
loc:
	./scripts/loc.sh

# knobs prints the independently settable values per source — exported
# fields of the exported Config/Options/Quotas/*Policy/*Plan structs,
# flag definitions under cmd/ and examples/, environment reads — and a
# total, so "no new knobs" is quoted from a command. Like loc, it
# reports and does not gate.
knobs:
	./scripts/knobs.sh

clean:
	$(GO) clean ./...
