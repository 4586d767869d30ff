GO ?= go

.PHONY: all build test race vet fmt golden update-golden doclint fuzz-smoke overhead check \
	bench clean loc knobs chaos-rate

# DOC_PKGS are the packages held to the godoc floor by doclint: the
# paper-critical stack, the platform model and its simulator, the
# serving layer, the debug server, the app layer and the facade.
DOC_PKGS = internal/fault internal/fabric internal/coi internal/core \
	internal/trace internal/metrics internal/telemetry internal/health \
	internal/serve internal/app internal/timesim internal/debugserver \
	internal/platform .

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

# golden pins the -metrics exposition format and every figure's
# numbers (hsbench -fig all -critpath); it runs first in check because
# it is fast and a telemetry-schema or schedule drift should fail
# loudly before the full race run. update-golden rewrites both.
golden:
	$(GO) test ./cmd/hsbench -run 'TestExpositionGolden|TestFiguresGolden'

update-golden:
	$(GO) test ./cmd/hsbench -run 'TestExpositionGolden|TestFiguresGolden' -update

# doclint fails on any undocumented exported declaration (or missing
# package comment) in the paper-critical packages.
doclint:
	$(GO) run ./scripts/doclint $(DOC_PKGS)

# FUZZ_TARGETS are the native fuzz targets, as package:target.
FUZZ_TARGETS = internal/coi:FuzzDecode internal/core:FuzzDecodeCheckpoint \
	internal/core:FuzzDepIndex internal/fabric:FuzzAddrSpace internal/trace:FuzzFlightRecorder \
	internal/telemetry:FuzzStoreWindow internal/serve:FuzzServeRequests

# fuzz-smoke runs every target under the native fuzzer for a short,
# fixed time each: no input may panic a decoder, and whatever it
# accepts must re-encode to an equal value (the checkpoint target also
# replays what it accepts); the dependence-index target draws a random
# program shape and holds the Sim edge set to the per-byte reference
# model exactly; the AddrSpace target checks the allocator's
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
# overhead bounds, and the decoder fuzz smoke. The end-to-end gates
# are Go tests that race runs once each: TestChaosGate and
# TestDebugGate (cmd/hsbench), TestHealthSmoke (.) and TestServeSmoke
# (cmd/hsserve).
check: build vet fmt doclint golden race overhead fuzz-smoke

bench:
	$(GO) run ./cmd/hsbench -fig all

# loc prints non-test, non-generated Go lines per package (bench/
# excluded) — the figures ROADMAP and simplicity PRs quote. Not part of
# check: it reports, it does not gate.
loc:
	./scripts/loc.sh

# knobs prints the independently settable values per source — exported
# fields of exported structs whose names end in Config, Options,
# Quotas, Policy or Plan, flag definitions under cmd/ and examples/,
# environment reads — and a total, so "no new knobs" is quoted from a
# command. Like loc, it reports and does not gate.
knobs:
	./scripts/knobs.sh

# chaos-rate runs TestChaosGate N times (default 100; RACE=1 adds
# -race) and prints the failure count per fault profile. Like loc, it
# reports and does not gate.
chaos-rate:
	GO=$(GO) N=$(N) RACE=$(RACE) ./scripts/chaos-rate.sh

clean:
	$(GO) clean ./...
