GO ?= go

.PHONY: build test check bench vet analysis serve-smoke fleet-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Fast correctness tier for scheduler/channel work: vet everything
# (including the determinism vet), then race-test the packages whose
# concurrency the kernel refactor touches (plus the campaign runner's
# worker pool and the tracing layer), run the full SoC suite with channel
# tracing armed, enforce the disarmed tracing overhead budget (<= 2%
# over the untraced primitives), and hold the compiled RTL backend's
# throughput floor over the interpreter. The decoders of outside bytes
# (wire frames, job specs, metrics dumps) and the HLS-to-gates compiler
# (random bounded designs checked stage by stage against the golden
# model) are fuzzed for a fixed budget, every analysis pass must pass
# the shipped designs and catch its seeded-bug fixtures, and the
# benchmark module's golden cycle, instret, edge and pause counts (the
# determinism guard) must hold.
check: vet
	$(GO) test -race ./internal/sim ./internal/connections ./internal/gals ./internal/exp ./internal/trace ./internal/serve ./internal/fleet ./internal/fleet/wire ./internal/ratecheck ./internal/mc
	SOC_TRACE=1 $(GO) test ./internal/soc
	TRACE_OVERHEAD_GUARD=1 $(GO) test -run TestDisarmedOverheadGuard -v ./internal/connections
	RTL_PERF_GATE=1 $(GO) test -count=1 -run TestRTLPerfGate -v .
	$(GO) test -run '^$$' -fuzz '^FuzzReadMsg$$' -fuzztime 10s ./internal/fleet/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseJSON$$' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s ./internal/synth
	cd bench && $(GO) test .
	$(MAKE) analysis
	$(MAKE) serve-smoke
	$(MAKE) fleet-smoke

# End-to-end smoke of the socd daemon: boot on an ephemeral port, submit
# lint + sim jobs over HTTP, assert the cache-hit byte identity, and
# drain on SIGTERM.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of the socgw fleet: gateway + 3 workers, a mid-batch
# worker kill/restart with zero lost jobs, the restarted worker serving
# again, and byte-identity of every result against a single-daemon rerun.
fleet-smoke:
	sh scripts/fleet_smoke.sh

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# gofmt (any file it would reformat fails the target), go vet, and the
# repo's determinism vet: the kernel packages must never read wall-clock
# time, touch the global math/rand source, or iterate maps into ordered
# output.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/detvet

# Every analysis pass in internal/analysis (design-rule lint, rate
# check, bounded model check) over every shipped SoC design, both
# clockings; then every seeded-bug fixture must be caught by its pass
# and every clean fixture must pass, asserted on the reports themselves
# by walking soc.Fixtures().
analysis:
	$(GO) run ./cmd/socsim -test all -check all
	$(GO) run ./cmd/socsim -test all -gals -check all
	$(GO) test -count=1 -run '^TestFixtures$$' ./internal/analysis
