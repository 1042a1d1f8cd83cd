GO ?= go

.PHONY: build test check bench vet inline analysis serve-smoke fleet-smoke bench-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Fast correctness tier for scheduler/channel work: vet everything
# (including the determinism vet), then race-test the packages whose
# concurrency the kernel refactor touches (plus the campaign runner's
# worker pool and the tracing layer), run the full SoC suite with channel
# tracing armed, enforce the disarmed tracing overhead budget (<= 2%
# over the untraced primitives), and hold the compiled RTL evaluator's
# throughput floor over its test oracle. The decoders of outside bytes
# (wire frames, job specs, metrics dumps), the HLS-to-gates compiler
# (random bounded designs checked stage by stage against the golden
# model) and the channels' stall-injection stream (checked against
# math/rand's draws from the same seed) are fuzzed for a fixed budget,
# every analysis pass must pass the shipped designs and catch its
# seeded-bug fixtures, and the benchmark module's golden cycle,
# instret, edge and pause counts (the determinism guard) must hold,
# every SoC test must pass with signal-accurate channels under stall
# injection in both clockings, on one clock with the sim-accurate and
# RTL-cosim channels (whose NIs and hart are methods that park on
# blocked port operations) under stall injection and, under GALS, with
# the default channels (whose CDC relays are methods) under stall
# injection, and a short run of every benchmark workload must finish
# clean.
# Before the tests, the kernel's hot entry points must inline where the
# channels and routers call them (see inline below).
check: vet inline
	$(GO) test -race ./internal/sim ./internal/connections ./internal/gals ./internal/exp ./internal/trace ./internal/serve ./internal/fleet ./internal/fleet/wire ./internal/ratecheck ./internal/mc
	SOC_TRACE=1 $(GO) test ./internal/soc
	TRACE_OVERHEAD_GUARD=1 $(GO) test -run TestDisarmedOverheadGuard -v ./internal/connections
	RTL_PERF_GATE=1 $(GO) test -count=1 -run TestRTLPerfGate -v ./internal/rtl
	$(GO) test -run '^$$' -fuzz '^FuzzReadMsg$$' -fuzztime 10s ./internal/fleet/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseJSON$$' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s ./internal/synth
	$(GO) test -run '^$$' -fuzz '^FuzzStallStream$$' -fuzztime 10s ./internal/connections
	cd bench && $(GO) test .
	$(MAKE) analysis
	$(GO) run ./cmd/socsim -test all -mode signal -stall 0.1
	$(GO) run ./cmd/socsim -test all -gals -mode signal -stall 0.1
	$(GO) run ./cmd/socsim -test all -stall 0.1
	$(GO) run ./cmd/socsim -test all -mode rtl -stall 0.1
	$(GO) run ./cmd/socsim -test all -gals -stall 0.1
	$(MAKE) serve-smoke
	$(MAKE) fleet-smoke
	$(MAKE) bench-smoke

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

# A one-second run of each benchmark workload through bench/run.sh under
# a deadline: each must exit 0 with no failed op and leave no socbench,
# socd or socgw process behind.
bench-smoke:
	bash scripts/bench_smoke.sh

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

# The compiler must inline the kernel's hot entry points (Event.Notify,
# the Clock and Thread cycle accessors) and inline Notify into the
# channel push, pop and commit, In.Peek into the WHVC router's input scan and
# the stall stream's per-draw step into its roll loop; matched by
# enclosing function, from go build -gcflags=-m.
inline:
	GO=$(GO) bash scripts/inline_check.sh

# Every analysis pass in internal/analysis (design-rule lint, rate
# check, bounded model check) over every shipped SoC design, both
# clockings; then every seeded-bug fixture must be caught by its pass
# and every clean fixture must pass, asserted on the reports themselves
# by walking soc.Fixtures().
analysis:
	$(GO) run ./cmd/socsim -test all -check all
	$(GO) run ./cmd/socsim -test all -gals -check all
	$(GO) test -count=1 -run '^TestFixtures$$' ./internal/analysis
