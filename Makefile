# Standard checks for the TimberWolfMC reproduction.
#
#   make verify      tier-1 checks + race detector + short fuzz smokes + bench smoke/diff + twserve smoke + obs smoke + chaos smokes + fsck smoke
#   make test        unit tests only
#   make fuzz-smoke  10-second runs of each fuzz target
#   make bench       place + jobs + route benchmarks with -benchmem -> BENCH_PR15.json
#   make bench-smoke 1-iteration benchmark pass (catches bitrot, no timing)
#   make bench-diff  a 100x median-of-5 bench pass gated against the committed baseline
#   make obs-smoke   2-node fleet end to end: submit, scrape /metrics, twobs clean timeline
#   make chaos-smoke bounded twchaos runs (fixed seeds, both single-process modes)
#   make chaos-node-smoke  bounded multi-node twchaos run (3-node fleet, SIGKILLed mid-claim)
#   make storm-smoke       bounded multi-tenant submission storm against a faulted fleet
#   make dupstorm-smoke    bounded duplicate-submission storm (exactly-once per digest)
#   make fsck-smoke        twfsck end to end against a store with seeded defects

GO ?= go
FUZZTIME ?= 10s
BENCHTIME ?= 100x
BENCHOUT ?= BENCH_PR15.json
BENCHBASE ?= BENCH_PR15.json
BENCHPKGS = ./internal/place ./internal/jobs ./internal/route

.PHONY: verify tier1 test race fuzz-smoke bench bench-smoke bench-diff serve-smoke obs-smoke chaos-smoke chaos-node-smoke storm-smoke dupstorm-smoke fsck-smoke

verify: tier1 race fuzz-smoke bench-diff serve-smoke obs-smoke chaos-smoke chaos-node-smoke storm-smoke dupstorm-smoke fsck-smoke

tier1:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz-smoke:
	$(GO) test -fuzz=FuzzParse$$ -fuzztime=$(FUZZTIME) ./internal/netlist
	$(GO) test -fuzz=FuzzParseYAL -fuzztime=$(FUZZTIME) ./internal/netlist
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=$(FUZZTIME) ./internal/place
	$(GO) test -fuzz=FuzzDecodeLines -fuzztime=$(FUZZTIME) ./internal/telemetry
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) ./internal/frame
	$(GO) test -fuzz=FuzzDecodeJournal -fuzztime=$(FUZZTIME) ./internal/jobs
	$(GO) test -fuzz=FuzzDecodeLease -fuzztime=$(FUZZTIME) ./internal/jobs
	$(GO) test -fuzz=FuzzParseTenantConfig -fuzztime=$(FUZZTIME) ./internal/jobs
	$(GO) test -fuzz=FuzzCanonicalSpec -fuzztime=$(FUZZTIME) ./internal/jobs
	$(GO) test -fuzz=FuzzDecodeDedupIndex -fuzztime=$(FUZZTIME) ./internal/jobs
	$(GO) test -fuzz=FuzzRouteOracle -fuzztime=$(FUZZTIME) ./internal/route

# serve-smoke drives a real twserve process end to end: start on an
# ephemeral port, submit a job, SIGTERM mid-run, and require a clean exit
# that leaves the job durably resumable.
serve-smoke:
	$(GO) test -run 'TestServeDrainSmoke|TestServeKillRecovery' -count=1 -v ./cmd/twserve

# obs-smoke drives the observability stack end to end: two real fleet-mode
# twserve processes share one store, each claims a submitted job, both
# expose the jobs.lease.* counters on /metrics, and after a clean drain the
# twobs analyzer must reconstruct a complete per-job timeline with zero
# findings (green runs are silent).
obs-smoke:
	$(GO) test -run 'TestObsFleetSmoke' -count=1 -v ./cmd/twserve

# chaos-smoke runs the chaos driver with fixed seeds in both fault modes:
# a bounded in-process run (injected faults, drain/restart interrupts) and
# a short sigkill run (real child processes killed mid-write), plus an
# in-process run with parallel tempering so the ladder-wide checkpoint
# format goes through the same fault schedules. Exit 0 means the recovery
# contract held on every schedule. The full 50-schedule property test
# already runs under tier1/race via the regular test suite.
chaos-smoke:
	$(GO) run ./cmd/twchaos -schedules 10 -seed 1
	$(GO) run ./cmd/twchaos -mode sigkill -schedules 3 -seed 2
	$(GO) run ./cmd/twchaos -schedules 5 -seed 3 -replicas 2

# chaos-node-smoke runs the multi-node chaos mode: a 3-node fleet of real
# twchaos children sharing one store, SIGKILLed and restarted mid-claim
# under lease-targeted fault schedules. Exit 0 means every job reached a
# terminal state exactly once, no write landed under a stale fencing token,
# and succeeded placements are byte-identical to a single-node reference.
chaos-node-smoke:
	$(GO) run ./cmd/twchaos -mode node -schedules 3 -seed 4

# storm-smoke runs the multi-tenant chaos mode: a seeded submission storm
# crossing the full admission surface (per-tenant quotas, queue-full, the
# weighted overload band) while a small fleet with lease faults armed works
# through the accepted jobs. Exit 0 means quotas were never exceeded, every
# rejection was typed and carried a Retry-After, no tenant starved, and the
# node-mode exactly-once/byte-identity contract held. The 50-schedule
# acceptance run is the same harness with -schedules 50.
storm-smoke:
	$(GO) run ./cmd/twchaos -mode storm -schedules 2 -seed 5

# dupstorm-smoke runs the duplicate-submission chaos mode: racing goroutines
# submit identical specs (raw duplicates plus retried idempotency keys)
# through one admission front end while an armed fleet executes the
# deduplicated work under SIGKILLs. Exit 0 means exactly one execution per
# content digest (re-execution only over a journaled failed generation),
# byte-identical fan-out through every alias, durable key→job mappings, and
# a zero-error post-chaos scrub. The 50-schedule acceptance run is the same
# harness with -schedules 50.
dupstorm-smoke:
	$(GO) run ./cmd/twchaos -mode dupstorm -schedules 2 -seed 6

# fsck-smoke drives the twfsck binary end to end: a real store (executed
# job, dedup alias, idempotency key) gets a clean bill of health (exit 0),
# then a flipped placement byte must be detected (exit 1, dry-run touches
# nothing) and quarantined by -repair. The per-defect-class matrix runs in
# the internal/scrub unit tests.
fsck-smoke:
	$(GO) test -run 'TestFsckSmoke' -count=1 -v ./cmd/twfsck

# bench records the placement, job-store and global-router hot-path
# benchmarks (incl. the telemetry on/off pair and the lease fencing guard)
# as committed JSON. Each benchmark runs five times and benchjson keeps the
# median. -cpu=2 fixes GOMAXPROCS, and with it the -2 suffix on every
# benchmark name, so a baseline recorded on one machine matches the names
# bench-diff sees on any other. The defaults (100x, median of 5, 2 CPUs)
# match bench-diff, so a recorded baseline and the gate measure the same
# way; raise BENCHTIME (e.g. BENCHTIME=2s) for publication-grade figures.
bench:
	$(GO) test -bench . -benchmem -benchtime=$(BENCHTIME) -count=5 -cpu=2 -run '^$$' $(BENCHPKGS) \
		| $(GO) run ./cmd/benchjson -o $(BENCHOUT)

# bench-smoke proves every benchmark still runs and its output still
# parses, without writing $(BENCHOUT) or caring about timing.
bench-smoke:
	$(GO) test -bench . -benchmem -benchtime=1x -run '^$$' $(BENCHPKGS) \
		| $(GO) run ./cmd/benchjson > /dev/null

# bench-diff is the regression gate: a quick bench pass compared against
# the committed baseline. 100 iterations (not 1) so one-time warmup
# allocations and cold caches amortize out of the per-op numbers, and the
# median of five runs so one stalled run of a sub-microsecond benchmark
# cannot trip the gate. -cpu=2 keeps benchmark names equal to the
# baseline's whatever the host's CPU count. The ns/op tolerance is loose
# (short timings are noisy and machines differ); the allocs/op gate is
# strict — any increase fails, because the Stage 1 hot paths, the
# single-node lease guard and a warmed spur search are pinned at zero
# allocs.
bench-diff:
	$(GO) test -bench . -benchmem -benchtime=100x -count=5 -cpu=2 -run '^$$' $(BENCHPKGS) \
		| $(GO) run ./cmd/benchjson -o /tmp/bench_head.json
	$(GO) run ./cmd/benchjson -diff -ns-threshold 400 $(BENCHBASE) /tmp/bench_head.json
