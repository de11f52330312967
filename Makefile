# Standard checks for the TimberWolfMC reproduction.
#
#   make verify      tier-1 checks + race detector + short fuzz smokes + bench smoke/diff + twserve smoke + obs smoke + chaos smoke + fsck smoke + resume smoke
#   make test        unit tests only
#   make fuzz-smoke  10-second runs of each fuzz target
#   make bench       place + jobs + route + channel + estimate benchmarks with -benchmem -> BENCH_PR20.json
#   make bench-smoke 1-iteration benchmark pass (catches bitrot, no timing)
#   make bench-diff  a 100x median-of-5 bench pass gated against the committed baseline
#   make obs-smoke   2-node fleet end to end: submit, scrape /metrics, twobs clean timeline
#   make chaos-smoke bounded twchaos runs (fixed seeds, all five modes)
#   make fsck-smoke        twfsck end to end against a store with seeded defects
#   make resume-smoke      twmc SIGINT + -resume end to end, single and tempered

GO ?= go
FUZZTIME ?= 10s
BENCHTIME ?= 100x
BENCHOUT ?= BENCH_PR20.json
BENCHBASE ?= BENCH_PR20.json
BENCHPKGS = ./internal/place ./internal/jobs ./internal/route ./internal/channel ./internal/estimate

.PHONY: verify tier1 test race fuzz-smoke bench bench-smoke bench-diff serve-smoke obs-smoke chaos-smoke fsck-smoke resume-smoke

verify: tier1 race fuzz-smoke bench-diff serve-smoke obs-smoke chaos-smoke fsck-smoke resume-smoke

tier1:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# -fuzzminimizetime=100x caps the minimization of each new interesting
# input at 100 execs. With Go's default 60 s budget a smoke whose seeds are
# hard to shrink (FuzzDecodeCheckpoint's CRC-framed files) spends its whole
# -fuzztime minimizing its first finding instead of fuzzing.
#
# FuzzRouteOracle runs the oracle and the production router at three worker
# counts per input, about 165 execs/s on 2 CPUs. Before fuzzing, go test
# replays every input in the local fuzz cache ($GOCACHE/fuzz), and each
# 10 s run adds a few hundred; past about 350 cached inputs the replay
# outlasts FUZZTIME and the run reports ok without having fuzzed. Its smoke
# therefore replays only the seed corpus: the test binary gets a fresh,
# empty cache directory for each run (the last -test.fuzzcachedir wins).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/netlist
	$(GO) test -fuzz=FuzzParseYAL -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/netlist
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/place
	$(GO) test -fuzz=FuzzDecodeLines -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/telemetry
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/frame
	$(GO) test -fuzz=FuzzDecodeJournal -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/jobs
	$(GO) test -fuzz=FuzzDecodeLease -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/jobs
	$(GO) test -fuzz=FuzzDecodeDedupIndex -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/jobs
	$(GO) test -fuzz=FuzzParseTenantConfig -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/jobs
	$(GO) test -fuzz=FuzzCanonicalSpec -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/jobs
	@d=$$(mktemp -d); \
		echo "$(GO) test -fuzz=FuzzRouteOracle -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/route -args -test.fuzzcachedir=$$d"; \
		$(GO) test -fuzz=FuzzRouteOracle -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/route -args -test.fuzzcachedir=$$d; \
		st=$$?; rm -rf "$$d"; exit $$st

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

# chaos-smoke runs the chaos driver with fixed seeds in all five modes:
# in-process (injected faults, drain/restart interrupts; once more with
# parallel tempering, so the ladder-wide checkpoint format goes through the
# same fault schedules), sigkill (real child processes killed mid-write),
# node (a 3-node fleet SIGKILLed mid-claim under lease faults), storm (a
# multi-tenant submission storm against the admission surface and a
# faulted fleet) and dupstorm (racing duplicate submissions, exactly-once
# per content digest). Every mode ends with the same cold verifier: a
# clean twobs analysis and twfsck scrub of the store, every job terminal
# with a placement byte-identical to a clean reference run, then the
# mode's own assertions (quotas, exactly-once). Exit 0 means the recovery
# contract held on every schedule. The 50-schedule acceptance runs are the
# same commands with -schedules 50; the in-process one already runs under
# tier1/race via the regular test suite.
chaos-smoke:
	$(GO) run ./cmd/twchaos -schedules 10 -seed 1
	$(GO) run ./cmd/twchaos -mode sigkill -schedules 3 -seed 2
	$(GO) run ./cmd/twchaos -schedules 5 -seed 3 -replicas 2
	$(GO) run ./cmd/twchaos -mode node -schedules 3 -seed 4
	$(GO) run ./cmd/twchaos -mode storm -schedules 2 -seed 5
	$(GO) run ./cmd/twchaos -mode dupstorm -schedules 2 -seed 6

# fsck-smoke drives the twfsck binary end to end: a real store (executed
# job, dedup alias, idempotency key) gets a clean bill of health (exit 0),
# then a flipped placement byte must be detected (exit 1, dry-run touches
# nothing) and quarantined by -repair. The per-defect-class matrix runs in
# the internal/scrub unit tests.
fsck-smoke:
	$(GO) test -run 'TestFsckSmoke' -count=1 -v ./cmd/twfsck

# resume-smoke drives the twmc binary end to end: a checkpointed i3 run,
# once single and once with -replicas 3, is sent SIGINT as soon as its
# checkpoint exists (exit 3, or 0 if it finished first), then -resume'd;
# the resumed -out placement must be byte-identical to an uninterrupted
# run's, and the resume line must name the checkpoint's Stage 1 mode.
resume-smoke:
	$(GO) test -run 'TestResumeSmoke' -count=1 -v ./cmd/twmc

# bench records the placement, job-store, global-router, channel-builder
# and estimator hot-path benchmarks (incl. the telemetry on/off pair, the
# lease fencing guard and phase one over every i3 net) as committed JSON. Each benchmark runs five times and benchjson keeps the
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
