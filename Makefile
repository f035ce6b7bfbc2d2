GO ?= go

# bench/ is its own module, so ./... at the root never compiles it: it
# is vetted and tested here too, or an engine API change could break the
# benchmark of record unnoticed (~6 s, includes TestSmokeAllWorkloads).
.PHONY: verify
verify: ## tier-1 gate: everything builds, all tests pass — in both modules
	$(GO) build ./...
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

.PHONY: race
race: ## tier-1 plus the race detector on the concurrent packages
	# Includes the journal's staged-write boundaries: kills at either side
	# of a staged record (core TestDurabilityKillAtStagedBoundaries), the
	# writes-per-execution pin (core TestCommitPointsPerChainExecution) and
	# the batch/Abandon/torn-batch suite (journal package). The control
	# plane and hostapi run on every core redeploy and drain goroutine;
	# cmd/selfserv and cmd/hostd run daemons, and selfserv run ends its
	# version through controlplane.Drain.
	$(GO) test -race ./internal/engine/ ./internal/transport/ ./internal/core/ ./internal/message/ ./internal/journal/ ./internal/controlplane/ ./internal/hostapi/ ./cmd/selfserv/ ./cmd/hostd/

# The allocation budgets on their own: every test that pins objects per
# operation on the notification-hop path — the coordinator round, an
# instance, the outbox, the wrapper's start fan, quiet log sites, a
# create at the instance cap, a retire after a round or untaken, a frame
# over either wire, a frame delivered off either wire's receive lanes, a warm send's encode into a pooled buffer, the codec, a journal append, a placement pick, the
# simulated provider, a warm firing's provider request (bind and key). No race detector (it allocates) and no cache, so a
# budget regression is its own red line in the CI job list, not a line
# inside `verify`.
BUDGET_TESTS = TestHopCostAllocs|TestDeliveredFrameCostsItsRecordAndATakenBag|TestNewInstanceIsOneAllocation|TestOutboxOnePeerRoundAllocatesNothing|TestStartFanAllocatesNothing|TestQuietLogSitesAllocateNothing|TestGetOrCreateAtCapAllocatesOnlyTheInstance|TestRetireAllocatesNothing|TestUntakenRetireAllocatesNothing|TestTCPFrameIsEncodedOnce|TestWarmSendAllocatesNothingToEncode|TestCodecAllocBudget|TestRoomIsLeftInFrontOfTheSameBytes|TestAppendCostBudget|TestPickAllocatesNothing|TestSimulatedInvokeAllocatesOnlyTheHandlersOutputs|TestWarmRequestAllocatesNothing

.PHONY: budget
budget: ## allocation-budget tests only, uncached, no race detector
	$(GO) test -count=1 -run '^($(BUDGET_TESTS))$$' ./internal/engine/ ./internal/transport/ ./internal/message/ ./internal/journal/ ./internal/placement/ ./internal/service/

# The benchmark of record (bench/, BENCHMARK.json): five workloads end
# to end plus the per-layer probes, ~5 min. bench/README.md has its flags;
# two -out files are judged by the bounds with `bash bench/run.sh
# -compare a b`. Hard-fail invariants are tests beside their code, run by
# `make verify`.
.PHONY: bench
bench: ## the benchmark of record: bash bench/run.sh
	bash bench/run.sh

COVER_FLOOR ?= 80

.PHONY: cover
cover: ## coverage floor on the concurrency- and availability-critical packages
	$(GO) test -coverprofile=cover.out ./internal/transport/ ./internal/engine/ ./internal/community/ ./internal/qos/ ./internal/circuit/ ./internal/limits/ ./internal/journal/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "transport+engine+community+qos+circuit+limits+journal coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

FUZZTIME ?= 30s

.PHONY: fuzz
fuzz: ## short fuzz pass over the wire record decoders (one into a reused Message and bag) and frame merge (seeded from internal/message/testdata; the merge stays while bench/ times it), the TCP read loop, the journal decoder, the field reader under both codecs and the guard parser (depth bound, String round trip)
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzUnmarshalBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzMergeBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzDecodeIntoOneMessage$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz 'FuzzReadLoop$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/journal -run '^$$' -fuzz 'FuzzDecodeRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/record -run '^$$' -fuzz 'FuzzReader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/expr -run '^$$' -fuzz 'FuzzParseExpr$$' -fuzztime $(FUZZTIME)
	# Every FuzzOpenSegment execution opens two journal directories on
	# disk, so the default minute of minimizing per find would eat the
	# whole budget.
	$(GO) test ./internal/journal -run '^$$' -fuzz 'FuzzOpenSegment$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s

.PHONY: flake
flake: ## liveness/flake hunt: the concurrent packages, race detector, 10 loops
	# Covers the 64-way concurrent-Execute stress test (engine
	# stress_test.go), the receive-lane FIFO contract (transport
	# faults_test.go), the churn chaos suite (core churn_test.go), the
	# community failover/health races (community churn_test.go), and the
	# durability suite — crash recovery mid-Chain(8) over both
	# transports, passivate/rehydrate byte-identity (core
	# durability_test.go, engine passivate_test.go), and journal
	# torn-tail and torn-batch repair (journal package); the crash
	# boundaries of a staged record — killed during the provider call,
	# killed between an invoke record's Stage and its round's Append (core
	# TestDurabilityKillAtStagedBoundaries), Abandon vs Close and a failed
	# batched write (journal TestAbandonDropsWhatCloseWrites,
	# TestFailedBatchWriteKeepsOthersStaged); and the bag-ownership suite —
	# the kernel differential against a copy-everything reference, the
	# kept-message reader racing base-layer writes (engine kernel_test.go,
	# ownership_test.go) and the borrowed-message contract on both wires
	# — a receive lane lends the struct and the bag, a handler takes the
	# bag it keeps and owns the strings (transport transport_test.go); and
	# the taken-layer rule — a
	# second arrival from the taken source landing while the provider is
	# blocked, then replay ≡ live (engine ownership_test.go
	# TestTakenLayerIsNotWrittenBeforeFinish), RaiseEvent racing the start
	# phase over the lent inputs (TestStartMessagesReadTheLentInputs); the
	# recycled instances of journal-less once tables — a late frame for a
	# retired ID held on the wire, then landing on the recycled object
	# (engine recycle_test.go), and the 64-way stress test above, whose
	# executions recycle each other's instances and bags; and
	# the TCP direct write sharing a slowly read connection with the writer
	# (transport TestTCPStreamIntegrityThroughDirectWrites). The cap
	# cascade's gate runs again on two cores: replicated Travel at a cap of
	# 4 (core TestReplicatedTravelEvictsNothingAtTheCap, ROADMAP item 18).
	$(GO) test -race -count=10 ./internal/engine/ ./internal/transport/ ./internal/core/ ./internal/community/ ./internal/journal/
	$(GO) test -race -count=10 -cpu 2 -run '^TestReplicatedTravelEvictsNothingAtTheCap$$' ./internal/core/

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: lint
lint: ## selfservvet analyzer suite + gofmt, over the whole tree
	$(GO) run ./cmd/selfservvet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The counting rule simplicity PRs gate on (PR 12, ISSUE 14): lines of
# non-test Go source per package — comments and blanks included, so the
# number cannot be moved by densifying code — outside testdata/, on
# gofmt'd source (refuses to count an unformatted tree).
.PHONY: loc
loc: ## non-test, non-testdata Go lines per package
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed before counting:"; echo "$$unformatted"; exit 1; \
	fi
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 \
	| xargs -0 wc -l \
	| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
	| sort -k2

# Ceilings on what `make loc` prints, set to the counts of the change that
# last moved them: the allocation-free send (CHANGES.md has the entry)
# raised engine by 16 lines and transport by the Sender's non-retention
# comment. The one rollout protocol (CHANGES.md) deleted internal/deployer
# (187) and cut core, which gets a ceiling of its own, and raised three:
# hostapi by `Node`, the in-process admin surface the HTTP handlers now
# only decode for; controlplane by the `Admin` interface, `Join` and the
# per-host unwind; cmd/selfserv by the plan-file writer moved in from the
# deployer, its only caller. The one wrapper lifecycle (CHANGES.md)
# lowered engine, core, hostapi, controlplane and the total, and gave
# cmd/hostd a ceiling: the daemon lost its -drain-timeout flag and its
# in-flight and abandoned counters, which no daemon ever moved, and a
# ceiling keeps such dead settings from coming back unnoticed. The
# engine grew 340 and then 58 lines across two re-anchors with nobody
# deciding it should: raising a ceiling is a one-line diff here that a
# reviewer sees, and lowering one after a cut keeps the cut. The shipped
# placement policy (CHANGES.md) lowered engine (the rebuild-on-policy
# loop), hostapi (the line codec), core, cmd/hostd (two flags and their
# parser) and the total, and raised two: controlplane by the policy's
# new owner (New's parameter, Release.Placement, the push argument) and
# the refusal that names each skipped host's reason; cmd/selfserv by
# the one -placement flag, its JSON parse and the -host/-placement
# helper deploy and run share. The one chart builder (CHANGES.md) wrote
# internal/workload's charts through internal/composer, deleted its
# hand-written statechart literals and composer's test-only methods, and
# gave both packages a ceiling so a second spelling of a chart shows here.
# The one member state machine (CHANGES.md) deleted the community's health
# checker, qos's health states and circuit's unused surface, lowered
# cmd/hostd (two -health-* flags) and the total, and gave community, qos
# and circuit ceilings, so a second state machine deciding whether a
# member may be picked would show here. The untaken end (CHANGES.md)
# paid for its exclusivity proof in routing and expr by moving test-only
# names into export_test.go files and merging the instance table's two
# insert paths, and lowered engine and the total. Fixing the knobs
# nobody turned (CHANGES.md) deleted TCP connection eviction and the
# backoff, snapshot and batch-sync settings, lowered transport, cmd/hostd
# (five flags) and the total, and gave journal a ceiling. The one
# admission point (CHANGES.md) deleted the hosts' limiter re-check, the
# core and hostd spellings of the limiter and its test-only counters,
# lowered engine, core, cmd/hostd and the total, and gave limits a
# ceiling, so a second admission point or stats surface shows here. The
# paths nobody took (CHANGES.md) deleted the shed queue rule, InMem's
# simulated latency and the community's backoff, alpha and dedup-size
# options, and lowered transport, community, cmd/hostd (one flag) and
# the total. The one recovery call (CHANGES.md) deleted the recovery
# status resource, the control plane's probe request, two breaker flags
# and the journal's segment-size option, and lowered hostapi,
# controlplane, cmd/hostd, core, journal and the total. The TCP direct
# write and pooled frame buffers (CHANGES.md) raised transport by the
# direct write, its connection fields and the pool; making a lost
# instance a fault (the lost-ID ring, the eviction verdict, the refusal
# and its counter) raised engine, and both raised the total. One outcome
# for a stale frame (CHANGES.md) deleted the re-route hop, the
# cross-version fault fallback, message.Clone/MergeVars and core's
# re-summed host counters, lowered engine, core and the total, and gave
# internal/message a ceiling. It raised journal by the passive index's
# plan-version key alone: the version in instKey, the segment number
# that replaces the path in an index entry (so the entry stays 72 bytes)
# and segFile, which rebuilds the path for a rehydration. The firing that
# allocates nothing the engine owns (CHANGES.md) lowered engine (bindInputs
# fills a map it is handed; the formatted key and its comment went) and
# raised service by the Key type and the borrow rule on Request.Params,
# and journal by the pointer-free passive index: keyOf, the 128-bit
# length-prefixed hash of an instance's four fields under two seeds made
# at Open, and TakePassive's check of the record it reads back against
# the four fields it was asked for. Those lines buy an index the
# collector never scans and that pins no instance ID, and a hash
# collision that fails loudly instead of rehydrating another instance;
# the total rises by their sum. The delivery that allocates only what the
# execution keeps (CHANGES.md) lowered transport (one deliver function for
# both wires; TCP's decoded-frame type and its deliver closure went) and
# raised four. message by Decode's check of a whole frame before its first
# visit (a batch is no longer decoded whole before its first delivery,
# and a corrupt one must still deliver nothing) and by Peek, which lets
# the TCP read loop pick a lane without decoding; UnmarshalFrame went. engine by Execute's borrow
# rule and the instance that ends, finished, with the call, so no late
# notice reads the borrowed inputs, and by the two handlers that copy the
# lent struct they keep. community by the name-sorted member slice that
# Join and Leave keep so a delegation sorts nothing; core by the borrow
# rule on Composite.Execute. The total also carries record's
# non-copying checker and service's slot-array cache, two packages with
# no ceiling of their own. The recycled instance (CHANGES.md) raised
# engine by the stripe's free list, the recycle after the flush, the
# renewal of a recycled instance and the exchange arrive
# returns to the handlers; message and transport by the decode into the
# lent bag and the take rule a handler now follows (the Handler comment
# states it). No engine code became dead with them: RaiseEvent still
# clones its payload, because arrive adopts the map it is given and the
# caller keeps its payload. The total also carries expr's depth bound on
# outside input (parser and lexer) and its literal quoting, which String
# needs to parse back, and record's BagInto; expr has no ceiling.
LOC_CEILINGS = ./internal/engine=3766 ./internal/transport=1931 ./internal/journal=1271 ./internal/message=375 ./internal/hostapi=498 ./cmd/selfserv=366 ./cmd/hostd=285 ./internal/controlplane=404 ./internal/core=521 ./internal/workload=379 ./internal/composer=220 ./internal/community=707 ./internal/qos=180 ./internal/circuit=277 ./internal/limits=136 total=23710

.PHONY: loc-check
loc-check: ## `make loc`, failing when a count is over its committed ceiling
	@$(MAKE) -s loc | awk -v ceilings="$(LOC_CEILINGS)" ' \
		BEGIN { n = split(ceilings, c, " "); for (i = 1; i <= n; i++) { split(c[i], kv, "="); max[kv[1]] = kv[2] } } \
		{ print } \
		$$2 in max { seen[$$2] = 1; if ($$1 > max[$$2]) { bad = 1; printf "loc-check: %s is %d lines, over its ceiling of %d\n", $$2, $$1, max[$$2] } } \
		END { for (p in max) if (!(p in seen)) { bad = 1; printf "loc-check: %s was not counted\n", p } exit bad }'
