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
	# plane and hostapi run on every core redeploy and drain goroutine.
	$(GO) test -race ./internal/engine/ ./internal/transport/ ./internal/core/ ./internal/message/ ./internal/journal/ ./internal/controlplane/ ./internal/hostapi/

# The allocation budgets on their own: every test that pins objects per
# operation on the notification-hop path — the coordinator round, an
# instance, the outbox, the wrapper's start fan, quiet log sites, a
# create at the instance cap, a retire, a frame over either wire, the
# codec, a journal append, a placement pick, the simulated provider. No
# race detector (it allocates) and no cache, so a budget regression is its
# own red line in the CI job list, not a line inside `verify`.
BUDGET_TESTS = TestHopCostAllocs|TestNewInstanceIsOneAllocation|TestOutboxOnePeerRoundAllocatesNothing|TestStartFanAllocatesNothing|TestQuietLogSitesAllocateNothing|TestGetOrCreateAtCapAllocatesOnlyTheInstance|TestRetireAllocatesNothing|TestTCPFrameIsEncodedOnce|TestCodecAllocBudget|TestRoomIsLeftInFrontOfTheSameBytes|TestAppendCostBudget|TestPickAllocatesNothing|TestSimulatedInvokeAllocatesOnlyTheHandlersOutputs

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
fuzz: ## short fuzz pass over the wire record decoders and frame merge (seeded from internal/message/testdata; the merge stays while bench/ times it), the TCP read loop, the journal decoder and the field reader under both codecs
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzUnmarshalBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzMergeBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz 'FuzzReadLoop$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/journal -run '^$$' -fuzz 'FuzzDecodeRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/record -run '^$$' -fuzz 'FuzzReader$$' -fuzztime $(FUZZTIME)
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
	# ownership_test.go) and the handler-owns-the-message contract on both
	# wires (transport transport_test.go); and the taken-layer rule — a
	# second arrival from the taken source landing while the provider is
	# blocked, then replay ≡ live (engine ownership_test.go
	# TestTakenLayerIsNotWrittenBeforeFinish), RaiseEvent racing the start
	# phase over the lent inputs (TestStartMessagesReadTheLentInputs).
	$(GO) test -race -count=10 ./internal/engine/ ./internal/transport/ ./internal/core/ ./internal/community/ ./internal/journal/

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
# deployer, its only caller. The engine grew 340 and then 58 lines
# across two re-anchors with nobody deciding it should: raising a ceiling
# is a one-line diff here that a reviewer sees, and lowering one after a
# cut keeps the cut.
LOC_CEILINGS = ./internal/engine=3654 ./internal/transport=2013 ./internal/hostapi=563 ./cmd/selfserv=344 ./internal/controlplane=404 ./internal/core=666 total=24257

.PHONY: loc-check
loc-check: ## `make loc`, failing when a count is over its committed ceiling
	@$(MAKE) -s loc | awk -v ceilings="$(LOC_CEILINGS)" ' \
		BEGIN { n = split(ceilings, c, " "); for (i = 1; i <= n; i++) { split(c[i], kv, "="); max[kv[1]] = kv[2] } } \
		{ print } \
		$$2 in max { seen[$$2] = 1; if ($$1 > max[$$2]) { bad = 1; printf "loc-check: %s is %d lines, over its ceiling of %d\n", $$2, $$1, max[$$2] } } \
		END { for (p in max) if (!(p in seen)) { bad = 1; printf "loc-check: %s was not counted\n", p } exit bad }'
