# Build/test entry points. `make ci` runs every step of the CI workflow
# (.github/workflows/ci.yml) except govulncheck, which needs the network;
# the workflow calls these same targets. It includes the race detector,
# which protects the engine locking discipline and the concurrent-load
# tests in internal/server.

GO ?= go

.PHONY: build test race vet fmt-check lint lint-report ci bench bench-test bench-smoke bench-guard cover mc-fixtures replication-smoke loadgen-smoke report-smoke examples-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails when gofmt would change any Go file in the tree
# (bench/ included). It runs the gofmt of the toolchain GO selects.
fmt-check:
	@out=$$($$($(GO) env GOROOT)/bin/gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l lists unformatted files (run gofmt -w):"; echo "$$out"; exit 1; fi

# Static analysis: the gofmt gate, go vet, and auditlint, the repo's
# custom stdlib-only analyzer suite (cmd/auditlint, docs/LINTING.md)
# enforcing the determinism, locking and persistence invariants the
# replay/replication layers depend on. Every run loads and analyzes the
# whole module.
lint: fmt-check vet
	$(GO) run ./cmd/auditlint ./...

# Machine-readable findings report (schema 3, with witness chains) for
# the CI artifact. Exit code is the same 0/1/2 contract as `lint`.
LINT_REPORT ?= auditlint-findings.json
lint-report:
	$(GO) run ./cmd/auditlint -json ./... > $(LINT_REPORT)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

ci: build lint race replication-smoke loadgen-smoke report-smoke examples-smoke cover mc-fixtures bench-test bench-smoke

# Golden-decision drift gate: the scripted games' decisions must match
# testdata/mc_decisions.json at worker counts {1,4}, and the golden
# chains of the max∧min posterior (maxminprob), the max auditor's
# decisions (maxprob) and the synopsis folds must keep their pinned
# digests. Any drift invalidates persisted session journals — regenerate
# only for an intentional semantic change (-update-mc-fixtures).
MC_FIXTURE_TESTS = ^(TestMCDecisionFixtures|TestGoldenPosteriorChain|TestGoldenDecisionChain|TestGoldenFoldChain)$$
mc-fixtures:
	$(GO) test -run '$(MC_FIXTURE_TESTS)' -count=1 . ./internal/audit/maxminprob ./internal/audit/maxprob ./internal/synopsis

# End-to-end failover drill across real OS processes: build the binary,
# run a primary and a streaming replica, push 50 queries, diff the
# per-session transcript digests, SIGKILL the primary, promote the
# replica over HTTP, and keep serving writes. Exercises the paper's
# simulatability argument (§2.2: auditor state is a pure function of the
# decision history) as an operational failover guarantee.
replication-smoke:
	$(GO) test -run TestReplicationSmoke -count=1 -v ./cmd/auditserver

# End-to-end capacity-harness drill: build auditserver and loadgen as
# real binaries, drive a short mixed workload (all aggregate kinds,
# churned sessions, Zipf statement repetition) over HTTP, and validate
# the LOADGEN report artifact — every request classified, zero
# transport/5xx errors, ordered latency percentiles.
loadgen-smoke:
	$(GO) test -run TestLoadgenSmoke -count=1 -v ./cmd/loadgen

# End-to-end retrospective-auditing drill: auditserver + loadgen +
# auditdb + auditreport as real binaries. loadgen emits the workload as
# an ndjson audit log, the server exports the matching session journals
# over /v1/journal, and auditreport replays both shapes offline through
# a construction-identical stack (full and prob) with -verify: zero
# live/offline verdict mismatches, and two pipeline runs over the same
# inputs produce byte-identical reports. A scripted auditdb session's
# -session-snapshot journal must verify too, restore its tallies on
# restart, and fail verification once one byte is changed.
report-smoke:
	$(GO) test -run TestReportSmoke -count=1 -v ./cmd/auditreport

# Runs every program under examples/ end to end: `make build` only
# compiles them. A non-zero exit from any example fails the target.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$${d%/}"; $(GO) run ./$${d%/} > /dev/null || exit 1; \
	done

# Monte Carlo engine benchmarks — the per-worker Decide sweeps
# {1,2,4,8} with samples-evaluated columns, the deployment-default
# budget latency, the multi-analyst aggregate-QPS sweep over the shared
# scheduler, and the coloring chain — plus the session-manager
# benchmarks (hot-path lookup, the 1000-analyst eviction/replay churn
# and eviction at the live-engine cap) and the query-resolution benchmarks (naive scan vs indexed
# resolver, and the full HTTP Ask path with allocs/op), archived as a
# dated JSON stream of test2json events so runs are diffable across
# machines and commits.
BENCH_OUT ?= BENCH_$(shell date +%Y-%m-%d).json
BENCH_PATTERN = Decide$$|DecideDefaultBudget$$|AggregateDecideQPS$$|ColoringChain|^BenchmarkSession|^BenchmarkResolve|^BenchmarkServeAsk
BENCH_PKGS = . ./internal/session ./internal/server
bench:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -json $(BENCH_PKGS) > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# One iteration of every `make bench` benchmark: catches bit-rot in the
# benchmark code without paying for a measurement run.
bench-smoke:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchtime=1x -benchmem $(BENCH_PKGS)

# Unit and smoke tests of the end-to-end benchmark (bench/). It is a
# separate Go module, so the root `go test ./...` never runs them.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# Wall-clock tripwire for the workers>1 regression: a parallel
# per-decision cap must not cost materially more than the sequential run
# of the identical decision. Env-gated out of plain `go test` because
# wall-clock assertions belong on a quiet machine, run deliberately.
bench-guard:
	MC_BENCH_GUARD=1 $(GO) test -run TestSumProbWorkerScalingGuard -count=1 -v .

# Coverage with a floor for the session subsystem: the replay/eviction
# machinery is the correctness core of multi-analyst mode, so its
# statement coverage must not rot below the floor.
SESSION_COVER_FLOOR ?= 70.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@pct=$$($(GO) test -cover ./internal/session 2>/dev/null | \
		sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/session coverage: $$pct% (floor $(SESSION_COVER_FLOOR)%)"; \
	awk -v p="$$pct" -v f="$(SESSION_COVER_FLOOR)" \
		'BEGIN { if (p+0 < f+0) { print "FAIL: internal/session coverage below floor"; exit 1 } }'
