# Mirrors .github/workflows/ci.yml: `make ci-local` runs the same gates as
# the CI job matrix (fast-gate, test, race, chaos-fuzz, scale), serially.
# `make check` is ci-local without the scale gate.

GO ?= go

.PHONY: check ci-local fast-gate build vet fmt-check fma-check test race corralvet \
	netsim-fuzz snapshot-fuzz chaos fuzz overload trace-determinism resume-determinism scale scale-nightly

check: fast-gate test netsim-fuzz snapshot-fuzz trace-determinism resume-determinism race chaos fuzz overload
	@echo "check: all gates passed"

# One target per CI job, in the workflow's job order.
ci-local: fast-gate test netsim-fuzz snapshot-fuzz trace-determinism resume-determinism race chaos fuzz overload scale
	@echo "ci-local: all CI jobs passed"

fast-gate: build vet fmt-check fma-check

build:
	$(GO) build ./...

# vet is go vet plus the full corralvet suite (all nine checks), so a
# seeded contract violation — a shared write in a parallelFor closure, a
# fmt call on a //corral:hotpath function — fails `make vet` directly.
# -tests checks the _test.go files too: each package with its in-package
# tests, and each external test package against that augmented build.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/corralvet -tests ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# No fused multiply-adds in the simulation packages: the Go spec lets arm64
# (and ppc64le, s390x) fuse x*y + z, which rounds once where amd64 rounds
# twice and so changes rates, byte counts and times. An explicit
# float64(...) around the product prevents the fusion. This compiles each
# package directory below for arm64 (discarding the output, so a command
# leaves no binary behind), reads its assembly and fails on any
# FMADD/FMSUB/FNMADD/FNMSUB; it also fails if a package yields no assembly
# at all, so an empty listing cannot pass.
FMA_PKGS = internal/datadeps internal/des internal/dfs internal/experiments \
	internal/invariants internal/job internal/lp internal/metrics internal/model \
	internal/netsim internal/planner internal/runtime internal/snapshot \
	internal/topology internal/trace cmd/corraltrace

fma-check:
	@for p in $(FMA_PKGS); do \
		pkg=corral/$$p; \
		asm="$$(GOARCH=arm64 $(GO) build -o /dev/null -gcflags="$$pkg=-S" ./$$p 2>&1)" || { echo "$$asm" >&2; exit 1; }; \
		if ! printf '%s\n' "$$asm" | grep -qE "/$$p/[^/]+\.go:[0-9]+\)[[:space:]]+TEXT"; then \
			echo "fma-check: no assembly listing for $$p" >&2; \
			exit 1; \
		fi; \
		fused="$$(printf '%s\n' "$$asm" | grep -E '[[:space:]]F(N?)M(ADD|SUB)[SD][[:space:]]' || true)"; \
		if [ -n "$$fused" ]; then \
			echo "fma-check: fused multiply-adds in $$p (arm64):" >&2; \
			echo "$$fused" >&2; \
			exit 1; \
		fi; \
	done

# go test ./... includes TestReportGolden, the reproduction gate: every
# registry experiment's report values at size s, seed 1, bit for bit
# against testdata/report_golden.json. Regenerate it only for a deliberate
# change of outcomes: UPDATE_REPORT_GOLDEN=1 go test -run TestReportGolden .
# The bench/ module has its own go.mod, so ./... above skips it; it is the
# one consumer of the public API outside this module.
test:
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# A short search for allocations where IncrementalMaxMin, its table edited
# call by call, leaves the per-flow MaxMinFair oracle; plain go test runs
# only the seed corpus, and nightly CI searches for 2 minutes. A failing
# input lands in internal/netsim/testdata/fuzz/.
netsim-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzIncrementalMatchesMaxMinFair -fuzztime 30s ./internal/netsim

# A short search for snapshot files on which Encode and Decode (the plan
# codec, or the encoding/json decode fallback) leave the reference codec;
# plain go test runs only the seed corpus, and nightly CI searches for 2
# minutes. The seeds are whole snapshot files, and minimizing a new input
# under the default 60s limit would take most of the 30s, so minimizing
# stops after 3s. A failing input lands in
# internal/snapshot/testdata/fuzz/.
snapshot-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeMatchesReference -fuzztime 30s -fuzzminimizetime 3s ./internal/snapshot

# internal/experiments alone needs ~10 minutes under -race on a 2-vCPU
# host, the same as go test's default per-binary timeout; 25m still fits
# inside the CI race job's 30-minute limit.
race:
	$(GO) test -race -timeout 25m ./...

# Standalone corralvet run with the machine-readable report, mirroring
# the CI fast-gate step (the same run `make vet` performs without the
# artifact).
corralvet:
	$(GO) run ./cmd/corralvet -tests -report corralvet.json ./...

# gotest runs `go test $(1)` and also fails when a -run pattern matched no
# test in a package: go test prints "no tests to run" for that and exits 0,
# so a renamed or deleted test would leave its gate green while checking
# nothing. The output is printed when the run ends.
gotest = out="$$($(GO) test $(1) 2>&1)"; status=$$?; printf '%s\n' "$$out"; \
	[ $$status -eq 0 ] || exit $$status; \
	if printf '%s\n' "$$out" | grep -q 'no tests to run'; then \
		echo "$@: a -run pattern matched no test: go test $(1)" >&2; \
		exit 1; \
	fi

# Chaos gate: the registry's chaos sweep (three fault intensities, each
# under Yarn-CS, constraint-drop Corral and replanning Corral) is
# bit-identical across two replays of two seeds, and it meets the
# graceful-degradation acceptance (replan <= drop <= yarn at every
# intensity). -count=1 defeats the test cache so the sweep really runs.
chaos:
	@$(call gotest,./internal/experiments -run 'TestChaos' -count=1 -v)

# corralcheck gate: the registry's fixed-seed fuzz sweep replays its 25
# randomized workload+fault traces (task crashes, machine/link faults, AM
# kills, DFS corruption) under all three schedulers with the invariant
# monitor attached, and resumes each trace's replanning run from a
# mid-flight snapshot (runs = 3 x traces + resumed traces); plus the
# attrition-sweep acceptance (every job completes at every bundled crash
# rate, completion degrades monotonically) and the snapshot corpus.
fuzz:
	@$(call gotest,./internal/experiments -run 'TestFuzz|TestAttritionSweep' -count=1 -v)

# Overload gate: the registry's overload sweep (arrival rates 1x to 8x the
# saturating rate under a fault storm): budgeted Corral (planner deadline
# budget + replan-storm suppression + admission control) finishes every
# rate with the armed replan-rate and admission-queue bounds clean and
# every job completed or shed, engaging its hardening from 4x on, while
# the unhardened replanning configuration demonstrably trips the
# replan-rate bound (anti-vacuity); the sweep is bit-identical across
# seeds and worker counts, and its budgeted 4x cell across a mid-storm
# snapshot/resume. -count=1 defeats the test cache.
overload:
	@$(call gotest,./internal/experiments -run 'TestOverload' -count=1 -v)
	@$(call gotest,./internal/runtime -run 'TestReplanSuppression|TestPlannerBudget|TestAdmission|TestOverload' -count=1)

# Resume-determinism gate: runs restored from mid-flight snapshots must
# finish with a bit-identical Result and trace export at any sweep worker
# count, the restore audit must catch any single corrupted state field,
# and the snapshot codec's golden file must not drift. A failing
# equivalence point persists its snapshot to
# internal/experiments/resume-failure.snap.json (uploaded as a CI
# artifact) for corralsnap inspection. -count=1 defeats the test cache.
resume-determinism:
	@$(call gotest,./internal/experiments -run 'TestResume' -count=1 -v)
	@$(call gotest,./internal/runtime -run 'TestSnapshot' -count=1)
	$(GO) test ./internal/snapshot -count=1

# Trace-determinism gate: replaying a traced suite must reproduce the
# JSONL and Chrome exports byte for byte, independent of seed plumbing,
# sweep worker count and registration order — and the disabled tracer must
# stay allocation-free. -count=1 defeats the test cache.
trace-determinism:
	@$(call gotest,./internal/experiments -run 'TestTrace|TestTracing' -count=1 -v)
	$(GO) test ./internal/trace -count=1

# Datacenter-scale gate: the 2k + 5k cells of the scale suite with full
# verification (same-seed determinism rerun + mid-flight snapshot/resume
# at every cell). No verdict depends on host speed; bench/ does the timing.
# corralsim exits non-zero on any verification failure; the JSON report
# lands in scale-report.json (uploaded as a CI artifact even on red).
scale:
	$(GO) run ./cmd/corralsim -exp scale -size m -seed 1 -json > scale-report.json

# Nightly ladder: the full 2k/5k/10k sweep (minutes of wall time) plus
# extended fuzz and resume sweeps; see .github/workflows/nightly.yml.
scale-nightly:
	$(GO) run ./cmd/corralsim -exp scale -size l -seed 1 -json > scale-report.json
	$(GO) run ./cmd/corralsim -fuzz-traces 100 -size s -seed 1
	@$(call gotest,./internal/experiments -run 'TestResume' -count=1)
