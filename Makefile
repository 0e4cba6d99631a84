# Build/test/race/vet targets for the S3aSim reproduction. `make check`
# is the PR gate: the parallel sweep executor and the workload cache must
# stay race-clean, and the paper-scale goldens must reproduce byte for byte.

GO ?= go

.PHONY: build test short race fuzz vet golden bench bench-quick bench-kernel bench-scale bench-readback bench-adaptive bench-diff check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# The sweep executor, workload cache, engine, fault layer, the serving
# traffic generator, the file-system and ROMIO layers (shared by the
# verified read path), the adaptive controller, and the shared
# observability sinks/registry under concurrent cells.
race:
	$(GO) test -race ./internal/obs/ ./internal/experiments/ ./internal/search/ ./internal/core/ ./internal/fault/ ./internal/causal/ ./internal/serve/ ./internal/pvfs/ ./internal/romio/ ./internal/adapt/

# A short fuzz pass over the chaos-spec parser (longer sessions: raise -fuzztime).
fuzz:
	$(GO) test -fuzz FuzzPlan -fuzztime 30s ./internal/fault/

vet:
	$(GO) vet ./...

# Paper-scale goldens: rerun the figures and extensions suites at paper
# scale (no BENCH record written) and diff their stdout byte for byte
# against the committed results. The simulator is deterministic, so any
# difference is a behavior change. About 20s on 2 cores.
golden:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/s3abench" ./cmd/s3abench && \
	"$$tmp/s3abench" -suite figures -quiet -json "" > "$$tmp/figures.txt" && \
	diff -u results/paper-scale-figures.txt "$$tmp/figures.txt" && \
	"$$tmp/s3abench" -suite extensions -quiet -json "" > "$$tmp/extensions.txt" && \
	diff -u results/paper-scale-extensions.txt "$$tmp/extensions.txt" && \
	echo "golden: figures and extensions byte-identical"

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

bench-quick:
	S3ASIM_BENCH_SCALE=quick $(GO) test -bench=. -benchmem -benchtime=1x

# Kernel fast-path micro-benchmarks (DESIGN.md §11): calendar throughput,
# process switches, Signal wake/broadcast, timed-wait re-arm (goroutine and
# state-machine waiters), the MPI message path and the PVFS request path
# riding on them as task-driven records, the adaptive controller's decision
# path (DESIGN.md §16), and result-content fill and exact match in MB/s
# (DESIGN.md §14). The steady-state paths must stay 0 allocs/op; the pvfs
# and mpi request paths are pinned by TestIssueOpSteadyStateAllocs and
# TestIsendIrecvAllocs (one allocation per Isend and per Irecv). The pvfs
# line runs the write benchmarks and the extent map on list-I/O traffic
# (BenchmarkExtentMapListIO), but not BenchmarkExtentMapWrite: its scattered
# 8-byte writes never touch or abut one another, so no spans merge, the
# sorted span list grows to a million entries, every insert moves its tail,
# and the benchmark does not finish at -benchtime=1s.
bench-kernel:
	$(GO) test -bench=. -benchmem -benchtime=1s ./internal/des/ ./internal/mpi/ ./internal/adapt/ ./internal/search/
	$(GO) test -bench='Write(Contig|List)|ExtentMapListIO' -benchmem -benchtime=1s ./internal/pvfs/

# Rank-scaling benchmark (DESIGN.md §12): 1k/10k/100k-rank cells on the
# FSM worker engine, reporting events/sec and peak memory per rank. The
# 100k cell holds a ~1.3 GB heap and takes about a minute.
bench-scale:
	$(GO) test -bench BenchmarkScaleWorkers -benchmem -benchtime=1x -run xxx ./internal/core/

# The verified read path: mixed GET/PUT sweep plus the readback-under-chaos
# battery. Exits nonzero on any content mismatch.
bench-readback:
	$(GO) run ./cmd/s3abench -suite readback -quick -quiet -json ""

# Closed-loop adaptive I/O (DESIGN.md §16): the controller against every
# static strategy across five regimes. Exits nonzero if the controller
# loses to the best static anywhere or fails to strictly win a mixed
# regime.
bench-adaptive:
	$(GO) run ./cmd/s3abench -suite adaptive -quick -quiet -json ""

# Quick full-suite run compared against the committed baseline record
# (execution performance only; virtual-time results are deterministic).
# Telemetry is on so the comparison exercises the windowed pipeline the
# baseline was recorded with (DESIGN.md §15).
bench-diff:
	$(GO) run ./cmd/s3abench -suite all -quick -quiet -json "" \
		-window 500ms \
		-slo 'slo-burn:burn(serve.slo_violations/serve.queries)>1.8:slo=0.5,fast=1s,slow=3s' \
		-diff results/BENCH_0007.json

check: build vet test race golden
