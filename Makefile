GO ?= go
GOFMT ?= gofmt

.PHONY: fmt build test vet race check-race oracle oracle-long determinism smoke-counts fuzz bench bench-compare perf golden smoke check

# Fail when gofmt would reformat any Go file: gofmt -l prints the name of
# every such file. Hidden directories (.git, tsperf's .bench_build caches)
# are skipped.
fmt:
	@out="$$(find . -path '*/.*' -prune -o -name '*.go' -print | xargs $(GOFMT) -l)"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Alias kept for muscle memory; check-race is the single race gate.
race: check-race

# Race-check the concurrency-heavy packages: the parallel dispatcher, the
# pruned search engine and the evaluation layer driving it, the pooled
# cross-correlation scratch of internal/fft and SINK's concurrent prepared
# pair kernel in internal/kernel, the parallel embedding fits (GRAIL's
# landmark Gram fill and mirroring), the wavefront DP scheduler plus the
# batched panel kernels, the STOMP matrix-profile engine's block dispatch,
# the index builders (now including the parallel VP-tree build), the
# corpus snapshot builder plus its LRU cache, the ANN engine's parallel
# embed/build plus its shared-index concurrent Queriers, and the
# multivariate layer's parallel 1-NN classifier plus its shared
# row/channel scratch pools, and the dataset and normalization layers: a
# TSV split's rows parse on par workers, and eval.Normalize maps a
# dataset's series through the normalizers on them.
check-race:
	GOMAXPROCS=4 $(GO) test -race ./internal/par ./internal/eval ./internal/search ./internal/fft ./internal/kernel ./internal/embedding ./internal/elastic ./internal/lockstep ./internal/profile ./internal/index ./internal/corpus ./internal/ann ./internal/multivariate ./internal/dataset ./internal/norm

# Differential oracle harness under the race detector: every measure
# against its reference implementation plus both search engines against
# exhaustive matrix evaluation, on the fixed default seed schedule.
oracle:
	$(GO) test -race -run Oracle ./internal/oracle

# Extended fuzzing campaign (32 seeds, about 32 s on two cores); part of
# make check, since some contract breaks show only at a few of its seeds.
oracle-long:
	$(GO) test ./internal/oracle -run Oracle -oracle.long

# The tsperf smoke run whose work counts smoke-counts and determinism pin,
# and the awk program that keeps its workload headers, less their wall
# time and with GOMAXPROCS=N read as GOMAXPROCS=1, and every metric
# counted in `count` units except go.gc_cycles, which follows the
# collector's pacing.
SMOKE_RUN = $(GO) run ./cmd/tsperf -scale smoke -seed 3 -seconds 0 -trace 1
SMOKE_AWK = /^== /{sub(/ wall=[^ ]*$$/, ""); sub(/GOMAXPROCS=[0-9]+/, "GOMAXPROCS=1"); print; next} $$3 == "count" && $$1 != "go.gc_cycles" {print $$1, $$2}

# Reads testdata/smoke_counts.golden, then SMOKE_AWK's output of a run on
# more than one worker. There the grid splits its rows among workers, and
# the incumbents a worker has seen decide whether the LB cascade, the
# pair-matrix bound or a DTW distance settles a pair, so grid.lb_pruned,
# grid.pair_lb, grid.full_dist and elastic.dtw.full_dist move between
# runs. Every other line must equal the golden, and in each workload
# grid.pairs must equal grid.lb_pruned + grid.pair_lb + grid.full_dist.
SMOKE_SPLIT_AWK = \
	function sum() { if (pairs != lb + plb + fd) { print head ": grid.pairs " pairs " != " lb " + " plb " + " fd; bad = 1 }; pairs = lb = plb = fd = 0 }; \
	NR == FNR { want[FNR] = $$0; n = FNR; next }; \
	{ got++ }; \
	/^== / { sum(); head = $$0 }; \
	$$1 == "grid.pairs" { pairs = $$2 }; \
	$$1 == "grid.lb_pruned" { lb = $$2 }; \
	$$1 == "grid.pair_lb" { plb = $$2 }; \
	$$1 == "grid.full_dist" { fd = $$2 }; \
	$$1 !~ /^(grid\.(lb_pruned|pair_lb|full_dist)|elastic\.dtw\.full_dist)$$/ && $$0 != want[FNR] { print "line " FNR ": \"" $$0 "\", golden \"" want[FNR] "\""; bad = 1 }; \
	END { sum(); if (got != n) { print got + 0 " lines, golden " n; bad = 1 }; exit bad }

# Worker-count determinism gate: the golden experiment outputs and the
# oracle's fixed seed schedule must pass unchanged on one, two and four
# workers (two is the benchmark host's core count). Wavefront DPs,
# lock-step panels, the prepared matrix rows and GRAIL's landmark Gram,
# the VP-tree build, the grid and pruned search engines and STOMP blocks
# all promise results that do not depend on the worker count. -count=1
# bypasses the test cache, which does not key on GOMAXPROCS. The smoke
# work counts must hold on two and four workers as SMOKE_SPLIT_AWK checks.
determinism:
	GOMAXPROCS=1 $(GO) test -count=1 -run TestGoldenExperimentOutputs ./cmd/tsbench
	GOMAXPROCS=2 $(GO) test -count=1 -run TestGoldenExperimentOutputs ./cmd/tsbench
	GOMAXPROCS=4 $(GO) test -count=1 -run TestGoldenExperimentOutputs ./cmd/tsbench
	GOMAXPROCS=1 $(GO) test -count=1 -run Oracle ./internal/oracle
	GOMAXPROCS=2 $(GO) test -count=1 -run Oracle ./internal/oracle
	GOMAXPROCS=4 $(GO) test -count=1 -run Oracle ./internal/oracle
	@for p in 2 4; do \
		out="$$(GOMAXPROCS=$$p $(SMOKE_RUN))" || exit 1; \
		printf '%s\n' "$$out" | awk '$(SMOKE_AWK)' | awk '$(SMOKE_SPLIT_AWK)' testdata/smoke_counts.golden - || \
		{ echo "smoke work counts differ at GOMAXPROCS=$$p"; exit 1; }; \
	done

# Work-count gate: the tsperf benchmark's smoke run on one worker, where
# the grid runs its rows in order and every work count is fixed. SMOKE_AWK's
# output must equal testdata/smoke_counts.golden. A change that alters the
# work a workload does re-records the golden by sending the same
# pipeline's output to that file instead of diff.
smoke-counts:
	@out="$$(GOMAXPROCS=1 $(SMOKE_RUN))" || exit 1; \
	printf '%s\n' "$$out" | awk '$(SMOKE_AWK)' | diff -u testdata/smoke_counts.golden -

# Native fuzzing, 15 s per target. The UCR and multivariate TSV parsers
# may not panic, must return the values, labels and error text of their
# Scanner-based test references, and every input they accept must keep
# its integral labels and round-trip through the writers to the same bits. The six lock-step
# panel kernels must give the same bits through Distance, and through
# DistanceUpTo and PanelDistancesUpTo at a +Inf cutoff, keep the
# early-abandoning contract, and Lorentzian must
# stay within 1e-12 of its Log1p loop. Every cross-correlation route of
# internal/fft must stay within a length-scaled tolerance of direct sums,
# and the plan and sliding routes must give CrossCorrelation's bits. The
# seed corpora alone already run under `go test ./...`.
# -fuzzminimizetime bounds the minimization of each new interesting input
# to 100 runs. Go's default is 60 s, longer than -fuzztime: minimizing one
# large input could take the whole budget ("0 execs/sec" in the log), and
# the target then reported PASS having barely fuzzed. FuzzPanelKernels
# passed that way while the bounded runs found a failure within 5 s.
fuzz:
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzReadTSV$$' -fuzztime 15s -fuzzminimizetime 100x
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzReadMVTSV$$' -fuzztime 15s -fuzzminimizetime 100x
	$(GO) test ./internal/lockstep -run '^$$' -fuzz '^FuzzPanelKernels$$' -fuzztime 15s -fuzzminimizetime 100x
	$(GO) test ./internal/fft -run '^$$' -fuzz '^FuzzCrossCorrelation$$' -fuzztime 15s -fuzzminimizetime 100x

# Smoke-run every benchmark once, then measure the grid tuning benchmarks
# (per-candidate loop vs grid engine), the square SINK matrix and the
# eigensolvers, the hot-loop kernels (scalar DP vs wavefront, per-pair vs
# batched panel), and the matrix-profile engine (STOMP vs the STAMP
# baseline) with allocation counts, recording each set via cmd/benchjson. Every set runs -count=3;
# benchjson keeps each benchmark's minimum ns/op across the repetitions,
# since co-tenant noise on shared machines only ever adds time.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem ./...
	$(GO) test -bench BenchmarkGridTuning -benchtime 5x -count=3 -benchmem ./internal/search | $(GO) run ./cmd/benchjson -o BENCH_tuning.json
	$(GO) test -bench 'BenchmarkSINKMatrix|BenchmarkEigenSym' -count=3 -benchmem ./internal/kernel ./internal/linalg | $(GO) run ./cmd/benchjson -o BENCH_spectral.json
	$(GO) test -bench BenchmarkHotloops -count=3 -benchmem ./internal/elastic ./internal/lockstep | $(GO) run ./cmd/benchjson -o BENCH_hotloops.json
	$(GO) test -bench BenchmarkProfile -count=3 -benchmem ./internal/profile | $(GO) run ./cmd/benchjson -o BENCH_profile.json
	$(GO) test -bench BenchmarkSnapshot -count=3 -benchmem ./internal/corpus | $(GO) run ./cmd/benchjson -o BENCH_snapshot.json
	$(GO) test -bench BenchmarkANN -benchtime 10x -count=3 -benchmem ./internal/ann | $(GO) run ./cmd/benchjson -o BENCH_index.json
	$(GO) test -bench BenchmarkMultivariate -count=3 -benchmem ./internal/multivariate | $(GO) run ./cmd/benchjson -o BENCH_multivariate.json

# Re-measure every committed BENCH_* baseline and fail (benchstat-style)
# when any benchmark's ns/op regressed by more than 35%. Run after changes
# to the hot loops or engines; `make bench` refreshes the baselines when a
# change is intentional. The threshold reflects the measured noise floor
# of these multi-second, low-iteration benchmarks on shared machines:
# identical code has been observed drifting -20% to +30% between runs
# (even taking the minimum of three repetitions) as co-tenant load
# wanders, so tighter gates flake, while real regressions — a lost fast
# path is typically 1.5-20x, i.e. +50% and far beyond — still trip 35%
# comfortably. Too slow (and too machine-dependent) for the default
# `make check` gate — run it explicitly on perf-sensitive PRs.
bench-compare:
	$(GO) test -bench BenchmarkGridTuning -benchtime 5x -count=3 -benchmem ./internal/search | $(GO) run ./cmd/benchjson -o /tmp/bench_new_tuning.json
	$(GO) run ./cmd/benchcompare -old BENCH_tuning.json -new /tmp/bench_new_tuning.json -threshold 35
	$(GO) test -bench 'BenchmarkSINKMatrix|BenchmarkEigenSym' -count=3 -benchmem ./internal/kernel ./internal/linalg | $(GO) run ./cmd/benchjson -o /tmp/bench_new_spectral.json
	$(GO) run ./cmd/benchcompare -old BENCH_spectral.json -new /tmp/bench_new_spectral.json -threshold 35
	$(GO) test -bench BenchmarkHotloops -count=3 -benchmem ./internal/elastic ./internal/lockstep | $(GO) run ./cmd/benchjson -o /tmp/bench_new_hotloops.json
	$(GO) run ./cmd/benchcompare -old BENCH_hotloops.json -new /tmp/bench_new_hotloops.json -threshold 35
	$(GO) test -bench BenchmarkProfile -count=3 -benchmem ./internal/profile | $(GO) run ./cmd/benchjson -o /tmp/bench_new_profile.json
	$(GO) run ./cmd/benchcompare -old BENCH_profile.json -new /tmp/bench_new_profile.json -threshold 35
	$(GO) test -bench BenchmarkSnapshot -count=3 -benchmem ./internal/corpus | $(GO) run ./cmd/benchjson -o /tmp/bench_new_snapshot.json
	$(GO) run ./cmd/benchcompare -old BENCH_snapshot.json -new /tmp/bench_new_snapshot.json -threshold 35
	$(GO) test -bench BenchmarkANN -benchtime 10x -count=3 -benchmem ./internal/ann | $(GO) run ./cmd/benchjson -o /tmp/bench_new_index.json
	$(GO) run ./cmd/benchcompare -old BENCH_index.json -new /tmp/bench_new_index.json -threshold 35
	$(GO) test -bench BenchmarkMultivariate -count=3 -benchmem ./internal/multivariate | $(GO) run ./cmd/benchjson -o /tmp/bench_new_multivariate.json
	$(GO) run ./cmd/benchcompare -old BENCH_multivariate.json -new /tmp/bench_new_multivariate.json -threshold 35

# End-to-end benchmark (cmd/tsperf, declared by BENCHMARK.json): builds
# tsperf from source under cmd/tsperf/.bench_build and runs it in the
# foreground; a full run takes minutes. Pass flags through PERF_FLAGS, e.g.
#   make perf PERF_FLAGS='--workload query-warm --scale smoke'
perf:
	bash cmd/tsperf/run.sh $(PERF_FLAGS)

# Regenerate the golden experiment outputs after an intentional change to
# a measure, engine, or renderer; commit the resulting diff.
golden:
	$(GO) test ./cmd/tsbench -run TestGoldenExperimentOutputs -update-golden

# End-to-end cancellation smoke test: build the real tsbench binary, run
# `-timeout 2s all`, and assert the graceful-shutdown contract (exit code
# 3, structural stderr report, only fully-completed tables on stdout).
smoke:
	$(GO) test ./cmd/tsbench -run TestSmokeCancellation -smoke -v

# CI entry point: everything that must be green before merging. Perf-
# sensitive changes should additionally run `make bench-compare` against
# the committed BENCH_* baselines (see the bench-compare target above).
check: fmt build vet test check-race oracle oracle-long determinism smoke-counts
