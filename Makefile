# Convenience targets; everything is plain dune underneath.

.PHONY: all build test exports loc bench bench-smoke bench-json bench-explore e2e-trace experiments examples clean outputs

all: build

build:
	dune build @all

test:
	dune runtest

# The lib/ export guard alone: lists every val no other module names and
# diffs it against test/exports.expected. After an intended change,
# `dune promote` refreshes the expected list.
exports:
	dune build @exports

# Lines of OCaml under lib/ (.ml and .mli): the figure ROADMAP.md and
# CHANGES.md quote when a change adds or deletes library code.
loc:
	@find lib -name '*.ml' -o -name '*.mli' | xargs cat | wc -l

bench:
	dune exec bench/main.exe

# Fast CI-friendly pass over the micro-benchmarks (small iteration
# budget; numbers are indicative, not for the record).
bench-smoke:
	dune exec bench/main.exe -- --smoke

# Full detector hot-path micro-benchmarks, written to BENCH_detector.json.
bench-json:
	dune exec bench/main.exe -- --json BENCH_detector.json

# Schedule-explorer throughput (ns per explored schedule), written to
# BENCH_explore.json.
bench-explore:
	dune exec bench/main.exe -- --json-explore BENCH_explore.json

# One traced dsmbench run per workload (seed 1, 3 s): the per-layer
# metrics behind ROADMAP.md's traced table, one JSON line each. Counts
# and minor words per op are deterministic; host times are indicative.
E2E_WORKLOADS = push-n1024 stencil-n16 racy-random-n8 explore-random-n3

e2e-trace:
	for w in $(E2E_WORKLOADS); do \
	  bash bench/e2e/run.sh --workload $$w --seed 1 --seconds 3 --trace 1 || exit 1; \
	done

# Every experiment section (E1..E17) with its self-checks.
experiments:
	dune exec bin/dsmcheck.exe -- experiment all

examples:
	dune exec examples/quickstart.exe
	dune exec examples/master_worker.exe
	dune exec examples/stencil.exe
	dune exec examples/histogram.exe
	dune exec examples/reduction.exe
	dune exec examples/mpi_windows.exe
	dune exec examples/load_balance.exe

# The capture used by EXPERIMENTS.md / the release checklist.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bin/dsmcheck.exe -- experiment all 2>&1 | tee experiments_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
