# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-smoke bench-json bench-explore explore-smoke explore-par-smoke explore-pool-smoke explore-dpor-smoke obs-smoke conformance scale-smoke rmw-smoke wire-smoke explain-smoke model-smoke model-diff-smoke experiments examples clean outputs

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Fast CI-friendly pass over the micro-benchmarks only (small iteration
# budget; numbers are indicative, not for the record).
bench-smoke:
	dune exec bench/main.exe -- --micro-only --smoke

# Full detector hot-path micro-benchmarks, written to BENCH_detector.json.
bench-json:
	dune exec bench/main.exe -- --json BENCH_detector.json

# Schedule-explorer throughput (ns per explored schedule), written to
# BENCH_explore.json.
bench-explore:
	dune exec bench/main.exe -- --json-explore BENCH_explore.json

# Time-boxed schedule exploration of the example programs plus the
# built-in get/put scenario. A smaller version of the racy/pingpong
# sweeps also runs as part of `dune runtest`.
explore-smoke:
	dune exec bin/dsmcheck.exe -- explore prog:programs/racy.dsm -n 3 --runs 25 --max-events 100000
	dune exec bin/dsmcheck.exe -- explore prog:programs/pingpong.dsm -n 2 --runs 25 --max-events 100000
	dune exec bin/dsmcheck.exe -- explore getput --runs 50

# Domain-parallel walk batches (findings are bit-identical to --jobs 1;
# a 2-domain batch also runs inside `dune runtest`). The second batch
# must find the retry-exhaustion violation — exit 124 — on 2 domains.
explore-par-smoke:
	dune exec bin/dsmcheck.exe -- explore getput --runs 40 --jobs 2
	dune exec bin/dsmcheck.exe -- explore getput --seed 1 --faults drop=0.65 --reliable --runs 25 --jobs 2; test $$? -eq 124

# Persistent-pool walk batches across chunk sizes (identical findings at
# every chunk; also wired into `dune runtest`), plus the --chunk
# validation: a non-positive chunk is a clean usage error, exit 124.
explore-pool-smoke:
	dune exec bin/dsmcheck.exe -- explore getput --runs 40 --jobs 2 --chunk 1
	dune exec bin/dsmcheck.exe -- explore getput --runs 40 --jobs 2 --chunk 256
	dune exec bin/dsmcheck.exe -- explore getput --runs 40 --jobs 2 --chunk 0 2>/dev/null; test $$? -eq 124

# Sleep-set DPOR over the bounded DFS: a tied-delivery getput tree and a
# 3-process racy workload, both pruned with findings preserved (also
# wired into `dune runtest`), plus the flag validation — --dpor needs
# --depth and excludes --replay and --jobs, all clean errors, exit 124.
explore-dpor-smoke:
	dune exec bin/dsmcheck.exe -- explore getput --latency constant:1 --depth 6 --dpor
	dune exec bin/dsmcheck.exe -- explore workload:master-worker-racy -n 3 --depth 10 --runs 600 --dpor
	dune exec bin/dsmcheck.exe -- explore getput --dpor 2>/dev/null; test $$? -eq 124
	dune exec bin/dsmcheck.exe -- explore getput --depth 4 --dpor --jobs 2 2>/dev/null; test $$? -eq 124
	dune exec bin/dsmcheck.exe -- explore getput --depth 4 --dpor --replay "dsm1|s=getput|n=2|seed=1|f=none|r=0|b=0|me=200000|d=" 2>/dev/null; test $$? -eq 124

# Observability smoke: a figure scenario exported as a Perfetto trace
# (the CLI re-validates the written JSON against the trace-event schema
# and exits nonzero on a bad export) plus metrics dumps from the run and
# explore paths. A smaller version also runs inside `dune runtest`.
obs-smoke:
	dune exec bin/dsmcheck.exe -- run --scenario fig4 --trace-out /tmp/dsmcheck_fig4_trace.json --metrics
	dune exec bin/dsmcheck.exe -- run --scenario fig5a --trace-out /tmp/dsmcheck_fig5a_trace.json
	dune exec bin/dsmcheck.exe -- explore getput --runs 25 --jobs 2 --metrics

# Clock conformance: the one adaptive clock path (epoch -> sorted pairs
# -> dense) must reproduce the golden fingerprints on directed seeds and
# agree with the dense reference clock on every race signal of hundreds
# of random schedules, and batched coherence must leave race verdicts
# untouched. Also runs as part of `dune runtest`.
conformance:
	dune exec test/test_conformance.exe

# Short scaling run past the paper's ~10 processes: 256 processes with
# the batched transport, then unbatched. A one-round version also runs
# inside `dune runtest`.
scale-smoke:
	dune exec bin/dsmcheck.exe -- scale -n 256 --rounds 2 --chunk 4
	dune exec bin/dsmcheck.exe -- scale -n 256 --rounds 2 --chunk 4 --batched false

# One-sided RMW workloads (§5.2 extensions): the racy variants must
# signal a race somewhere in the batch and the race-free variants must
# stay silent everywhere — asserted by --expect-races. The rmwlost tree
# is the planted-bug scenario, clean without --bug. A smaller version
# also runs inside `dune runtest`.
rmw-smoke:
	dune exec bin/dsmcheck.exe -- explore workload:histogram-racy --runs 20 --expect-races true
	dune exec bin/dsmcheck.exe -- explore workload:histogram --runs 20 --expect-races false
	dune exec bin/dsmcheck.exe -- explore workload:deque-racy --runs 20 --expect-races true
	dune exec bin/dsmcheck.exe -- explore workload:deque --runs 20 --expect-races false
	dune exec bin/dsmcheck.exe -- explore workload:allreduce-racy --runs 20 --expect-races true
	dune exec bin/dsmcheck.exe -- explore workload:allreduce --runs 20 --expect-races false
	dune exec bin/dsmcheck.exe -- explore workload:rmw-mix --runs 20
	dune exec bin/dsmcheck.exe -- explore rmwlost -n 3 --latency constant:1 --depth 8

# Delta-encoded clock piggybacks: the delta wire must survive
# dup/drop/reorder fault plans under the reliable transport (retransmits
# fall back to self-contained frames), the racy workload must still
# signal, and a token minted while the wire encoding was selectable (its
# w= field is ignored) must still replay. A smaller version also runs
# inside `dune runtest`.
wire-smoke:
	dune exec bin/dsmcheck.exe -- explore getput --runs 30 --faults drop=0.2,dup=0.1 --reliable
	dune exec bin/dsmcheck.exe -- explore getput --runs 30 --faults reorder=0.5,dup=0.2,drop=0.2 --reliable
	dune exec bin/dsmcheck.exe -- explore workload:master-worker-racy -n 3 --runs 20 --expect-races true
	dune exec bin/dsmcheck.exe -- explore getput --replay "dsm1|s=getput|n=2|seed=1|w=dense|f=none|r=0|b=0|me=200000|d=1,0,2"
	dune exec bin/dsmcheck.exe -- scale -n 64 --rounds 1 --chunk 2

# Explainable race reports (ISSUE 9): the planted get/put bug under the
# detector-attached scenario violates (exit 124) and --explain rebuilds
# the causal report from the minimized token — both endpoints, the
# incomparable clock components, the nearest sync edge, and the message
# chain — with a JSON artifact; a --replay of a pinned token explains
# identically, the race-silent RMW bug falls back to the atomicity
# explanation, and dsmcheck run explains a racy program directly. A
# smaller version also runs inside `dune runtest`.
explain-smoke:
	dune exec bin/dsmcheck.exe -- explore getput-checked --bug --latency constant:1 --runs 50 --explain --race-report /tmp/dsmcheck_explain_report.json; test $$? -eq 124
	dune exec bin/dsmcheck.exe -- explore rmwlost-checked -n 3 --bug --latency constant:1 --runs 100 --explain; test $$? -eq 124
	dune exec bin/dsmcheck.exe -- explore getput-checked --replay "dsm1|s=getput-checked|n=2|seed=1|l=constant:1|f=none|r=0|b=1|me=200000|d=" --explain
	dune exec bin/dsmcheck.exe -- run programs/racy.dsm --explain --race-report /tmp/dsmcheck_explain_run_report.json

# Pluggable memory-model backends (ISSUE 10): the conformance suite
# pins nic_atomic to the pre-refactor goldens; here the other backends
# get exercised end-to-end — relaxed makes the RMW storm racy (the
# S-serialization edge is gone), seq_consistent still catches the
# genuinely unsynchronized getput race, and a token minted under a
# non-default model replays bit-identically. A smaller version also
# runs inside `dune runtest`.
model-smoke:
	dune exec test/test_model.exe -- test 'nic-atomic-goldens'
	dune exec bin/dsmcheck.exe -- explore rmwlost-checked -n 3 --latency constant:1 --runs 30 --model relaxed --expect-races true
	dune exec bin/dsmcheck.exe -- explore rmwlost-checked -n 3 --latency constant:1 --runs 30 --model nic_atomic --expect-races false
	dune exec bin/dsmcheck.exe -- explore getput-checked --latency constant:1 --runs 30 --model seq_consistent --expect-races true
	dune exec bin/dsmcheck.exe -- explore rmwlost-checked -n 3 --latency constant:1 --model relaxed --replay "dsm1|s=rmwlost-checked|n=3|seed=1|l=constant:1|m=relaxed|f=none|r=0|b=0|me=200000|d=1,1,1"
	dune exec bin/dsmcheck.exe -- run --scenario fig5a --model relaxed
	dune exec bin/dsmcheck.exe -- scale -n 32 --rounds 1 --chunk 2 --model relaxed

# Differential race detection across backends: the same exploration
# replayed under nic_atomic and relaxed must find a model-dependent
# verdict (exit 124) with a per-model repro token and the missing sync
# edge named; replaying a relaxed token under --model nic_atomic is a
# clean usage error without --force.
model-diff-smoke:
	dune exec bin/dsmcheck.exe -- explore rmwlost-checked -n 3 --latency constant:1 --runs 40 --diff-models nic_atomic,relaxed --explain; test $$? -eq 124
	dune exec bin/dsmcheck.exe -- explore getput --runs 20 --diff-models nic_atomic,eventual; test $$? -eq 124
	dune exec bin/dsmcheck.exe -- explore getput --runs 20 --diff-models nic_atomic,seq_consistent
	dune exec bin/dsmcheck.exe -- explore rmwlost-checked -n 3 --replay "dsm1|s=rmwlost-checked|n=3|seed=1|l=constant:1|m=relaxed|f=none|r=0|b=0|me=200000|d=1,1,1" --model nic_atomic 2>/dev/null; test $$? -eq 124

experiments:
	dune exec bench/main.exe -- --no-micro

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
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
