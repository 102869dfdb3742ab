#!/usr/bin/env bash
# Repository check: tier-1 verify (full build + ctest), an e2ebench smoke
# run (the benchmark is its own CMake project outside the ctest tree, so
# only building and running it catches a break of the headers it compiles
# against: communicator.h, trainer.h), a ThreadSanitizer
# build of the concurrency-heavy tests, an AddressSanitizer pass over the
# fault/recovery machinery, and a Release-mode perf smoke test of the GEMM
# compute backend. The collectives run real thread ranks over shared
# buffers, so comm_test / kernel_test / parallel_test / telemetry_test /
# fault_test / elastic_test / fused_ops_test / exec_graph_test / property_test
# / macro_layer_test / distributed_lm_test under TSan are the races-or-not
# verdict for the whole
# substrate (fused_ops_test hammers the chunked async pipelines;
# exec_graph_test hammers the runtime task-graph executor across streams and
# randomized schedules; property_test sweeps the fused EP dispatch pipeline
# across worker and chunk counts; macro_layer_test runs that pipeline inside
# the full SP+EP layer, with and without selective rematerialization;
# distributed_lm_test runs the pipelined EP forward and backward inside the
# full multi-layer SP+EP LM chain; trainer_test runs TrainLm, whose rank
# threads each start and join their own ParallelFor workers);
# fault_test and the recovery bench under ASan cover the checkpoint IO and
# buffer-corruption paths, comm_test / telemetry_test under ASan and UBSan
# cover every collective's buffer copies and its event accounting
# (elastic_test under UBSan covers the epoch swaps) (under ASan the arena poisons pooled slack and
# free-listed blocks, so an overrun inside a size class is reported too),
# and parallel_test / property_test / macro_layer_test /
# distributed_lm_test under ASan cover the
# Workspace-staged dispatch packing and the per-chunk expert staging;
# parallel_test / property_test / fault_test / macro_layer_test /
# distributed_lm_test under UBSan (aborting on the first report) cover the
# ragged per-chunk copies of both EP dispatch pipelines, empty segments
# included, and numerics_test / trainer_test under UBSan cover the FP8
# codec's integer arithmetic on float bits; the FP8 sweep fails if the
# codec differs from the scalar reference (tests/ref_fp8.h) on any of the
# 2^32 float inputs of either format; the perf smoke fails if the blocked GEMM kernel ever regresses
# below the naive reference, the overlap smoke fails if the fused
# all-gather+GEMM pipeline stops beating the unfused sequence, and the
# scheduler smoke fails if a searched schedule replayed on the real
# executor stops beating the naive single-stream order, the elastic
# smoke fails if a permanent rank eviction stops shrinking to a
# bit-identical W-1 curve (bench_fault_recovery --check), the memory
# smoke fails if the steady-state training step ever hits the system
# allocator again or pooled storage changes a bit of the numerics
# (bench_memory --check), and the dispatch smoke fails if the chunked EP
# dispatch pipeline stops beating its own one-chunk run by 1.3x under a
# calibrated wire, stops being bitwise identical to it (forward output and
# backward grads), or allocates in steady state (bench_fig7_dispatch
# --check). obs_test under TSan is the verdict on the
# metrics registry's sharded recording (concurrent threads + retirement
# folds), and the observability smoke fails if profiling the fused pipeline
# costs more than 2% wall clock, if a disabled registry stops being free
# (steady-state heap allocs or measurable drag), if instrumenting a training
# run changes one bit of the loss, or if an injected slow rank goes
# undetected (bench_observability --check).
#
#   $ tools/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure -j

echo
echo "== e2ebench smoke: builds against the program headers, 2 steps of every workload (e2ebench/run.py --smoke) =="
python3 e2ebench/run.py --smoke

echo
echo "== TSan: tensor_test + comm_test + kernel_test + parallel_test + telemetry_test + fault_test + elastic_test + fused_ops_test + exec_graph_test + property_test + macro_layer_test + distributed_lm_test + obs_test + trainer_test =="
cmake -B build-tsan -S . -DMSMOE_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target tensor_test comm_test kernel_test parallel_test \
  telemetry_test fault_test elastic_test fused_ops_test exec_graph_test \
  property_test macro_layer_test distributed_lm_test obs_test trainer_test \
  bench_fault_recovery >/dev/null
./build-tsan/tests/tensor_test
./build-tsan/tests/comm_test
./build-tsan/tests/kernel_test
./build-tsan/tests/parallel_test
./build-tsan/tests/telemetry_test
./build-tsan/tests/fault_test
./build-tsan/tests/elastic_test
./build-tsan/tests/fused_ops_test
./build-tsan/tests/exec_graph_test
./build-tsan/tests/property_test
./build-tsan/tests/macro_layer_test
./build-tsan/tests/distributed_lm_test
./build-tsan/tests/obs_test
./build-tsan/tests/trainer_test
(cd build-tsan/bench && ./bench_fault_recovery >/dev/null)

echo
echo "== ASan: tensor_test + comm_test + telemetry_test + fault_test + elastic_test + parallel_test + property_test + macro_layer_test + distributed_lm_test + obs_test + checkpoint/recovery paths =="
cmake -B build-asan -S . -DMSMOE_SANITIZE=address >/dev/null
cmake --build build-asan -j --target tensor_test comm_test telemetry_test fault_test elastic_test model_test \
  trainer_test fused_ops_test parallel_test property_test macro_layer_test \
  distributed_lm_test obs_test >/dev/null
./build-asan/tests/tensor_test
./build-asan/tests/comm_test
./build-asan/tests/telemetry_test
./build-asan/tests/fault_test
./build-asan/tests/elastic_test
./build-asan/tests/model_test
./build-asan/tests/trainer_test
./build-asan/tests/fused_ops_test
./build-asan/tests/parallel_test
./build-asan/tests/property_test
./build-asan/tests/macro_layer_test
./build-asan/tests/distributed_lm_test
./build-asan/tests/obs_test

echo
echo "== UBSan: comm_test + telemetry_test + elastic_test + parallel_test + property_test + fault_test + macro_layer_test + distributed_lm_test + numerics_test + trainer_test =="
cmake -B build-ubsan -S . -DMSMOE_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j --target comm_test telemetry_test elastic_test parallel_test \
  property_test fault_test macro_layer_test distributed_lm_test numerics_test \
  trainer_test >/dev/null
./build-ubsan/tests/comm_test
./build-ubsan/tests/telemetry_test
./build-ubsan/tests/elastic_test
./build-ubsan/tests/parallel_test
./build-ubsan/tests/property_test
./build-ubsan/tests/fault_test
./build-ubsan/tests/macro_layer_test
./build-ubsan/tests/distributed_lm_test
./build-ubsan/tests/numerics_test
./build-ubsan/tests/trainer_test

echo
echo "== perf smoke: Release blocked GEMM >= naive (bench_micro_kernels --check) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j --target bench_micro_kernels \
  bench_fig15_intra_overlap bench_ablation_scheduler >/dev/null
(cd build-release/bench && ./bench_micro_kernels --check)

echo
echo "== FP8 codec sweep: all 2^32 floats, E4M3 and E5M2, bitwise equal to tests/ref_fp8.h (fp8_sweep) =="
cmake --build build-release -j --target fp8_sweep >/dev/null
./build-release/tools/fp8_sweep

echo
echo "== overlap smoke: fused all-gather+GEMM beats unfused (bench_fig15 --check) =="
(cd build-release/bench && ./bench_fig15_intra_overlap --check)

echo
echo "== scheduler smoke: searched schedule beats naive on the real executor (bench_ablation_scheduler --check) =="
(cd build-release/bench && ./bench_ablation_scheduler --check)

echo
echo "== elastic smoke: permanent eviction shrinks W->W-1 bit-identically (bench_fault_recovery --check) =="
cmake --build build-release -j --target bench_fault_recovery >/dev/null
(cd build-release/bench && ./bench_fault_recovery --check)

echo
echo "== memory smoke: zero steady-state heap allocs + pooled bitwise identity (bench_memory --check) =="
cmake --build build-release -j --target bench_memory >/dev/null
(cd build-release/bench && ./bench_memory --check)

echo
echo "== dispatch smoke: chunked EP dispatch beats one chunk 1.3x, fwd+bwd bitwise, zero-alloc (bench_fig7_dispatch --check) =="
cmake --build build-release -j --target bench_fig7_dispatch >/dev/null
(cd build-release/bench && ./bench_fig7_dispatch --check)

echo
echo "== observability smoke: <2% profiling overhead, disabled registry free, loss bitwise, slow rank detected (bench_observability --check) =="
cmake --build build-release -j --target bench_observability >/dev/null
(cd build-release/bench && ./bench_observability --check)

echo
echo "all checks passed"
