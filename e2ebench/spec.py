"""What the end-to-end training benchmark runs and reports.

One table for the workloads and one per metric kind; run.py computes the
metrics, its smoke mode checks that every one is printed with its unit and
that BENCHMARK.json lists the same names, units, directions and bounds, and
spread.py reads the bounds. BENCHMARK.json's fixed schema has no room for
what each per-layer metric should move, which lives here.
"""

# ranks x workers is the compute-thread count; run.py refuses to run it on
# fewer CPUs. Step counts are fixed per run length so every run of a seed
# trains the same steps: steps = warmup + ceil(seconds / nominal_step_s).
WORKLOADS = {
    "mp4_a2a": {
        "ranks": 4, "workers": 1, "warmup": 2, "nominal_step_s": 0.55,
        "why": ("The paper's SP+EP layout on 4 rank threads, top-2 of 8 so EP "
                "dispatch is the fused chunked all-to-all; the MP wire is fixed "
                "at 25 B/us + 5 us, so comm ~ compute (never re-calibrated)"),
    },
    "mp4_ag_sar": {
        "ranks": 4, "workers": 1, "warmup": 2, "nominal_step_s": 0.55,
        "why": ("Same layout and wire, top-4 of 8 so EP runs all-gather + "
                "reduce-scatter, with selective activation recompute: A2A "
                "pipeline changes must not move it"),
    },
    "dp2_fp8_zero": {
        "ranks": 2, "workers": 2, "warmup": 1, "nominal_step_s": 1.3,
        "why": ("TrainLm, the real trainer, on 2 DP ranks x 2 workers with FP8 "
                "params, BF16 all-to-all grad sync and ZeRO-1: param-sized work "
                "and GEMMs, no EP dispatch or SP attention"),
    },
}

# name -> (unit, better, bound) for the untraced run.
END_TO_END = {
    "tokens_per_s": ("tok/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "loss_final": ("nats", "lower", 0.08),
}

# name -> (unit, better, what it should move). "n/a" marks a workload that
# does not exercise the layer; the metric then reads 0 there.
PER_LAYER = {
    "core.step_ms_p50": ("ms", "lower",
                         "tokens_per_s on every workload"),
    "core.step_ms_p90": ("ms", "lower",
                         "tokens_per_s on every workload"),
    "core.step_self_frac": ("ratio", "lower",
                            "nothing; share of a step outside the data, fwd_bwd, "
                            "grad_sync and optimizer spans (mp4; n/a on dp2)"),
    "core.exec.overlap_frac": ("ratio", "higher",
                               "tokens_per_s on mp4_a2a; flat on mp4_ag_sar"),
    "core.exec.bubble_ms": ("ms", "lower",
                            "tokens_per_s on the mp4 workloads"),
    "parallel.fwd_bwd_ms": ("ms", "lower",
                            "tokens_per_s on the mp4 workloads (n/a on dp2)"),
    "parallel.sp_attn_ms": ("ms", "lower",
                            "tokens_per_s on both mp4 workloads equally (n/a on dp2)"),
    "parallel.ep_ffn_ms": ("ms", "lower",
                           "tokens_per_s on the workload of its own dispatch mode "
                           "only (n/a on dp2)"),
    "parallel.ep_remat_ms": ("ms", "lower",
                             "tokens_per_s on mp4_ag_sar only (n/a elsewhere)"),
    "parallel.activation_mb": ("MB", "lower",
                               "peak_rss_mb on mp4_ag_sar (n/a on dp2)"),
    "parallel.grad_sync_ms": ("ms", "lower",
                              "tokens_per_s; AllReduceGrads span on mp4, "
                              "SyncGradShardInto probe on dp2"),
    "parallel.expert_imbalance": ("ratio", "lower",
                                  "tokens_per_s on the mp4 workloads (n/a on dp2)"),
    "comm.wire_bytes_per_token": ("B/token", "lower",
                                  "tokens_per_s on the mp4 workloads"),
    "comm.collectives_per_step": ("count", "lower",
                                  "tokens_per_s on the mp4 workloads"),
    "comm.busy_ms": ("ms", "lower",
                     "tokens_per_s when exposed; per rank per step"),
    "comm.exposed_ms": ("ms", "lower",
                        "tokens_per_s on the mp4 workloads only"),
    "tensor.gemm_gflop_per_step": ("GFLOP", "lower",
                                   "nothing unless the model changes; GEMM work"),
    "tensor.gemm_ms_per_step": ("ms", "lower",
                                "tokens_per_s most on dp2_fp8_zero, less on mp4"),
    "tensor.gemm_gflops": ("GFLOP/s", "higher",
                           "tokens_per_s most on dp2_fp8_zero, less on mp4"),
    "model.optimizer_ms": ("ms", "lower",
                           "tokens_per_s, most on dp2_fp8_zero (FlatAdam probe)"),
    "model.lm_fwd_bwd_ms": ("ms", "lower",
                            "tokens_per_s on dp2_fp8_zero (replica probe); on mp4 "
                            "the single-rank oracle call"),
    "numerics.round_params_ms": ("ms", "lower",
                                 "tokens_per_s on dp2_fp8_zero only (n/a on mp4)"),
    "base.arena.heap_allocs_per_step": ("count", "lower",
                                        "tokens_per_s and peak_rss_mb"),
    "base.arena.pool_hit_rate": ("ratio", "higher",
                                 "tokens_per_s and peak_rss_mb"),
    "base.arena.high_water_mb": ("MB", "lower", "peak_rss_mb"),
    "base.par.shards_per_step": ("count", "higher",
                                 "tokens_per_s on dp2_fp8_zero (1 worker on mp4)"),
    "data.batch_ms": ("ms", "lower",
                      "nothing: ~0 shows input generation is not measured"),
    "obs.trace_overhead_frac": ("ratio", "lower",
                                "nothing; (untraced - traced) tokens_per_s / untraced"),
    "step_fail_frac": ("ratio", "lower",
                       "nothing; failed over attempted steps, must stay 0"),
}


def steps_for(workload, seconds):
    """Optimizer steps of one run: warmup plus the timed steps."""
    spec = WORKLOADS[workload]
    timed = max(1, -(-seconds // spec["nominal_step_s"]))
    return spec["warmup"] + int(timed)
