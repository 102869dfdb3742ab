#!/usr/bin/env python3
"""End-to-end MoE training benchmark.

Builds e2e_train from this checkout's sources (CMake, Release, under
.bench_build/), trains one workload and prints its metrics as the last line
of standard output:

    python3 e2ebench/run.py --workload mp4_a2a --seed 1 --seconds 12 --trace 0

--trace 0 runs the untraced training process and reports the end-to-end
metrics. --trace 1 runs it, then a second, traced process of the same
steps, and reports the per-layer metrics; the traced run's spans are
written as a Chrome trace next to the result file in
.bench_build/e2ebench/results/. Every run is checked: finite losses, the
mp4 step-0 loss against the single-rank LM, the traced loss curve bitwise
equal to the untraced one, and no recoveries on the DP trainer. A failed
check makes `correct` false and the exit status 1.

    python3 e2ebench/run.py --smoke

runs every workload for 2 steps in both modes and checks that every metric
is printed with its unit and that the output parses.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spec  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
BINARY = os.path.join(CMAKE_DIR, "e2e_train")
RUN_DEADLINE_S = 170.0  # training processes of one run, build excluded


class BenchError(Exception):
    pass


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


# --- Build and host ------------------------------------------------------------


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no program sources at {os.path.join(ROOT, 'src')}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    for attempt in range(2):
        done = subprocess.run(configure, capture_output=True, text=True)
        if done.returncode == 0:
            break
        if attempt == 0 and os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            # A cache from another checkout location; start over.
            subprocess.run(["rm", "-rf", CMAKE_DIR], check=True)
            continue
        raise BenchError("cmake configure failed:\n" + done.stdout + done.stderr)
    done = subprocess.run(["cmake", "--build", CMAKE_DIR, "--target", "e2e_train", "-j", jobs],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError("build failed:\n" + done.stdout[-20000:] + done.stderr[-20000:])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may not be git)."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def check_cpus(workload):
    w = spec.WORKLOADS[workload]
    nproc = len(os.sched_getaffinity(0))
    threads = w["ranks"] * w["workers"]
    if threads > nproc:
        raise BenchError(f"refusing to run {workload}: {w['ranks']} ranks x {w['workers']} "
                         f"workers = {threads} compute threads > nproc = {nproc}; the "
                         "numbers would measure oversubscription")


# --- One training process -----------------------------------------------------


def run_process(workload, seed, steps, trace, deadline, out_path):
    w = spec.WORKLOADS[workload]
    env = dict(os.environ, MSMOE_NUM_THREADS=str(w["workers"]))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--steps", str(steps),
           "--warmup", str(min(w["warmup"], steps - 1)), "--trace", "1" if trace else "0",
           "--out", out_path]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the training process started")
    steal0, total0 = cpu_ticks()
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within the run deadline")
    if done.returncode != 0:
        raise BenchError(f"e2e_train exited {done.returncode}:\n{done.stderr[-4000:]}")
    steal1, total1 = cpu_ticks()
    with open(out_path) as f:
        result = json.load(f)
    # Share of CPU time the hypervisor gave to other guests while this ran:
    # the host load every timing here moves with.
    result["host_steal_frac"] = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    return result


# --- Metrics --------------------------------------------------------------------


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_steps(result):
    return result["steps"] - result["warmup_steps"]


def tokens_per_s(result):
    if "step_wall_s" in result:
        # First-quartile step of the timed window. Load from other tenants
        # of a shared host only lengthens steps (a descheduled vCPU holds
        # every rank at the next collective), and on a 4-vCPU VM it moved
        # the median step by ~20% between runs, this quartile by ~10%. The
        # steps do identical work, so a program change moves them all.
        step_s = percentile(result["step_wall_s"][result["warmup_steps"]:], 0.25)
        return result["tokens_per_step"] / step_s
    # TrainLm is opaque: its wall time minus its set-up, measured the same way.
    seconds = result["train_s"] - statistics.median(result["setup_s"])
    return result["tokens_per_step"] * timed_steps(result) / seconds


def end_to_end_metrics(result):
    return {
        "tokens_per_s": tokens_per_s(result),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "loss_final": result["loss"][-1],
    }


def span_table(spans):
    """Adds self time to every span: duration minus what its children cover."""
    rows = []
    lanes = {}
    for name, lane, step, parent, start, end in spans:
        lanes.setdefault(lane, []).append(
            {"name": name, "lane": lane, "step": step, "parent": parent, "start_us": start,
             "end_us": end, "children": []})
    for lane_rows in lanes.values():
        for row in lane_rows:
            if row["parent"] >= 0:
                lane_rows[row["parent"]]["children"].append(row)
        for row in lane_rows:
            covered = 0.0
            cursor = row["start_us"]
            for child in sorted(row["children"], key=lambda c: c["start_us"]):
                lo = max(child["start_us"], cursor)
                hi = min(child["end_us"], row["end_us"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row["self_us"] = row["end_us"] - row["start_us"] - covered
            row["parent_name"] = (lane_rows[row["parent"]]["name"] if row["parent"] >= 0
                                  else None)
        rows.extend(lane_rows)
    return rows


def span_ms(rows, name, min_step=0):
    return [(r["end_us"] - r["start_us"]) / 1e3 for r in rows
            if r["name"] == name and r["step"] >= min_step]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(traced, untraced, rows, fail_frac):
    mp = "step_wall_s" in traced
    steps = timed_steps(traced)
    warm = traced["warmup_steps"] if mp else 0
    ranks = traced["ranks"]
    counters = traced["counters"]
    comm = traced["comm"]
    reports = [r for r in traced["step_reports"] if r[0] >= warm]

    if mp:
        step_ms = span_ms(rows, "core.step", warm)
        self_fracs = [r["self_us"] / (r["end_us"] - r["start_us"]) for r in rows
                      if r["name"] == "core.step" and r["step"] >= warm]
        step_self_frac = statistics.median(self_fracs)
    else:
        step_ms = [r[2] for r in reports]
        step_self_frac = 0.0
    comm_busy = counters["exec_comm_busy_us"]
    hidden = (counters["exec_compute_busy_us"] + comm_busy - counters["exec_makespan_us"])
    acquires = counters["arena_acquires"]
    untraced_tps = tokens_per_s(untraced)
    return {
        "core.step_ms_p50": percentile(step_ms, 0.5),
        "core.step_ms_p90": percentile(step_ms, 0.9),
        "core.step_self_frac": step_self_frac,
        "core.exec.overlap_frac": max(0.0, hidden) / comm_busy if comm_busy > 0 else 0.0,
        "core.exec.bubble_ms": statistics.fmean(r[3] for r in reports) if reports else 0.0,
        "parallel.fwd_bwd_ms": median_or_zero(span_ms(rows, "parallel.fwd_bwd", warm)),
        "parallel.sp_attn_ms": median_or_zero(span_ms(rows, "parallel.sp_attn")),
        "parallel.ep_ffn_ms": median_or_zero(span_ms(rows, "parallel.ep_ffn")),
        "parallel.ep_remat_ms": median_or_zero(span_ms(rows, "parallel.ep_remat")),
        "parallel.activation_mb": sum(traced.get("activation_mb", [])),
        "parallel.grad_sync_ms": median_or_zero(span_ms(rows, "parallel.grad_sync", warm)),
        "parallel.expert_imbalance": (statistics.fmean(traced["expert_imbalance"])
                                      if mp else 0.0),
        "comm.wire_bytes_per_token": comm["wire_bytes"] / (steps * traced["tokens_per_step"]),
        "comm.collectives_per_step": comm["collectives"] / steps,
        "comm.busy_ms": comm["busy_us"] / 1e3 / ranks / steps,
        "comm.exposed_ms": comm["exposed_us"] / 1e3 / ranks / steps,
        "tensor.gemm_gflop_per_step": counters["gemm_flops"] / 1e9 / steps,
        "tensor.gemm_ms_per_step": counters["gemm_us"] / 1e3 / steps,
        "tensor.gemm_gflops": (counters["gemm_flops"] / counters["gemm_us"] / 1e3
                               if counters["gemm_us"] > 0 else 0.0),
        "model.optimizer_ms": median_or_zero(span_ms(rows, "model.optimizer", warm)),
        "model.lm_fwd_bwd_ms": median_or_zero(span_ms(rows, "model.lm_fwd_bwd")),
        "numerics.round_params_ms": median_or_zero(span_ms(rows, "numerics.round_params")),
        "base.arena.heap_allocs_per_step": counters["arena_heap_allocs"] / steps,
        "base.arena.pool_hit_rate": (counters["arena_pool_hits"] / acquires
                                     if acquires > 0 else 1.0),
        "base.arena.high_water_mb": counters["arena_high_water_bytes"] / 2**20,
        "base.par.shards_per_step": counters["par_shards"] / steps,
        "data.batch_ms": median_or_zero(span_ms(rows, "data.batch", warm)),
        "obs.trace_overhead_frac": (untraced_tps - tokens_per_s(traced)) / untraced_tps,
        "step_fail_frac": fail_frac,
    }


# --- Correctness ----------------------------------------------------------------


def check(untraced, traced):
    """Returns (attempted, failed step count, failure messages)."""
    failures = list(untraced["failures"])
    failed = len(untraced["failed_steps"])
    attempted = len(untraced["loss"])
    if traced is not None:
        attempted += len(traced["loss"])
        failures += [f"traced {m}" for m in traced["failures"]]
        failed += len(traced["failed_steps"])
        a, b = untraced["loss"], traced["loss"]
        if len(a) != len(b):
            failures.append(f"traced run trained {len(b)} steps, untraced {len(a)}")
            failed += len(b)
        else:
            for step, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    failures.append(f"step {step}: traced loss {y!r} != untraced {x!r}")
                    failed += 1
    return attempted, failed, failures


# --- Output ------------------------------------------------------------------------


def chrome_trace(rows, workload, ranks):
    events = [{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": workload}}]
    for lane in sorted({r["lane"] for r in rows}):
        events.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": lane,
                       "args": {"name": "driver" if lane == ranks else f"rank {lane}"}})
    for r in rows:
        events.append({"name": r["name"], "ph": "X", "pid": 0, "tid": r["lane"],
                       "ts": r["start_us"], "dur": r["end_us"] - r["start_us"],
                       "args": {"step": r["step"], "parent": r["parent_name"],
                                "self_us": r["self_us"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_summary(rows):
    table = {}
    for r in rows:
        entry = table.setdefault(r["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += (r["end_us"] - r["start_us"]) / 1e3
        entry["self_ms"] += r["self_us"] / 1e3
    return table


def with_units(values, table):
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def run_workload(workload, seed, seconds, trace, steps=None):
    """One benchmark run; returns (result line dict, fingerprint, extra)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if steps is None:
        steps = spec.steps_for(workload, seconds)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{workload}_seed{seed}")
    untraced = run_process(workload, seed, steps, False, deadline, stem + ".untraced.json")
    traced = None
    if trace:
        traced = run_process(workload, seed, steps, True, deadline, stem + ".traced.json")
    attempted, failed, failures = check(untraced, traced)
    w = spec.WORKLOADS[workload]
    fingerprint = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": untraced["build_type"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "steps": steps,
        "ranks": w["ranks"],
        "workers": untraced["workers"],
        "wire_bytes_per_us": untraced.get("wire_bytes_per_us", 0.0),
        "wire_latency_us": untraced.get("wire_latency_us", 0.0),
        "host_steal_frac": untraced["host_steal_frac"],
    }
    fail_frac = failed / attempted
    if trace:
        rows = span_table(traced["spans"])
        metrics = with_units(per_layer_metrics(traced, untraced, rows, fail_frac),
                             spec.PER_LAYER)
        trace_path = stem + ".trace.json"
        with open(trace_path, "w") as f:
            json.dump(chrome_trace(rows, workload, traced["ranks"]), f)
        spans = self_time_summary(rows)
    else:
        metrics = with_units(end_to_end_metrics(untraced), spec.END_TO_END)
        trace_path = None
        spans = None
    line = {"correct": failed == 0 and not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    with open(stem + ".result.json", "w") as f:
        json.dump({"fingerprint": fingerprint, "result": line, "failures": failures,
                   "loss": untraced["loss"], "trace_file": trace_path, "spans": spans}, f,
                  indent=1)
    return line, fingerprint, failures


# --- Smoke mode --------------------------------------------------------------------


def benchmark_json_problems():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        bench = json.load(f)
    problems = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(spec.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    for key, table in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        listed = {m["name"]: m for m in bench[key]}
        if sorted(listed) != sorted(table):
            problems.append(f"BENCHMARK.json {key} names differ from spec")
            continue
        for name, m in listed.items():
            if (m["unit"], m["better"]) != table[name][:2]:
                problems.append(f"BENCHMARK.json {name}: unit/better differ from spec")
            if key == "end_to_end" and m["bound"] != table[name][2]:
                problems.append(f"BENCHMARK.json {name}: bound differs from spec")
    return problems


def smoke():
    problems = benchmark_json_problems()
    for workload in spec.WORKLOADS:
        for trace in (False, True):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
                 "1", "--seconds", "1", "--trace", "1" if trace else "0", "--steps", "2"],
                capture_output=True, text=True, timeout=RUN_DEADLINE_S + 10)
            label = f"{workload} trace={int(trace)}"
            lines = proc.stdout.strip().splitlines()
            try:
                line = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: last output line does not parse: {proc.stderr[-2000:]}")
                continue
            if proc.returncode != 0 or not line.get("correct"):
                problems.append(f"{label}: exit {proc.returncode}, correct={line.get('correct')}")
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(line)}")
            table = spec.PER_LAYER if trace else spec.END_TO_END
            metrics = line.get("metrics", {})
            if sorted(metrics) != sorted(table):
                problems.append(f"{label}: metric names differ from spec: "
                                f"{sorted(set(metrics) ^ set(table))}")
            for name, entry in metrics.items():
                if name in table and entry.get("unit") != table[name][0]:
                    problems.append(f"{label}: {name} unit {entry.get('unit')!r}")
                value = entry.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} value {value!r}")
            log(f"smoke {label}: {len(metrics)} metrics")
    for p in problems:
        log(f"smoke: {p}")
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


# --- Main ----------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="2-step run of every workload")
    parser.add_argument("--steps", type=int, help="override the step count (smoke runs)")
    args = parser.parse_args()
    try:
        build()
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1 or args.seed < 0:
            parser.error("--seconds must be >= 1 and --seed >= 0")
        check_cpus(args.workload)
        line, fingerprint, failures = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.steps)
    except BenchError as error:
        log(str(error))
        return 2
    for failure in failures:
        log(f"correctness: {failure}")
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
