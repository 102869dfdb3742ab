#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed (untraced) on each workload and prints,
for every end-to-end metric, the median over the runs and the distance
between the first and third quartile as a share of the median, next to
the metric's bound:

    python3 e2ebench/spread.py --seeds 10 --seconds 12 mp4_a2a dp2_fp8_zero

A spread above a third of the bound (setup_s excepted, which is judged on
its median alone) means the benchmark is not steady enough on this host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spec  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*", default=sorted(spec.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in spec.END_TO_END}
        steal = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            line = json.loads(lines[-1])
            if done.returncode != 0 or not line["correct"]:
                print(f"{workload} seed {seed}: run failed\n{done.stderr[-2000:]}")
                return 1
            for name, entry in line["metrics"].items():
                values[name].append(entry["value"])
            steal.append(json.loads(lines[-2])["fingerprint"]["host_steal_frac"])
        print(f"{workload} ({args.seeds} seeds, {args.seconds} s, host steal "
              f"{min(steal):.1%}..{max(steal):.1%})")
        for name, (unit, _, bound) in spec.END_TO_END.items():
            vals = values[name]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            print(f"  {name:14s} median {med:10.4f} {unit:6s} spread {spread:7.2%} "
                  f"bound {bound:.0%} {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
