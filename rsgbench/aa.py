"""A/A steadiness check: one workload, N seeds, same code.

    python3 rsgbench/aa.py --workload verify_sim --runs 10 [--first-seed 1]

Runs ``run.py`` once per seed and prints, for every end-to-end metric,
the median, the quartiles (``statistics.quantiles(n=4)``), the
interquartile spread and the (max - min) spread as shares of the
median, next to the metric's bound from ``BENCHMARK.json``.  A spread
above a third of its bound is flagged, except for ``setup_s``, whose
bound applies to the median alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    series = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed op(s)", file=sys.stderr)
        for name, metric in result["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8}"
          f" {'range/med':>9} {'bound':>6}")
    for entry in benchmark["end_to_end"]:
        values = series[entry["name"]]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / median if median else float("inf")
        spread = (max(values) - min(values)) / median if median else float("inf")
        flag = ""
        if entry["name"] != "setup_s" and iqr > entry["bound"] / 3:
            flag = "  <- iqr above bound/3"
        print(f"{entry['name']:<16} {median:>10.4g} {q1:>10.4g} {q3:>10.4g}"
              f" {iqr:>8.3f} {spread:>9.3f} {entry['bound']:>6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
