"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload exact-small --seeds 0-9 --seconds 38

For every metric of the final JSON line it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  ``--json PATH``
also writes the raw values.  Runs happen one at a time, each in a fresh
process, as the benchmark contract requires.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args(argv)

    values: dict = {}
    walls = []
    for seed in _seeds(args.seeds):
        started = time.perf_counter()
        result = run_once(args.workload, seed, args.seconds, args.trace)
        walls.append(time.perf_counter() - started)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: correctness check failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: seeds {args.seeds}")
    for name, vals in values.items():
        median, q1, q3, spread = summarise(vals)
        print(f"  {name:<24} median {median:14.6f}  q1 {q1:14.6f}  q3 {q3:14.6f}  spread {spread:.4f}")
    print(f"  run wall time: max {max(walls):.1f} s, total {sum(walls):.1f} s")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(
                {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                 "trace": args.trace, "run_wall_s": walls, "values": values},
                fh, indent=1,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
