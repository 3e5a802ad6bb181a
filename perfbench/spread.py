"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads sweep components --seeds 1-10 --seconds 55 [--trace 1]

For every workload and metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, the figure the benchmark's bounds are set against.  Each run's
result line is appended to `perfbench/out/spread-<workload>-trace<t>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["sweep", "components"])
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,2,3")
    parser.add_argument("--seconds", default="55")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads:
        values = {}
        log = HERE / "out" / f"spread-{workload}-trace{args.trace}.jsonl"
        for seed in seed_list(args.seeds):
            result = run(workload, seed, args.seconds, args.trace)
            with log.open("a") as fh:
                fh.write(json.dumps({"seed": seed, **result}) + "\n")
            print(f"{workload} seed {seed}: correct {result['correct']}, attempted "
                  f"{result['attempted']}, failed {result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median if median else float("nan")
            print(f"{workload} {name}: median {median:.6g}, quartiles {q1:.6g} .. {q3:.6g}, "
                  f"spread {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
