"""The cstomo benchmark: two workloads, each run in fresh processes.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
With `--trace 0` the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics instead.  `--workload all`
runs the two workloads one after another and ends with one such object
whose metric names are prefixed by the workload's name.

Set-up time is the wall time from starting a worker process to its first
timed operation: interpreter start, imports and input generation.  It is
measured on SETUP_PROBES fresh processes and reported as their median; the
last of them goes on to the measured run.  Every run also writes its full
record (environment, operation-time quartiles, check messages) to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("sweep", "components")
SETUP_PROBES = 5
#: One BLAS thread: on two cores a second OpenBLAS thread doubled the CPU time
#: of the Lasso recoveries without making them faster, and a thread that waits
#: for the other core measures the host's scheduler rather than the program.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: time a worker may take beyond the measured seconds before it is killed
GRACE_S = 120.0


class RunFailed(Exception):
    pass


def _start(args, seconds: float, extra=()):
    env = dict(os.environ)
    env.pop("CSTOMO_WORKERS", None)
    env.update(BLAS_THREADS)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), *extra]
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(seconds + GRACE_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - started
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RunFailed(f"worker for {args.workload} exited with code {proc.returncode}")
    return ready, rest


def run_workload(args) -> dict:
    """Set-up probes, then the measured run; returns the worker's record plus set-up times."""
    probes = 1 if args.trace else SETUP_PROBES
    setups = [_start(args, args.seconds, ["--setup-only"])[0] for _ in range(probes - 1)]
    ready, rest = _start(args, args.seconds)
    setups.append(ready)
    lines = rest.strip().splitlines()
    if not lines:
        raise RunFailed(f"worker for {args.workload} printed no result")
    record = json.loads(lines[-1])
    record["setup_s"] = setups
    return record


def summary(record: dict, trace: int) -> dict:
    if trace:
        metrics = record["per_layer"]
    else:
        metrics = dict(record["metrics"])
        metrics["setup_s"] = {"value": statistics.median(record["setup_s"]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": record["peak_rss_mb"], "unit": "MB"}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def save(args, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cstomo benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cstomo" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            record = run_workload(one)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        save(one, record)
        for problem in record["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        results[name] = summary(record, args.trace)
        if len(names) > 1:
            print(f"{name}: {json.dumps(results[name])}")

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
