"""Run one workload in this process and report what it measured.

Started by `run.py`, one fresh process per set-up probe or measured run:

    python3 perfbench/worker.py --workload components --seed 1 --seconds 55 --trace 0 [--setup-only]

It imports `cstomo` from the checkout's `src/`, draws the workload's inputs,
prints `ready` once set-up is done, and then, unless `--setup-only`, runs
the workload's rounds of operations until `--seconds` have passed.  Each
operation is timed on its own; all outputs are checked once the timed loop
has ended.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "CSTOMO_WORKERS")


def import_program():
    """Import `cstomo` from this checkout's sources, never from elsewhere."""
    if not (SRC / "cstomo" / "__init__.py").is_file():
        raise SystemExit(f"no program sources at {SRC / 'cstomo'}")
    sys.path.insert(0, str(SRC))
    import cstomo
    if Path(cstomo.__file__).resolve().parent != SRC / "cstomo":
        raise SystemExit(f"imported cstomo from {cstomo.__file__}, not from {SRC}")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {key: os.environ.get(key) for key in THREAD_VARIABLES},
    }


class Reference:
    """A fixed computation that uses no code of the program, timed between rounds.

    Hermitian products and eigendecompositions of fixed 16 x 16 and 32 x 32
    matrices, the kind of small-matrix numpy work the program does.  The
    host's speed drifts by tens of percent over minutes; dividing a round's
    time by the reference time measured around it takes that drift out,
    while a change to the program changes the round's time alone.
    """

    REPEATS = 400

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrices = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                         for d in (16, 32)]

    def time(self) -> float:
        start = perf_counter()
        for _ in range(self.REPEATS):
            for a in self.matrices:
                w, v = np.linalg.eigh(a @ a.conj().T)
                (v * w) @ v.conj().T
        return perf_counter() - start


def quantiles(values) -> dict:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"p25": float(q1), "p50": float(q2), "p75": float(q3), "n": len(values)}


def measure(workload, seconds: float, tracer) -> dict:
    """Run whole rounds until `seconds` of wall time have passed, then check every output.

    `work_per_ref` is the median over rounds of a round's work times the
    mean of the reference times taken just before and just after it,
    divided by the time of the round's operations: the work done in the
    time the reference takes.  Every round holds the same mix, and a median
    over the run's rounds leaves out the rounds a burst of load on the host
    slowed.  The record keeps the same median in work per wall-clock second.
    Checks run after the timed loop, so that the peak memory read before
    them is the program's and not the checks'.
    """
    times, done, problems, round_rates, ref_times = [], [], [], [], []
    attempted = failed = work = 0
    rounds = workload.rounds()
    reference = Reference()
    start = perf_counter()
    ref_before = reference.time()
    for count in itertools.count():
        if perf_counter() - start >= seconds:
            break
        round_work = round_busy = 0.0
        for instance in rounds[count % len(rounds)]:
            attempted += 1
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            try:
                output = workload.run(instance)
            except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
                failed += 1
                problems.append(traceback.format_exc(limit=3))
                continue
            finally:
                elapsed = perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            times.append(elapsed)
            done.append((instance, output))
            round_work += workload.work(output)
            round_busy += elapsed
        ref_after = reference.time()
        if round_work:
            round_rates.append(round_work / round_busy)
            ref_times.append(0.5 * (ref_before + ref_after))
            work += round_work
        ref_before = ref_after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fidelities = [workload.fidelity(instance, output) for instance, output in done]
    check_failures = []
    for instance, output in done:
        try:
            workload.check(instance, output)
        except CheckFailed as exc:
            check_failures.append(str(exc))
    try:
        workload.finish()
    except CheckFailed as exc:
        check_failures.append(str(exc))

    ops = len(times)
    busy = float(np.sum(times))
    metrics = {}
    if ops:
        metrics = {
            "work_per_ref": {"value": float(np.median(np.multiply(round_rates, ref_times))),
                             "unit": "1/ref"},
            "fidelity_mean": {"value": float(np.mean(fidelities)), "unit": "1"},
        }
    return {
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "per_layer": tracer.per_op(ops) if tracer is not None and ops else {},
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "rounds": len(round_rates),
        "work_per_s": float(np.median(round_rates)) if round_rates else None,
        "reference_s": quantiles(ref_times) if ref_times else {},
        "work": work,
        "busy_s": busy,
        "op_times": quantiles(times) if times else {},
        "times": times,
        "problems": [f"check: {msg}" for msg in check_failures[:10]] + problems[:10],
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, args.seconds, tracer)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
