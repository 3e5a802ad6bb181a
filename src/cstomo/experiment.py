"""The seeded estimator sweep behind `cstomo benchmark` (criterion 5).

Each trial draws one noisy truth and, per m, one plan and record that every
estimator runs on.  The (trial, m, estimator) cells are solved on one worker
process per usable CPU and averaged over trials into (m, estimator) rows.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measurement import EXACT, MeasurementPlan, MeasurementRecord, simulate_measurements
from .pauli import sample_indices
from .solvers import ESTIMATORS, ReconstructionResult, SolverConfig, default_weight, run_estimator
from .states import DensityMatrix, depolarize_local, fidelity, haar_random_pure, trace_distance

CSV_HEADER = "m,estimator,mean_fidelity,std_fidelity,mean_trace_distance,std_trace_distance,mean_solver_seconds"

#: solver settings for batch runs: looser than unit-test defaults, still well
#: below the statistical noise floor of the benchmark
BENCH_SOLVER = SolverConfig(tolerance=1e-7, max_iterations=2000)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 4
    T: float = 10000.0
    c: float = 20.0
    m_grid: tuple[int, ...] = (32, 64, 96, 128, 192, 256)
    estimators: tuple[str, ...] = ("lasso", "mle")
    trials: int = 40
    gamma: float = 0.01
    seed: int = 0
    exact: bool = False

    def __post_init__(self):
        object.__setattr__(self, "m_grid", tuple(int(m) for m in self.m_grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.trials < 1:
            raise ValueError("need at least one trial")
        # rows are keyed by (m, estimator): a repeat would merge two cells into one row
        if not self.m_grid or len(set(self.m_grid)) < len(self.m_grid):
            raise ValueError(f"m_grid must be non-empty with no repeats, got {self.m_grid}")
        if not self.estimators or len(set(self.estimators)) < len(self.estimators):
            raise ValueError(f"estimators must be non-empty with no repeats, got {self.estimators}")
        bad = set(self.estimators) - set(ESTIMATORS)
        if bad:
            raise ValueError(f"unknown estimators: {sorted(bad)}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        for m in self.m_grid:
            if m > 4**self.n:
                raise ValueError(f"m={m} exceeds the {4**self.n} available settings")
            if not self.exact and self.T - self.c * m <= m:
                raise ValueError(
                    f"infeasible m={m}: T={self.T} at cost c={self.c} leaves "
                    f"under one shot per setting")

    def copies(self, m: int):
        """Copies t for a grid point: EXACT, or t = T - c m, what the duration T leaves
        after a switching cost c per setting (`__post_init__` rejects t <= m)."""
        return EXACT if self.exact else int(self.T - self.c * m)


@dataclass(frozen=True)
class BenchmarkRow:
    m: int
    estimator: str
    mean_fidelity: float
    std_fidelity: float
    mean_trace_distance: float
    std_trace_distance: float
    mean_solver_seconds: float

    def __post_init__(self):
        if not 0.0 <= self.mean_fidelity <= 1.0:
            raise ValueError("mean fidelity outside [0, 1]")
        if min(self.std_fidelity, self.std_trace_distance) < 0:
            raise ValueError("negative standard deviation")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([row.m, row.estimator, _fmt(row.mean_fidelity),
                         _fmt(row.std_fidelity), _fmt(row.mean_trace_distance),
                         _fmt(row.std_trace_distance), _fmt(row.mean_solver_seconds)])
    return buf.getvalue()


def estimate(name: str, plan: MeasurementPlan, record, t) -> ReconstructionResult:
    """One estimate as the sweep makes it: the default weight for (plan, t), and
    BENCH_SOLVER, which is also the MLE's default: the MLE stops when its
    optimality certificate is below 1e-7 (a log-likelihood gap below 1e-7
    times the shot count) or at 2000 iterations."""
    return run_estimator(name, plan, record, default_weight(name, plan, t), BENCH_SOLVER)


class Cell(NamedTuple):
    """One (trial, m, estimator) cell as the draw leaves it: the plan's word
    indices, the copy count, the record and the truth it is scored against."""

    estimator: str
    n: int
    indices: np.ndarray
    t: object
    record: MeasurementRecord
    truth: DensityMatrix


def _draw_trial(config: ExperimentConfig, trial_ss) -> list[Cell]:
    """One trial's draw: one noisy truth and, per m, one plan and record that every
    estimator runs on; returns the trial's cells in (m, estimator) order."""
    streams = trial_ss.spawn(1 + 2 * len(config.m_grid))
    state_rng = np.random.default_rng(streams[0])
    truth = haar_random_pure(config.n, state_rng)
    if config.gamma > 0:
        truth = depolarize_local(truth, config.gamma)
    cells = []
    for i, m in enumerate(config.m_grid):
        plan_rng = np.random.default_rng(streams[1 + 2 * i])
        meas_rng = np.random.default_rng(streams[2 + 2 * i])
        indices = sample_indices(config.n, m, with_replacement=False, rng=plan_rng)
        plan = MeasurementPlan.from_indices(config.n, indices)
        t = config.copies(m)
        record = simulate_measurements(plan, truth, t, meas_rng)
        cells.extend(Cell(name, config.n, plan.indices, t, record, truth)
                     for name in config.estimators)
    return cells


def _solve_cell(cell: Cell, timing: bool):
    """One cell's solve, in whichever process runs it; returns
    (m, estimator, fidelity, trace distance, solver seconds)."""
    plan = MeasurementPlan.from_indices(cell.n, cell.indices)
    start = time.perf_counter()
    rho_hat = estimate(cell.estimator, plan, cell.record, cell.t).rho_hat
    secs = time.perf_counter() - start if timing else 0.0
    return (plan.m, cell.estimator, fidelity(rho_hat, cell.truth),
            trace_distance(rho_hat, cell.truth), secs)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _end_with_parent():
    """Pool worker initializer: end the worker once the process that made the pool
    has ended, however it ended.  A worker left behind would hold the pipes it
    inherited open, so a reader of the ended process's output would wait forever."""
    import multiprocessing
    import threading
    parent = multiprocessing.parent_process()

    def watch():
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


#: each process's pool by PID, made at its first pooled sweep and kept for its
#: life; a forked child, whose PID is not here, makes its own
_POOLS = {}


def _pool(workers: int):
    """This process's pool of `workers` forked workers.

    Fork starts workers without re-running `__main__`, so a sweep runs from a
    script on stdin too.  The imports stay here: they would add about 20 ms to
    every `import cstomo`.
    """
    pid = os.getpid()
    if pid not in _POOLS:
        import atexit
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        _POOLS[pid] = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                          initializer=_end_with_parent)
        # drop it before interpreter teardown, while its module can still see it collected
        atexit.register(_POOLS.pop, pid)
    return _POOLS[pid]


def run_benchmark(config: ExperimentConfig, timing: bool = True):
    """Seeded sweep over (trial, m, estimator); returns (rows, seed manifest).

    Trials are drawn here, in order; their cells are solved on one worker
    process per usable CPU, or here when there is one.  Results come back in
    cell order, so rows do not depend on the worker count.
    """
    master = np.random.SeedSequence(config.seed)
    trial_seeds = master.spawn(config.trials)
    cells = (cell for ss in trial_seeds for cell in _draw_trial(config, ss))
    workers = _usable_cpus()
    cell_map = map if workers == 1 else _pool(workers).map
    buckets = {}
    for m, name, fid, td, secs in cell_map(_solve_cell, cells, itertools.repeat(timing)):
        buckets.setdefault((m, name), []).append((fid, td, secs))
    rows = []
    for (m, name) in sorted(buckets):
        data = np.array(buckets[(m, name)])
        rows.append(BenchmarkRow(m, name,
                                 float(data[:, 0].mean()), float(data[:, 0].std()),
                                 float(data[:, 1].mean()), float(data[:, 1].std()),
                                 float(data[:, 2].mean())))
    manifest = {
        "kind": "benchmark_seeds",
        "master_seed": config.seed,
        "trial_spawn_keys": [list(ss.spawn_key) for ss in trial_seeds],
    }
    return rows, manifest
