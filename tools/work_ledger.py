"""Write the work ledger: deterministic work counts of fixed estimator solves.

Every solve runs in this process, one after another, with one BLAS thread.
For each set and estimator the ledger records the number of solves, the sum
and maximum of the iterations, how many solves stopped unconverged, at their
iteration cap or with a zero estimate, the mean fidelity and trace distance
to the truth, the calls of A, A*, eigh and eigvalsh the solves made, and a
SHA-1 of the estimates' bytes.  It holds no timing, so two runs of one
version of the code on one machine write the same bytes, and a diff of two
ledgers shows what a change did to the work and to the estimates.

    PYTHONPATH=src python3 tools/work_ledger.py [--sets NAME ...] [--output BENCH_work.json]
"""

import os

# the estimates' bytes must not depend on a BLAS thread count; set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

from cstomo import cli, experiment, solvers  # noqa: E402
from cstomo.measurement import EXACT, MeasurementPlan, simulate_measurements  # noqa: E402
from cstomo.pauli import sample_paulis  # noqa: E402
from cstomo.states import fidelity, haar_random_pure, trace_distance  # noqa: E402

#: the counted operators: A (one `expectations`), A* (one `pauli_sum`) and the eigensolvers
OPERATORS = {"A": (MeasurementPlan, "expectations"), "A*": (MeasurementPlan, "pauli_sum"),
             "eigh": (np.linalg, "eigh"), "eigvalsh": (np.linalg, "eigvalsh")}


def sweep_cells(**fields):
    """The cells of a criterion-5-style sweep, drawn as `run_benchmark` draws them."""
    config = experiment.ExperimentConfig(n=4, c=20.0, m_grid=(32, 64, 96, 128, 192, 256),
                                         estimators=solvers.ESTIMATORS, gamma=0.01, **fields)
    for trial_ss in np.random.SeedSequence(config.seed).spawn(config.trials):
        for cell in experiment._draw_trial(config, trial_ss):
            plan = MeasurementPlan.from_indices(cell.n, cell.indices)
            yield cell.estimator, plan, cell.record, cell.t, cell.truth


def criterion_3_cells():
    """Criterion 3's first ten noiseless instances: d = 16, m = 6d, a Haar-random pure truth."""
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        truth = haar_random_pure(4, rng)
        plan = MeasurementPlan(tuple(sample_paulis(4, 96, rng=rng)))
        yield "lasso", plan, simulate_measurements(plan, truth, EXACT), EXACT, truth


def cli_cells():
    """`cstomo simulate` draws at (n, m) = (2, 10) and (3, 40), t = 4000, seeds 0-5."""
    for (n, m), seed in ((nm, s) for nm in ((2, 10), (3, 40)) for s in range(6)):
        cfg = {"n": n, "m": m, "t": 4000, "seed": seed}
        sim = json.loads(cli.cmd_simulate(cfg, cli._generator(cfg)))
        plan = cli.plan_from_dict(sim["plan"])
        record = cli._record_from_block(sim["record"])
        truth = cli.density_matrix_from_dict(sim["truth"])
        for name in solvers.ESTIMATORS:
            yield name, plan, record, sim["t"], truth


def criterion_3_solve(name, plan, record, t):
    """As criterion 3 solves: mu = 1e-6, the default solver settings, no renormalization."""
    return solvers.matrix_lasso(plan, record.y, 1e-6)


#: name -> (what it is, its cells, how each is solved, the solves' iteration cap)
SETS = {
    "criterion_5": ("criterion 5's grid: n = 4, T = 1e4, c = 20, gamma = 0.01, 40 trials, seed 5",
                    lambda: sweep_cells(T=1e4, trials=40, seed=5), experiment.estimate,
                    experiment.BENCH_SOLVER.max_iterations),
    "grid_T1e5": ("criterion 5's grid at T = 1e5, 20 trials, seed 11",
                  lambda: sweep_cells(T=1e5, trials=20, seed=11), experiment.estimate,
                  experiment.BENCH_SOLVER.max_iterations),
    "criterion_3": ("criterion 3's first 10 instances, solved as criterion 3 does",
                    criterion_3_cells, criterion_3_solve, solvers.SolverConfig().max_iterations),
    "cli": ("12 `cstomo simulate` draws, each reconstructed as `cstomo reconstruct` does",
            cli_cells, experiment.estimate, experiment.BENCH_SOLVER.max_iterations),
}


@contextmanager
def counting(counts):
    """Add every call of the OPERATORS to `counts` while the block runs."""
    originals = {key: getattr(owner, attr) for key, (owner, attr) in OPERATORS.items()}

    def counter(key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return originals[key](*args, **kwargs)
        return counted

    for key, (owner, attr) in OPERATORS.items():
        setattr(owner, attr, counter(key))
    try:
        yield
    finally:
        for key, (owner, attr) in OPERATORS.items():
            setattr(owner, attr, originals[key])


def ledger_set(name):
    description, cells, solve, cap = SETS[name]
    tallies = {}
    for estimator, plan, record, t, truth in cells():
        tally = tallies.setdefault(estimator, {
            "counts": dict.fromkeys(OPERATORS, 0), "digest": hashlib.sha1(), "iterations": [],
            "unconverged": 0, "capped": 0, "zero": 0, "fidelity": [], "trace_distance": []})
        with counting(tally["counts"]):
            result = solve(estimator, plan, record, t)
        rho_hat = result.rho_hat
        tally["digest"].update(np.ascontiguousarray(rho_hat.mat, dtype=complex).tobytes())
        tally["iterations"].append(result.iterations_used)
        tally["unconverged"] += not result.converged
        tally["capped"] += result.iterations_used >= cap
        tally["zero"] += rho_hat.trace <= 0
        tally["fidelity"].append(fidelity(rho_hat, truth))
        tally["trace_distance"].append(trace_distance(rho_hat, truth))
    rows = {}
    for estimator, tally in sorted(tallies.items()):
        rows[estimator] = {
            "solves": len(tally["iterations"]),
            "iterations_sum": int(sum(tally["iterations"])),
            "iterations_max": int(max(tally["iterations"])),
            "unconverged": int(tally["unconverged"]),
            "capped": int(tally["capped"]),
            "zero": int(tally["zero"]),
            "fidelity_mean": float(np.mean(tally["fidelity"])),
            "trace_distance_mean": float(np.mean(tally["trace_distance"])),
            "operator_calls": tally["counts"],
            "estimates_sha1": tally["digest"].hexdigest(),
        }
    return {"description": description, "iteration_cap": cap, "estimators": rows}


def host():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(), "system": platform.system(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": 1}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", nargs="+", choices=sorted(SETS), default=list(SETS))
    parser.add_argument("--output", default="BENCH_work.json")
    args = parser.parse_args(argv)
    ledger = {"kind": "work_ledger", "host": host(),
              "sets": {name: ledger_set(name) for name in args.sets}}
    with open(args.output, "w") as fh:
        fh.write(json.dumps(ledger, indent=1) + "\n")


if __name__ == "__main__":
    main()
