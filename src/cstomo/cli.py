"""Command-line entry points and the seeded benchmark harness.

Subcommands: simulate, reconstruct, certify, process, packing, benchmark.
Every subcommand accepts --seed, --config <json>, and --output; outputs are
deterministic for a fixed seed and config (the benchmark's wall-clock column
is zeroed under --no-timing to keep its CSV byte-stable).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .certify import StateOracle, certify_fidelity
from .lowerbound import generate_packing, packing_to_manifest
from .measurement import (
    EXACT,
    MeasurementPlan,
    TimeBudget,
    budget_split,
    plan_from_dict,
    plan_to_dict,
    simulate_measurements,
)
from .pauli import all_paulis, sample_paulis
from .process import (
    channel_from_dict,
    compose,
    jamiolkowski_fidelity,
    local_depolarizing_channel,
    reconstruct_channel,
    simulate_process_measurements,
    unitary_channel,
)
from .solvers import (
    SolverConfig,
    dantzig_selector,
    default_lambda,
    default_mu,
    matrix_lasso,
    mle,
    renormalize,
)
from .states import (
    DensityMatrix,
    density_matrix_from_dict,
    density_matrix_to_dict,
    depolarize_local,
    fidelity,
    haar_random_pure,
    haar_random_unitary,
    random_rank_r_projection,
    trace_distance,
)

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
    output_path: str = ""
    exact: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.m_grid:
            raise ValueError("m_grid is empty")
        known = {"dantzig", "lasso", "mle"}
        bad = set(self.estimators) - known
        if bad:
            raise ValueError(f"unknown estimators: {sorted(bad)}")
        for m in self.m_grid:
            if m > 4**self.n:
                raise ValueError(f"m={m} exceeds the {4**self.n} available settings")
            if not self.exact and self.T - self.c * m <= m:
                raise ValueError(
                    f"infeasible m={m}: T={self.T} at cost c={self.c} leaves "
                    f"under one shot per setting")


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


def _run_estimator(name, plan, record, t, timing):
    d = plan.d
    if t is EXACT:
        reg = 1e-6
        lam = 1e-6
    else:
        # the Lasso heuristic is stated for unnormalized expectation values;
        # under the sqrt(d/m) normalization the equivalent weight is 4d/sqrt(t)
        reg = default_mu(plan.m, t) * d / plan.m
        lam = default_lambda(d, t)
    def _renormalized(result):
        # a fully shrunk (zero) estimate is recorded as-is rather than crashing
        return result if result.rho_hat.trace <= 0 else renormalize(result)

    start = time.perf_counter()
    if name == "lasso":
        result = _renormalized(matrix_lasso(plan, record.y, reg, BENCH_SOLVER))
    elif name == "dantzig":
        result = _renormalized(dantzig_selector(plan, record.y, lam, BENCH_SOLVER))
    elif name == "mle":
        result = mle(plan, record)
    else:
        raise ValueError(f"unknown estimator {name!r}")
    elapsed = time.perf_counter() - start if timing else 0.0
    return result.rho_hat, elapsed


def _benchmark_trial(config: ExperimentConfig, trial_ss, timing):
    """One trial: one noisy truth, every (m, estimator) cell; returns cell records."""
    streams = trial_ss.spawn(1 + 2 * len(config.m_grid))
    state_rng = np.random.default_rng(streams[0])
    truth = haar_random_pure(config.n, state_rng)
    if config.gamma > 0:
        truth = depolarize_local(truth, config.gamma)
    cells = []
    for i, m in enumerate(config.m_grid):
        plan_rng = np.random.default_rng(streams[1 + 2 * i])
        meas_rng = np.random.default_rng(streams[2 + 2 * i])
        paulis = sample_paulis(config.n, m, with_replacement=False, rng=plan_rng)
        plan = MeasurementPlan(tuple(paulis))
        if config.exact:
            t = EXACT
        else:
            t = budget_split(TimeBudget(config.T, config.c, m))
        record = simulate_measurements(plan, truth, t, meas_rng)
        for name in config.estimators:
            rho_hat, secs = _run_estimator(name, plan, record, t, timing)
            cells.append((m, name, fidelity(rho_hat, truth),
                          trace_distance(rho_hat, truth), secs))
    return cells


def run_benchmark(config: ExperimentConfig, timing: bool = True):
    """Seeded sweep over (trial, m, estimator); returns (rows, seed manifest)."""
    master = np.random.SeedSequence(config.seed)
    trial_seeds = master.spawn(config.trials)
    buckets = {}
    for ss in trial_seeds:
        for m, name, fid, td, secs in _benchmark_trial(config, ss, timing):
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


# --- subcommand plumbing -----------------------------------------------------

def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    for key, value in vars(args).items():
        if key in ("config", "func", "command") or value is None:
            continue
        cfg[key] = value
    return cfg


def _emit(text: str, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=1)


def _record_block(record) -> dict:
    return {
        "y": [float(v) for v in record.y],
        "shots": [int(v) for v in record.shots],
        "plus_counts": [int(v) for v in record.plus_counts],
        "normalization": record.normalization,
        "exact": record.exact,
    }


def _record_from_block(block):
    from .measurement import MeasurementRecord
    return MeasurementRecord(np.array(block["y"]),
                             np.array(block["shots"], dtype=np.int64),
                             np.array(block["plus_counts"], dtype=np.int64),
                             block["normalization"], exact=block["exact"])


def _parse_t(value):
    if value in (None, "exact"):
        return EXACT
    return int(value)


def cmd_simulate(args):
    cfg = _load_config(args)
    seed = int(cfg.get("seed", 0))
    n = int(cfg.get("n", 2))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if cfg.get("state"):
        with open(cfg["state"]) as fh:
            truth = density_matrix_from_dict(json.load(fh))
        n = truth.n
    else:
        truth = random_rank_r_projection(n, int(cfg.get("rank", 1)), rng, group="unitary")
    gamma = float(cfg.get("gamma", 0.0))
    if gamma > 0:
        truth = depolarize_local(truth, gamma)
    m = cfg.get("m")
    if m is None:
        paulis = all_paulis(n)
    else:
        paulis = sample_paulis(n, int(m), with_replacement=False, rng=rng)
    plan = MeasurementPlan(tuple(paulis))
    t = _parse_t(cfg.get("t"))
    record = simulate_measurements(plan, truth, t, rng)
    payload = {
        "kind": "simulation",
        "seed": seed,
        "t": "exact" if t is EXACT else t,
        "plan": plan_to_dict(plan),
        "record": _record_block(record),
        "truth": density_matrix_to_dict(truth),
    }
    _emit(_dump(payload), cfg.get("output"))
    return 0


def cmd_reconstruct(args):
    cfg = _load_config(args)
    with open(cfg["input"]) as fh:
        sim = json.load(fh)
    plan = plan_from_dict(sim["plan"])
    record = _record_from_block(sim["record"])
    t = EXACT if sim["t"] == "exact" else int(sim["t"])
    estimator = cfg.get("estimator", "lasso")
    rho_hat, secs = _run_estimator(estimator, plan, record, t, timing=False)
    payload = {
        "kind": "reconstruction",
        "estimator": estimator,
        "estimate": density_matrix_to_dict(rho_hat),
    }
    if "truth" in sim:
        truth = density_matrix_from_dict(sim["truth"])
        payload["fidelity"] = fidelity(rho_hat, truth)
        payload["trace_distance"] = trace_distance(rho_hat, truth)
        payload["truth"] = sim["truth"]
        print(f"fidelity {payload['fidelity']:.6f}")
    _emit(_dump(payload), cfg.get("output"))
    return 0


def cmd_certify(args):
    cfg = _load_config(args)
    with open(cfg["input"]) as fh:
        rec = json.load(fh)
    rho_hat = density_matrix_from_dict(rec["estimate"])
    truth = density_matrix_from_dict(rec["truth"])
    if rho_hat.trace > 1.0:
        rho_hat = DensityMatrix(rho_hat.mat / rho_hat.trace)
    eps = float(cfg.get("eps", 0.05))
    delta = float(cfg.get("delta", 0.1))
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    oracle = StateOracle(truth, exact=bool(cfg.get("exact", False)))
    est = certify_fidelity(oracle, rho_hat, eps, delta, rng)
    payload = {
        "kind": "fidelity_certificate",
        "F_hat": est.value,
        "eps": est.epsilon,
        "delta": est.delta,
        "copies_used": est.copies_used,
        "per_element_error": est.matrix_element_errors,
        "seed": seed,
    }
    print(f"F_hat {est.value:.6f}")
    _emit(_dump(payload), cfg.get("output"))
    return 0


def cmd_process(args):
    cfg = _load_config(args)
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = int(cfg.get("n", 2))
    if cfg.get("channel"):
        with open(cfg["channel"]) as fh:
            channel = channel_from_dict(json.load(fh))
        n = channel.n
    else:
        channel = unitary_channel(haar_random_unitary(1 << n, rng))
    gamma = float(cfg.get("gamma", 0.0))
    if gamma > 0:
        channel = compose(local_depolarizing_channel(n, gamma), channel)
    m = cfg.get("m")
    if m is None:
        paulis = all_paulis(2 * n)
    else:
        paulis = sample_paulis(2 * n, int(m), with_replacement=False, rng=rng)
    plan = MeasurementPlan(tuple(paulis))
    t = _parse_t(cfg.get("t"))
    record = simulate_process_measurements(channel, plan, t, rng)
    d2 = plan.d
    if t is EXACT:
        reg = 1e-6
    else:
        reg = default_mu(plan.m, t) * d2 / plan.m
    estimator = cfg.get("estimator", "lasso")
    est_channel, diag = reconstruct_channel(record, plan, estimator, reg, BENCH_SOLVER)
    payload = {
        "kind": "process_reconstruction",
        "seed": seed,
        "estimator": estimator,
        "kraus_rank": diag["kraus_rank"],
        "tp_deviation": diag["tp_deviation"],
        "converged": diag["converged"],
        "jamiolkowski_fidelity": jamiolkowski_fidelity(channel, est_channel),
        "estimate": density_matrix_to_dict(diag["rho_e_hat"]),
    }
    print(f"jamiolkowski fidelity {payload['jamiolkowski_fidelity']:.6f}")
    _emit(_dump(payload), cfg.get("output"))
    return 0


def cmd_packing(args):
    cfg = _load_config(args)
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    packing = generate_packing(int(cfg["d"]), int(cfg.get("r", 1)),
                               float(cfg["epsilon"]), int(cfg.get("size", 10)),
                               int(cfg.get("max_attempts", 10000)), rng,
                               group=cfg.get("group", "special_orthogonal"))
    manifest = json.loads(packing_to_manifest(packing, seed))
    manifest["states"] = [density_matrix_to_dict(s) for s in packing.states]
    _emit(_dump(manifest), cfg.get("output"))
    if not packing.complete:
        print(f"warning: only {packing.size} of the requested states found",
              file=sys.stderr)
    return 0


def cmd_benchmark(args):
    cfg = _load_config(args)
    fields = {"n", "T", "c", "m_grid", "estimators", "trials", "gamma", "seed",
              "output_path", "exact"}
    kwargs = {k: v for k, v in cfg.items() if k in fields}
    if "m_grid" in kwargs:
        kwargs["m_grid"] = tuple(int(m) for m in kwargs["m_grid"])
    if "estimators" in kwargs:
        kwargs["estimators"] = tuple(kwargs["estimators"])
    config = ExperimentConfig(**kwargs)
    output = cfg.get("output") or config.output_path or None
    if cfg.get("dry_run"):
        lines = ["m,t"]
        for m in config.m_grid:
            t = "exact" if config.exact else budget_split(TimeBudget(config.T, config.c, m))
            lines.append(f"{m},{t}")
        _emit("\n".join(lines) + "\n", output)
        return 0
    timing = not cfg.get("no_timing")
    rows, manifest = run_benchmark(config, timing=timing)
    _emit(rows_to_csv(rows), output)
    if output:
        with open(output + ".seeds.json", "w") as fh:
            fh.write(_dump(manifest))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cstomo",
        description="Low-rank quantum state and process tomography toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--output", default=None)

    p = sub.add_parser("simulate", help="draw a state and a plan, simulate a data record")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", default=None, help="copy count, or 'exact'")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--state", default=None, help="JSON density-matrix file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="estimate a state from a simulation file")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--estimator", choices=["dantzig", "lasso", "mle"], default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("certify", help="direct fidelity estimation for a reconstruction")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--exact", action="store_true", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("process", help="simulate and reconstruct a quantum channel")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", default=None, help="copy count, or 'exact'")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--channel", default=None, help="JSON channel file")
    p.add_argument("--estimator", choices=["dantzig", "lasso", "mle"], default=None)
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("packing", help="generate a rank-r packing set")
    common(p)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--max-attempts", dest="max_attempts", type=int, default=None)
    p.add_argument("--group", choices=["special_orthogonal", "unitary"], default=None)
    p.set_defaults(func=cmd_packing)

    p = sub.add_parser("benchmark", help="seeded estimator sweep, CSV output")
    common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--dry-run", dest="dry_run", action="store_true", default=None)
    p.add_argument("--no-timing", dest="no_timing", action="store_true", default=None)
    p.set_defaults(func=cmd_benchmark)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting funnel for the CLI
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
