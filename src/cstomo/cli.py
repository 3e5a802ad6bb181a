"""Command-line entry points: argument parsing, the command funnel, and the file formats.

Subcommands: simulate, reconstruct, certify, process, packing, benchmark.
Every subcommand accepts --seed, --config <json>, and --output.  `main` is the
one funnel: it merges the options into the --config values, seeds one
generator from `seed`, runs the subcommand, which only computes and returns
its output text, and writes that text to --output or stdout (the benchmark's
seeds sidecar beside its --output).  Outputs are deterministic for a fixed
seed and config (the benchmark's wall-clock column is zeroed under
--no-timing to keep its CSV byte-stable).  The estimator sweep behind
`benchmark` lives in `cstomo.experiment`.

Every JSON reader and writer lives here.  Complex matrices are row-major
[re, im] pairs; a reader raises ValueError on a file that disagrees with itself.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .certify import StateOracle, certify_fidelity
from .experiment import BENCH_SOLVER, ExperimentConfig, estimate, rows_to_csv, run_benchmark
from .lowerbound import generate_packing
from .measurement import EXACT, MeasurementPlan, MeasurementRecord, simulate_measurements
from .pauli import sample_indices
from .process import (
    QuantumChannel,
    compose,
    jamiolkowski_fidelity,
    local_depolarizing_channel,
    reconstruct_channel,
    simulate_process_measurements,
    unitary_channel,
)
from .solvers import ESTIMATORS, default_weight
from .states import (
    DensityMatrix,
    depolarize_local,
    fidelity,
    haar_random_unitary,
    random_rank_r_projection,
    renormalized,
    trace_distance,
)

#: config keys that steer the CLI and are not part of an ExperimentConfig
CLI_ONLY = ("output", "dry_run", "no_timing")

# --- file formats ------------------------------------------------------------

def _entries(mat) -> list:
    return [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]


def _matrix(entries, d: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries])
    if flat.size != d * d:
        raise ValueError("entry count does not match dimension header")
    return flat.reshape(d, d)


def density_matrix_to_dict(rho: DensityMatrix) -> dict:
    return {"kind": "density_matrix", "n": rho.n, "d": rho.d, "entries": _entries(rho.mat)}


def density_matrix_from_dict(data: dict) -> DensityMatrix:
    return DensityMatrix(_matrix(data["entries"], int(data["d"])))


def channel_from_dict(data: dict) -> QuantumChannel:
    """A channel file: {"n": n, "kraus_operators": [entries of each Kraus operator]}."""
    n = int(data["n"])
    return QuantumChannel(tuple(_matrix(k, 1 << n) for k in data["kraus_operators"]), n)


def plan_to_dict(plan: MeasurementPlan) -> dict:
    return {"kind": "measurement_plan", "n": plan.n,
            "paulis": [p.label for p in plan.paulis], "indices": plan.indices.tolist()}


def plan_from_dict(data: dict) -> MeasurementPlan:
    plan = MeasurementPlan.from_indices(int(data["n"]), data["indices"])
    if [p.label for p in plan.paulis] != list(data["paulis"]):
        raise ValueError("the plan's Pauli labels disagree with its indices")
    return plan


def _record_block(record) -> dict:
    return {
        "y": [float(v) for v in record.y],
        "shots": [int(v) for v in record.shots],
        "plus_counts": [int(v) for v in record.plus_counts],
        "normalization": record.normalization,
        "exact": record.exact,
    }


def _record_from_block(block):
    return MeasurementRecord(np.array(block["y"]),
                             np.array(block["shots"], dtype=np.int64),
                             np.array(block["plus_counts"], dtype=np.int64),
                             block["normalization"], exact=block["exact"])


# --- the command funnel ------------------------------------------------------

def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg = _read(args.config)
    for key, value in vars(args).items():
        if key in ("config", "func", "command") or value is None:
            continue
        cfg[key] = value
    return cfg


class UsageError(ValueError):
    """A required option was given neither on the command line nor in --config."""


def _required(cfg, *keys):
    missing = ", ".join("--" + key for key in keys if key not in cfg)
    if missing:
        raise UsageError(f"the following options are required (or keys in --config): {missing}")
    return tuple(cfg[key] for key in keys)


def _read(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _generator(cfg) -> np.random.Generator:
    """The run's generator, seeded from cfg["seed"], which this sets to an int (0 if unset)."""
    cfg["seed"] = int(cfg.get("seed", 0))
    return np.random.default_rng(np.random.SeedSequence(cfg["seed"]))


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


def _parse_t(value):
    if value in (None, "exact"):
        return EXACT
    return int(value)


def _draw_plan(cfg, n: int, rng) -> MeasurementPlan:
    """All n-qubit Pauli words, or cfg["m"] of them drawn without replacement."""
    m = cfg.get("m")
    if m is None:
        return MeasurementPlan.from_indices(n, np.arange(4**n))
    return MeasurementPlan.from_indices(
        n, sample_indices(n, int(m), with_replacement=False, rng=rng))


# --- subcommands: each maps (merged config, generator) to its output text -----

def cmd_simulate(cfg, rng) -> str:
    if cfg.get("state"):
        truth = density_matrix_from_dict(_read(cfg["state"]))
    else:
        truth = random_rank_r_projection(int(cfg.get("n", 2)), int(cfg.get("rank", 1)), rng,
                                         group="unitary")
    gamma = float(cfg.get("gamma", 0.0))
    if gamma > 0:
        truth = depolarize_local(truth, gamma)
    plan = _draw_plan(cfg, truth.n, rng)
    t = _parse_t(cfg.get("t"))
    record = simulate_measurements(plan, truth, t, rng)
    return _dump({
        "kind": "simulation",
        "seed": cfg["seed"],
        "t": "exact" if t is EXACT else t,
        "plan": plan_to_dict(plan),
        "record": _record_block(record),
        "truth": density_matrix_to_dict(truth),
    })


def cmd_reconstruct(cfg, rng) -> str:
    sim = _read(cfg["input"])
    plan = plan_from_dict(sim["plan"])
    record = _record_from_block(sim["record"])
    t = _parse_t(sim["t"])
    estimator = cfg.get("estimator", "lasso")
    rho_hat = estimate(estimator, plan, record, t).rho_hat
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
    return _dump(payload)


def cmd_certify(cfg, rng) -> str:
    rec = _read(cfg["input"])
    rho_hat = density_matrix_from_dict(rec["estimate"])
    truth = density_matrix_from_dict(rec["truth"])
    if rho_hat.trace > 1.0:
        rho_hat = renormalized(rho_hat)
    eps = float(cfg.get("eps", 0.05))
    delta = float(cfg.get("delta", 0.1))
    oracle = StateOracle(truth, exact=bool(cfg.get("exact", False)))
    est = certify_fidelity(oracle, rho_hat, eps, delta, rng)
    print(f"F_hat {est.value:.6f}")
    return _dump({
        "kind": "fidelity_certificate",
        "F_hat": est.value,
        "eps": est.epsilon,
        "delta": est.delta,
        "copies_used": est.copies_used,
        "per_element_error": est.matrix_element_errors,
        "seed": cfg["seed"],
    })


def cmd_process(cfg, rng) -> str:
    if cfg.get("channel"):
        channel = channel_from_dict(_read(cfg["channel"]))
    else:
        channel = unitary_channel(haar_random_unitary(1 << int(cfg.get("n", 2)), rng))
    gamma = float(cfg.get("gamma", 0.0))
    if gamma > 0:
        channel = compose(local_depolarizing_channel(channel.n, gamma), channel)
    plan = _draw_plan(cfg, 2 * channel.n, rng)
    t = _parse_t(cfg.get("t"))
    record = simulate_process_measurements(channel, plan, t, rng)
    estimator = cfg.get("estimator", "lasso")
    est_channel, diag = reconstruct_channel(record, plan, estimator,
                                            default_weight(estimator, plan, t), BENCH_SOLVER)
    payload = {
        "kind": "process_reconstruction",
        "seed": cfg["seed"],
        "estimator": estimator,
        "kraus_rank": diag["kraus_rank"],
        "tp_deviation": diag["tp_deviation"],
        "converged": diag["converged"],
        "jamiolkowski_fidelity": jamiolkowski_fidelity(channel, est_channel),
        "estimate": density_matrix_to_dict(diag["rho_e_hat"]),
    }
    print(f"jamiolkowski fidelity {payload['jamiolkowski_fidelity']:.6f}")
    return _dump(payload)


def cmd_packing(cfg, rng) -> str:
    d, epsilon = _required(cfg, "d", "epsilon")
    packing = generate_packing(int(d), int(cfg.get("r", 1)),
                               float(epsilon), int(cfg.get("size", 10)),
                               int(cfg.get("max_attempts", 10000)), rng,
                               group=cfg.get("group", "special_orthogonal"))
    if not packing.complete:
        print(f"warning: only {packing.size} of the requested states found",
              file=sys.stderr)
    return _dump({"kind": "packing_set", "seed": cfg["seed"], "size": packing.size,
                  "d": packing.d, "epsilon": packing.epsilon, "alpha": packing.alpha,
                  "rejections": packing.rejections, "complete": packing.complete,
                  "states": [density_matrix_to_dict(s) for s in packing.states]})


def cmd_benchmark(cfg, rng) -> str | tuple[str, str]:
    """The sweep's CSV and its seeds manifest, which `main` writes beside --output;
    under --dry-run, the copy count of each grid point."""
    # every other key must name an ExperimentConfig field, so a misspelled one fails
    config = ExperimentConfig(**{k: v for k, v in cfg.items() if k not in CLI_ONLY})
    if cfg.get("dry_run"):
        return "m,t\n" + "".join(f"{m},{config.copies(m)}\n" for m in config.m_grid)
    rows, manifest = run_benchmark(config, timing=not cfg.get("no_timing"))
    return rows_to_csv(rows), _dump(manifest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cstomo",
        description="Low-rank quantum state and process tomography toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--output", default=None)
        p.set_defaults(func=func)
        return p

    p = command("simulate", cmd_simulate, "draw a state and a plan, simulate a data record")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", default=None, help="copy count, or 'exact'")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--state", default=None, help="JSON density-matrix file")

    p = command("reconstruct", cmd_reconstruct, "estimate a state from a simulation file")
    p.add_argument("--input", required=True)
    p.add_argument("--estimator", choices=ESTIMATORS, default=None)

    p = command("certify", cmd_certify, "direct fidelity estimation for a reconstruction")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--exact", action="store_true", default=None)

    p = command("process", cmd_process, "simulate and reconstruct a quantum channel")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", default=None, help="copy count, or 'exact'")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--channel", default=None, help="JSON channel file")
    p.add_argument("--estimator", choices=ESTIMATORS, default=None)

    p = command("packing", cmd_packing, "generate a rank-r packing set")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--max-attempts", dest="max_attempts", type=int, default=None)
    p.add_argument("--group", choices=["special_orthogonal", "unitary"], default=None)

    p = command("benchmark", cmd_benchmark, "seeded estimator sweep, CSV output")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--dry-run", dest="dry_run", action="store_true", default=None)
    p.add_argument("--no-timing", dest="no_timing", action="store_true", default=None)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        result = args.func(cfg, _generator(cfg))
        text, seeds = result if isinstance(result, tuple) else (result, None)
        _emit(text, cfg.get("output"))
        if seeds is not None and cfg.get("output"):
            _emit(seeds, cfg["output"] + ".seeds.json")
        return 0
    except UsageError as exc:
        sub.choices[args.command].error(str(exc))  # usage on stderr, exit status 2
    except Exception as exc:  # noqa: BLE001 - single reporting funnel for the CLI
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
