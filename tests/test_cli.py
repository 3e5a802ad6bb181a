import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cstomo
from cstomo import experiment
from cstomo.cli import (
    density_matrix_from_dict,
    density_matrix_to_dict,
    main,
    plan_from_dict,
    plan_to_dict,
)
from cstomo.experiment import BenchmarkRow, ExperimentConfig, rows_to_csv, run_benchmark
from cstomo.measurement import MeasurementPlan
from cstomo.pauli import sample_paulis
from cstomo.states import haar_random_pure


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def error_of(err) -> dict:
    return json.loads(err.strip().splitlines()[-1])


def test_config_validation():
    with pytest.raises(ValueError, match="infeasible"):
        ExperimentConfig(T=100, c=20, m_grid=(10,))
    with pytest.raises(ValueError, match="unknown estimators"):
        ExperimentConfig(estimators=("sdp",))
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="exceeds"):
        ExperimentConfig(n=2, m_grid=(17,))


@pytest.mark.parametrize("field, value", [
    ("m_grid", (8, 8)), ("m_grid", ()), ("estimators", ("lasso", "lasso")),
    ("estimators", ()), ("gamma", -0.5), ("gamma", 2.0), ("c", -5), ("c", float("nan")),
    ("T", float("nan")), ("T", float("inf")), ("trials", 1.5), ("n", 2.5),
    ("m_grid", (8.5, 16))])
def test_config_rejects_inputs_outside_its_contract(field, value):
    """Rows are keyed by (m, estimator): a repeat would merge two cells per trial into
    one row, and an empty grid would write a header-only CSV.  A negative gamma would
    run a noiseless truth.  A negative c would hand out more copies than T; a NaN or
    infinite budget, or a fractional count or m, would fail mid-sweep or be truncated."""
    fields = {"n": 2, "T": 2000, "c": 20, "m_grid": (8, 16), field: value}
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**fields)


def test_benchmark_row_validation():
    with pytest.raises(ValueError):
        BenchmarkRow(8, "lasso", 1.5, 0.0, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        BenchmarkRow(8, "lasso", 0.5, -0.1, 0.1, 0.0, 0.0)


def test_run_benchmark_deterministic_and_ordered():
    cfg = ExperimentConfig(n=2, T=2000, c=20, m_grid=(8, 16), trials=2, seed=9)
    rows1, manifest = run_benchmark(cfg, timing=False)
    rows2, _ = run_benchmark(cfg, timing=False)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    assert [(r.m, r.estimator) for r in rows1] == [
        (8, "lasso"), (8, "mle"), (16, "lasso"), (16, "mle")]
    assert manifest["master_seed"] == 9
    assert len(manifest["trial_spawn_keys"]) == 2
    assert all(r.mean_solver_seconds == 0.0 for r in rows1)


def test_pooled_and_serial_sweeps_write_the_same_files(tmp_path, capsys, monkeypatch):
    """The CSV and seeds sidecar of a multi-trial, three-estimator sweep are the same
    bytes whether its cells are solved in this process or on a pool of two workers."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "T": 4000, "c": 20, "m_grid": [16, 32], "trials": 3,
                               "estimators": ["dantzig", "lasso", "mle"], "seed": 4}))
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        out_path = tmp_path / f"cpus{cpus}.csv"
        code, _, _ = run(["benchmark", "--config", str(cfg), "--no-timing",
                          "--output", str(out_path)], capsys)
        assert code == 0
        outputs[cpus] = (out_path.read_bytes(), Path(f"{out_path}.seeds.json").read_bytes())
    assert outputs[1] == outputs[2]
    assert len(outputs[1][0].splitlines()) == 1 + 2 * 3


#: a two-trial sweep on a pool of two workers, which prints the workers' PIDs
POOLED_SWEEP = """
import multiprocessing
from cstomo import experiment
experiment._usable_cpus = lambda: 2
rows, _ = experiment.run_benchmark(experiment.ExperimentConfig(
    n=2, T=2000, c=20, m_grid=(8, 16), trials=2, seed=3), timing=False)
assert len(rows) == 4
print(*sorted(p.pid for p in multiprocessing.active_children()))
"""


def running(pid) -> bool:
    """Whether a process exists and is not a zombie, by its /proc entry."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
@pytest.mark.parametrize("launch", ["file", "-c", "stdin", "killed"])
def test_pooled_sweep_runs_from_any_main_and_leaves_no_workers(launch, tmp_path):
    """The pool starts its workers by fork, so a sweep runs whatever `__main__` is, a
    script on stdin included.  Its workers are gone once the process has exited, and
    soon after it was killed.  Output goes to a file: a worker left alive would hold a
    pipe open."""
    killed = POOLED_SWEEP + "import os, signal\nos.kill(os.getpid(), signal.SIGKILL)\n"
    script, out = tmp_path / "sweep.py", tmp_path / "out.txt"
    script.write_text(killed if launch == "killed" else POOLED_SWEEP)
    args, stdin = {"-c": (["-c", POOLED_SWEEP], None),
                   "stdin": (["-"], POOLED_SWEEP)}.get(launch, ([str(script)], None))
    src = Path(cstomo.__file__).resolve().parent.parent
    with open(out, "w") as fh:
        proc = subprocess.run([sys.executable, "-u", *args], input=stdin, stdout=fh,
                              stderr=subprocess.STDOUT, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == (-signal.SIGKILL if launch == "killed" else 0), out.read_text()
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + (30 if launch == "killed" else 0)
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [pid for pid in pids if running(pid)]
    for pid in alive:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    assert alive == []


def test_import_loads_no_process_pool_modules():
    """`multiprocessing` and `concurrent.futures` load at a sweep's first pooled call,
    not at import, where they would add about 20 ms to every start."""
    src = Path(cstomo.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cstomo, cstomo.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "cstomo.experiment" in loaded
    assert not [m for m in loaded if m.startswith(("multiprocessing", "concurrent"))]


def test_simulate_reconstruct_certify_pipeline(tmp_path, capsys):
    sim = tmp_path / "sim.json"
    code, _, _ = run(["simulate", "--n", "2", "--t", "exact", "--seed", "5",
                      "--output", str(sim)], capsys)
    assert code == 0
    rec = tmp_path / "rec.json"
    code, out, _ = run(["reconstruct", "--input", str(sim), "--estimator", "lasso",
                        "--output", str(rec)], capsys)
    assert code == 0
    fid = float(out.split()[1])
    assert fid >= 0.99
    code, out, _ = run(["certify", "--input", str(rec), "--eps", "0.05",
                        "--delta", "0.1", "--seed", "1", "--output",
                        str(tmp_path / "cert.json")], capsys)
    assert code == 0
    report = json.loads((tmp_path / "cert.json").read_text())
    f_true = json.loads(rec.read_text())["fidelity"]
    assert abs(report["F_hat"] - f_true) <= 0.05


def test_subcommand_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(["simulate", "--n", "2", "--m", "10", "--t", "500",
                          "--seed", "3", "--output", str(out)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_benchmark_subcommand_and_dry_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "T": 2000, "c": 20, "m_grid": [8, 16],
                               "trials": 2, "seed": 1, "estimators": ["lasso"]}))
    code, out, _ = run(["benchmark", "--config", str(cfg), "--dry-run"], capsys)
    assert code == 0
    assert out.splitlines() == ["m,t", "8,1840", "16,1680"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out_path in (a, b):
        code, _, _ = run(["benchmark", "--config", str(cfg), "--no-timing",
                          "--output", str(out_path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith(
        "m,estimator,mean_fidelity,std_fidelity,mean_trace_distance,"
        "std_trace_distance,mean_solver_seconds\n")
    with open(str(a) + ".seeds.json") as fh:
        seeds = json.load(fh)
    assert seeds["master_seed"] == 1


def test_benchmark_rejects_misspelled_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "m_gird": [8, 16], "trails": 2}))
    code, out, err = run(["benchmark", "--config", str(cfg), "--dry-run"], capsys)
    assert code == 1 and out == ""
    payload = error_of(err)
    assert payload["error"] == "TypeError"
    assert "m_gird" in payload["message"]
    # the noiseless sweep's switch is gone, so it fails like any unknown key
    cfg.write_text(json.dumps({"n": 2, "T": 2000, "m_grid": [8], "exact": True}))
    code, out, err = run(["benchmark", "--config", str(cfg), "--dry-run"], capsys)
    assert code == 1 and out == "" and "'exact'" in error_of(err)["message"]


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "T": 2000, "c": 20, "m_grid": [8, 16]}))
    src = Path(cstomo.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cstomo.cli",
         "benchmark", "--config", str(cfg), "--dry-run"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["m,t", "8,1840", "16,1680"]


def test_output_file_holds_what_stdout_shows(tmp_path, capsys):
    """Every subcommand writes to --output the text it prints on stdout without
    --output, after its summary line; on stdout a JSON output gets one trailing newline."""
    sim, rec = tmp_path / "sim.json", tmp_path / "rec.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "T": 2000, "m_grid": [8], "trials": 1,
                               "estimators": ["lasso"], "seed": 2}))
    for argv, output, summary in (
            (["simulate", "--n", "2", "--m", "6", "--t", "500", "--seed", "1"], sim, ""),
            (["reconstruct", "--input", str(sim)], rec, "fidelity"),
            (["certify", "--input", str(rec), "--seed", "2"], tmp_path / "cert.json", "F_hat"),
            (["process", "--n", "1", "--t", "exact"], tmp_path / "proc.json", "jamiolkowski"),
            (["packing", "--d", "4", "--epsilon", "0.4", "--size", "2"],
             tmp_path / "packing.json", ""),
            (["benchmark", "--config", str(cfg), "--no-timing"], tmp_path / "bench.csv", ""),
            (["benchmark", "--config", str(cfg), "--dry-run"], tmp_path / "dry.csv", "")):
        code, shown, _ = run(argv, capsys)
        assert code == 0, argv
        code, printed, _ = run(argv + ["--output", str(output)], capsys)
        assert code == 0, argv
        assert printed.startswith(summary) and printed.count("\n") == (1 if summary else 0)
        newline = "\n" if output.suffix == ".json" else ""
        assert shown == printed + output.read_text() + newline, argv


def test_packing_subcommand(tmp_path, capsys):
    out_path = tmp_path / "packing.json"
    code, _, _ = run(["packing", "--d", "8", "--epsilon", "0.4", "--size", "3",
                      "--seed", "2", "--output", str(out_path)], capsys)
    assert code == 0
    manifest = json.loads(out_path.read_text())
    assert manifest["size"] == 3 and manifest["complete"] and manifest["seed"] == 2
    assert len(manifest["states"]) == 3


def test_packing_names_missing_options(tmp_path, capsys):
    for argv, missing in ((["packing", "--d", "8"], "--epsilon"),
                          (["packing", "--epsilon", "0.4"], "--d"),
                          (["packing"], "--d, --epsilon")):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--output", str(tmp_path / "packing.json")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cstomo packing")
        assert f"required (or keys in --config): {missing}\n" in err
        assert "KeyError" not in err and not (tmp_path / "packing.json").exists()
    # a value from the config file satisfies the requirement
    config = tmp_path / "packing_config.json"
    config.write_text(json.dumps({"epsilon": 0.4, "size": 2}))
    code, _, _ = run(["packing", "--d", "8", "--config", str(config),
                      "--output", str(tmp_path / "packing.json")], capsys)
    assert code == 0


def test_process_subcommand(tmp_path, capsys):
    code, out, _ = run(["process", "--n", "1", "--t", "exact", "--seed", "4",
                        "--output", str(tmp_path / "proc.json")], capsys)
    assert code == 0
    fid = float(out.split()[-1])
    assert fid >= 0.99
    # a sampled Dantzig solve, whose weight 3d/sqrt(t) is a numpy float: the
    # convergence flag is still written as a JSON boolean
    code, _, _ = run(["process", "--n", "1", "--t", "1000", "--seed", "1", "--estimator",
                      "dantzig", "--output", str(tmp_path / "dantzig.json")], capsys)
    assert code == 0
    assert json.loads((tmp_path / "dantzig.json").read_text())["converged"] is True


def test_process_zero_estimate_is_a_typed_error(tmp_path, capsys):
    # on the complete 256-word plan the default weight 3d/sqrt(t) = 1.52 exceeds
    # ||A*y|| = 1.21, so the Dantzig estimate is the zero matrix
    code, _, err = run(["process", "--n", "2", "--t", "1000", "--seed", "3", "--estimator",
                        "dantzig", "--output", str(tmp_path / "zero.json")], capsys)
    assert code == 1 and not (tmp_path / "zero.json").exists()
    payload = error_of(err)
    assert payload["error"] == "ZeroEstimateError"
    assert "zero matrix" in payload["message"] and "||A*y||" in payload["message"]
    assert issubclass(cstomo.ZeroEstimateError, ValueError)


def test_error_reporting(capsys):
    code, _, err = run(["reconstruct", "--input", "/nonexistent.json"], capsys)
    assert code == 1
    payload = error_of(err)
    assert payload["error"] == "FileNotFoundError"


def test_plan_serialization_round_trip():
    rng = np.random.default_rng(7)
    plan = MeasurementPlan(tuple(sample_paulis(3, 9, rng=rng)))
    back = plan_from_dict(plan_to_dict(plan))
    assert [p.index for p in back.paulis] == [p.index for p in plan.paulis]


def test_density_matrix_serialization_round_trip():
    rho = haar_random_pure(2, np.random.default_rng(9))
    back = density_matrix_from_dict(density_matrix_to_dict(rho))
    assert np.allclose(back.mat, rho.mat, atol=0)


def test_channel_file_written_by_hand(tmp_path, capsys):
    """The identity channel in the --channel format: row-major [re, im] Kraus entries."""
    channel = tmp_path / "identity.json"
    channel.write_text(json.dumps({"n": 1, "kraus_operators": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}))
    code, out, _ = run(["process", "--channel", str(channel), "--t", "exact",
                        "--output", str(tmp_path / "proc.json")], capsys)
    assert code == 0
    assert out == "jamiolkowski fidelity 1.000000\n"


def test_malformed_input_files_are_typed_errors(tmp_path, capsys):
    sim = tmp_path / "sim.json"
    code, _, _ = run(["simulate", "--n", "2", "--m", "6", "--t", "exact", "--seed", "0",
                      "--output", str(sim)], capsys)
    assert code == 0
    data = json.loads(sim.read_text())
    data["plan"]["paulis"][0] = "XY" if data["plan"]["paulis"][0] != "XY" else "YX"
    sim.write_text(json.dumps(data))
    code, out, err = run(["reconstruct", "--input", str(sim),
                          "--output", str(tmp_path / "rec.json")], capsys)
    assert code == 1 and out == ""
    assert error_of(err) == {"error": "ValueError",
                             "message": "the plan's Pauli labels disagree with its indices"}

    for index, message in ((1.5, "index 1.5 is not an integer"),
                           (True, "index True is not an integer"),
                           ("3", "index '3' is not an integer"),
                           (16, "index 16 out of range for 2 qubits"),
                           (-1, "index -1 out of range for 2 qubits")):
        bad = json.loads(json.dumps(data))
        bad["plan"]["indices"][0] = index
        sim.write_text(json.dumps(bad))
        code, out, err = run(["reconstruct", "--input", str(sim),
                              "--output", str(tmp_path / "rec.json")], capsys)
        assert code == 1 and out == ""
        assert error_of(err) == {"error": "ValueError", "message": message}

    channel = tmp_path / "short.json"
    channel.write_text(json.dumps({"n": 1, "kraus_operators": [[[1, 0], [0, 0], [0, 0]]]}))
    code, out, err = run(["process", "--channel", str(channel), "--t", "exact",
                          "--output", str(tmp_path / "proc.json")], capsys)
    assert code == 1 and out == ""
    assert error_of(err) == {"error": "ValueError",
                             "message": "entry count does not match dimension header"}


def test_output_schema(tmp_path, capsys):
    """Top-level keys and kind of every JSON file a subcommand writes."""
    paths = {name: tmp_path / f"{name}.json"
             for name in ("simulate", "reconstruct", "certify", "process", "packing")}
    for argv in (["simulate", "--n", "2", "--t", "exact"],
                 ["reconstruct", "--input", str(paths["simulate"])],
                 ["certify", "--input", str(paths["reconstruct"])],
                 ["process", "--n", "1", "--t", "exact"],
                 ["packing", "--d", "8", "--epsilon", "0.4", "--size", "2"]):
        code, _, _ = run(argv + ["--output", str(paths[argv[0]])], capsys)
        assert code == 0
    schema = {
        "simulate": ("simulation", ["kind", "plan", "record", "seed", "t", "truth"]),
        "reconstruct": ("reconstruction", ["estimate", "estimator", "fidelity", "kind",
                                           "trace_distance", "truth"]),
        "certify": ("fidelity_certificate", ["F_hat", "copies_used", "delta", "eps", "kind",
                                             "per_element_error", "seed"]),
        "process": ("process_reconstruction", ["converged", "estimate", "estimator",
                                               "jamiolkowski_fidelity", "kind", "kraus_rank",
                                               "seed", "tp_deviation"]),
        "packing": ("packing_set", ["alpha", "complete", "d", "epsilon", "kind", "rejections",
                                    "seed", "size", "states"]),
    }
    for name, (kind, keys) in schema.items():
        data = json.loads(paths[name].read_text())
        assert (data["kind"], sorted(data)) == (kind, keys), name
