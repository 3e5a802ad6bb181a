"""Every name the benchmark reaches in the program must exist.

`perfbench/spans.py` looks up each (owner, attribute) when it installs its
spans, and `perfbench/workloads.py` calls the program through `cstomo.*`
names, so a renamed or deleted name would crash a benchmark run.
"""

import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans

import cstomo
import cstomo.cli
import cstomo.experiment
import cstomo.process


def test_every_traced_target_resolves():
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr, _ in spans.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_every_workload_name_resolves():
    source = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bcstomo((?:\.\w+)+)", source))
    for required in (".run_benchmark", ".ExperimentConfig", ".default_mu",
                     ".reconstruct_channel", ".cli.BENCH_SOLVER", ".process.unitary_channel",
                     ".process.compose", ".process.local_depolarizing_channel"):
        assert required in names
    missing = []
    for name in sorted(names):
        owner = cstomo
        for attr in name.split(".")[1:]:
            if not hasattr(owner, attr):
                missing.append("cstomo" + name)
                break
            owner = getattr(owner, attr)
    assert not missing


def test_traced_sweep_is_the_sweep_workloads_call():
    """The traced `cli.run_benchmark` span must wrap the function `cstomo.run_benchmark` is."""
    assert cstomo.run_benchmark is cstomo.cli.run_benchmark is cstomo.experiment.run_benchmark
    assert cstomo.cli.BENCH_SOLVER is cstomo.experiment.BENCH_SOLVER
