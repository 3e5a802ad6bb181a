"""Spans around calls into the program's layers, recorded from outside `src/`.

`install` replaces each traced function with a wrapper wherever a `cstomo`
module (or `numpy.linalg`) holds it, by name or in a dispatch table, and
each traced method on its class, so that calls are caught where the calling
module looks the name up: `cstomo.solvers` imports `apply_sampling_operator`
by name, and `cstomo.process` keeps its solvers in `_SOLVERS`, for example.
A wrapper records nothing unless the tracer is active, which the benchmark
switches on only around timed operations.  Spans are aggregated in memory:
per name the call count and the self time, which is the span's duration
minus the time of the traced spans inside it.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

import cstomo.certify
import cstomo.cli
import cstomo.measurement
import cstomo.pauli
import cstomo.process
import cstomo.solvers
import cstomo.states


def _solver_counts(prefix: str, unconverged: bool):
    def hook(tracer, result):
        tracer.count(f"{prefix}.iterations", result.iterations_used)
        if unconverged:
            tracer.count(f"{prefix}.unconverged", not result.converged)
    return hook


def _copies(tracer, estimate):
    tracer.count("certify.copies", estimate.copies_used)


def _support(tracer, probs):
    tracer.count("certify.support", int(np.count_nonzero(probs)))


#: (span name, owner, attribute, hook on the result); owners are modules or classes
TARGETS = (
    ("measurement.apply_sampling_operator", cstomo.measurement, "apply_sampling_operator", None),
    ("measurement.adjoint_sampling_operator", cstomo.measurement, "adjoint_sampling_operator", None),
    ("measurement.expectations", cstomo.measurement.MeasurementPlan, "expectations", None),
    ("measurement.simulate_measurements", cstomo.measurement, "simulate_measurements", None),
    ("solvers.matrix_lasso", cstomo.solvers, "matrix_lasso",
     _solver_counts("solvers.matrix_lasso", unconverged=False)),
    ("solvers.sampling_lipschitz", cstomo.solvers, "sampling_lipschitz", None),
    ("solvers.mle", cstomo.solvers, "mle", _solver_counts("solvers.mle", unconverged=True)),
    ("solvers.dantzig_selector", cstomo.solvers, "dantzig_selector",
     _solver_counts("solvers.dantzig_selector", unconverged=True)),
    ("linalg.eigh", np.linalg, "eigh", None),
    ("linalg.eigh", np.linalg, "eigvalsh", None),
    ("certify.certify_fidelity", cstomo.certify, "certify_fidelity", _copies),
    ("certify.dfe_distribution", cstomo.certify, "dfe_distribution", _support),
    ("certify.dfe_matrix_element", cstomo.certify, "dfe_matrix_element", None),
    ("certify.sample_plus", cstomo.certify.StateOracle, "sample_plus", None),
    ("pauli.pauli_action", cstomo.pauli, "pauli_action", None),
    ("pauli.pauli_expectation", cstomo.pauli, "pauli_expectation", None),
    ("pauli.pauli_matrix", cstomo.pauli, "pauli_matrix", None),
    ("process.simulate_process_measurements", cstomo.process, "simulate_process_measurements", None),
    ("process.channel_pauli_expectation", cstomo.process, "channel_pauli_expectation", None),
    ("process.channel_apply", cstomo.process.QuantumChannel, "apply", None),
    ("process.reconstruct_channel", cstomo.process, "reconstruct_channel", None),
    ("process.channel_from_jamiolkowski", cstomo.process, "channel_from_jamiolkowski", None),
    ("process.jamiolkowski_fidelity", cstomo.process, "jamiolkowski_fidelity", None),
    ("states.fidelity", cstomo.states, "fidelity", None),
    ("states.depolarize_local", cstomo.states, "depolarize_local", None),
    ("cli.run_benchmark", cstomo.cli, "run_benchmark", None),
)

#: the per-layer metrics a traced run reports, with their units
METRICS = {
    "measurement.apply_sampling_operator.calls": "count/op",
    "measurement.apply_sampling_operator.self_s": "s/op",
    "measurement.adjoint_sampling_operator.calls": "count/op",
    "measurement.adjoint_sampling_operator.self_s": "s/op",
    "measurement.expectations.calls": "count/op",
    "measurement.expectations.self_s": "s/op",
    "measurement.simulate_measurements.self_s": "s/op",
    "solvers.matrix_lasso.calls": "count/op",
    "solvers.matrix_lasso.self_s": "s/op",
    "solvers.matrix_lasso.iterations": "count/op",
    "solvers.sampling_lipschitz.calls": "count/op",
    "solvers.sampling_lipschitz.self_s": "s/op",
    "solvers.mle.calls": "count/op",
    "solvers.mle.self_s": "s/op",
    "solvers.mle.iterations": "count/op",
    "solvers.mle.unconverged": "count/op",
    "solvers.dantzig_selector.calls": "count/op",
    "solvers.dantzig_selector.self_s": "s/op",
    "solvers.dantzig_selector.iterations": "count/op",
    "solvers.dantzig_selector.unconverged": "count/op",
    "linalg.eigh.calls": "count/op",
    "linalg.eigh.self_s": "s/op",
    "certify.certify_fidelity.calls": "count/op",
    "certify.certify_fidelity.self_s": "s/op",
    "certify.dfe_distribution.calls": "count/op",
    "certify.dfe_distribution.self_s": "s/op",
    "certify.dfe_matrix_element.calls": "count/op",
    "certify.dfe_matrix_element.self_s": "s/op",
    "certify.sample_plus.calls": "count/op",
    "certify.sample_plus.self_s": "s/op",
    "certify.copies": "copies/op",
    "certify.support": "count/op",
    "pauli.pauli_action.calls": "count/op",
    "pauli.pauli_action.self_s": "s/op",
    "pauli.pauli_expectation.calls": "count/op",
    "pauli.pauli_expectation.self_s": "s/op",
    "pauli.pauli_matrix.calls": "count/op",
    "pauli.pauli_matrix.self_s": "s/op",
    "process.simulate_process_measurements.self_s": "s/op",
    "process.channel_pauli_expectation.calls": "count/op",
    "process.channel_pauli_expectation.self_s": "s/op",
    "process.channel_apply.calls": "count/op",
    "process.channel_apply.self_s": "s/op",
    "process.reconstruct_channel.self_s": "s/op",
    "process.channel_from_jamiolkowski.self_s": "s/op",
    "process.jamiolkowski_fidelity.self_s": "s/op",
    "states.fidelity.calls": "count/op",
    "states.fidelity.self_s": "s/op",
    "states.depolarize_local.self_s": "s/op",
    "cli.run_benchmark.self_s": "s/op",
}


class Tracer:
    """Aggregated spans: per name the call count and self time, plus result counters."""

    def __init__(self):
        self.active = False
        self.totals = {}
        self._child_time = []

    def count(self, name: str, value) -> None:
        self.totals[name] = self.totals.get(name, 0) + value

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self.count(f"{name}.calls", 1)
                self.count(f"{name}.self_s", elapsed - child)
            if hook is not None:
                hook(self, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target where the program looks it up."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "cstomo" or key.startswith("cstomo.")]
        for name, owner, attr, hook in TARGETS:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hook)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):
                        # dispatch tables such as process._SOLVERS hold functions too
                        for entry, fn in list(value.items()):
                            if fn is original:
                                value[entry] = wrapped

    def per_op(self, ops: int) -> dict:
        """Every per-layer metric as a mean per timed operation."""
        return {name: {"value": self.totals.get(name, 0) / ops, "unit": unit}
                for name, unit in METRICS.items()}
