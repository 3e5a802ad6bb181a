"""The two workloads, the parts they are made of, and their checks.

`sweep` is the estimator comparison a user runs with `cstomo benchmark`.
`components` mixes the parts that each hold one layer's work: noiseless
Lasso recovery (`Recover`), direct fidelity estimation (`Certify`) and
channel tomography (`Process`), in a fixed count per round.  They share one
workload, rather than each having its own, so that every run can be long
enough to average out the drift of the host's speed.

During set-up each part draws ROUNDS rounds of instances from the seed;
every round holds one instance of each kind in ROUND, so any run of whole
rounds attempts the same mix of operations.  The timed loop goes through
the rounds in turn, starting over after the last, and stops at the first
round boundary after the run's time is up.  An operation builds the
program's objects (plans, oracles) afresh from the stored raw inputs, so no
object-level cache carries from one operation to the next.  The program is
reached only through `cstomo`'s public modules, looked up at call time so
that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import numpy as np

import cstomo
import cstomo.cli
import checks
from checks import CheckFailed


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


class Workload:
    """Inputs in ROUNDS rounds of the instance kinds in ROUND.

    By default one operation is one unit of work and the run as a whole has
    no check beyond those of its operations.
    """

    ROUND: tuple = ()
    ROUNDS = 1

    def rounds(self) -> list:
        size = len(self.ROUND)
        return [self.instances[i:i + size] for i in range(0, len(self.instances), size)]

    def work(self, output) -> int:
        return 1

    def finish(self) -> None:
        pass


class Sweep(Workload):
    """The paper's estimator comparison through `run_benchmark`: criterion 5's grid
    (n = 4, c = 20, gamma = 0.01) with T = 1e5 copies.

    At criterion 5's T = 1e4 the default regularisation shrinks a Lasso or
    Dantzig estimate to the zero matrix on some truths, and the sweep scores
    that non-state as a cell (see CHANGES.md); at T = 1e5 it does not happen.
    """

    name = "sweep"
    COPIES = 1e5
    ESTIMATORS = ("dantzig", "lasso", "mle")
    M_GRID = (32, 64, 96, 128, 192, 256)
    #: one one-trial sweep per round; more distinct trials than a run reaches
    ROUND = ("trial",)
    ROUNDS = 32

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        self.instances = [int(s) for s in rng.integers(0, 2**31, size=self.ROUNDS)]
        self.fidelities = {}

    def run(self, sweep_seed):
        config = cstomo.ExperimentConfig(n=4, T=self.COPIES, c=20.0, m_grid=self.M_GRID,
                                         estimators=self.ESTIMATORS, trials=1,
                                         gamma=0.01, seed=sweep_seed)
        rows, _ = cstomo.run_benchmark(config)
        return rows

    def check(self, sweep_seed, rows):
        cells = {(row.m, row.estimator): row for row in rows}
        expected = {(m, e) for m in self.M_GRID for e in self.ESTIMATORS}
        if set(cells) != expected or len(rows) != len(expected):
            raise CheckFailed(f"sweep rows {sorted(cells)} are not the grid {sorted(expected)}")
        for (m, est), row in cells.items():
            checks.check_fvdg(row.mean_fidelity, row.mean_trace_distance, f"m={m} {est}")
            self.fidelities.setdefault((m, est), []).append(row.mean_fidelity)

    def finish(self):
        """Over the run, the trace-penalty estimators reach at least MLE's fidelity at every m."""
        mean = {key: float(np.mean(v)) for key, v in self.fidelities.items()}
        for m in self.M_GRID:
            for est in ("lasso", "dantzig"):
                if mean[(m, est)] < mean[(m, "mle")]:
                    raise CheckFailed(f"m={m}: {est} mean fidelity {mean[(m, est)]:.4f} below "
                                      f"MLE's {mean[(m, 'mle')]:.4f}")

    def work(self, rows):
        return len(rows)

    def fidelity(self, sweep_seed, rows):
        return float(np.mean([row.mean_fidelity for row in rows]))


class Recover(Workload):
    """Noiseless compressed recovery with the Lasso at mu = 1e-6 (criterion 3's regime)."""

    name = "recover"
    MU = 1e-6
    #: (qubits, settings, rank) of the instances in a round: rank-1 truths at
    #: d = 16 with m = 6d, rank-1 and rank-2 truths at d = 32 with m = 8d
    ROUND = ((4, 96, 1),) * 4 + ((5, 256, 1), (5, 256, 2))
    ROUNDS = 20
    TRACE_DISTANCE_TOL = 1e-2
    KKT_TOL = 1e-8

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        self.instances = []
        for n, m, rank in self.ROUND * self.ROUNDS:
            if rank == 1:
                truth = cstomo.haar_random_pure(n, rng)
            else:
                truth = cstomo.random_rank_r_projection(n, rank, rng, group="unitary")
            paulis = tuple(cstomo.sample_paulis(n, m, with_replacement=False, rng=rng))
            self.instances.append((truth, paulis))
        self._designs = {}

    def run(self, instance):
        truth, paulis = instance
        plan = cstomo.MeasurementPlan(paulis)
        record = cstomo.simulate_measurements(plan, truth, cstomo.EXACT)
        result = cstomo.matrix_lasso(plan, record.y, self.MU)
        return record.y, result.rho_hat.mat

    def design(self, instance):
        truth, paulis = instance
        key = id(instance)
        if key not in self._designs:
            self._designs[key] = checks.design_matrix([p.codes for p in paulis], truth.d)
        return self._designs[key]

    def check(self, instance, output):
        truth, _ = instance
        y, estimate = output
        design = self.design(instance)
        gap = np.max(np.abs(y - checks.forward(design, truth.mat)))
        if gap > 1e-10:
            raise CheckFailed(f"noiseless record differs from dense Pauli traces by {gap:.3g}")
        td = checks.trace_distance(estimate, truth.mat)
        if td > self.TRACE_DISTANCE_TOL:
            raise CheckFailed(f"d={truth.d}: trace distance {td:.3g} to the truth "
                              f"exceeds {self.TRACE_DISTANCE_TOL}")
        checks.check_lasso_kkt(design, y, estimate, self.MU, self.KKT_TOL)

    def fidelity(self, instance, output):
        return checks.fidelity(output[1], instance[0].mat)


class Certify(Workload):
    """Direct fidelity estimation of rank-truncated perturbations (criterion 7's estimates)."""

    name = "certify"
    EPS = 0.05
    DELTA = 0.1
    PERTURBATION = 0.03
    #: (qubits, rank) of the instances in a round
    ROUND = ((3, 1), (3, 2), (4, 1), (4, 2))
    ROUNDS = 16

    def __init__(self, seed: int):
        rng = _rng(seed, 3)
        self.instances = []
        for n, rank in self.ROUND * self.ROUNDS:
            d = 1 << n
            truth = cstomo.random_rank_r_projection(n, rank, rng, group="unitary")
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            pert = 0.5 * (g + g.conj().T)
            noisy = cstomo.DensityMatrix(truth.mat + self.PERTURBATION * pert / np.linalg.norm(pert))
            kept, _ = cstomo.truncate_rank(noisy, rank)
            estimate = cstomo.DensityMatrix(kept.mat / kept.trace)
            reference = checks.fidelity(truth.mat, estimate.mat)
            self.instances.append((truth, estimate, int(rng.integers(0, 2**31)), reference))
        self.hits = 0
        self.checked = 0

    def run(self, instance):
        truth, estimate, op_seed, _ = instance
        oracle = cstomo.StateOracle(truth)
        return cstomo.certify_fidelity(oracle, estimate, self.EPS, self.DELTA,
                                       np.random.default_rng(op_seed))

    def check(self, instance, est):
        reference = instance[3]
        if est.copies_used <= 0:
            raise CheckFailed(f"certificate used {est.copies_used} copies")
        self.checked += 1
        self.hits += abs(est.value - reference) <= self.EPS

    def finish(self):
        """|F_hat - F| <= eps on at least a 1 - delta share of the certificates."""
        if self.hits < (1.0 - self.DELTA) * self.checked:
            raise CheckFailed(f"only {self.hits} of {self.checked} certificates within "
                              f"eps = {self.EPS} of the fidelity")

    def fidelity(self, instance, est):
        return est.value


class Process(Workload):
    """Ancilla-free channel tomography on two qubits, as `cstomo process` runs it."""

    name = "process"
    N = 2
    COPIES = 10**5
    GAMMA = 0.01
    FIDELITY_FLOOR = 0.90
    #: (Kraus rank, settings) of the instances in a round; rank 16 is a unitary
    #: followed by local depolarizing noise
    ROUND = ((1, 128), (16, 128), (1, 192), (16, 192))
    ROUNDS = 16

    def __init__(self, seed: int):
        rng = _rng(seed, 4)
        d = 1 << self.N
        self.instances = []
        for rank, m in self.ROUND * self.ROUNDS:
            channel = cstomo.process.unitary_channel(cstomo.haar_random_unitary(d, rng))
            if rank > 1:
                channel = cstomo.process.compose(
                    cstomo.process.local_depolarizing_channel(self.N, self.GAMMA), channel)
            paulis = tuple(cstomo.sample_paulis(2 * self.N, m, with_replacement=False, rng=rng))
            self.instances.append((channel, paulis, int(rng.integers(0, 2**31))))
        self._exact = {}

    def regularization(self, plan):
        return cstomo.default_mu(plan.m, self.COPIES) * plan.d / plan.m

    def run(self, instance):
        channel, paulis, op_seed = instance
        plan = cstomo.MeasurementPlan(paulis)
        record = cstomo.simulate_process_measurements(channel, plan, self.COPIES,
                                                      np.random.default_rng(op_seed))
        estimate, diagnostics = cstomo.reconstruct_channel(
            record, plan, "lasso", self.regularization(plan), cstomo.cli.BENCH_SOLVER)
        fid = cstomo.process.jamiolkowski_fidelity(channel, estimate)
        return record, estimate, diagnostics["rho_e_hat"].mat, fid

    def exact_values(self, instance):
        """Exact record values, checked once per instance against dense traces."""
        key = id(instance)
        if key not in self._exact:
            channel, paulis, _ = instance
            plan = cstomo.MeasurementPlan(paulis)
            exact = cstomo.simulate_process_measurements(channel, plan, cstomo.EXACT)
            values = exact.y / exact.normalization
            self.check_exact(channel, paulis, values)
            self._exact[key] = values
        return self._exact[key]

    @staticmethod
    def check_exact(channel, paulis, values):
        rho_e = checks.jamiolkowski(channel.kraus_operators, channel.d)
        dense = np.array([np.trace(checks.dense_pauli(p.codes) @ rho_e).real for p in paulis])
        gap = float(np.max(np.abs(values - dense)))
        if gap > 1e-10:
            raise CheckFailed(f"exact process record differs from Tr((P_A x P_B) rho_E) by {gap:.3g}")

    def check(self, instance, output):
        channel = instance[0]
        record, estimate, rho_e_hat, fid = output
        shots = self.COPIES // record.m
        checks.check_binomial_band(record.y, self.exact_values(instance),
                                   record.normalization, shots)
        checks.check_unit_trace_psd(rho_e_hat)
        reference = checks.fidelity(checks.jamiolkowski(channel.kraus_operators, channel.d),
                                    checks.jamiolkowski(estimate.kraus_operators, channel.d))
        if abs(reference - fid) > 1e-8:
            raise CheckFailed(f"Jamiolkowski fidelity {fid:.10g} differs from the "
                              f"independent value {reference:.10g}")
        if fid < self.FIDELITY_FLOOR:
            raise CheckFailed(f"Jamiolkowski fidelity {fid:.4f} below {self.FIDELITY_FLOOR}")

    def fidelity(self, instance, output):
        return output[3]


class Components(Workload):
    """Recovery, certification and channel round trips in one fixed mix.

    A round holds COUNTS[part] consecutive rounds of each part, chosen so
    that each part takes about a third of the round's time (on the 2-core
    VM: 1.6 s of `Recover`, 4 x 0.43 s of `Process`, 12 x 0.12 s of
    `Certify`).  Round i takes the parts' rounds in turn from their own
    pools, which repeat once used up.  An operation is one solve, one
    certificate or one channel round trip, and one unit of work.
    """

    name = "components"
    PARTS = (Recover, Process, Certify)
    COUNTS = {Recover: 1, Process: 4, Certify: 12}
    #: more rounds than a run reaches (10 to 13 in 55 s), so that no
    #: recovery instance repeats
    ROUNDS = 20

    def __init__(self, seed: int):
        self.parts = [part(seed) for part in self.PARTS]

    def rounds(self) -> list:
        pools = [part.rounds() for part in self.parts]
        mixed = []
        for i in range(self.ROUNDS):
            one = []
            for part, pool in zip(self.parts, pools):
                count = self.COUNTS[type(part)]
                for j in range(i * count, (i + 1) * count):
                    one.extend((part, instance) for instance in pool[j % len(pool)])
            mixed.append(one)
        return mixed

    def run(self, item):
        part, instance = item
        return part.run(instance)

    def check(self, item, output):
        part, instance = item
        part.check(instance, output)

    def fidelity(self, item, output):
        part, instance = item
        return part.fidelity(instance, output)

    def finish(self):
        for part in self.parts:
            part.finish()


WORKLOADS = {cls.name: cls for cls in (Sweep, Components)}
