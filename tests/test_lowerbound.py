import json

import numpy as np
import pytest

from cstomo.cli import density_matrix_from_dict, main
from cstomo.lowerbound import (
    PackingSet,
    VacuousBoundError,
    alpha_bound,
    generate_packing,
    minimax_copies_bound,
    packing_rate_c,
    verify_packing,
)
from cstomo.states import DensityMatrix, trace_distance


def test_alpha_formula_and_monotonicity():
    assert alpha_bound(16, 2) == pytest.approx(np.sqrt(4 * np.log(16**4 * np.pi / 8) / 32))
    assert alpha_bound(8, 1) > alpha_bound(8, 2) > alpha_bound(8, 4)
    assert alpha_bound(8, 2) > alpha_bound(16, 2) > alpha_bound(32, 2)
    assert alpha_bound(8, 8) == pytest.approx(np.sqrt(4 * np.log(8**4 * np.pi / 8)) / 8)
    with pytest.raises(ValueError):
        alpha_bound(8, 9)


def test_packing_rate_domain():
    assert packing_rate_c(16, 2, 0.4) > 0
    with pytest.raises(ValueError):
        packing_rate_c(16, 2, 0.9)  # above 1 - r/d


def test_generate_and_verify_packing():
    rng = np.random.default_rng(0)
    packing = generate_packing(8, 1, 0.4, 12, 2000, rng)
    assert packing.complete and packing.size == 12
    assert verify_packing(packing)
    # exhaustive pairwise separation, independent route
    for i in range(packing.size):
        for j in range(i + 1, packing.size):
            assert trace_distance(packing.states[i], packing.states[j]) >= 0.4


def test_single_member_packing_is_trivially_separated():
    rng = np.random.default_rng(1)
    packing = generate_packing(8, 2, 0.3, 1, 100, rng)
    assert packing.size == 1
    assert verify_packing(packing)


def test_incomplete_packing_flagged():
    rng = np.random.default_rng(2)
    packing = generate_packing(4, 1, 0.7, 500, 40, rng)
    assert not packing.complete
    assert packing.size < 500


def test_verify_rejects_tampered_set():
    rng = np.random.default_rng(3)
    packing = generate_packing(8, 1, 0.4, 3, 500, rng)
    tampered = PackingSet(packing.states + (packing.states[0],),
                          packing.epsilon, packing.alpha, packing.rejections)
    assert not verify_packing(tampered)  # duplicate breaks separation
    biased = PackingSet((DensityMatrix(np.diag([1, 0, 0, 0, 0, 0, 0, 0]).astype(complex)),),
                        packing.epsilon, 0.05, 0)
    assert not verify_packing(biased)  # basis state has a Pauli expectation of 1


def test_manifest(tmp_path):
    out_path = tmp_path / "packing.json"
    assert main(["packing", "--d", "8", "--epsilon", "0.4", "--size", "2",
                 "--seed", "4", "--output", str(out_path)]) == 0
    manifest = json.loads(out_path.read_text())
    assert manifest["size"] == 2 and manifest["seed"] == 4
    states = tuple(density_matrix_from_dict(s) for s in manifest["states"])
    assert verify_packing(PackingSet(states, manifest["epsilon"], manifest["alpha"],
                                     manifest["rejections"]))


def test_minimax_bound_values():
    # doubling s at delta=0 adds ln 2 / (4 alpha^2)
    a = 0.3
    t1 = minimax_copies_bound(20, a, 0.0)
    t2 = minimax_copies_bound(40, a, 0.0)
    assert t2 - t1 == pytest.approx(np.log(2) / (4 * a * a))
    # boundary: s = e at delta = 0
    assert minimax_copies_bound(np.e, 1.0, 0.0) == 0.0
    # monotone: increasing in s, decreasing in alpha and delta
    assert minimax_copies_bound(40, a, 0.0) > minimax_copies_bound(20, a, 0.0)
    assert minimax_copies_bound(20, 0.2, 0.0) > minimax_copies_bound(20, 0.4, 0.0)
    assert minimax_copies_bound(20, a, 0.0) > minimax_copies_bound(20, a, 0.5)


def test_minimax_bound_signals_vacuity():
    with pytest.raises(VacuousBoundError):
        minimax_copies_bound(2, 0.5, 0.9)
    with pytest.raises(ValueError):
        minimax_copies_bound(1, 0.5, 0.0)
    with pytest.raises(ValueError):
        minimax_copies_bound(20, 0.0, 0.0)
    # s in [1, 2) is a valid but vacuous packing size (the d = 8 rate gives 1.674)
    with pytest.raises(VacuousBoundError):
        minimax_copies_bound(1.674, 0.5, 0.0)
    # s < 1 and non-finite s are invalid inputs, not vacuous bounds
    for bad_s in (0.5, float("nan")):
        with pytest.raises(ValueError) as excinfo:
            minimax_copies_bound(bad_s, 0.5, 0.0)
        assert not isinstance(excinfo.value, VacuousBoundError)
