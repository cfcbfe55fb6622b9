import math

import numpy as np
import pytest

from purity_witness.errors import ConsistencyError, DomainError, QubitAssumptionError
from purity_witness.quantum import DensityMatrix, wootters_concurrence
from purity_witness.witness import (
    ConcurrenceBound,
    ConcurrenceSource,
    PurityBound,
    b1_ceiling_for_purity,
    b1_max_constrained,
    b1_max_initial,
    b1_threshold,
    concurrence_bounds_from_state,
    concurrence_upper_from_b1,
    multipartite_concurrence_upper,
    postmeasurement_purity_bound,
    purity_lower_bound,
    robustness_penalty,
)

from protocols import random_density

PHI_PLUS = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


@pytest.mark.parametrize("p,expected", [(0.0, 2.5), (0.5, 2.75), (1.0, 3.0)])
def test_b1_max_initial(p, expected):
    assert b1_max_initial(p) == pytest.approx(expected, abs=1e-15)


def test_b1_threshold_values():
    assert b1_threshold(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert b1_threshold(1.0) == pytest.approx(0.0, abs=1e-15)
    assert b1_threshold(0.5) == pytest.approx(1.0 / 7.0, abs=1e-15)


def test_b1_max_constrained_branches():
    # below the threshold only the deterministic strategy survives
    assert b1_max_constrained(0.0, 0.2) == 2.0
    assert b1_max_constrained(0.0, 1.0 / 3.0) == 2.0
    # above it the closed form takes over, continuously
    p = 0.5
    t = b1_threshold(p)
    assert b1_max_constrained(p, t + 1e-12) == pytest.approx(2.0, abs=1e-9)
    assert b1_max_constrained(1.0, 1.0) == pytest.approx(3.0, abs=1e-15)
    assert b1_max_constrained(0.5, 1.0) == pytest.approx(2.75, abs=1e-15)
    assert b1_max_constrained(0.0, 1.0) == pytest.approx(2.5, abs=1e-15)


def test_b1_max_constrained_monotone_in_both_arguments():
    grid = np.linspace(0.0, 1.0, 41)
    for p in grid:
        vals = [b1_max_constrained(float(p), float(w)) for w in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    for w in grid:
        vals = [b1_max_constrained(float(p), float(w)) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_purity_lower_bound_pure_point():
    bound = purity_lower_bound(3.0)
    assert bound.purity_lower == pytest.approx(1.0, abs=1e-12)
    assert bound.bloch_lower == pytest.approx(1.0, abs=1e-12)
    assert not bound.trivial


def test_purity_lower_bound_worked_value():
    bound = purity_lower_bound(2.75)
    assert bound.purity_lower == pytest.approx(0.625, abs=1e-12)
    assert bound.bloch_lower == pytest.approx(0.5, abs=1e-12)
    assert not bound.trivial


def test_purity_lower_bound_trivial_region():
    for b1 in (0.0, 1.7, 2.5):
        bound = purity_lower_bound(b1)
        assert bound.purity_lower == 0.5
        assert bound.bloch_lower == 0.0
        assert bound.trivial


def test_purity_lower_bound_inverts_b1_max_initial():
    # the two closed forms are inverse to each other on the active branch
    for p in np.linspace(0.0, 1.0, 21):
        bound = purity_lower_bound(b1_max_initial(float(p)))
        assert bound.bloch_lower == pytest.approx(p, abs=1e-12)


def test_b1_above_qubit_ceiling_is_hard_error():
    with pytest.raises(QubitAssumptionError):
        purity_lower_bound(3.0000001)
    with pytest.raises(QubitAssumptionError):
        concurrence_upper_from_b1(3.5)


def test_b1_outside_range_rejected():
    with pytest.raises(DomainError):
        purity_lower_bound(-0.1)
    with pytest.raises(DomainError):
        purity_lower_bound(4.1)


def test_postmeasurement_bound_matches_bloch_form():
    # rational expression in (B1, P) equals (1 + w^2)/2 with
    # w = (4 B1 - 7 - p)/(3 + p)
    for p in np.linspace(0.0, 1.0, 11):
        pur = 0.5 * (1.0 + p * p)
        lo = 2.0 + 1e-6
        hi = b1_max_initial(float(p))
        if hi <= lo:
            continue
        for b1 in np.linspace(lo, hi, 9):
            w = (4.0 * b1 - 7.0 - p) / (3.0 + p)
            expected = 0.5 * (1.0 + min(max(w, 0.0), 1.0) ** 2)
            bound = postmeasurement_purity_bound(float(b1), pur)
            assert bound.purity_lower == pytest.approx(expected, abs=1e-10)


def test_postmeasurement_bound_saturation():
    bound = postmeasurement_purity_bound(3.0, 1.0)
    assert bound.purity_lower == pytest.approx(1.0, abs=1e-12)
    assert bound.bloch_lower == pytest.approx(1.0, abs=1e-12)


def test_postmeasurement_bound_trivial_below_two():
    bound = postmeasurement_purity_bound(1.9, 0.8)
    assert bound.purity_lower == 0.5
    assert bound.trivial


def test_postmeasurement_bound_consistency_check():
    # B1 = 2.9 requires initial Bloch length >= 0.8, purity >= 0.82
    with pytest.raises(ConsistencyError):
        postmeasurement_purity_bound(2.9, 0.5)


def test_postmeasurement_bound_purity_domain():
    with pytest.raises(DomainError):
        postmeasurement_purity_bound(2.5, 0.4)
    with pytest.raises(DomainError):
        postmeasurement_purity_bound(2.5, 1.1)


def test_b1_ceiling_for_purity_domain():
    # below 1/2 the Bloch length sqrt(2P - 1) has no real value
    with pytest.raises(DomainError):
        b1_ceiling_for_purity(0.3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PurityBound(purity_lower=0.6, bloch_lower=0.0, trivial=False),
        lambda: ConcurrenceBound(upper=1.5, source=ConcurrenceSource.TEMPORAL),
        lambda: ConcurrenceBound(upper=0.5, source=ConcurrenceSource.GLOBAL_LOCAL, lower=-0.1),
        lambda: ConcurrenceBound(upper=0.5, source=ConcurrenceSource.GLOBAL_LOCAL, lower=0.6),
    ],
    ids=["purity_not_bloch", "upper_above_one", "lower_below_zero", "lower_above_upper"],
)
def test_bounds_reject_inconsistent_fields(build):
    with pytest.raises(DomainError):
        build()


def test_robustness_penalty_linear_form():
    assert robustness_penalty(1.0, 0.1) == pytest.approx(0.1, abs=1e-15)
    assert robustness_penalty(0.0, 0.1) == pytest.approx(0.075, abs=1e-15)
    # matches the exact drop of the constrained maximum
    for p in (0.3, 0.7, 1.0):
        for eps in (0.01, 0.1, 0.3):
            drop = b1_max_constrained(p, 1.0) - b1_max_constrained(p, 1.0 - eps)
            assert robustness_penalty(p, eps) == pytest.approx(drop, abs=1e-12)


def test_robustness_penalty_threshold_guard():
    with pytest.raises(DomainError):
        robustness_penalty(0.0, 0.7)  # 1 - eps below the 1/3 threshold


def test_concurrence_upper_from_b1_values():
    assert concurrence_upper_from_b1(3.0).upper == pytest.approx(0.0, abs=1e-12)
    assert concurrence_upper_from_b1(2.75).upper == pytest.approx(
        math.sqrt(0.75), abs=1e-12
    )
    b = concurrence_upper_from_b1(2.0)
    assert b.upper == 1.0
    assert b.trivial
    assert b.source is ConcurrenceSource.TEMPORAL


def test_concurrence_sandwich_contains_wootters():
    rng = np.random.default_rng(31)
    for k in range(500):
        rho = random_density(4, int(rng.integers(1, 5)), k)
        c = wootters_concurrence(rho)
        bound = concurrence_bounds_from_state(rho)
        assert bound.lower <= c + 1e-7
        assert c <= bound.upper + 1e-7


def test_concurrence_sandwich_tight_for_maximally_entangled():
    bound = concurrence_bounds_from_state(DensityMatrix(PHI_PLUS))
    assert bound.lower == pytest.approx(1.0, abs=1e-9)
    assert bound.upper == pytest.approx(1.0, abs=1e-9)


def test_multipartite_bound_bipartite_case():
    # n = 2 with both marginals maximally mixed: C <= sqrt(2 - 2*0.5)... = 1
    assert multipartite_concurrence_upper(2, [0.5, 0.5]) == pytest.approx(
        math.sqrt(4.0 - 2.0 - 1.0), abs=1e-12
    )
    # pure product marginals give zero entanglement capacity
    assert multipartite_concurrence_upper(2, [1.0, 1.0]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_multipartite_bound_three_qubits():
    val = multipartite_concurrence_upper(3, [0.5, 0.5, 0.5])
    assert val == pytest.approx(2.0 ** (-0.5) * math.sqrt(4.5), abs=1e-12)


def test_multipartite_bound_without_overflow_at_1024_qubits():
    # 2.0**1024 overflows; pure marginals leave 2 sqrt(1 - 1026 / 2**1024)
    assert multipartite_concurrence_upper(1024, [1.0] * 1024) == 2.0
    assert multipartite_concurrence_upper(1024, [0.5] * 1024) == 2.0


def test_multipartite_bound_validation():
    with pytest.raises(DomainError):
        multipartite_concurrence_upper(1, [1.0])
    with pytest.raises(DomainError):
        multipartite_concurrence_upper(2, [0.5])
    with pytest.raises(DomainError):
        multipartite_concurrence_upper(2, [0.4, 0.5])
