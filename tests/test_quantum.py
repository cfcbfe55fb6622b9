import numpy as np
import pytest

from purity_witness.errors import DimensionError, DomainError
from purity_witness.quantum import (
    PAULI,
    BlochState,
    DensityMatrix,
    Effect,
    bloch_to_density,
    density_to_bloch,
    partial_trace,
    pauli_dot,
    purity,
    trace_product,
    vector_length,
    wootters_concurrence,
)
from purity_witness.witness import bloch_length_from_purity

from protocols import random_density

PHI_PLUS = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


def test_purity_maximally_mixed():
    assert purity(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-12)


def test_purity_pure_state():
    assert purity(DensityMatrix(np.diag([1.0, 0.0]))) == pytest.approx(1.0, abs=1e-12)


def test_purity_bloch_length_relation():
    rho = bloch_to_density(BlochState(0.6, np.array([0.0, 0.0, 1.0])))
    assert purity(rho) == pytest.approx(0.68, abs=1e-12)


def test_purity_bloch_relation_random_directions():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = rng.uniform(0.0, 1.0)
        rho = bloch_to_density(BlochState(p, v))
        assert purity(rho) == pytest.approx(0.5 * (1 + p * p), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 9])
def test_trace_product_is_the_trace_of_the_matrix_product(d):
    # within a bound set from float64's epsilon, since the products are added
    # in another order than a matrix product adds them; d = 9 sums pairwise
    rng = np.random.default_rng(d)
    a = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ref = np.trace(a @ b, axis1=-2, axis2=-1).real
    bound = 4 * d * d * np.finfo(float).eps * (np.abs(a) * np.abs(b.T)).sum(axis=(-2, -1))
    assert np.all(np.abs(trace_product(a, b) - ref) <= bound)


def test_pauli_dot_and_vector_length_match_their_blas_forms():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(4, 5, 3))
    # each entry of v.sigma is one coordinate or its negative, so equal exactly
    assert np.array_equal(pauli_dot(v), np.tensordot(v, PAULI, axes=1))
    for u in v.reshape(-1, 3):
        assert vector_length(u) == pytest.approx(np.linalg.norm(u), rel=4 * np.finfo(float).eps)


def test_density_matrix_rejects_empty():
    with pytest.raises(DimensionError):
        DensityMatrix(np.zeros((0, 0)))


def test_density_matrix_rejects_nonhermitian():
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(DomainError):
        DensityMatrix(np.diag([1.1, -0.1]))


def test_bloch_to_density_north_pole():
    rho = bloch_to_density(BlochState(1.0, np.array([0.0, 0.0, 1.0])))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_bloch_to_density_zero_length():
    rho = bloch_to_density(BlochState(0.0, np.array([1.0, 0.0, 0.0])))
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)


def test_bloch_to_density_x_direction():
    rho = bloch_to_density(BlochState(0.5, np.array([1.0, 0.0, 0.0])))
    np.testing.assert_allclose(
        rho.matrix, np.array([[0.5, 0.25], [0.25, 0.5]]), atol=1e-15
    )


def test_bloch_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = rng.uniform(0.0, 1.0)
        s = density_to_bloch(bloch_to_density(BlochState(p, v)))
        assert s.length == pytest.approx(p, abs=1e-12)
        if p > 1e-9:
            np.testing.assert_allclose(s.direction, v, atol=1e-10)


@pytest.mark.parametrize(
    "length,direction",
    [
        (0.5, [0.0, 1.0]),
        (0.5, [[0.0, 0.0, 1.0]]),
        (-0.1, [0.0, 0.0, 1.0]),
        (1.1, [0.0, 0.0, 1.0]),
        (np.nan, [0.0, 0.0, 1.0]),
    ],
)
def test_bloch_state_rejects_malformed_direction_or_length(length, direction):
    with pytest.raises(DomainError):
        BlochState(length, np.array(direction))


def test_density_to_bloch_zero_vector_convention():
    s = density_to_bloch(DensityMatrix(np.eye(2) / 2))
    assert s.length == 0.0
    np.testing.assert_allclose(s.direction, [0.0, 0.0, 1.0])


def test_density_to_bloch_excited_state():
    s = density_to_bloch(DensityMatrix(np.diag([0.0, 1.0])))
    assert s.length == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(s.direction, [0.0, 0.0, -1.0], atol=1e-12)


def test_density_to_bloch_requires_qubit():
    with pytest.raises(DimensionError):
        density_to_bloch(DensityMatrix(np.eye(3) / 3))


@pytest.mark.parametrize("pur,expected", [(0.5, 0.0), (1.0, 1.0), (0.68, 0.6)])
def test_bloch_length_from_purity(pur, expected):
    assert bloch_length_from_purity(pur) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("pur", [0.49, 1.01, -1.0])
def test_bloch_length_from_purity_domain(pur):
    with pytest.raises(DomainError):
        bloch_length_from_purity(pur)


def test_partial_trace_maximally_entangled():
    red = partial_trace(DensityMatrix(PHI_PLUS), "A")
    np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_basis_state():
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    red = partial_trace(DensityMatrix(rho), "A")
    np.testing.assert_allclose(red.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_tensor_factors():
    for seed in range(20):
        rho_a = random_density(2, 2, seed)
        rho_b = random_density(2, 2, seed + 1000)
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
        np.testing.assert_allclose(
            partial_trace(joint, "A").matrix, rho_a.matrix, atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(joint, "B").matrix, rho_b.matrix, atol=1e-12
        )


def test_partial_trace_dim_check():
    with pytest.raises(DimensionError):
        partial_trace(DensityMatrix(np.eye(2) / 2), "A")
    with pytest.raises(DomainError):
        partial_trace(DensityMatrix(PHI_PLUS), "C")


def test_concurrence_maximally_entangled():
    assert wootters_concurrence(DensityMatrix(PHI_PLUS)) == pytest.approx(1.0, abs=1e-9)


def test_concurrence_product_pure():
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    assert wootters_concurrence(DensityMatrix(rho)) == pytest.approx(0.0, abs=1e-9)


def test_concurrence_werner_closed_form():
    for q in (0.2, 1 / 3, 0.5, 0.8, 1.0):
        rho = DensityMatrix(q * PHI_PLUS + (1 - q) * np.eye(4) / 4)
        expected = max(0.0, (3 * q - 1) / 2)
        assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-9)


def test_concurrence_range_and_separable_products():
    rng = np.random.default_rng(11)
    for k in range(1000):
        rho = random_density(4, int(rng.integers(1, 5)), k)
        c = wootters_concurrence(rho)
        assert 0.0 <= c <= 1.0
    for k in range(200):
        rho_a = random_density(2, 2, k)
        rho_b = random_density(2, 2, k + 5000)
        prod = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
        assert wootters_concurrence(prod) == pytest.approx(0.0, abs=1e-9)


def test_concurrence_dim_check():
    with pytest.raises(DimensionError):
        wootters_concurrence(DensityMatrix(np.eye(2) / 2))


def test_random_density_rank_one_is_pure():
    for seed in range(10):
        assert purity(random_density(2, 1, seed)) == pytest.approx(1.0, abs=1e-10)


def test_random_density_full_rank_valid():
    rho = random_density(4, 4, 0)
    assert rho.dim == 4
    assert 0.25 <= purity(rho) <= 1.0


def test_random_density_deterministic():
    np.testing.assert_array_equal(
        random_density(4, 2, 123).matrix, random_density(4, 2, 123).matrix
    )


def test_random_density_rank_domain():
    with pytest.raises(DomainError):
        random_density(2, 3, 0)
    with pytest.raises(DomainError):
        random_density(2, 0, 0)


def test_effect_eigenvalue_window():
    with pytest.raises(DomainError):
        Effect(np.diag([1.2, 0.0]))
    with pytest.raises(DomainError):
        Effect(np.diag([-0.2, 0.5]))
    Effect(np.diag([1.0, 0.0]))  # boundary is fine


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("cls", [DensityMatrix, Effect])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_validated_matrices_reject_non_finite_entries(dim, cls, value):
    # every comparison with NaN is False, and m - m^dagger warns on inf
    for entry in ((0, 0), (0, 1), (1, 0), (1, 1)):
        m = np.eye(dim, dtype=complex) / dim
        m[entry] = value
        with pytest.raises(DomainError, match=rf"non-finite entries at \[{entry[0]}, {entry[1]}\]$"):
            cls(m)
    m = np.eye(dim, dtype=complex) / dim
    m[0, 0], m[1, 1] = np.inf, value
    with pytest.raises(DomainError, match=r"non-finite entries at \[0, 0\], \[1, 1\]$"):
        cls(m)


def test_huge_finite_entries_fail_the_value_checks():
    # sums of such entries overflow to inf, which the value checks reject
    with pytest.raises(DomainError, match="eigenvalues"):
        Effect(np.diag([1e308, 1e308]))
    with pytest.raises(DomainError, match="trace"):
        DensityMatrix(np.diag([1e308, 1e308]))
    with pytest.raises(DomainError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1e308], [1e308j, 0.5]]))


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_bloch_direction_rejects_non_finite_entries(index, value):
    direction = np.zeros(3)
    direction[index] = value
    with pytest.raises(DomainError, match=rf"non-finite entries at \[{index}\]$"):
        BlochState(0.5, direction)
