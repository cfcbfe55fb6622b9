import hashlib
import platform

import numpy as np
import pytest

from purity_witness import kernels, sequence
from purity_witness.certificate import certify
from purity_witness.counts import SETTING_PAIRS, CountsRecord
from purity_witness.errors import DimensionError, DomainError
from purity_witness.quantum import (
    BinaryMeasurement,
    BlochState,
    DensityMatrix,
    Effect,
    bloch_to_density,
    trace_product,
)
from purity_witness.sequence import (
    CorrelationTable,
    LinearFunctional,
    ProtocolPair,
    b1,
    b1_weights,
    correlations,
    evaluate_functional,
    params_to_protocol,
    qudit_maxmixed_protocol,
    qutrit_value4_protocol,
    theorem2_protocol,
)

from protocols import random_density, random_qubit_protocol, run_fresh


def _deterministic_plus_protocol() -> ProtocolPair:
    meas = BinaryMeasurement(
        Effect(np.eye(2)),
        DensityMatrix(np.eye(2) / 2),
        DensityMatrix(np.eye(2) / 2),
    )
    return ProtocolPair(meas, meas)


def _never_plus_protocol() -> ProtocolPair:
    meas = BinaryMeasurement(
        Effect(np.zeros((2, 2))),
        DensityMatrix(np.eye(2) / 2),
        DensityMatrix(np.eye(2) / 2),
    )
    return ProtocolPair(meas, meas)


def test_theorem2_table_entries_at_unit_lengths():
    rho, protocol = theorem2_protocol(1.0, 1.0)
    t = correlations(rho, protocol)
    assert t.prob("+", "+", 0, 0) == pytest.approx(1.0, abs=1e-12)
    assert t.prob("+", "+", 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert t.prob("+", "-", 0, 1) == pytest.approx(1.0, abs=1e-12)
    assert t.prob("+", "-", 1, 0) == pytest.approx(0.0, abs=1e-12)
    assert b1(t) == pytest.approx(3.0, abs=1e-12)


def test_deterministic_plus_has_unit_plus_plus():
    t = correlations(DensityMatrix(np.eye(2) / 2), _deterministic_plus_protocol())
    for x in (0, 1):
        for y in (0, 1):
            assert t.prob("+", "+", x, y) == pytest.approx(1.0, abs=1e-12)
    assert b1(t) == pytest.approx(2.0, abs=1e-12)


def test_never_plus_gives_zero_b1():
    t = correlations(DensityMatrix(np.eye(2) / 2), _never_plus_protocol())
    assert b1(t) == pytest.approx(0.0, abs=1e-12)


def test_random_tables_normalized_per_setting():
    rng = np.random.default_rng(5)
    for k in range(200):
        protocol = random_qubit_protocol(rng)
        rho = random_density(2, int(rng.integers(1, 3)), k)
        t = correlations(rho, protocol)
        sums = t.probs.sum(axis=(0, 1))
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)
        assert t.probs.min() >= -1e-12


def test_b1_invariant_under_setting_swap():
    rng = np.random.default_rng(17)
    for k in range(200):
        protocol = random_qubit_protocol(rng)
        rho = random_density(2, 2, k)
        assert b1(correlations(rho, protocol)) == pytest.approx(
            b1(correlations(rho, ProtocolPair(protocol.meas1, protocol.meas0))), abs=1e-12
        )


def test_dimension_mismatch_rejected():
    _, protocol = qutrit_value4_protocol()
    with pytest.raises(DimensionError):
        correlations(DensityMatrix(np.eye(2) / 2), protocol)
    qubit, qutrit = DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3)
    with pytest.raises(DimensionError):
        BinaryMeasurement(Effect(np.eye(2)), qubit, qutrit)
    with pytest.raises(DimensionError):
        ProtocolPair(_deterministic_plus_protocol().meas0, protocol.meas0)


def test_evaluate_functional_b1_pattern_matches_b1():
    rng = np.random.default_rng(2)
    f = b1_weights()
    for k in range(50):
        rho = random_density(2, 2, k)
        t = correlations(rho, random_qubit_protocol(rng))
        assert evaluate_functional(f, t) == pytest.approx(b1(t), abs=1e-12)


def test_evaluate_functional_all_ones_gives_four():
    f = LinearFunctional(np.ones((2, 2, 2, 2)))
    t = correlations(DensityMatrix(np.eye(2) / 2), _deterministic_plus_protocol())
    assert evaluate_functional(f, t) == pytest.approx(4.0, abs=1e-12)


def test_zero_functional_rejected():
    # the type requires finite weights of shape (2, 2, 2, 2), one of them
    # nonzero
    with pytest.raises(DomainError):
        LinearFunctional(np.zeros((2, 2, 2, 2)))
    for weights in (np.ones((2, 2, 2)), np.full((2, 2, 2, 2), np.inf)):
        with pytest.raises(DomainError):
            LinearFunctional(weights)


def test_theorem2_closed_form_grid():
    for p in np.linspace(0.0, 1.0, 21):
        for w in np.linspace(0.0, 1.0, 21):
            rho, protocol = theorem2_protocol(float(p), float(w))
            val = b1(correlations(rho, protocol))
            expected = 1.0 + 0.5 * (1.0 + w) + 0.25 * (1.0 + p) * (1.0 + w)
            assert val == pytest.approx(expected, abs=1e-12)


def test_theorem2_worked_point():
    rho, protocol = theorem2_protocol(0.5, 0.5)
    assert b1(correlations(rho, protocol)) == pytest.approx(2.3125, abs=1e-12)


def test_theorem2_domain():
    with pytest.raises(DomainError):
        theorem2_protocol(1.2, 0.5)
    with pytest.raises(DomainError):
        theorem2_protocol(0.5, -0.1)


def test_theorem2_protocol_is_the_paper_protocol_bytewise():
    # the search builder at the theorem 2 point lays out the paper's states
    # as the Bloch codec does, at the subnormal edges too; measurement 0's
    # "-" post, reached with probability 0, is its "+" post
    def bloch(length, z):
        return bloch_to_density(BlochState(length, np.array([0.0, 0.0, z]))).matrix.tobytes()

    axis = np.linspace(0.0, 1.0, 21)
    points = [(float(p), float(w)) for p in axis for w in axis]
    one, proj0 = np.eye(2, dtype=complex), np.diag([1.0, 0.0]).astype(complex)
    for p, w in points + [(5e-324, 1.0), (1.0, 5e-324)]:
        rho, protocol = theorem2_protocol(p, w)
        m0, m1 = protocol.meas0, protocol.meas1
        assert rho.matrix.tobytes() == bloch(p, 1.0)
        assert m0.post_plus is m0.post_minus
        assert m0.post_plus.matrix.tobytes() == bloch(w, -1.0)
        for post in (m1.post_plus, m1.post_minus):
            assert post.matrix.tobytes() == bloch(w, 1.0)
        assert m0.effect_plus.matrix.tobytes() == one.tobytes()
        assert m1.effect_plus.matrix.tobytes() == proj0.tobytes()


def test_builder_reuses_effects_keyed_on_the_point_bytes():
    # 0.0 == -0.0, yet a0 = -0.0 gives effects with other bytes; a build at
    # -0.0 right after one at 0.0 must not be handed the cached 0.0 effects
    zero, negative = [0.0, 0.5, 0.5, 1.0, 0.3], [-0.0, 0.5, 0.5, 1.0, 0.3]
    sequence._search_effects.cache_clear()
    _, fresh = params_to_protocol(negative, 0.5, 0.5, 2)
    _, at_zero = params_to_protocol(zero, 0.5, 0.5, 2)
    assert at_zero.effects.tobytes() != fresh.effects.tobytes()
    _, again = params_to_protocol(zero, 0.5, 0.5, 2)
    assert again.meas0.effect_plus is at_zero.meas0.effect_plus
    _, cached = params_to_protocol(negative, 0.5, 0.5, 2)
    assert cached.effects.tobytes() == fresh.effects.tobytes()


def test_qutrit_value4():
    rho, protocol = qutrit_value4_protocol()
    t = correlations(rho, protocol)
    assert b1(t) == pytest.approx(4.0, abs=1e-15)
    np.testing.assert_allclose(t.probs.sum(axis=(0, 1)), 1.0, atol=1e-12)


def test_qutrit_protocol_on_maximally_mixed_input():
    _, protocol = qutrit_value4_protocol()
    t = correlations(DensityMatrix(np.eye(3) / 3), protocol)
    val = b1(t)
    assert val == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert val <= 3.0


def _random_qutrit_protocol(rng) -> ProtocolPair:
    """Random qutrit effects (half of them projective); about half of the
    samples re-prepare the best "+" states for their effects (top
    eigenvectors of +-(E_{+|0} - E_{+|1}))."""

    def effect_matrix():
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        lam = rng.uniform(0.0, 1.0, 3)
        if rng.random() < 0.5:
            lam = np.round(lam)  # projective
        m = (u * lam) @ u.conj().T
        return 0.5 * (m + m.conj().T)

    def random_post():
        return random_density(3, int(rng.integers(1, 4)), int(rng.integers(0, 2**31)))

    e0, e1 = effect_matrix(), effect_matrix()
    posts = [random_post(), random_post()]
    if rng.random() < 0.5:
        _, vecs = np.linalg.eigh(e0 - e1)
        posts = [DensityMatrix(np.outer(v, v.conj())) for v in (vecs[:, -1], vecs[:, 0])]
    return ProtocolPair(
        BinaryMeasurement(Effect(e0), posts[0], random_post()),
        BinaryMeasurement(Effect(e1), posts[1], random_post()),
    )


def test_qutrit_ceiling_over_random_protocols_on_maximally_mixed_input():
    # on I/3 no qutrit protocol exceeds max(3 - 1/3, 4(1 - 1/3)) = 8/3; the
    # samples that re-prepare the best "+" states reach that value
    rng = np.random.default_rng(31)
    rho = DensityMatrix(np.eye(3) / 3)
    vals = [b1(correlations(rho, _random_qutrit_protocol(rng))) for _ in range(300)]
    assert max(vals) <= 8.0 / 3.0 + 1e-12
    assert max(vals) >= 8.0 / 3.0 - 1e-9
    assert min(vals) >= 0.0


def _reference_table(rho_in, protocol) -> np.ndarray:
    """The per-entry simulation loop: one trace_product of two matrices per
    probability."""
    t = np.empty((2, 2, 2, 2))
    pairs = (protocol.meas0, protocol.meas1)
    for x, mx in enumerate(pairs):
        for i, (eff, post) in enumerate(
            ((mx.effect_plus, mx.post_plus), (mx.effect_minus, mx.post_minus))
        ):
            p_first = float(trace_product(eff.matrix, rho_in.matrix))
            p_first = min(max(p_first, 0.0), 1.0)
            for y, my in enumerate(pairs):
                for j, eff_b in enumerate((my.effect_plus, my.effect_minus)):
                    p_second = float(trace_product(eff_b.matrix, post.matrix))
                    p_second = min(max(p_second, 0.0), 1.0)
                    t[i, j, x, y] = p_first * p_second
    return t


def test_contraction_matches_per_entry_loop_bitwise():
    rng = np.random.default_rng(41)
    cases = []
    for k in range(200):
        rho = random_density(2, int(rng.integers(1, 3)), k)
        cases.append((rho, random_qubit_protocol(rng)))
    for _ in range(100):
        rho = random_density(3, int(rng.integers(1, 4)), int(rng.integers(0, 2**31)))
        protocol = _random_qutrit_protocol(rng)
        cases += [(rho, protocol), (DensityMatrix(np.eye(3) / 3), protocol)]
    cases.append(qutrit_value4_protocol())
    cases += [qudit_maxmixed_protocol(d) for d in (4, 5, 8)]
    cases += [theorem2_protocol(p, w) for p in (0.0, 0.3, 1.0) for w in (0.0, 0.7, 1.0)]
    for rho, protocol in cases:
        assert np.array_equal(correlations(rho, protocol).probs, _reference_table(rho, protocol))


def test_simulation_does_not_revalidate(monkeypatch):
    theorem2_protocol(0.5, 0.5)  # validates the p- and w-independent parts
    calls = []
    for cls in (Effect, DensityMatrix):
        def counted(self, _validate=cls.__post_init__):
            calls.append(type(self).__name__)
            _validate(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    rho, protocol = theorem2_protocol(0.3, 0.7)
    assert len(calls) <= 3  # the input and the two re-prepared states
    calls.clear()
    correlations(rho, protocol)
    assert calls == []
    rho, protocol = qutrit_value4_protocol()
    calls.clear()
    correlations(rho, protocol)
    assert calls == []


def test_measurement_holds_its_validated_minus_effect():
    _, protocol = theorem2_protocol(0.5, 0.5)
    rng = np.random.default_rng(3)
    for m in (protocol.meas0, protocol.meas1, random_qubit_protocol(rng).meas0):
        assert m.effect_minus is m.effect_plus.complement()
        np.testing.assert_array_equal(
            m.effect_minus.matrix, np.eye(2) - m.effect_plus.matrix
        )


def test_protocol_arrays_are_read_only_stacks():
    _, protocol = qutrit_value4_protocol()
    for arr, names in (
        (protocol.effects, ("effect_plus", "effect_minus")),
        (protocol.posts, ("post_plus", "post_minus")),
    ):
        assert arr.shape == (2, 2, 3, 3)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0, 0] = 0.0
        for x, meas in enumerate((protocol.meas0, protocol.meas1)):
            for i, name in enumerate(names):
                m = getattr(meas, name).matrix
                np.testing.assert_array_equal(arr[x, i], m)


@pytest.mark.parametrize("d,expected", [(4, 3.0), (5, 3.2), (8, 3.5)])
def test_qudit_maxmixed_values(d, expected):
    rho, protocol = qudit_maxmixed_protocol(d)
    assert b1(correlations(rho, protocol)) == pytest.approx(expected, abs=1e-12)


def test_canonical_qudit_protocols_share_one_maximally_mixed_state(monkeypatch):
    # states are immutable, so each protocol builds and validates I/d once
    validations = []
    post_init = DensityMatrix.__post_init__
    monkeypatch.setattr(
        DensityMatrix, "__post_init__", lambda self: validations.append(post_init(self))
    )
    rho, protocol = qudit_maxmixed_protocol(5)
    assert rho is protocol.meas0.post_minus is protocol.meas1.post_minus
    assert len(validations) == 3
    validations.clear()
    _, protocol = qutrit_value4_protocol()
    assert protocol.meas0.post_minus is protocol.meas1.post_minus
    assert len(validations) == 4


def test_qudit_maxmixed_domain():
    with pytest.raises(DomainError):
        qudit_maxmixed_protocol(3)


@pytest.mark.parametrize("d", [4.0, 4.5, float("nan"), float("inf"), np.int64(5)])
def test_qudit_maxmixed_rejects_d_that_is_not_an_int(d):
    # the builder's rule for d: a typed error, not numpy's TypeError
    with pytest.raises(DimensionError, match="d must be an int"):
        qudit_maxmixed_protocol(d)


def test_qubit_ceiling_over_random_protocols():
    # dimension-witness property: no qubit protocol exceeds 3.  B1 is linear
    # in each state, so for fixed effects the optimal pure states (p = w = 1)
    # dominate every other choice of states.
    # The effects a(1 + b c.sigma) with 0 <= b <= 1 and 0 <= a <= 1/(1 + b)
    # are all the qubit effects r + q c.sigma with 0 <= q <= r <= 1 - q.
    rng = np.random.default_rng(23)
    n = 10_000
    b0 = rng.uniform(0.0, 1.0, n)
    a0 = rng.uniform(0.0, 1.0 / (1.0 + b0))
    b1_ = rng.uniform(0.0, 1.0, n)
    a1 = rng.uniform(0.0, 1.0 / (1.0 + b1_))
    theta = rng.uniform(0.0, np.pi, n)

    vals = kernels._objective(np.stack([a0, b0, a1, b1_, theta], axis=-1), 1.0, 1.0, 2.0)
    assert vals.max() <= 3.0 + 1e-10
    assert vals.min() >= 0.0


def test_correlation_table_validation():
    bad = np.full((2, 2, 2, 2), 0.25)
    bad[0, 0, 0, 0] = 0.5  # slice (0,0) now sums to 1.25
    with pytest.raises(DomainError):
        CorrelationTable(bad)
    with pytest.raises(DomainError, match="shape"):
        CorrelationTable(np.full((4, 4), 0.25))


@pytest.mark.parametrize("index", [(0, 0, 0, 0), (1, 0, 1, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_correlation_table_rejects_non_finite_entries(index, value):
    table = np.full((2, 2, 2, 2), 0.25)
    table[index] = value
    with pytest.raises(DomainError, match=rf"non-finite entries at \[{', '.join(map(str, index))}\]$"):
        CorrelationTable(table)


# sha256 of the correlation tables' bytes (signed zeros included) and of the
# certificate texts; computed before the simulation and certificate paths
# moved to Python floats, for numpy 2.4 on x86-64.  The random qubit entry was
# taken again when correlations() and the random inputs stopped using BLAS:
# its traces now sum entry products in a fixed order, which moved no table
# entry by more than 3.3e-16, and the old value held only under OpenBLAS's
# AVX-512 kernel.  Every entry holds under any OpenBLAS kernel (see the test
# below).
_SIMULATION_DIGESTS = {
    "theorem2 grid": "fcf0f23fb51711059d189ffb7393af233a263a1f525d9f3c00aecf0ad292bac2",
    "random qubit": "9cc2910bd8f37b60eb4b6ec928654b2203d50b3ac28a6b4f546b9b278cb2b34b",
    "qutrit value4": "e49acf22a623633e4333163d2221b3b1fc019bcedc905908afde38fe3e9d9b78",
    "qudit maxmixed": "62214a331d56364f3c88530109270540022fbc49fcec7454e4809862484308a8",
    "certificate claim": "51e58417664626684da5c546d19105b5ceb60e33d81e8ee7c96f601d5ce50c1c",
    "certificate no claim": "d9d74b79415f9662f7eeea3c32af5b26138957d4a5162048a7d6f6a67793e869",
    "certificate non-ascii": "89ea187f4c4f3b212ac3afed6e79023fb729fcdda34d98ef4ba74a5ced8450d4",
    "certificate escapes": "0de0db26b6180bf68f776099a7215391dea7da650e898489309246546bae9541",
}


def _table_digest(cases):
    h = hashlib.sha256()
    for rho, protocol in cases:
        h.update(correlations(rho, protocol).probs.tobytes())
    return h.hexdigest()


def _random_qubit_cases():
    rng = np.random.default_rng(2019)
    for _ in range(200):
        protocol = random_qubit_protocol(rng)
        rho = random_density(2, int(rng.integers(1, 3)), int(rng.integers(0, 2**31)))
        yield rho, protocol


def _simulation_digests():
    axis = np.linspace(0.0, 1.0, 11)
    digests = {
        # p = 0 and w = 0 give signed zeros in the Bloch vectors
        "theorem2 grid": _table_digest(
            theorem2_protocol(float(p), float(w)) for p in axis for w in axis
        ),
        "random qubit": _table_digest(_random_qubit_cases()),
        "qutrit value4": _table_digest([qutrit_value4_protocol()]),
        "qudit maxmixed": _table_digest(qudit_maxmixed_protocol(d) for d in (4, 5)),
    }
    counts = {
        (x, y): {"++": 500 * (x == y) + 150 + x, "+-": 500 * (x != y) + 150 + y,
                 "-+": 120, "--": 83}
        for x, y in SETTING_PAIRS
    }
    for key, label, claim in (
        ("claim", "theorem2 p=0.5 w=1", 0.625),
        ("no claim", "theorem2 p=0.5 w=1", None),
        ("non-ascii", "Reinheit \u00e9\u00e8 \u2014 \u03c1 \U0001d53c", 0.9),
        ("escapes", 'quote " back \\ tab \t nl \n nul \x00 del \x7f', None),
    ):
        text = certify(CountsRecord(label, claim, counts), delta=0.05).to_json()
        digests["certificate " + key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_simulation_and_certificate_match_pinned_digests():
    assert _simulation_digests() == _SIMULATION_DIGESTS


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the forced OpenBLAS kernels are x86-64 ones",
)
def test_simulation_digests_hold_under_every_openblas_kernel():
    # Prescott runs on every x86-64 CPU; Haswell and SkylakeX only where the
    # CPU has AVX2 and AVX-512, so no kernel is forced on a CPU that lacks it
    from numpy._core._multiarray_umath import __cpu_features__

    forced = ["Prescott"] + [
        kernel
        for kernel, feature in (("Haswell", "AVX2"), ("SkylakeX", "AVX512F"))
        if __cpu_features__[feature]
    ]
    cores = []
    for kernel in forced:
        out = run_fresh("test_sequence", "_simulation_digests", [], {"OPENBLAS_CORETYPE": kernel})
        assert out["result"] == _SIMULATION_DIGESTS, kernel
        cores.append(out["core"])
    # each forced kernel is a different one, where the kernel can be named
    if None not in cores:
        assert len(set(cores)) == len(cores), cores
