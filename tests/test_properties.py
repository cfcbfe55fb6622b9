"""Property tests at the package's edges: counts input, closed forms, qubit
validation, the qubit trial's Python-float paths and command-line arguments.

Examples are derandomized and no example database is kept, so the suite is
deterministic; ``conftest.py`` keeps hypothesis's caches out of the working
directory.
"""

import contextlib
import functools
import io
import json
import math
import operator
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from purity_witness.cli import main as cli_main
from purity_witness.counts import (
    MAX_COUNT,
    OUTCOME_KEYS,
    SETTING_PAIRS,
    CountsRecord,
    counts_record_from_dict,
    estimate_b1,
    ingest_counts,
)
from purity_witness.errors import CountsFormatError, DomainError
from purity_witness import certificate, kernels, quantum
from purity_witness.optimizer import MAX_RESTARTS, _eigvalsh
from purity_witness.quantum import (
    HERM_TOL,
    PSD_SLACK,
    TRACE_TOL,
    BlochState,
    DensityMatrix,
    Effect,
)
from purity_witness.sequence import CorrelationTable, b1, b1_weights, evaluate_functional
from purity_witness.witness import (
    b1_max_constrained,
    b1_max_initial,
    purity_lower_bound,
)

from protocols import reject_non_finite, table_from_counts

deterministic = settings(derandomize=True, database=None, deadline=None)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**1024)  # beyond float range
    | st.floats()  # includes nan and +-inf, which json accepts
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=20,
)
setting_index = st.sampled_from([0, 1]) | json_scalars


@st.composite
def near_records(draw):
    """Objects shaped like a counts record, with any field possibly wrong."""

    def counts_block():
        keys = draw(st.lists(st.sampled_from(OUTCOME_KEYS) | st.text(max_size=3), max_size=5))
        return {k: draw(st.integers(min_value=-1, max_value=5) | json_scalars) for k in keys}

    settings_list = [
        {"x": draw(setting_index), "y": draw(setting_index), "counts": counts_block()}
        for _ in range(draw(st.integers(min_value=0, max_value=5)))
    ]
    record = {
        "label": draw(st.text(max_size=8)),
        "claimed_initial_purity": draw(
            st.none()
            | st.floats(min_value=0.4, max_value=1.1)
            | st.integers(min_value=2**1024)
            | json_scalars
        ),
        "settings": draw(st.just(settings_list) | json_values),
    }
    # replace or drop at most one field
    for key in draw(st.lists(st.sampled_from(sorted(record)), max_size=1)):
        if draw(st.booleans()):
            record[key] = draw(json_values)
        else:
            del record[key]
    return record


def _loads_or_rejects(load, arg):
    try:
        assert isinstance(load(arg), CountsRecord)
    except CountsFormatError:
        pass


@settings(deterministic, max_examples=200)
@given(near_records() | json_values)
def test_any_json_value_loads_or_raises_counts_format_error(value):
    _loads_or_rejects(counts_record_from_dict, value)


@deterministic
@given(
    st.binary(max_size=64)
    | (near_records() | json_values).map(lambda v: json.dumps(v).encode())
    | st.tuples(st.sampled_from([b"[", b'{"a":', b"9"]), st.integers(1, 6000)).map(
        lambda t: t[0] * t[1]
    )
)
def test_any_file_content_loads_or_raises_counts_format_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "counts.json"
    path.write_bytes(content)
    _loads_or_rejects(ingest_counts, str(path))


outcome_count = st.integers(min_value=0, max_value=1000) | st.integers(min_value=0, max_value=MAX_COUNT)
setting_counts = st.fixed_dictionaries({key: outcome_count for key in OUTCOME_KEYS}).filter(
    lambda block: sum(block.values()) >= 1
)


@st.composite
def valid_records(draw):
    settings_list = [
        {"x": x, "y": y, "counts": draw(setting_counts)} for x, y in SETTING_PAIRS
    ]
    return counts_record_from_dict(
        {"label": "r", "claimed_initial_purity": None, "settings": settings_list}
    )


@settings(deterministic, max_examples=200)
@given(valid_records(), st.floats(min_value=1e-300, max_value=0.99))
def test_b1_readers_agree_on_valid_records(rec, delta):
    # the estimator and the table reader add the same terms in the same order;
    # the weighted sum over all 16 entries adds them in another
    table = table_from_counts(rec)
    b1_hat = estimate_b1(rec, delta)[0]
    assert b1_hat == b1(table)
    assert abs(evaluate_functional(b1_weights(), table) - b1_hat) <= 1e-12


@deterministic
@given(st.floats(min_value=0.0, max_value=1.0))
def test_purity_bound_inverts_the_initial_maximum(p):
    # 2 B1 - 5 = (5 + p) - 5 rounds p to a multiple of ulp(5) / 2
    assert abs(purity_lower_bound(b1_max_initial(p)).bloch_lower - p) <= 1e-15


unit = st.floats(min_value=0.0, max_value=1.0)
box = st.floats(min_value=-0.5, max_value=1.5)


@deterministic
@given(box, box, box, box, st.floats(min_value=-10.0, max_value=10.0), unit, unit)
def test_qubit_objective_never_exceeds_closed_form(a0, b0, a1, b1_, theta, p, w):
    val = float(kernels._objective([a0, b0, a1, b1_, theta], p, w, 2.0))
    assert np.isfinite(val)
    assert val <= b1_max_constrained(p, w) + 1e-12


def _clip_projection(params):
    """The projection written with np.clip, one column at a time over a 2-D
    batch: numpy 2.4's clip breaks a tie between 0.0 and -0.0 one way on
    0-d inputs and the other way on arrays."""
    x = np.array(params, dtype=float).reshape(-1, 5)
    for i in (0, 2):
        b = x[:, i + 1] = np.clip(x[:, i + 1], 0.0, 1.0)
        x[:, i] = np.clip(x[:, i], 0.0, 1.0 / (1.0 + b))
    return x.reshape(np.shape(params))


def _same_bits(a, b):
    """Equal bit patterns, ignoring only the payload of nans."""
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool(((a.view(np.uint64) == b.view(np.uint64)) | both_nan).all())


# box edges, signed zeros, nan and infinities, next to points inside and
# outside both boxes
kernel_params = arrays(
    np.float64,
    array_shapes(min_dims=1, max_dims=3, max_side=4).map(lambda s: s[:-1] + (5,)),
    elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 / 1.5, np.nan, np.inf, -np.inf])
    | st.floats(min_value=-0.5, max_value=1.5)
    | st.floats(allow_nan=False),
)


@settings(deterministic, max_examples=300)
@given(kernel_params)
def test_project_matches_clip_and_is_idempotent(params):
    projected = kernels.project(params)
    assert _same_bits(projected, _clip_projection(params))
    assert _same_bits(kernels.project(projected), projected)


# -- qubit validation ---------------------------------------------------------

# The closed-form 2 x 2 eigenvalues and LAPACK's may differ by a few ulp of
# the matrix's scale (the sum of its entries' moduli, which cannot underflow
# as a Frobenius norm can), or of the smallest normal float below it, and the
# Hermiticity deviation (math.hypot against numpy's hypot) by an ulp of
# itself.
EIG_BOUND_ULPS = 8
HERM_BAND = 4 * np.finfo(float).eps * HERM_TOL

eig_thresholds = st.sampled_from([-PSD_SLACK, 0.0, 1.0, 1.0 + PSD_SLACK])
eig_offsets = st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11]) | st.floats(-1e-9, 1e-9)
eigenvalues = st.floats(-2.0, 2.0) | st.builds(lambda c, t: c + t, eig_thresholds, eig_offsets)


@st.composite
def qubit_matrices(draw):
    """2 x 2 complex matrices: a Hermitian one with a drawn spectrum (unit
    trace, free or nearly degenerate) in a drawn eigenbasis, then perhaps
    pushed off Hermitian by about 1e-12 (or by order 1) and scaled."""
    l0 = draw(eigenvalues)
    l1 = draw(
        st.just(1.0 - l0) | eigenvalues | st.floats(-1e-12, 1e-12).map(lambda t: l0 + t)
    )
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(-math.pi, math.pi))
    c, s = math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi))
    u = np.array([[c, -s.conjugate()], [s, c]])
    m = (u * [l0, l1]) @ u.conj().T
    skew = draw(st.sampled_from([0.0, 0.0, 3e-13, 1e-12, 3e-12, 1.0]))
    noise = draw(arrays(complex, (2, 2), elements=st.complex_numbers(max_magnitude=1.0)))
    return (m + skew * noise) * draw(st.sampled_from([1.0, 1.0, 1.0, 1e-100, 1e-6, 1e6, 1e100]))


def _eig_bound(m):
    info = np.finfo(float)
    return EIG_BOUND_ULPS * (info.eps * np.abs(m).sum() + info.tiny)


@settings(deterministic, max_examples=500)
@given(qubit_matrices())
def test_qubit_closed_form_spectrum_matches_eigvalsh(m):
    # both read the lower triangle; a helper reading the upper one fails here
    _, _, lo, hi = quantum._summary(m, "matrix")
    ev = np.linalg.eigvalsh(m)
    assert abs(lo - ev[0]) <= _eig_bound(m)
    assert abs(hi - ev[1]) <= _eig_bound(m)


@st.composite
def hermitian_matrices(draw):
    """2 x 2 and 3 x 3 Hermitian matrices: a free, repeated or nearly
    repeated spectrum, a projector's or zero, in a drawn unitary eigenbasis
    or the computational one; exactly Hermitian."""
    d = draw(st.sampled_from([2, 3]))
    free = st.floats(-2.0, 2.0)
    kind = draw(st.sampled_from(["free", "repeated", "projector", "zero"]))
    if kind == "free":
        lam = [draw(free) for _ in range(d)]
    elif kind == "repeated":
        l0 = draw(free)
        split = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-5]))
        lam = [l0, l0 + split, draw(st.just(l0) | free)][:d]
    elif kind == "projector":
        rank = draw(st.integers(1, d - 1))
        lam = [1.0] * rank + [0.0] * (d - rank)
    else:
        lam = [0.0] * d
    u = np.eye(d)
    if draw(st.booleans()):
        z = draw(arrays(float, (2, d, d), elements=st.floats(-1.0, 1.0)))
        u = np.linalg.qr(z[0] + 1j * z[1])[0]
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


@settings(deterministic, max_examples=500)
@given(hermitian_matrices())
def test_jacobi_eigenvalues_match_eigvalsh(m):
    # the functional search's real-arithmetic eigenvalues, ascending, within
    # the bound of the qubit closed form; degenerate input raises no warning
    ev = _eigvalsh(np.stack([m.real, m.imag]))
    assert list(ev) == sorted(ev)
    assert np.abs(ev - np.linalg.eigvalsh(m)).max() <= _eig_bound(m)


def _accepts(cls, m):
    try:
        cls(m)
    except DomainError:
        return False
    return True


@settings(deterministic, max_examples=500)
@given(st.sampled_from([DensityMatrix, Effect]), qubit_matrices())
def test_qubit_validation_decides_as_eigvalsh(cls, m):
    herm = np.max(np.abs(m - m.conj().T))
    tr = np.trace(m)
    ev = np.linalg.eigvalsh(m)
    limits = [(ev[0], -PSD_SLACK)] + [(ev[1], 1.0 + PSD_SLACK)] * (cls is Effect)
    # within a stated band of a threshold either decision is right
    assume(abs(herm - HERM_TOL) > HERM_BAND)
    assume(all(abs(v - limit) > _eig_bound(m) for v, limit in limits))
    expected = herm <= HERM_TOL and ev[0] >= -PSD_SLACK
    if cls is DensityMatrix:
        expected &= abs(tr.real - 1.0) <= TRACE_TOL and abs(tr.imag) <= TRACE_TOL
    else:
        expected &= ev[1] <= 1.0 + PSD_SLACK
    assert _accepts(cls, m) == expected


# -- qubit trial on Python floats -----------------------------------------------

EPS = np.finfo(float).eps
UNIT_NORM_TOL = 1e-12
# d.d summed in two orders (numpy's dot, left to right) differs by a few eps
UNIT_NORM_BAND = 8 * EPS
SLICE_SUM_TOL = 1e-10
# a slice sum of four entries in [-0.5, 1.5] summed in two orders
SLICE_SUM_BAND = 32 * EPS

certificate_leaves = (
    st.text()  # every code point but surrogates: non-ASCII, quotes, controls
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "\u00e9", "\U0001d53c"])
    | st.floats()  # nan and +-inf, which json spells NaN and Infinity
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7])
    | st.integers()
    | st.booleans()
    | st.none()
)
certificate_trees = st.recursive(
    certificate_leaves | st.just({}),
    lambda inner: st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=25,
)


@settings(deterministic, max_examples=200)
@given(certificate_trees)
def test_certificate_writer_matches_json_dumps(tree):
    assert certificate._json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_certificate_writer_rejects_what_json_rejects():
    for value in (set(), object(), b"x", 1j, np.bool_(True), np.int64(1)):
        with pytest.raises(TypeError):
            json.dumps({"k": value}, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            certificate._json_text({"k": value})
    # a float subclass is written as the float it holds, and the non-finite
    # floats as json spells them
    tree = {"k": np.float64(0.1), "z": np.float64(-0.0), "n": math.nan, "p": math.inf,
            "m": -math.inf}
    assert certificate._json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


@st.composite
def near_unit_directions(draw):
    """3-vectors scaled so that d.d lies at 1 or at either tolerance edge,
    give or take a few ulps to 1e-13."""
    v = draw(arrays(float, 3, elements=st.floats(-1.0, 1.0)))
    assume(v @ v > 1e-6)
    edge = draw(st.sampled_from([1.0 - UNIT_NORM_TOL, 1.0, 1.0 + UNIT_NORM_TOL]))
    offset = draw(st.sampled_from([0.0, EPS, -EPS, 1e-14, -1e-14]) | st.floats(-1e-13, 1e-13))
    return v * math.sqrt((edge + offset) / (v @ v))


directions = near_unit_directions() | arrays(float, 3, elements=st.floats(-2.0, 2.0))


def _accepts_direction(d):
    try:
        BlochState(0.5, d)
    except DomainError:
        return False
    return True


@settings(deterministic, max_examples=500)
@given(directions)
def test_bloch_direction_check_decides_as_numpy(d):
    dev = abs(d @ d - 1.0)
    assume(abs(dev - UNIT_NORM_TOL) > UNIT_NORM_BAND)
    assert _accepts_direction(d) == (dev <= UNIT_NORM_TOL)


signed_zeros = st.sampled_from([0.0, -0.0])
axis_directions = st.builds(
    lambda axis, sign, z0, z1: np.roll([sign, z0, z1], axis),
    st.integers(0, 2), st.sampled_from([1.0, -1.0]), signed_zeros, signed_zeros,
)
tiny_directions = st.builds(
    lambda axis, tiny, z, sign: np.roll([tiny, z, sign], axis),
    st.integers(0, 2), st.sampled_from([5e-324, -5e-324, 1e-310, -2.5e-308]), signed_zeros,
    st.sampled_from([1.0, -1.0]),
)
bloch_lengths = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 5e-324, 1e-308, 1.0])


@settings(deterministic, max_examples=500)
@given(bloch_lengths, axis_directions | tiny_directions | near_unit_directions())
def test_bloch_to_density_is_the_complex_array_product(length, d):
    # bitwise, signed zeros and underflow included.  The reference halves the
    # real and imaginary parts of 1 + v.sigma apart: a complex product such as
    # 0.5 * (1 + v @ PAULI) rounds an underflow one way with fused
    # multiply-add and the other way without it
    assume(_accepts_direction(d))
    state = BlochState(length, d)
    m = np.eye(2) + quantum.pauli_dot(state.length * state.direction)
    ref = np.empty((2, 2), dtype=complex)
    ref.real, ref.imag = 0.5 * m.real, 0.5 * m.imag
    assert quantum.bloch_to_density(state).matrix.tobytes() == ref.tobytes()


trace_entries = st.complex_numbers(max_magnitude=2.0) | st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(-0.0, -0.0), complex(5e-324, 0.0), complex(-5e-324, 0.0)]
)


@settings(deterministic, max_examples=300)
@given(
    arrays(complex, (2, 2, 2, 2), elements=trace_entries),
    arrays(complex, (2, 2), elements=trace_entries),
)
def test_trace_product_is_the_per_entry_sum(stack, b):
    # bitwise, signed zeros included: Re A_ij Re B_ji - Im A_ij Im B_ji added
    # to 0.0 left to right over i, then j, on Python floats, for every A of
    # the stack
    bt = b.T.ravel().tolist()
    ref = [
        functools.reduce(
            operator.add, (x.real * y.real - x.imag * y.imag for x, y in zip(a.tolist(), bt)), 0.0
        )
        for a in stack.reshape(-1, 4)
    ]
    assert quantum.trace_product(stack, b).tobytes() == np.array(ref).reshape(2, 2).tobytes()


@st.composite
def near_tables(draw):
    """Tables whose (x, y) slices sum to 1, then one entry moved to or near a
    range edge, or by about the slice-sum tolerance."""
    t = draw(arrays(float, (2, 2, 2, 2), elements=st.floats(0.0, 1.0)))
    sums = t.sum(axis=(0, 1))
    t = np.where(sums > 0.0, t / np.where(sums > 0.0, sums, 1.0), 0.25)
    idx = draw(st.tuples(*[st.integers(0, 1)] * 4))
    edge = st.sampled_from([-1e-12, 1.0 + 1e-12, 0.0, -0.0, 1.0])
    near = st.sampled_from([0.0, EPS, -EPS]) | st.floats(-1e-13, 1e-13)
    shift = st.sampled_from([SLICE_SUM_TOL, -SLICE_SUM_TOL, 0.0]).map(float) | st.floats(-2e-10, 2e-10)
    if draw(st.booleans()):
        t[idx] = draw(edge) + draw(near)
    else:
        t[idx] += draw(shift) + draw(near)
    return t


tables = near_tables() | arrays(float, (2, 2, 2, 2), elements=st.floats(-0.5, 1.5))


def _accepts_table(t):
    try:
        CorrelationTable(t)
    except DomainError:
        return False
    return True


@settings(deterministic, max_examples=500)
@given(tables)
def test_correlation_table_check_decides_as_numpy(t):
    dev = np.abs(t.sum(axis=(0, 1)) - 1.0)
    assume(np.all(np.abs(dev - SLICE_SUM_TOL) > SLICE_SUM_BAND))
    expected = t.min() >= -1e-12 and t.max() <= 1.0 + 1e-12 and dev.max() <= SLICE_SUM_TOL
    assert _accepts_table(t) == expected


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deterministic, max_examples=200)
@given(
    st.sets(st.tuples(*[st.integers(0, 1)] * 4), min_size=1),
    st.lists(non_finite, min_size=16, max_size=16),
    arrays(float, (2, 2, 2, 2), elements=finite),
)
def test_non_finite_table_entries_are_named(bad, values, t):
    # finite entries may be huge, so that their sums overflow too
    for idx, value in zip(sorted(bad), values):
        t[idx] = value
    where = ", ".join(str(list(idx)) for idx in sorted(bad))
    with pytest.raises(DomainError, match=re.escape(f"table has non-finite entries at {where}") + "$"):
        CorrelationTable(t)


@settings(deterministic, max_examples=100)
@given(
    st.sets(st.integers(0, 2), min_size=1),
    st.lists(non_finite, min_size=3, max_size=3),
    arrays(float, 3, elements=finite),
)
def test_non_finite_direction_entries_are_named(bad, values, d):
    for i, value in zip(sorted(bad), values):
        d[i] = value
    where = ", ".join(f"[{i}]" for i in sorted(bad))
    with pytest.raises(DomainError, match=re.escape(f"direction has non-finite entries at {where}") + "$"):
        BlochState(0.5, d)


# -- command line -------------------------------------------------------------

# per-setting counts (x, y) -> outcomes; the second set has B1 = 4 > 3
QUBIT_COUNTS = {(x, y): {"++": 90, "+-": 5, "-+": 3, "--": 2} for x in (0, 1) for y in (0, 1)}
SUPER_QUBIT_COUNTS = {
    (x, y): {"++": 1000 * (x == y), "+-": 1000 * (x != y), "-+": 0, "--": 0}
    for x in (0, 1)
    for y in (0, 1)
}


def _counts_file(label, counts):
    return CountsRecord(label=label, claimed_initial_purity=0.9, counts=counts).to_json_dict()


# Option values of the right type for argparse, so that parsing succeeds and
# the subcommand itself meets nan, inf, negative and huge numbers.  Values a
# subcommand accepts are drawn as often as the rest, so that the runs also
# reach exit codes 0, 3 and 4.
cli_floats = st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0, 2.75, 3.5]) | st.floats()
cli_ints = (
    st.integers(-1, 8)
    | st.integers(min_value=2**63 - 2)
    | st.integers(max_value=-(2**63))
)
few_steps = st.sampled_from([1, 2, -1])
# a search with one restart costs milliseconds; every other draw is rejected
# before the search starts
search_restarts = (
    st.just(1) | st.sampled_from([0, -1]) | st.integers(min_value=MAX_RESTARTS + 1)
)


def _options(draw, spec):
    argv = []
    for flag, values in spec:
        value = draw(st.none() | values)
        if value is not None:
            # "--b1=-1e+16": argparse reads a separate "-1e+16" as an option
            argv.append(f"{flag}={value!r}")
    return argv


@st.composite
def cli_argv(draw, out_dir):
    command = draw(st.sampled_from(["simulate", "certify", "bounds", "surface", "verify"]))
    if command == "simulate":
        argv = [command, draw(st.sampled_from(["theorem2", "qutrit4", "quditmm"]))]
        argv += _options(draw, [("--p", cli_floats), ("--w", cli_floats), ("--d", cli_ints),
                                ("--shots", cli_ints), ("--seed", cli_ints)])
        if draw(st.booleans()):
            argv.append("--claim-purity")
        return argv + ["-o", str(out_dir / "counts.json")]
    if command == "certify":
        name = draw(st.sampled_from(["qubit-counts.json", "super-counts.json", "missing.json"]))
        argv = [command, str(out_dir / name)]
        argv += _options(draw, [("--delta", cli_floats)])
        if draw(st.booleans()):
            argv += ["-o", str(out_dir / "cert.json")]
        return argv
    if command == "bounds":
        return [command] + _options(draw, [("--b1", cli_floats), ("--p", cli_floats),
                                           ("--w", cli_floats), ("--purity", cli_floats)])
    if command == "surface":
        argv = [command] + _options(draw, [("--p-steps", few_steps), ("--w-steps", few_steps)])
        return argv + ["-o", str(out_dir / "surface.csv")]
    argv = [command, draw(st.sampled_from(["eq5", "theorem2", "qudit", "monotonicity"]))]
    argv += _options(draw, [("--p", cli_floats), ("--w", cli_floats), ("--d", cli_ints),
                            ("--grid", few_steps), ("--seed", cli_ints)])
    return argv + [f"--restarts={draw(search_restarts)!r}"]


def _strict_json(text):
    return json.loads(text, parse_constant=reject_non_finite)


@settings(deterministic, max_examples=300)
@given(st.data())
def test_any_cli_argv_exits_with_a_documented_code(tmp_path_factory, data):
    out_dir = tmp_path_factory.getbasetemp() / "argv"
    out_dir.mkdir(exist_ok=True)
    for stale in out_dir.iterdir():
        stale.unlink()
    for name, counts in (("qubit", QUBIT_COUNTS), ("super", SUPER_QUBIT_COUNTS)):
        (out_dir / f"{name}-counts.json").write_text(json.dumps(_counts_file(name, counts)))
    argv = data.draw(cli_argv(out_dir))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    assert code in (0, 2, 3, 4)
    text = out.getvalue()
    if argv[0] == "verify":
        for line in text.splitlines():
            _strict_json(line)
    elif text:
        _strict_json(text)
    for written in (out_dir / "counts.json", out_dir / "cert.json"):
        if written.exists():
            _strict_json(written.read_text())
