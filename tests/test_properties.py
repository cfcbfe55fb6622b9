"""Property tests at the package's edges: counts input, closed forms and
command-line arguments.

Examples are derandomized and no example database is kept, so the suite is
deterministic; ``conftest.py`` keeps hypothesis's caches out of the working
directory.
"""

import contextlib
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
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
from purity_witness.errors import CountsFormatError
from purity_witness import kernels
from purity_witness.kernels import b1_qubit_objective
from purity_witness.optimizer import MAX_RESTARTS
from purity_witness.sequence import b1, b1_weights, evaluate_functional
from purity_witness.witness import (
    b1_max_constrained,
    b1_max_initial,
    purity_lower_bound,
)

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
    table = rec.empirical_table()
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
def test_qubit_objective_never_exceeds_closed_form(r0, q0, r1, q1, theta, p, w):
    val = float(b1_qubit_objective(r0, q0, r1, q1, theta, p, w))
    assert np.isfinite(val)
    assert val <= b1_max_constrained(p, w) + 1e-12


def _clip_projection(kind, params):
    """The projection written with np.clip, one column at a time over a 2-D
    batch: numpy 2.4's clip breaks a tie between 0.0 and -0.0 one way on
    0-d inputs and the other way on arrays."""
    x = np.array(params, dtype=float).reshape(-1, 5)
    for i in (0, 2):
        if kind == 0:
            r = x[:, i] = np.clip(x[:, i], 0.0, 1.0)
            x[:, i + 1] = np.clip(x[:, i + 1], 0.0, np.minimum(r, 1.0 - r))
        else:
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
@given(st.sampled_from([0, 1]), kernel_params)
def test_project_matches_clip_and_is_idempotent(kind, params):
    projected = kernels.project(kind, params)
    assert _same_bits(projected, _clip_projection(kind, params))
    assert _same_bits(kernels.project(kind, projected), projected)


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
    return json.loads(text, parse_constant=_reject_non_finite)


def _reject_non_finite(name):
    raise ValueError(f"non-finite JSON number {name}")


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
