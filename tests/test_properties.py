"""Property tests at the package's edges: counts input and closed forms.

Examples are derandomized and no example database is kept, so the suite is
deterministic; ``conftest.py`` keeps hypothesis's caches out of the working
directory.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from purity_witness.counts import (
    OUTCOME_KEYS,
    CountsRecord,
    counts_record_from_dict,
    ingest_counts,
)
from purity_witness.errors import CountsFormatError
from purity_witness.kernels import b1_qubit_objective
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
