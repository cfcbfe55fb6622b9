"""Witness certificates: the executable form of the closed-form bounds.

A certificate carries every bound twice: at the point estimate b1_hat and at
the one-sided Hoeffding-adjusted b1_lower_conf.  The headline values are the
confidence-adjusted ones; the statistical layer is an addition on top of the
exact witness formulas and is labeled as such in the output.  The JSON text
is written by a small writer of its own: ``json.dumps`` with ``indent`` set
runs json's pure-Python encoder, which cost more than the certificate's
arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import __version__
from .counts import CountsRecord, estimate_b1
from .witness import (
    B1_QUBIT_MAX,
    ConcurrenceBound,
    PurityBound,
    b1_ceiling_for_purity,
    concurrence_upper_from_b1,
    postmeasurement_purity_bound,
    purity_lower_bound,
)

STATS_NOTE = "hoeffding-union-bound (addition on top of the exact witness formulas)"


@dataclass(frozen=True)
class WitnessCertificate:
    label: str
    b1_hat: float
    b1_lower_conf: float
    confidence_delta: float
    purity_point: PurityBound
    purity_conf: PurityBound
    concurrence_point: ConcurrenceBound
    concurrence_conf: ConcurrenceBound
    postmeas_point: Optional[PurityBound]
    postmeas_conf: Optional[PurityBound]
    claimed_initial_purity: Optional[float]
    input_digest: str
    tool_version: str

    def to_json_dict(self) -> dict:
        def pb(bound: Optional[PurityBound]):
            return None if bound is None else bound.to_dict()

        return {
            "label": self.label,
            "b1_hat": self.b1_hat,
            "b1_lower_conf": self.b1_lower_conf,
            "confidence_delta": self.confidence_delta,
            "purity_bound": {
                "point": self.purity_point.to_dict(),
                "confidence_adjusted": self.purity_conf.to_dict(),
            },
            "concurrence_bound": {
                "point": self.concurrence_point.to_dict(),
                "confidence_adjusted": self.concurrence_conf.to_dict(),
            },
            "postmeasurement_purity_bound": {
                "point": pb(self.postmeas_point),
                "confidence_adjusted": pb(self.postmeas_conf),
            },
            "claimed_initial_purity": self.claimed_initial_purity,
            "provenance": {
                "input_digest": self.input_digest,
                "tool_version": self.tool_version,
                "statistical_layer": STATS_NOTE,
            },
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a tree of dicts with
    str keys whose leaves are str, float, int, bool or None; any other type
    raises TypeError, as json does (a key that is not a str raises it in
    encode_basestring_ascii).  newline is the line break and indent that
    close value's lines."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            items.append(encode_basestring_ascii(key) + ": " + _json_text(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0.0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _digest(rec: CountsRecord) -> str:
    payload = json.dumps(rec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def certify(rec: CountsRecord, delta: float = 0.05) -> WitnessCertificate:
    """Evaluate all witness bounds on a counts record.

    A ceiling on B1 rejects a record only when even the confidence-adjusted
    value exceeds it: ``witness`` raises QubitAssumptionError above the
    qubit ceiling of 3, and, with a claimed initial purity P,
    ConsistencyError above the claim's ceiling
    ``witness.b1_ceiling_for_purity(P)``.  A point estimate above a
    ceiling that is still statistically compatible with it is clamped to
    that ceiling for the point bounds.
    """
    b1_hat, b1_low = estimate_b1(rec, delta)
    claimed = rec.claimed_initial_purity
    conf = _bounds(max(b1_low, 0.0), claimed)
    point = _bounds(min(b1_hat, B1_QUBIT_MAX), claimed, clamp=True)
    return WitnessCertificate(
        label=rec.label,
        b1_hat=b1_hat,
        b1_lower_conf=b1_low,
        confidence_delta=delta,
        purity_point=point[0],
        purity_conf=conf[0],
        concurrence_point=point[1],
        concurrence_conf=conf[1],
        postmeas_point=point[2],
        postmeas_conf=conf[2],
        claimed_initial_purity=rec.claimed_initial_purity,
        input_digest=_digest(rec),
        tool_version=__version__,
    )


def _bounds(b1_value: float, claimed: Optional[float], clamp: bool = False):
    """(purity, concurrence, post-measurement purity or None) bounds at one
    B1 value.  The last needs a claimed initial purity and raises
    ConsistencyError above the claim's ceiling, unless clamp takes it at
    that ceiling."""
    postmeas = None
    if claimed is not None:
        b1_post = b1_value
        if clamp:
            b1_post = min(b1_value, b1_ceiling_for_purity(claimed))
        postmeas = postmeasurement_purity_bound(b1_post, claimed)
    return purity_lower_bound(b1_value), concurrence_upper_from_b1(b1_value), postmeas
