"""Witness certificates: the executable form of the closed-form bounds.

A certificate carries every bound twice: at the point estimate b1_hat and at
the one-sided Hoeffding-adjusted b1_lower_conf.  The headline values are the
confidence-adjusted ones; the statistical layer is an addition on top of the
exact witness formulas and is labeled as such in the output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .counts import CountsRecord, estimate_b1
from .errors import QubitAssumptionError
from .witness import (
    B1_QUBIT_MAX,
    ConcurrenceBound,
    PurityBound,
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

        def cb(bound: ConcurrenceBound):
            return {
                "upper": bound.upper,
                "lower": bound.lower,
                "source": bound.source.value,
                "trivial": bound.trivial,
            }

        return {
            "label": self.label,
            "b1_hat": self.b1_hat,
            "b1_lower_conf": self.b1_lower_conf,
            "confidence_delta": self.confidence_delta,
            "purity_bound": {
                "point": pb(self.purity_point),
                "confidence_adjusted": pb(self.purity_conf),
            },
            "concurrence_bound": {
                "point": cb(self.concurrence_point),
                "confidence_adjusted": cb(self.concurrence_conf),
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
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _digest(rec: CountsRecord) -> str:
    payload = json.dumps(rec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def certify(rec: CountsRecord, delta: float = 0.05) -> WitnessCertificate:
    """Evaluate all witness bounds on a counts record.

    Raises QubitAssumptionError when even the confidence-adjusted B1 exceeds
    the qubit ceiling of 3.  A point estimate above 3 that is still
    statistically compatible with 3 is clamped for the point bounds.
    """
    b1_hat, b1_low = estimate_b1(rec, delta)
    if b1_low > B1_QUBIT_MAX:
        raise QubitAssumptionError(
            f"confidence-adjusted B1 = {b1_low} exceeds the qubit maximum 3"
        )
    point = _bounds(min(b1_hat, B1_QUBIT_MAX), rec.claimed_initial_purity)
    conf = _bounds(max(b1_low, 0.0), rec.claimed_initial_purity)
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


def _bounds(b1_value: float, claimed: Optional[float]):
    """(purity, concurrence, post-measurement purity or None) bounds at one
    B1 value; the last needs a claimed initial purity."""
    postmeas = None
    if claimed is not None:
        postmeas = postmeasurement_purity_bound(b1_value, claimed)
    return purity_lower_bound(b1_value), concurrence_upper_from_b1(b1_value), postmeas
