"""Closed-form bounds relating B1 to purity and concurrence.

The maxima come in two branches: the unconditional deterministic value 2 and
the protocol value 1 + (1+w)/2 + (1+p)(1+w)/4, which cross at w = (1-p)/(3+p).
Inverted formulas are clamped to their trivial values outside the monotone
range; a B1 above 3 falsifies the qubit assumption and is a hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .errors import ConsistencyError, DomainError, QubitAssumptionError

if TYPE_CHECKING:
    from .quantum import DensityMatrix

B1_QUBIT_MAX = 3.0
B1_TRIVIAL = 2.5


class ConcurrenceSource(Enum):
    TEMPORAL = "temporal"
    GLOBAL_LOCAL = "global_local"


@dataclass(frozen=True)
class PurityBound:
    """A lower bound on a qubit purity, with the matching Bloch length."""

    purity_lower: float
    bloch_lower: float
    trivial: bool

    def __post_init__(self):
        if abs(self.purity_lower - 0.5 * (1.0 + self.bloch_lower**2)) > 1e-12:
            raise DomainError("purity_lower must equal (1 + bloch_lower^2)/2")

    def to_dict(self) -> dict:
        return {
            "purity_lower": self.purity_lower,
            "bloch_lower": self.bloch_lower,
            "trivial": self.trivial,
        }


@dataclass(frozen=True)
class ConcurrenceBound:
    upper: float
    source: ConcurrenceSource
    lower: Optional[float] = None
    trivial: bool = False

    def __post_init__(self):
        if not 0.0 <= self.upper <= 1.0:
            raise DomainError("concurrence upper bound must lie in [0, 1]")
        if self.lower is not None:
            if not 0.0 <= self.lower <= 1.0:
                raise DomainError("concurrence lower bound must lie in [0, 1]")
            if self.lower > self.upper + 1e-10:
                raise DomainError("concurrence lower bound exceeds upper bound")

    def to_dict(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "source": self.source.value,
            "trivial": self.trivial,
        }


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")


def bloch_length_from_purity(pur: float) -> float:
    """p = sqrt(2P - 1) for qubit purity P in [1/2, 1]."""
    if not 0.5 <= pur <= 1.0:
        raise DomainError("qubit purity must lie in [1/2, 1]")
    return math.sqrt(2.0 * pur - 1.0)


def b1_max_initial(p: float) -> float:
    """Maximal B1 for initial Bloch length p: (5 + p)/2."""
    _check_unit("p", p)
    return 0.5 * (5.0 + p)


def b1_ceiling_for_purity(initial_purity: float) -> float:
    """The largest B1 an initial purity P allows: b1_max_initial(sqrt(2P - 1)) + 1e-9."""
    return b1_max_initial(bloch_length_from_purity(initial_purity)) + 1e-9


def b1_threshold(p: float) -> float:
    """Post-measurement Bloch length below which only B1 = 2 is possible."""
    _check_unit("p", p)
    return (1.0 - p) / (3.0 + p)


def b1_max_constrained(p: float, w: float) -> float:
    """Maximal B1 with initial Bloch length p and post-state length w."""
    threshold = b1_threshold(p)  # checks p
    _check_unit("w", w)
    if w <= threshold:
        return 2.0
    return 1.0 + 0.5 * (1.0 + w) + 0.25 * (1.0 + p) * (1.0 + w)


def _check_b1_range(b1_exp: float) -> None:
    if not 0.0 <= b1_exp <= 4.0:
        raise DomainError(f"B1 must lie in [0, 4], got {b1_exp}")
    if b1_exp > B1_QUBIT_MAX:
        raise QubitAssumptionError(
            f"B1 = {b1_exp} exceeds the qubit maximum 3: "
            "incompatible with qubit assumption"
        )


def purity_lower_bound(b1_exp: float) -> PurityBound:
    """Semi-device-independent purity bound P >= ((2 B1 - 5)^2 + 1)/2.

    The inversion is monotone only above B1 = 5/2; smaller values yield the
    unconditional bound 1/2, flagged as trivial.
    """
    _check_b1_range(b1_exp)
    bloch = max(0.0, 2.0 * b1_exp - 5.0)
    return PurityBound(
        purity_lower=0.5 * (1.0 + bloch**2),
        bloch_lower=bloch,
        trivial=b1_exp <= B1_TRIVIAL,
    )


def postmeasurement_purity_bound(b1_exp: float, initial_purity: float) -> PurityBound:
    """Lower bound on the best post-measurement purity, given the initial one.

    Uses the rational expression in B1 and P; for B1 <= 2 no bound can be
    deduced and the trivial 1/2 is returned.
    """
    _check_b1_range(b1_exp)
    if not 0.5 <= initial_purity <= 1.0:
        raise DomainError("initial purity must lie in [1/2, 1]")
    if b1_exp > b1_ceiling_for_purity(initial_purity):
        raise ConsistencyError(
            f"B1 = {b1_exp} is impossible for initial purity {initial_purity}"
        )
    if b1_exp <= 2.0:
        return PurityBound(purity_lower=0.5, bloch_lower=0.0, trivial=True)
    pp = initial_purity
    p = bloch_length_from_purity(pp)
    denom = 4.0 + pp + 3.0 * p
    w_purity = (
        14.0 + 4.0 * b1_exp**2 + pp + 5.0 * p - 2.0 * b1_exp * (7.0 + p)
    ) / denom
    w_purity = min(max(w_purity, 0.5), 1.0)
    return PurityBound(
        purity_lower=w_purity,
        bloch_lower=bloch_length_from_purity(w_purity),
        trivial=False,
    )


def robustness_penalty(p: float, eps: float) -> float:
    """Drop of the attainable B1 when post states have length 1 - eps."""
    threshold = b1_threshold(p)  # checks p
    _check_unit("eps", eps)
    if 1.0 - eps <= threshold:
        raise DomainError(
            "1 - eps must exceed the threshold (1 - p)/(3 + p) "
            "for the linear penalty to apply"
        )
    return 0.25 * (3.0 + p) * eps


def concurrence_upper_from_b1(b1_exp: float) -> ConcurrenceBound:
    """C(rho_AB) <= sqrt(1 - (2 B1 - 5)^2), clamped to the trivial 1 below
    B1 = 5/2; B1 <= 3 keeps the radicand in [0, 1]."""
    _check_b1_range(b1_exp)
    c = max(2.0 * b1_exp - 5.0, 0.0)
    return ConcurrenceBound(
        upper=math.sqrt(1.0 - c * c),
        source=ConcurrenceSource.TEMPORAL,
        trivial=b1_exp <= B1_TRIVIAL,
    )


def concurrence_bounds_from_state(rho: DensityMatrix) -> ConcurrenceBound:
    """Purity-based sandwich around the concurrence of a two-qubit state.

    lower^2 = max(0, max_X 2 (tr rho^2 - tr rho_X^2)),
    upper^2 = min_X 2 (1 - tr rho_X^2), both clamped to [0, 1].
    """
    from .quantum import partial_trace, purity

    glob = purity(rho)
    pa = purity(partial_trace(rho, "A"))
    pb = purity(partial_trace(rho, "B"))
    lower_sq = max(0.0, 2.0 * (glob - min(pa, pb)))
    upper_sq = min(2.0 * (1.0 - pa), 2.0 * (1.0 - pb))
    lower = math.sqrt(min(max(lower_sq, 0.0), 1.0))
    upper = math.sqrt(min(max(upper_sq, 0.0), 1.0))
    return ConcurrenceBound(
        upper=upper,
        lower=min(lower, upper),
        source=ConcurrenceSource.GLOBAL_LOCAL,
    )


def multipartite_concurrence_upper(n: int, local_purities: list[float]) -> float:
    """C <= 2^(1 - n/2) sqrt(2^n - 2 - sum_i P_i) for n qubit subsystems,
    computed as 2 sqrt(1 - (2 + sum_i P_i) 2^-n), in which 2^n cannot
    overflow.

    C is the multipartite concurrence of a pure n-qubit state (Carvalho,
    Mintert and Buchleitner, PRL 93, 230501, 2004),
    C^2 = 2^(2 - n) sum_S (1 - tr rho_S^2) over all 2^n - 2 nontrivial
    subsystems S.  The sum of purities here covers only the n single-qubit
    reductions, the P_i, and drops the other 2^n - n - 2 purities, which
    are positive.  The bound is exact for n = 2 but loose for n >= 3: three
    pure product qubits, which are not entangled, give 1.2247."""
    if n < 2:
        raise DomainError("multipartite bound requires n >= 2")
    if len(local_purities) != n:
        raise DomainError(f"expected {n} local purities, got {len(local_purities)}")
    for pur in local_purities:
        if not 0.5 <= pur <= 1.0:
            raise DomainError("each local qubit purity must lie in [1/2, 1]")
    radicand = max(0.0, 1.0 - (2.0 + sum(local_purities)) * 2.0**-n)
    return 2.0 * math.sqrt(radicand)
