"""Experimental counts: JSON schema, validation and the B1 estimator.

Schema:
  {"label": str,
   "claimed_initial_purity": number | null,
   "settings": [{"x": 0|1, "y": 0|1,
                 "counts": {"++": int, "+-": int, "-+": int, "--": int}} x 4]}

The confidence interval on B1 is a per-setting two-sided Hoeffding bound
combined by a union bound over the four terms: each term subtracts
sqrt(ln(8/delta) / (2 n_xy)).  Distribution-free and conservative.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import CountsFormatError, DomainError

if TYPE_CHECKING:
    from .sequence import CorrelationTable

# Largest count a counts file or ``simulate --shots`` may hold: the int64
# range, which numpy's multinomial sampler also accepts.  Counts near 1e308
# would overflow the float conversion in hoeffding_width.
MAX_COUNT = 2**63 - 1

OUTCOME_KEYS = ("++", "+-", "-+", "--")
SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
# B1 = p(++|00) + p(++|11) + p(+-|01) + p(+-|10), as (ab, x, y) in sum order
B1_TERMS = (("++", 0, 0), ("++", 1, 1), ("+-", 0, 1), ("+-", 1, 0))


@dataclass(frozen=True)
class CountsRecord:
    """Validated measurement counts for all four setting pairs."""

    label: str
    claimed_initial_purity: Optional[float]
    counts: dict  # (x, y) -> {"++": int, ...}

    def total(self, x: int, y: int) -> int:
        return sum(self.counts[(x, y)].values())

    def empirical_prob(self, ab: str, x: int, y: int) -> float:
        return self.counts[(x, y)][ab] / self.total(x, y)

    def empirical_table(self) -> CorrelationTable:
        import numpy as np

        from .sequence import CorrelationTable

        t = np.empty((2, 2, 2, 2))
        for x, y in SETTING_PAIRS:
            tot = self.total(x, y)
            for i, a in enumerate("+-"):
                for j, b in enumerate("+-"):
                    t[i, j, x, y] = self.counts[(x, y)][a + b] / tot
        return CorrelationTable(t)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "claimed_initial_purity": self.claimed_initial_purity,
            "settings": [
                {"x": x, "y": y, "counts": dict(self.counts[(x, y)])}
                for x, y in SETTING_PAIRS
            ],
        }


def counts_record_from_dict(data: dict) -> CountsRecord:
    if not isinstance(data, dict):
        raise CountsFormatError("top-level JSON value must be an object")
    label = data.get("label")
    if not isinstance(label, str):
        raise CountsFormatError("field 'label' must be a string")
    claimed = data.get("claimed_initial_purity")
    if claimed is not None:
        if not isinstance(claimed, (int, float)) or isinstance(claimed, bool):
            raise CountsFormatError("field 'claimed_initial_purity' must be a number")
        # compared before conversion: float() overflows on huge integers
        if not 0.5 <= claimed <= 1.0:
            raise CountsFormatError(
                "field 'claimed_initial_purity' must lie in [0.5, 1]"
            )
        claimed = float(claimed)
    settings = data.get("settings")
    if not isinstance(settings, list):
        raise CountsFormatError("field 'settings' must be a list of 4 entries")
    seen: dict = {}
    for k, entry in enumerate(settings):
        if not isinstance(entry, dict):
            raise CountsFormatError(f"settings[{k}] must be an object")
        x = entry.get("x")
        y = entry.get("y")
        # bools and floats compare equal to 0 and 1 but are not indices
        if any(
            not isinstance(v, int) or isinstance(v, bool) or v not in (0, 1)
            for v in (x, y)
        ):
            raise CountsFormatError(f"settings[{k}]: 'x' and 'y' must be 0 or 1")
        if (x, y) in seen:
            raise CountsFormatError(f"setting pair ({x},{y}) appears twice")
        raw = entry.get("counts")
        if not isinstance(raw, dict):
            raise CountsFormatError(f"settings[{k}]: 'counts' must be an object")
        counts = {}
        for key in OUTCOME_KEYS:
            if key not in raw:
                raise CountsFormatError(
                    f"settings[{k}]: outcome key '{key}' missing from 'counts'"
                )
            val = raw[key]
            if not isinstance(val, int) or isinstance(val, bool) or val < 0:
                raise CountsFormatError(
                    f"settings[{k}]: counts['{key}'] must be a non-negative integer"
                )
            if val > MAX_COUNT:
                raise CountsFormatError(
                    f"settings[{k}]: counts['{key}'] exceeds {MAX_COUNT} (2**63 - 1)"
                )
            counts[key] = val
        extra = set(raw) - set(OUTCOME_KEYS)
        if extra:
            raise CountsFormatError(
                f"settings[{k}]: unexpected outcome keys {sorted(extra)}"
            )
        if sum(counts.values()) < 1:
            raise CountsFormatError(f"setting pair ({x},{y}) has total count 0")
        seen[(x, y)] = counts
    for x, y in SETTING_PAIRS:
        if (x, y) not in seen:
            raise CountsFormatError(f"setting pair ({x},{y}) absent")
    return CountsRecord(label=label, claimed_initial_purity=claimed, counts=seen)


def ingest_counts(path: str) -> CountsRecord:
    """Load and validate a counts JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CountsFormatError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise CountsFormatError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from exc
        except RecursionError as exc:
            raise CountsFormatError(f"{path}: JSON nested too deeply") from exc
        except ValueError as exc:
            # e.g. an integer literal longer than Python's int conversion limit
            raise CountsFormatError(f"{path}: unreadable JSON: {exc}") from exc
    try:
        return counts_record_from_dict(data)
    except CountsFormatError as exc:
        raise CountsFormatError(f"{path}: {exc}") from exc


def hoeffding_width(n: int, delta: float) -> float:
    """Per-setting half width sqrt(ln(8/delta) / (2 n))."""
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    # below about 4.45e-308, 8/delta overflows and every width is infinite
    if math.isinf(8.0 / delta):
        raise DomainError(f"delta {delta!r} is too small: 8/delta overflows")
    if n < 1:
        raise DomainError("n must be >= 1")
    return math.sqrt(math.log(8.0 / delta) / (2.0 * n))


def estimate_b1(rec: CountsRecord, delta: float) -> tuple[float, float]:
    """Point estimate of B1 and its one-sided lower confidence value."""
    b1_hat = functools.reduce(operator.add, (rec.empirical_prob(*t) for t in B1_TERMS))
    width = sum(hoeffding_width(rec.total(x, y), delta) for x, y in SETTING_PAIRS)
    return b1_hat, b1_hat - width
