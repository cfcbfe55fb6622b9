"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Tolerances are stated inline with every check.  Criterion 6 checks each
qudit search against the attainable maximum max(3 - 1/d, 4(1 - 1/d)) on the
maximally mixed input and against the paper's ceiling max(3, 4(1 - 1/d)).
The two differ only at d = 3, where no qutrit protocol on I/3 exceeds 8/3
(derivation in the test); the 1/3 gap to the ceiling is printed.
"""

import math
import time

import numpy as np
import pytest

from purity_witness.certificate import certify
from purity_witness.counts import CountsRecord
from purity_witness.optimizer import (
    maximize_b1_qubit,
    maximize_b1_qudit_maxmixed,
    monotonicity_sweep,
)
from purity_witness.quantum import (
    DensityMatrix,
    partial_trace,
    purity,
    random_density,
    wootters_concurrence,
)
from purity_witness.sequence import (
    b1,
    b1_weights,
    correlations,
    qudit_maxmixed_protocol,
    qutrit_value4_protocol,
    theorem2_protocol,
)
from purity_witness.witness import (
    b1_max_constrained,
    b1_max_initial,
    b1_threshold,
    concurrence_bounds_from_state,
    concurrence_upper_from_b1,
    postmeasurement_purity_bound,
    robustness_penalty,
)

from protocols import random_qubit_protocol


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _exact_counts(p: float, w: float, shots: int) -> CountsRecord:
    rho, protocol = theorem2_protocol(p, w)
    table = correlations(rho, protocol)
    counts = {}
    for x in (0, 1):
        for y in (0, 1):
            block = {}
            for i, a in enumerate("+-"):
                for j, b_ in enumerate("+-"):
                    raw = table.probs[i, j, x, y] * shots
                    assert abs(raw - round(raw)) < 1e-9, "non-integer exact counts"
                    block[a + b_] = int(round(raw))
            counts[(x, y)] = block
    return CountsRecord(label=f"exact p={p} w={w}", claimed_initial_purity=None, counts=counts)


def test_criterion_1_maximum_vs_initial_length():
    t0 = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        rho, protocol = theorem2_protocol(float(p), 1.0)
        val = b1(correlations(rho, protocol))
        worst = max(worst, abs(val - 0.5 * (5.0 + p)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "B1 vs initial Bloch length", ok, f"worst dev {worst:.2e}, {elapsed:.2f}s (tol 1e-12, <1s)")


def test_criterion_2_constrained_maximum_surface():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_excess = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        for w in np.linspace(0.0, 1.0, 11):
            rep = maximize_b1_qubit(float(p), float(w), restarts=100, seed=42)
            worst_gap = max(worst_gap, rep.closed_form - rep.best_value)
            worst_excess = max(worst_excess, rep.best_value - rep.closed_form)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_excess <= 1e-7 and elapsed < 300.0
    _report(
        2,
        "piecewise maximum surface",
        ok,
        f"worst gap {worst_gap:.2e} (tol 1e-6), worst excess {worst_excess:.2e} "
        f"(tol 1e-7), {elapsed:.1f}s (<300s)",
    )


def test_criterion_3_purity_bound_endpoints():
    cert_pure = certify(_exact_counts(1.0, 1.0, 1600))
    cert_mid = certify(_exact_counts(0.5, 1.0, 1600))
    cert_triv = certify(_exact_counts(0.0, 1.0, 1600))
    ok = (
        abs(cert_pure.b1_hat - 3.0) <= 1e-12
        and cert_pure.purity_point.purity_lower >= 1.0 - 1e-9
        and abs(cert_mid.b1_hat - 2.75) <= 1e-12
        and abs(cert_mid.purity_point.purity_lower - 0.625) <= 1e-9
        and abs(cert_triv.b1_hat - 2.5) <= 1e-12
        and cert_triv.purity_point.purity_lower == 0.5
        and cert_triv.purity_point.trivial
    )
    _report(
        3,
        "purity bound endpoints",
        ok,
        f"b1=3 -> {cert_pure.purity_point.purity_lower:.12f}, "
        f"b1=2.75 -> {cert_mid.purity_point.purity_lower:.12f}, "
        f"b1=2.5 -> {cert_triv.purity_point.purity_lower} "
        f"trivial={cert_triv.purity_point.trivial} (tol 1e-9)",
    )


def test_criterion_4_postmeasurement_purity_identity():
    worst = 0.0
    checked = 0
    for p in np.linspace(0.0, 1.0, 101):
        pur = 0.5 * (1.0 + p * p)
        b1_lo, b1_hi = 2.0 + 1e-9, b1_max_initial(float(p))
        for b1_val in np.linspace(b1_lo, b1_hi, 101):
            rational = (
                14.0
                + 4.0 * b1_val**2
                + pur
                + 5.0 * p
                - 2.0 * b1_val * (7.0 + p)
            ) / (4.0 + pur + 3.0 * p)
            w = (4.0 * b1_val - 7.0 - p) / (3.0 + p)
            inversion = 0.5 * (1.0 + w * w)
            got = postmeasurement_purity_bound(float(b1_val), pur).purity_lower
            worst = max(
                worst,
                abs(rational - inversion),
                abs(got - min(max(inversion, 0.5), 1.0)),
            )
            checked += 1
    worked = postmeasurement_purity_bound(2.75, 1.0).purity_lower
    ok = worst <= 1e-10 and abs(worked - 0.78125) <= 1e-12 and checked == 101 * 101
    _report(
        4,
        "post-measurement purity identity",
        ok,
        f"worst dev {worst:.2e} over {checked} points (tol 1e-10), "
        f"worked point {worked:.6f} (expect 0.78125)",
    )


def test_criterion_5_robustness_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    n = 0
    while n < 100:
        p = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(0.0, 1.0))
        if 1.0 - eps <= b1_threshold(p):
            continue
        drop = b1_max_initial(p) - b1_max_constrained(p, 1.0 - eps)
        worst = max(worst, abs(drop - robustness_penalty(p, eps)))
        worst = max(worst, abs(drop - 0.25 * (3.0 + p) * eps))
        n += 1
    ok = worst <= 1e-12
    _report(5, "robustness identity", ok, f"worst dev {worst:.2e} over 100 samples (tol 1e-12)")


def test_criterion_6_qudit_bounds():
    t0 = time.perf_counter()
    details = []
    ok = True
    # Attainable maximum on rho = 1/d.  With E0 = E_{+|0}, E1 = E_{+|1} and
    # D = E0 - E1, the best post states give
    #   d*B1 = tr E0 (1 + lmax(D)) + tr E1 (1 + lmax(-D)).
    # Projecting onto the positive part of D gives tr E1 <= d - tr D+ (and
    # tr E0 <= d - tr D-); with tr D+- >= ||D+-|| =: a, b in [0, 1],
    #   d*B1 <= 2d + (d - 1)(a + b) - 2ab,
    # which is bilinear, so its maximum sits at a corner:
    #   B1 <= max(3 - 1/d, 4(1 - 1/d)),
    # attained by projective protocols.  This is 8/3 at d = 3 and equals the
    # ceiling max(3, 4(1 - 1/d)) for d >= 4.
    for d in (3, 4, 5):
        rep = maximize_b1_qudit_maxmixed(d, restarts=100, seed=42)
        ceiling = max(3.0, 4.0 * (1.0 - 1.0 / d))
        attainable = max(3.0 - 1.0 / d, 4.0 * (1.0 - 1.0 / d))
        attained = abs(attainable - rep.best_value) <= 1e-5
        sound = (
            rep.best_value <= attainable + 1e-7
            and rep.best_value <= ceiling + 1e-7
        )
        ok = ok and attained and sound
        details.append(
            f"d={d} best {rep.best_value:.8f} vs attainable {attainable:.8f} "
            f"(ceiling {ceiling:.8f})"
        )
    for d in (4, 5):
        rho, protocol = qudit_maxmixed_protocol(d)
        val = b1(correlations(rho, protocol))
        exact = abs(val - 4.0 * (1.0 - 1.0 / d)) <= 1e-12
        ok = ok and exact
        details.append(f"protocol d={d} -> {val:.12f}")
    rho, protocol = qutrit_value4_protocol()
    val4 = b1(correlations(rho, protocol))
    ok = ok and abs(val4 - 4.0) <= 1e-15
    # the same measurements on I/3 attain the d = 3 maximum without a search
    val_mm = b1(correlations(DensityMatrix(np.eye(3) / 3), protocol))
    ok = ok and abs(val_mm - 8.0 / 3.0) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    details.append(f"qutrit -> {val4}")
    details.append(f"qutrit on I/3 -> {val_mm:.12f}")
    _report(
        6,
        "qudit bounds",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s (<600s); search tol 1e-5",
    )


def test_criterion_7_concurrence_sandwich():
    n_states = 10_000
    rng = np.random.default_rng(7)
    worst_slack = 0.0
    obs2_worst = 0.0
    protocols = [random_qubit_protocol(rng) for _ in range(100)]
    check_obs2 = rng.choice(n_states, size=50, replace=False)
    check_set = set(int(i) for i in check_obs2)
    for k in range(n_states):
        rho = random_density(4, int(rng.integers(1, 5)), k)
        c = wootters_concurrence(rho)
        bound = concurrence_bounds_from_state(rho)
        worst_slack = max(
            worst_slack, bound.lower - c, c - bound.upper
        )
        if k in check_set:
            # second-step measurements act on subsystem A only
            rho_a = partial_trace(rho, "A")
            for protocol in protocols:
                val = b1(correlations(rho_a, protocol))
                upper = concurrence_upper_from_b1(min(val, 3.0)).upper
                obs2_worst = max(obs2_worst, c - upper)
    ok = worst_slack <= 1e-7 and obs2_worst <= 1e-7
    _report(
        7,
        "concurrence sandwich",
        ok,
        f"sandwich slack {worst_slack:.2e} over {n_states} states, "
        f"temporal-bound slack {obs2_worst:.2e} over 50x100 protocol checks "
        f"(tol 1e-7)",
    )


def test_criterion_8_monotonicity():
    purities = [0.5 + 0.5 * i / 7 for i in range(8)]
    results = monotonicity_sweep(b1_weights(), 2, purities, restarts=30, seed=11)
    vals = [rep.best_value for _, rep in results]
    mono_dev = max(
        [0.0] + [a - b for a, b in zip(vals, vals[1:])]
    )
    closed_dev = max(
        abs(rep.best_value - b1_max_initial(math.sqrt(2.0 * pur - 1.0)))
        for pur, rep in results
    )
    ok = mono_dev <= 1e-5 and closed_dev <= 1e-5
    _report(
        8,
        "monotonicity in purity",
        ok,
        f"monotonicity dev {mono_dev:.2e}, closed-form dev {closed_dev:.2e} "
        f"over 8 purities (tol 1e-5)",
    )


def test_criterion_9_statistical_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    trials = 1000
    violations = 0
    for _ in range(trials):
        p = float(rng.uniform(0.0, 1.0))
        w = float(rng.uniform(0.0, 1.0))
        shots = int(rng.integers(50, 2000))
        rho, protocol = theorem2_protocol(p, w)
        table = correlations(rho, protocol)
        counts = {}
        for x in (0, 1):
            for y in (0, 1):
                probs = np.clip(table.probs[:, :, x, y].ravel(), 0.0, None)
                probs /= probs.sum()
                draw = rng.multinomial(shots, probs)
                counts[(x, y)] = {
                    "++": int(draw[0]),
                    "+-": int(draw[1]),
                    "-+": int(draw[2]),
                    "--": int(draw[3]),
                }
        rec = CountsRecord(label="trial", claimed_initial_purity=None, counts=counts)
        cert = certify(rec, delta=0.05)
        if cert.purity_conf.purity_lower > purity(rho) + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - t0
    rate = violations / trials
    ok = rate <= 0.08 and elapsed < 300.0
    _report(
        9,
        "statistical soundness",
        ok,
        f"{violations}/{trials} violated certificates ({100 * rate:.1f}%, "
        f"allowed 8%), {elapsed:.1f}s (<300s)",
    )
