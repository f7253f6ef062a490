"""Closed-form predictions for the attack's phase-1 behavior.

These calculators quantify why the greedy first pass misses some of the
per-register maxima and what that costs the final estimate:

* during the low-range (linear counting) window, the first
  switch_factor * R elements of the stream, the estimate moves only
  when a zero register fills, so of each register only the first
  arrival is visible. A register's maximum is missed when it arrives
  inside the window without being that first arrival and no later
  element beats it; the phase-1 set then holds the first arrival's
  rank. Per register, the window holds a Poisson count of mean
  switch_factor and the rest of a stream of N elements a Poisson count
  of mean N/R - switch_factor. This first-arrival loss is the main one;
* once the harmonic-mean estimate is in use, a register update changes
  the denominator Z by delta = 2**-c_old - 2**-c_new, which moves the
  rounded integer estimate only when the resulting increment reaches
  0.5. Rounding hides a few more raises right after the crossover.

All functions are pure; ``alpha`` defaults to the same bias-correction
constant the sketch uses for that register count, and the window is
that of the sketch's crossover, fixed at 2.5R (switch_factor = 2.5).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .sketch import HllParams, alpha_for_registers

_SWITCH_FACTOR = HllParams.switch_factor

__all__ = [
    "expected_missed_lpca",
    "z_delta",
    "estimate_increment",
    "IncrementPrediction",
    "undetectable_delta_threshold",
    "miss_condition_register_value",
    "expected_register_value",
    "predicted_phase1_ratio",
]


def expected_missed_lpca(register_count: int, distinct_items: int) -> float:
    """Expected count of per-register maxima hidden by the low-range regime.

    Counts the missed maxima of the module docstring with ranks taken as
    continuous: each of a register's N/R arrivals is equally likely to
    hold its maximum, and about switch_factor - 1 of them arrive inside
    the window after the first. That gives (switch_factor - 1) * R**2 / N,
    i.e. 1.5 * R**2 / N. Tied geometric ranks favour the earliest holder
    of the maximum, so the count of the mechanism itself runs higher
    (``predicted_phase1_ratio`` keeps the ties): per-register bookkeeping
    at R=256, N/R=10 counts 44.7 missed maxima (30 seeds) against this
    formula's 38.4, and the geometric-rank sum gives about 2.26 * R**2 / N
    in the deep regime. The formula stays as the paper's approximation.
    """
    if distinct_items < register_count:
        raise ValueError(
            "approximation requires at least as many items as registers"
        )
    return (_SWITCH_FACTOR - 1.0) * register_count * register_count / distinct_items


def z_delta(c_old: int, c_new: int) -> float:
    """Change of the denominator Z when a register moves c_old -> c_new."""
    if c_old < 0 or c_new < c_old:
        raise ValueError("requires 0 <= c_old <= c_new")
    return 2.0**-c_old - 2.0**-c_new


class IncrementPrediction(NamedTuple):
    exact: float
    approx: float


def estimate_increment(
    delta: float,
    estimate: float,
    register_count: int,
    alpha: float | None = None,
    z: float | None = None,
) -> IncrementPrediction:
    """Estimate change caused by a register update of denominator-delta.

    exact  = alpha * R**2 * delta / (Z * (Z - delta))
    approx = delta * estimate**2 / (alpha * R**2)

    ``z`` defaults to alpha * R**2 / estimate (the denominator consistent
    with the given estimate). The approximation converges on the exact
    value as delta/Z -> 0.
    """
    if alpha is None:
        alpha = alpha_for_registers(register_count)
    alpha_r2 = alpha * register_count * register_count
    if z is None:
        if estimate <= 0:
            raise ValueError("estimate must be positive when z is not given")
        z = alpha_r2 / estimate
    if not 0 < delta < z:
        raise ValueError(f"requires 0 < delta < Z, got delta={delta} Z={z}")
    exact = alpha_r2 * delta / (z * (z - delta))
    approx = delta * estimate * estimate / alpha_r2
    return IncrementPrediction(exact, approx)


def undetectable_delta_threshold(
    register_count: int, estimate: float, alpha: float | None = None
) -> float:
    """Largest denominator-delta whose rounded estimate change stays < 0.5."""
    if estimate < 1:
        raise ValueError("estimate must be at least 1")
    if alpha is None:
        alpha = alpha_for_registers(register_count)
    return 0.5 * alpha * register_count * register_count / (estimate * estimate)


def miss_condition_register_value(
    register_count: int, estimate: float, alpha: float | None = None
) -> float:
    """Register value above which an update can escape the rounded estimate.

    Solving 2**-c_old < 0.5 * alpha * R**2 / estimate**2 for c_old gives
    c_old > 1 - log2(alpha) + 2 * log2(estimate / R). Compare with
    ``expected_register_value``: the gap is what makes such misses rare.
    """
    if estimate < register_count:
        raise ValueError("requires estimate >= register_count")
    if alpha is None:
        alpha = alpha_for_registers(register_count)
    return 1.0 - math.log2(alpha) + 2.0 * math.log2(estimate / register_count)


def expected_register_value(register_count: int, estimate: float) -> float:
    """Typical register value when the sketch estimates ``estimate``."""
    if estimate < register_count:
        raise ValueError("requires estimate >= register_count")
    return 1.0 + math.log2(estimate / register_count)


def predicted_phase1_ratio(
    register_count: int, target_cardinality: int, z_full: float
) -> float:
    """Predicted ratio of the phase-1 set's estimate to the full stream's.

    Derivation, per register, for the missed maxima of the module
    docstring with geometric ranks (P(rank = k) = 2**-k). Write s for
    switch_factor and m = C/R - s for the mean count after the window.
    Phase 1 keeps the first window arrival (it fills a zero register)
    and, after the window, every arrival that raises the register. So
    the phase-1 register holds the first arrival's rank F when the
    window maximum W is at least every later rank, and the register
    maximum otherwise. Its share of Z then exceeds the stream's by
    2**-F - 2**-W whenever F < W.

    Let B be the largest rank among the window arrivals after the first
    (0 if there are none). With x = 1 - 2**-b, the window is non-empty
    and B <= b with probability H(b) = e**-s * (e**(s*x) - 1) / x.
    Given B = b, the loss needs F = a < b, and summing
    2**-a * (2**-a - 2**-b) over a < b gives (1 - 2**-b)(1 - 2**(1-b))/3.
    No later arrival beats b with probability exp(-m * 2**-b). So the
    expected excess of Z per register is

        E = sum over b >= 2 of (H(b) - H(b-1))
            * (1 - 2**-b) * (1 - 2**(1-b)) / 3 * exp(-m * 2**-b).

    The phase-1 set fills the same registers as the stream, so both
    estimates are harmonic means and the ratio is
    z_full / (z_full + R * E). R * E is 0.41, 0.55 and 0.67 times R**2/C
    at C/R = 5, 10 and 25, tending to 0.76 as C/R grows. Raises that
    rounding hides after the crossover are left out, so the measured
    ratio runs slightly below this prediction. Only R, C, z_full and
    the switch factor enter; nothing from a phase-1 run does.
    """
    if target_cardinality < 5 * register_count:
        raise ValueError("approximation requires target_cardinality >= 5 * R")
    if z_full <= 0:
        raise ValueError("z_full must be positive")
    s = _SWITCH_FACTOR
    after = target_cardinality / register_count - s

    def window_max_below(b: int) -> float:  # H(b) above
        x = 1.0 - 2.0**-b
        return math.exp(-s) * math.expm1(s * x) / x

    excess = 0.0
    below = window_max_below(1)
    for b in range(2, 65):
        at_most = window_max_below(b)
        tail = 2.0**-b
        excess += (
            (at_most - below)
            * (1.0 - tail) * (1.0 - 2.0 * tail) / 3.0
            * math.exp(-after * tail)
        )
        below = at_most
    return z_full / (z_full + register_count * excess)
