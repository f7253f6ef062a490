"""Closed-form calculators: golden anchors, algebra, Monte-Carlo cross-checks."""

import math
import random
import statistics

import pytest

from hllrt import (
    HllParams,
    HllSketch,
    alpha_for_registers,
)
from hllrt._kernel import stream_elements
from hllrt.analysis import (
    estimate_increment,
    expected_missed_lpca,
    expected_register_value,
    miss_condition_register_value,
    predicted_phase1_ratio,
    undetectable_delta_threshold,
    z_delta,
)
from splits import hash_split


# -- expected_missed_lpca ------------------------------------------------------


def test_missed_anchor_value():
    # 1.5 * 4096**2 / 1e6 = 25.17: a million-item stream hides only ~25
    # of the 4096 per-register maxima from the greedy pass.
    assert expected_missed_lpca(4096, 1_000_000) == pytest.approx(25.2, abs=0.1)


def test_missed_vanishes_for_huge_streams():
    r = 1024
    assert expected_missed_lpca(r, 10 * r * r) == pytest.approx(0.15)


def test_missed_rejects_small_streams():
    with pytest.raises(ValueError):
        expected_missed_lpca(4096, 4095)


def missed_registers(params, seed, n):
    """Independent bookkeeping of the mechanism behind expected_missed_lpca
    and predicted_phase1_ratio: the registers whose maximum arrives during
    the low-range window without being the register's first element, as
    (first arrival's rank, maximum) of each."""
    sketch = HllSketch(params)
    first_arrival = {}
    best = {}
    switch_at = None
    threshold = params.switch_factor * params.register_count
    for k, element in enumerate(stream_elements(seed, 0, n)):
        index, rank = hash_split(element, params)
        if index not in first_arrival:
            first_arrival[index] = (rank, k)
        current = best.get(index)
        if current is None or rank > current[0]:
            best[index] = (rank, k)
        if switch_at is None:
            # The sketch only locates the end of the low-range window.
            sketch.insert(element)
            # The linear-counting estimate R * ln(R / V) passes switch_factor * R.
            r, zero = params.register_count, sketch.zero_register_count()
            if zero == 0 or r * math.log(r / zero) > threshold:
                switch_at = k
    if switch_at is None:
        switch_at = n
    return [
        (first_arrival[index][0], rank)
        for index, (rank, pos) in best.items()
        if pos < switch_at and pos != first_arrival[index][1]
    ]


def missed_maxima_simulation(params, seed, n):
    """Independent count of the mechanism behind expected_missed_lpca."""
    return len(missed_registers(params, seed, n))


def test_missed_matches_monte_carlo_example():
    # R=256, N=100k: formula gives 0.98; the direct simulation of the
    # mechanism must agree within a factor of two.
    params = HllParams(256, 6)
    counts = [missed_maxima_simulation(params, seed, 100_000) for seed in range(30)]
    mean = statistics.fmean(counts)
    formula = expected_missed_lpca(256, 100_000)
    assert formula == pytest.approx(0.983, abs=0.01)
    assert formula / 2 <= mean <= formula * 2


def test_missed_matches_monte_carlo_across_regimes():
    params = HllParams(256, 6)
    for n_over_r in (10, 200):
        n = 256 * n_over_r
        counts = [missed_maxima_simulation(params, seed, n) for seed in range(15)]
        mean = statistics.fmean(counts)
        formula = expected_missed_lpca(256, n)
        assert formula / 2 <= mean <= formula * 2


# -- z_delta -------------------------------------------------------------------


def test_z_delta_values():
    assert z_delta(3, 4) == pytest.approx(1 / 16)
    assert z_delta(5, 5) == 0.0
    # A 6 -> 8 bump moves Z by 3/256, under the 0.015 visibility
    # threshold of the R=4096, estimate-20000 operating point.
    assert z_delta(6, 8) == pytest.approx(3 / 256)
    assert z_delta(6, 8) < undetectable_delta_threshold(4096, 20000)


def test_z_delta_rejects_bad_order():
    with pytest.raises(ValueError):
        z_delta(4, 3)
    with pytest.raises(ValueError):
        z_delta(-1, 3)


# -- estimate_increment --------------------------------------------------------


def test_increment_identity_at_half_z():
    # At delta = Z/2 the exact increment is alpha*R^2/Z, i.e. exactly
    # twice what the second-order-free approximation claims.
    r, alpha = 1024, alpha_for_registers(1024)
    z = 150.0
    estimate = alpha * r * r / z
    pred = estimate_increment(z / 2, estimate, r, z=z)
    assert pred.exact == pytest.approx(alpha * r * r / z)
    assert pred.exact == pytest.approx(2 * pred.approx)


def test_increment_for_a_large_register_jump():
    # R=1024, register 0 -> 7 while the estimate is ~5000 and the
    # denominator ~150: the estimate jumps by roughly 5000/149 ~ 34.
    delta = z_delta(0, 7)
    pred = estimate_increment(delta, 5000, 1024, z=150.0)
    assert pred.exact == pytest.approx(34, abs=1.5)


def test_increment_approx_converges():
    rng = random.Random(6)
    r, alpha = 4096, alpha_for_registers(4096)
    for _ in range(200):
        z = rng.uniform(50, 2000)
        delta = rng.uniform(1e-9, z / 100)
        estimate = alpha * r * r / z
        pred = estimate_increment(delta, estimate, r, z=z)
        assert abs(pred.approx - pred.exact) / pred.exact < 0.02


def test_increment_rejects_degenerate_delta():
    with pytest.raises(ValueError):
        estimate_increment(0.0, 1000, 1024, z=100.0)
    with pytest.raises(ValueError):
        estimate_increment(101.0, 1000, 1024, z=100.0)


def test_increment_consistent_with_sketch():
    # The exact formula must equal the difference of two raw estimates
    # on sketches differing in a single register.
    params = HllParams(256, 6)
    header = HllSketch(params).to_bytes()[:-256]
    rng = random.Random(8)
    registers = bytearray(rng.randrange(0, 12) for _ in range(256))

    def z_and_raw_estimate():
        z = HllSketch.from_bytes(header + registers).z_denominator()
        return z, params.alpha * 256 * 256 / z

    for index, c_old, c_new in ((3, 2, 5), (100, 0, 7), (255, 9, 10)):
        registers[index] = c_old
        z, before = z_and_raw_estimate()
        delta = z_delta(c_old, c_new)
        pred = estimate_increment(delta, before, 256, z=z)
        registers[index] = c_new
        assert pred.exact == pytest.approx(z_and_raw_estimate()[1] - before, abs=1e-9)


# -- thresholds ----------------------------------------------------------------


def test_threshold_anchor_value():
    assert undetectable_delta_threshold(4096, 20000) == pytest.approx(0.015, abs=0.002)


def test_threshold_at_low_cardinality():
    value = undetectable_delta_threshold(4096, 4096)
    assert value == pytest.approx(0.5 * alpha_for_registers(4096))


def test_threshold_scales_inverse_square():
    one = undetectable_delta_threshold(4096, 10000)
    two = undetectable_delta_threshold(4096, 20000)
    assert one / two == pytest.approx(4.0)


def test_miss_condition_anchor():
    # R=4096 at estimate 32000: misses need a register beyond ~7.4
    # while the typical register sits near 4.
    bound = miss_condition_register_value(4096, 32000)
    assert 7.0 <= bound <= 8.5
    assert expected_register_value(4096, 32000) == pytest.approx(4.0, abs=0.1)
    gap = bound - expected_register_value(4096, 32000)
    assert gap == pytest.approx(
        -math.log2(alpha_for_registers(4096)) + math.log2(32000 / 4096)
    )


def test_miss_condition_at_estimate_equal_r():
    bound = miss_condition_register_value(4096, 4096)
    assert bound == pytest.approx(1 - math.log2(alpha_for_registers(4096)))
    with pytest.raises(ValueError):
        miss_condition_register_value(4096, 4095)


# -- phase-1 ratio prediction ----------------------------------------------------


def test_phase1_ratio_correction_vanishes_for_huge_streams():
    # For a fixed denominator the R**2/C correction term vanishes as C
    # grows, so the predicted ratio tends to 1.
    r = 4096
    z_full = 100.0
    assert predicted_phase1_ratio(r, 10 * r * r, z_full) == pytest.approx(1.0, abs=1e-3)
    assert predicted_phase1_ratio(r, 100 * r * r, z_full) == pytest.approx(1.0, abs=1e-4)


def phase1_excess_by_enumeration(c_over_r):
    """Expected Z excess per register of the phase-1 set, enumerating the
    window count n (Poisson), the first arrival's rank a and the largest
    rank b of the other n - 1 window arrivals. The loss 2**-a - 2**-b
    counts when a < b and no arrival after the window beats b."""
    window = HllParams.switch_factor
    after = c_over_r - window
    total = 0.0
    for n in range(2, 60):
        weight = math.exp(-window) * window**n / math.factorial(n)
        for b in range(2, 64):
            p_max = (1 - 2.0**-b) ** (n - 1) - (1 - 2.0 ** (1 - b)) ** (n - 1)
            unbeaten = math.exp(-after * 2.0**-b)
            for a in range(1, b):
                total += weight * 2.0**-a * p_max * (2.0**-a - 2.0**-b) * unbeaten
    return total


def test_phase1_ratio_loss_band_in_deep_regime():
    # With z_full = alpha*R**2/C the prediction reduces to
    # alpha / (alpha + (C/R) * E), E the per-register Z excess. The
    # ratio settles near 0.54 at C/R = 15 and 0.49 at C/R = 1000.
    anchors = {15: 0.54, 1000: 0.49}
    for mult in (15, 25, 100, 1000):
        excess = phase1_excess_by_enumeration(mult)
        for r in (1024, 4096, 16384):
            alpha = alpha_for_registers(r)
            c = mult * r
            expected = alpha / (alpha + mult * excess)
            assert 0.45 <= expected <= 0.55
            if mult in anchors:
                assert expected == pytest.approx(anchors[mult], abs=0.005)
            assert predicted_phase1_ratio(r, c, alpha * r * r / c) == pytest.approx(
                expected, abs=1e-6
            )


def test_phase1_ratio_tracks_the_simulated_mechanism():
    # R=256: the Z excess of the registers that keep their first arrival's
    # rank instead of their maximum, from direct bookkeeping, against the
    # closed form (read back with z_full = 1: ratio = 1 / (1 + R * E)).
    # 30 seeds put the simulated mean's standard error near 3.5%.
    params = HllParams(256, 6)
    for mult in (5, 10):
        n = 256 * mult
        excesses = [
            sum(2.0**-first - 2.0**-top for first, top in missed_registers(params, seed, n))
            for seed in range(30)
        ]
        closed_form = 1 / predicted_phase1_ratio(256, n, 1.0) - 1
        assert statistics.fmean(excesses) == pytest.approx(closed_form, rel=0.15)


def test_phase1_ratio_rejects_small_c():
    with pytest.raises(ValueError):
        predicted_phase1_ratio(4096, 4 * 4096, 100.0)
    with pytest.raises(ValueError):
        predicted_phase1_ratio(4096, 5 * 4096, 0.0)
