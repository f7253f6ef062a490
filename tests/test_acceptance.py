"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
The expensive multi-run blocks are shared through session fixtures.
"""

import math
import os
import statistics
import time
from dataclasses import dataclass

import pytest

from hllrt import (
    CountingOracle,
    ElementGenerator,
    HllParams,
    HllSketch,
    SnsGuard,
    StatsMonitor,
    default_divergence_threshold,
    make_oracle,
    run_attack,
    verify,
)
from hllrt._kernel import RegisterFile, stream_elements
from hllrt._kernel._pykernel import _splitmix64 as splitmix64
from hllrt.analysis import (
    expected_missed_lpca,
    expected_register_value,
    miss_condition_register_value,
    predicted_phase1_ratio,
    undetectable_delta_threshold,
)
from hllrt.attack import phase1
from hllrt.remote import RemoteOracle
from hllrt.sketch import alpha_for_registers


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# -- shared expensive blocks ----------------------------------------------------

PRESTO_R = 4096
PRESTO_CARDINALITIES = (20000, 40000, 60000, 80000, 100000)
PRESTO_SEEDS = (1, 2, 3, 4, 5)


@dataclass
class PrestoRun:
    cardinality: int
    seed: int
    set_size: int
    verify_estimate: int
    counted_insertions: int
    stream_registers: int


@pytest.fixture(scope="session")
def presto_runs():
    """Table-scale sweep: R=4096, width 6, five seeds per cardinality."""
    params = HllParams(PRESTO_R, 6)
    runs = []
    started = time.perf_counter()
    for cardinality in PRESTO_CARDINALITIES:
        for seed in PRESTO_SEEDS:
            counters = []
            sketches = []

            def factory():
                inner = make_oracle(params)
                sketches.append(inner.sketch)
                counters.append(CountingOracle(inner))
                return counters[-1]

            run = run_attack(factory, seed, cardinality)
            # The phase-1 oracle ends holding the whole stream.
            stream_registers = PRESTO_R - sketches[0].zero_register_count()
            estimate = verify(make_oracle(params), run.attack_set)
            runs.append(
                PrestoRun(
                    cardinality=cardinality,
                    seed=seed,
                    set_size=len(run.attack_set.elements),
                    verify_estimate=estimate,
                    counted_insertions=sum(o.insertions for o in counters),
                    stream_registers=stream_registers,
                )
            )
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_criterion_1_attack_set_size(presto_runs):
    # Table-2 reproduction: mean phase-3 set size within [R, 1.05 R].
    # Phase 3 keeps one element per register the stream sets, so the
    # per-C mean of those registers is printed beside the mean |V|. The
    # runtime is printed, not judged: it follows the machine and the
    # kernel backend, and criterion 8 bounds the attack's cost.
    runs, elapsed = presto_runs

    def per_c(field):
        return [
            round(statistics.fmean(getattr(r, field) for r in runs if r.cardinality == c), 1)
            for c in PRESTO_CARDINALITIES
        ]

    grand = statistics.fmean(r.set_size for r in runs)
    low, high = PRESTO_R, 1.05 * PRESTO_R
    ok = low <= grand <= high
    detail = (
        f"mean |V| = {grand:.1f} (band [{low}, {high:.0f}]), "
        f"per-C means |V| {per_c('set_size')} vs stream-set registers "
        f"{per_c('stream_registers')}, runtime {elapsed:.1f}s"
    )
    assert report(1, ok, detail), detail


def test_criterion_2_achieved_estimate(presto_runs):
    # Table-1 reproduction: mean phase-3 verify-estimate within 3% of C.
    runs, _ = presto_runs
    deviations = {}
    for c in PRESTO_CARDINALITIES:
        mean_estimate = statistics.fmean(
            r.verify_estimate for r in runs if r.cardinality == c
        )
        deviations[c] = (mean_estimate - c) / c
    ok = all(abs(d) <= 0.03 for d in deviations.values())
    detail = "deviations " + ", ".join(
        f"C={c}: {100 * d:+.2f}%" for c, d in deviations.items()
    )
    assert report(2, ok, detail), detail


def test_criterion_3_phase1_deficit():
    # Across C/R in [5, 25] the phase-1 estimate ratio stays at most
    # 0.95 (phase 1 alone falls short, which is why phase 2 exists), and
    # its lower edge is the closed-form prediction: the Monte-Carlo
    # ratio is within 0.1 of it.
    params = HllParams(PRESTO_R, 6)
    rows = []
    for mult in (5, 10, 15, 20, 25):
        cardinality = mult * PRESTO_R
        ratios, predictions, gaps = [], [], []
        for seed in (1, 2, 3):
            gen = ElementGenerator(seed)
            y1, _ = phase1(make_oracle(params), gen, cardinality)
            stream_sketch = HllSketch(params)
            stream_sketch.insert_many(gen.stream(cardinality))
            ratio = verify(make_oracle(params), y1) / stream_sketch.estimate()
            prediction = predicted_phase1_ratio(
                PRESTO_R, cardinality, stream_sketch.z_denominator()
            )
            ratios.append(ratio)
            predictions.append(prediction)
            gaps.append(ratio - prediction)
        rows.append(
            (mult, statistics.fmean(ratios), statistics.fmean(predictions), statistics.fmean(gaps))
        )
    short = all(ratio <= 0.95 for _, ratio, _, _ in rows)
    tracked = all(abs(gap) <= 0.1 for _, _, _, gap in rows)
    ok = short and tracked
    detail = "; ".join(
        f"C/R={mult}: ratio {ratio:.3f}, prediction {prediction:.3f}, gap {gap:+.3f}"
        for mult, ratio, prediction, gap in rows
    )
    assert report(3, ok, detail), detail


def test_criterion_4_appendix_anchors():
    missed = expected_missed_lpca(4096, 1_000_000)
    threshold = undetectable_delta_threshold(4096, 20000)
    bound = miss_condition_register_value(4096, 32000)
    typical = expected_register_value(4096, 32000)
    ok = (
        abs(missed - 25.2) <= 0.1
        and abs(threshold - 0.015) <= 0.002
        and 7.0 <= bound <= 8.5
        and abs(typical - 4.0) <= 0.2
    )
    detail = (
        f"missed(4096, 1e6) = {missed:.2f}; threshold(4096, 20000) = {threshold:.4f}; "
        f"miss bound(4096, 32000) = {bound:.2f} vs typical register {typical:.2f}"
    )
    assert report(4, ok, detail), detail


def test_criterion_5_estimator_accuracy():
    # R=1024, 100k items, 200 trials: relative RMS error within
    # [0.7, 1.4] x 1.04/sqrt(R).
    r, n, trials = 1024, 100_000, 200
    alpha = alpha_for_registers(r)
    errors = []
    for trial in range(trials):
        core = RegisterFile(r, 6, 0, alpha, 2.5)
        core.insert_many(stream_elements(5000 + trial, 0, n))
        errors.append((core.estimate() - n) / n)
    rms = math.sqrt(statistics.fmean(e * e for e in errors))
    base = 1.04 / math.sqrt(r)
    ok = 0.7 * base <= rms <= 1.4 * base
    detail = f"relative RMS error {rms:.4f} vs band [{0.7 * base:.4f}, {1.4 * base:.4f}]"
    assert report(5, ok, detail), detail


@pytest.fixture(scope="session")
def sns_attack_sets():
    r = 1024
    params = HllParams(r, 6)
    sets = []
    for seed in range(50):
        run = run_attack(lambda: make_oracle(params), seed, 20 * r)
        sets.append(run.attack_set)
    return params, sets


def test_criterion_6_sns_detector(sns_attack_sets):
    params, attack_sets = sns_attack_sets
    r = params.register_count
    theta = default_divergence_threshold(r)

    attack_alarms = 0
    for index, attack_set in enumerate(attack_sets):
        guard = SnsGuard(params, shadow_salt=splitmix64(10_000 + index) | 1)
        guard.insert_many(attack_set.elements)
        attack_alarms += guard.check().alarm

    honest_alarms = 0
    for seed in range(200):
        guard = SnsGuard(params, shadow_salt=splitmix64(20_000 + seed) | 1)
        guard.insert_many(ElementGenerator(30_000 + seed).stream(20 * r))
        honest_alarms += guard.check().alarm

    ok = attack_alarms >= 0.98 * 50 and honest_alarms <= 0.05 * 200
    detail = (
        f"theta = {theta:.4f}; attack alarms {attack_alarms}/50 (need >= 49); "
        f"honest alarms {honest_alarms}/200 (allow <= 10)"
    )
    assert report(6, ok, detail), detail


def test_criterion_7_stats_monitor(sns_attack_sets):
    params, attack_sets = sns_attack_sets
    r = params.register_count

    # Attack replay: every insertion changes a register, so the window
    # fraction is exactly 1.0 and the alarm is deterministic.
    sketch = HllSketch(params)
    monitor = StatsMonitor(r)
    alarmed = False
    last = None
    for element in attack_sets[0].elements:
        increment = sketch.insert_increment(element)
        last = monitor.observe(increment > 0, increment, sketch.estimate())
        alarmed = alarmed or last.alarm
    attack_ok = last.change_fraction == 1.0 and alarmed

    increments = []
    honest = HllSketch(params)
    for element in ElementGenerator(555).stream(20 * r):
        increment = honest.insert_increment(element)
        if increment:
            increments.append(increment)
    mean_increment = statistics.fmean(increments)
    honest_ok = abs(mean_increment - 2.0) <= 0.5

    ok = attack_ok and honest_ok
    detail = (
        f"attack replay fraction {last.change_fraction}, alarmed {alarmed}; "
        f"honest mean increment {mean_increment:.3f}"
    )
    assert report(7, ok, detail), detail


def test_criterion_8_complexity_bound(presto_runs):
    runs, _ = presto_runs
    worst = max(r.counted_insertions / (3 * r.cardinality) for r in runs)
    ok = all(r.counted_insertions <= 3 * r.cardinality for r in runs)
    detail = f"max insertions/3C = {worst:.3f} over {len(runs)} runs"
    assert report(8, ok, detail), detail


def test_criterion_9_small_instance_oracle_equivalence():
    params = HllParams(16, 6)
    failures = []
    for seed in range(20):
        cardinality = 500
        run = run_attack(lambda: make_oracle(params), seed, cardinality)
        attack_set = run.attack_set
        stream = list(ElementGenerator(seed).stream(cardinality))
        full = HllSketch(params)
        full.insert_many(stream)
        replay = HllSketch(params)
        replay.insert_many(attack_set.elements)
        dominated = all(a <= b for a, b in zip(replay.registers, full.registers))
        subset = set(attack_set.elements) <= set(stream)
        ratio = verify(make_oracle(params), attack_set) / full.estimate()
        if not (dominated and subset and ratio >= 0.9):
            failures.append((seed, dominated, subset, round(ratio, 3)))
    ok = not failures
    detail = f"20 seeds at R=16, C=500; failures: {failures or 'none'}"
    assert report(9, ok, detail), detail


def test_criterion_10_resp_integration():
    url = os.environ.get("HLLRT_REDIS_URL", "redis://127.0.0.1:6379/hllrt-acceptance")
    try:
        probe = RemoteOracle(url, timeout=1.0)
        reachable = probe.ping()
        probe.close()
    except Exception:
        reachable = False
    if not reachable:
        print(f"ACCEPTANCE 10 SKIP — no Redis-compatible server at {url}")
        pytest.skip(f"no Redis-compatible server reachable at {url}")

    server_registers = int(os.environ.get("HLLRT_REDIS_R", "16384"))
    cardinality = 20000

    # One oracle, closed on the way out, as ``hllrt attack`` runs it.
    with RemoteOracle(url) as oracle:
        run = run_attack(lambda: oracle, seed=1, target_cardinality=cardinality)
        estimate = verify(oracle, run.attack_set)
    size = len(run.attack_set.elements)
    ok = abs(estimate - cardinality) <= 0.05 * cardinality
    detail = f"estimate {estimate} vs C={cardinality}; |V| = {size}"
    if server_registers == 16384:
        ok = ok and 0.9 * 16384 <= size <= 1.1 * 16384
        detail += f" (band [{int(0.9 * 16384)}, {int(1.1 * 16384)}] for R=16384)"
    assert report(10, ok, detail), detail
