"""Detectors: SNS dual sketch and insertion-statistics monitor."""

import json
import statistics

import pytest

from hllrt import (
    DetectionReport,
    ElementGenerator,
    HllParams,
    HllSketch,
    SnsGuard,
    StatsMonitor,
    default_divergence_threshold,
    make_oracle,
    merge,
    run_attack,
)

PARAMS = HllParams(1024, 6)


def build_attack_set(seed, c):
    return run_attack(lambda: make_oracle(PARAMS), seed, c).attack_set


# -- SNS guard ------------------------------------------------------------------


def test_empty_guard_reports_nothing():
    guard = SnsGuard(PARAMS)
    report = guard.check()
    assert report.alarm is False
    assert report.public_estimate == 0
    assert report.shadow_estimate == 0


def test_honest_stream_keeps_both_estimates_close():
    guard = SnsGuard(HllParams(4096, 6), shadow_salt=991)
    guard.insert_many(ElementGenerator(17).stream(50000))
    report = guard.check()
    assert report.alarm is False
    assert abs(report.public_estimate - report.shadow_estimate) <= 0.1 * max(
        report.public_estimate, report.shadow_estimate
    )


def test_guard_rejects_an_empty_element_in_both_sketches():
    guard = SnsGuard(PARAMS)
    with pytest.raises(ValueError):
        guard.insert_many([b"a", b"b", b""])
    for bad in ("c", None, bytearray(b"c")):
        with pytest.raises(TypeError):
            guard.insert_many([b"a", b"b", bad])
    report = guard.check()
    assert report.alarm is False
    assert report.public_estimate == 0
    assert report.shadow_estimate == 0
    assert guard.public_sketch.registers == bytes(PARAMS.register_count)


def test_attack_set_trips_the_guard():
    attack = build_attack_set(seed=1, c=20 * 1024)
    guard = SnsGuard(PARAMS, shadow_salt=0x5151)
    guard.insert_many(attack.elements)
    report = guard.check()
    assert report.alarm is True
    # Public side sees the forged cardinality; shadow side sees roughly
    # the true element count |V| ~ R.
    assert report.public_estimate > 15 * 1024
    assert report.shadow_estimate < 2 * 1024


def test_guard_public_sketch_remains_mergeable():
    guard = SnsGuard(PARAMS, shadow_salt=77)
    guard.insert_many(ElementGenerator(4).stream(1000))
    other = HllSketch(PARAMS)
    other.insert_many(ElementGenerator(5).stream(1000))
    combined = merge(guard.public_sketch, other)
    assert combined.estimate() >= guard.public_sketch.estimate()


def test_default_threshold_scales_with_precision():
    assert default_divergence_threshold(1024) == pytest.approx(5 * 1.04 / 32)
    guard = SnsGuard(PARAMS)
    assert guard.divergence_threshold == pytest.approx(5 * 1.04 / 32)


def test_report_serializes_without_leaking_the_salt():
    guard = SnsGuard(PARAMS, shadow_salt=0xDEADBEEF)
    guard.insert(b"x")
    payload = json.loads(guard.check().to_json())
    assert set(payload) == {
        "alarm",
        "detector",
        "public_estimate",
        "shadow_estimate",
        "change_fraction",
        "mean_increment",
    }
    assert "salt" not in json.dumps(payload).lower() or "shadow_salt" not in payload
    assert payload["detector"] == "sns"


def test_shadow_sketch_is_not_reachable_by_name():
    guard = SnsGuard(PARAMS)
    assert not hasattr(guard, "shadow_sketch")
    assert not hasattr(guard, "_shadow")


# -- stats monitor -----------------------------------------------------------------


def test_monitor_requires_consistent_observation():
    monitor = StatsMonitor(64)
    with pytest.raises(ValueError):
        monitor.observe(True, 0, 10)


def test_monitor_fraction_over_observed_window():
    monitor = StatsMonitor(64, window_size=100)
    for _ in range(4):
        monitor.observe(True, 2, 100)
    report = monitor.observe(False, 0, 100)
    assert report.change_fraction == pytest.approx(4 / 5)
    assert report.mean_increment == pytest.approx(2.0)


def test_monitor_evicts_old_observations():
    monitor = StatsMonitor(64, window_size=4)
    for _ in range(4):
        monitor.observe(True, 3, 100)
    for _ in range(4):
        report = monitor.observe(False, 0, 100)
    assert report.change_fraction == 0.0
    assert report.mean_increment == 0.0


def test_monitor_ignores_insertions_below_r():
    monitor = StatsMonitor(64, window_size=8)
    # All-changing traffic while the estimate is below R carries no
    # signal: nothing is windowed and nothing alarms.
    report = None
    for _ in range(8):
        report = monitor.observe(True, 2, 50)
    assert report.alarm is False
    assert report.change_fraction == 0.0
    report = monitor.observe(True, 2, 65)
    assert report.alarm is True
    assert report.change_fraction == 1.0


def test_attack_replay_changes_a_register_every_time():
    attack = build_attack_set(seed=3, c=20 * 1024)
    sketch = HllSketch(PARAMS)
    monitor = StatsMonitor(1024)
    alarmed = False
    report = None
    for element in attack.elements:
        increment = sketch.insert_increment(element)
        assert increment > 0  # deterministic: every attack element raises
        report = monitor.observe(increment > 0, increment, sketch.estimate())
        alarmed = alarmed or report.alarm
    assert report.change_fraction == 1.0
    assert alarmed


def test_honest_stream_low_fraction_and_mean_increment_near_two():
    sketch = HllSketch(PARAMS)
    monitor = StatsMonitor(1024)
    increments = []
    report = None
    for element in ElementGenerator(42).stream(10 * 1024):
        increment = sketch.insert_increment(element)
        if increment:
            increments.append(increment)
        report = monitor.observe(increment > 0, increment, sketch.estimate())
    assert report.alarm is False
    assert report.change_fraction < 0.15
    assert statistics.fmean(increments) == pytest.approx(2.0, abs=0.5)


def test_monitor_reports_match_a_recount_of_the_window():
    # observe keeps running counters; each report must equal one recounted
    # from scratch over the last window_size monitored observations.
    monitor = StatsMonitor(64, window_size=16)
    sketch = HllSketch(HllParams(64, 6))
    monitored = []
    for element in ElementGenerator(5).stream(600):
        increment = sketch.insert_increment(element)
        estimate = sketch.estimate()
        report = monitor.observe(increment > 0, increment, estimate)
        if estimate > 64:
            monitored.append(increment)
        window = monitored[-16:]
        changes = [i for i in window if i > 0]
        fraction = len(changes) / len(window) if window else 0.0
        mean = sum(changes) / len(changes) if changes else 0.0
        assert report == DetectionReport(
            alarm=bool(window) and (fraction > 0.5 or mean > 4.0),
            detector="stats",
            public_estimate=estimate,
            change_fraction=fraction,
            mean_increment=mean,
        )


def test_stats_report_shape():
    monitor = StatsMonitor(64)
    payload = json.loads(monitor.observe(True, 4, 100).to_json())
    assert payload["detector"] == "stats"
    assert payload["shadow_estimate"] is None
    assert payload["change_fraction"] == 1.0
    assert payload["mean_increment"] == 4.0
