"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from hllrt import HllParams, HllSketch
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]

# Layers that run in each workload: their per-layer metrics must be nonzero.
ACTIVE_LAYERS = {
    "attack-inproc": ("kernel.", "oracle.", "attack.", "trace."),
    "attack-resp": ("kernel.", "oracle.", "attack.", "remote.", "trace."),
    "ingest-detect": ("kernel.", "sketch.", "defense.", "trace."),
}


def measure(name, trace=False):
    result, lines = run.measure(name, seed=3, seconds=0.3, trace=trace, size="tiny", setup_samples=1)
    json.dumps(result)  # the result line must serialise
    return result, lines


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, lines = measure(name)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for metric, entry in result["metrics"].items():
        assert entry["value"] > 0, metric
        assert entry["unit"] == run.END_TO_END[metric][0]
    printed = "\n".join(lines)
    for figure in run.seconds_figures(name, [workloads.Unit(1.0, 1, False, cal_s=1.0)], [(1.0, 1.0)]):
        assert figure in printed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result, lines = measure(name, trace=True)
    assert result["correct"], lines
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for metric, entry in result["metrics"].items():
        if metric.startswith(ACTIVE_LAYERS[name]) and metric != "remote.reconnects":
            assert entry["value"] > 0, metric
    written = json.loads((tmp_path / f"trace-{name}-seed3.json").read_text())
    assert written["spans"] and written["context"]["backend"] == workloads.kernel_backend()


def test_wrong_expected_estimate_is_counted_as_failed(monkeypatch):
    real_verify = workloads.verify
    monkeypatch.setattr(workloads, "verify", lambda oracle, attack_set: real_verify(oracle, attack_set) + 1)
    result, lines = measure("attack-inproc")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "verify on a fresh oracle" in "\n".join(lines)


def test_resp_phase_sets_are_compared_and_the_server_stopped(monkeypatch):
    """A reference run keyed differently must fail the byte-identity check."""
    real_make_oracle = workloads.make_oracle
    servers = []
    real_server = workloads.ServerProcess

    def salted(params):
        return real_make_oracle(HllParams(params.register_count, params.register_width, salt=99))

    def recorded(params):
        servers.append(real_server(params))
        return servers[-1]

    monkeypatch.setattr(workloads, "make_oracle", salted)
    monkeypatch.setattr(workloads, "ServerProcess", recorded)
    result, lines = measure("attack-resp")
    assert result["failed"] == result["attempted"] >= 1
    assert "differs from the in-process run" in "\n".join(lines)
    assert servers and all(server.proc.poll() is not None for server in servers)


def test_server_is_stopped_when_the_run_raises(monkeypatch):
    servers = []
    real_server = workloads.ServerProcess

    def recorded(params):
        servers.append(real_server(params))
        return servers[-1]

    def explode(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(workloads, "ServerProcess", recorded)
    monkeypatch.setattr(run, "run_units", explode)
    with pytest.raises(KeyboardInterrupt):
        measure("attack-resp")
    assert servers and all(server.proc.poll() is not None for server in servers)


def test_corrupted_snapshot_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "snapshot", lambda sketch: HllSketch(sketch.params))
    result, lines = measure("ingest-detect")
    assert result["failed"] == result["attempted"] >= 1
    assert "snapshot does not round-trip" in "\n".join(lines)


def test_honest_windows_reach_the_regime_the_monitor_watches(monkeypatch):
    monitors = []
    real_monitor = workloads.StatsMonitor

    def recorded(register_count):
        monitors.append(real_monitor(register_count))
        return monitors[-1]

    monkeypatch.setattr(workloads, "StatsMonitor", recorded)
    workload = workloads.IngestDetect(3, "tiny")
    workload.setup()
    honest = next(i for i in range(workload.sizes["round"]) if not workload.window(i)[1])
    unit = workload.unit(honest, None)
    assert not unit.failures
    assert len(monitors[-1]._window) > 0


def test_codec_replay_runs_after_the_attack_spans_close(monkeypatch):
    replayed = []
    real_replay = workloads.replay_codec

    def checked(tracer, log):
        replayed.append((list(tracer._open), len(log)))
        real_replay(tracer, log)

    monkeypatch.setattr(workloads, "replay_codec", checked)
    workload = workloads.AttackResp(3, "tiny")
    workload.setup()
    try:
        unit = workload.unit(0, Tracer())
    finally:
        workload.close()
    assert not unit.failures
    assert replayed and all(not open_spans and count > 0 for open_spans, count in replayed)


def test_unit_that_raises_is_a_failed_operation(monkeypatch):
    def broken(params):
        raise ConnectionResetError("gone")

    monkeypatch.setattr(workloads, "make_oracle", broken)
    result, lines = measure("attack-inproc")
    assert result["failed"] == result["attempted"] >= 1
    assert "ConnectionResetError" in "\n".join(lines)


def test_self_time_excludes_wrapped_calls_and_child_spans():
    tracer = Tracer()
    nap = tracer.wrap("nap", lambda seconds: time.sleep(seconds))
    tracer.open("outer")
    nap(0.02)
    tracer.open("inner")
    nap(0.01)
    tracer.close()
    tracer.close()
    outer, inner = tracer.named("outer")[0], tracer.named("inner")[0]
    assert inner["parent"] == outer["id"]
    assert outer["self_ns"] < 5_000_000 and inner["self_ns"] < 5_000_000
    assert tracer.calls["nap"].count == 2
    assert tracer.calls["nap"].self_ns == tracer.calls["nap"].total_ns  # no children


@pytest.mark.parametrize("traced", [False, True])
def test_unit_clock_calibrates_inside_a_unit_and_leaves_that_time_out(traced):
    def calibrate():
        time.sleep(0.01)
        return 0.5

    clock = workloads.UnitClock(calibrate, traced=traced, timer=True)
    end = time.perf_counter() + 0.3
    with clock:
        while time.perf_counter() < end:
            pass
    ticks = len(clock.cals) - 2
    assert len(clock.segments) == ticks + 1
    assert (ticks == 0) if traced else (ticks >= 3)
    assert clock.wall_s + 0.01 * ticks == pytest.approx(0.3, abs=0.02)
    assert clock.cal_s == pytest.approx(0.5)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack-inproc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
