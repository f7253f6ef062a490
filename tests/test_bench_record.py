"""tools/bench_record.py: its verdicts, and what it does with a run whose outputs failed their checks
or whose phase sets differ from the other side's."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_run_with_failed_checks_is_named_and_exits_nonzero(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    context = {"backend": "pure", "python": "3", "nproc": 1, "phase_digests": {"11": "ab"}}

    def run_once(repo, workload, seed, seconds):
        correct = not (repo == change and workload == "attack-resp" and seed == 3)
        metrics = {metric: {"value": 1.0, "unit": "x"} for metric in tool.METRICS}
        return context, {"correct": correct, "attempted": 1, "failed": int(not correct), "metrics": metrics}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "commit_of", lambda repo: "0" * 40)
    assert tool.main(["--repo", str(change), "--parent", str(parent)]) == 1
    assert "attack-resp seed=3 change" in capsys.readouterr().err
    record = json.loads((change / "BENCH_pure.json").read_text())
    assert record["workloads"]["attack-resp"]["change"]["failed_ratio"] == 0.1
    # Every run correct: exit 0.
    monkeypatch.setattr(tool, "run_once", lambda repo, *rest: run_once(parent, *rest))
    assert tool.main(["--repo", str(change), "--parent", str(parent)]) == 0


def test_each_metric_gets_its_verdict(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    context = {"backend": "pure", "python": "3", "nproc": 1, "phase_digests": {"11": "ab"}}
    # Parent runs: setup_s and unit_cal.p50 steady, the other two spread
    # far past their bounds (IQR 4.5 around a median of 5.5).
    parent_runs = {"setup_s": lambda s: 1.0, "unit_cal.p50": lambda s: 1.0,
                   "elements_per_cal": float, "peak_rss_mb": float}
    change_runs = {
        "setup_s": lambda s: 1.1,  # 10% worse, within its 25% bound
        "unit_cal.p50": lambda s: 1.5,  # 50% worse than its 20% bound
        "elements_per_cal": lambda s: s + 0.5,  # better, but not in every pair of runs
        "peak_rss_mb": lambda s: 0.5,  # lower than every parent run
    }

    def run_once(repo, workload, seed, seconds):
        runs = change_runs if repo == change else parent_runs
        metrics = {metric: {"value": runs[metric](seed), "unit": "x"} for metric in tool.METRICS}
        return context, {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "commit_of", lambda repo: "0" * 40)
    assert tool.main(["--repo", str(change), "--parent", str(parent)]) == 0
    record = json.loads((change / "BENCH_pure.json").read_text())
    for workload in tool.WORKLOADS:
        verdicts = record["workloads"][workload]["verdicts"]
        assert {metric: v["verdict"] for metric, v in verdicts.items()} == {
            "setup_s": "within bound",
            "unit_cal.p50": "worse",
            "elements_per_cal": "unresolved",
            "peak_rss_mb": "within bound",
        }
        assert verdicts["unit_cal.p50"]["move"] == 0.5
        assert verdicts["elements_per_cal"]["move"] == 0.5 / 5.5
    out = capsys.readouterr().out
    for workload in tool.WORKLOADS:
        assert f"{workload} unit_cal.p50: worse, median moved +50.0% against a bound of 20%\n" in out
        assert f"{workload} elements_per_cal: unresolved, median moved +9.1% against a bound of 20%\n" in out
    assert "within bound" not in out


def test_phase_digests_are_recorded_and_a_mismatch_exits_nonzero(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    metrics = {metric: {"value": 1.0, "unit": "x"} for metric in tool.METRICS}
    differ = {"parent": False}

    def run_once(repo, workload, seed, seconds):
        # The sides finish different numbers of units: only shared units compare.
        digests = {str(10 * seed + unit): f"{workload}:{seed}:{unit}" for unit in range(3 if repo == change else 2)}
        if differ["parent"] and repo == parent and workload == "ingest-detect" and seed == 4:
            digests["41"] = "other"
        context = {"backend": "pure", "python": "3", "nproc": 1, "phase_digests": digests}
        return context, {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "commit_of", lambda repo: "0" * 40)
    assert tool.main(["--repo", str(change), "--parent", str(parent)]) == 0
    assert "phase sets" not in capsys.readouterr().err
    record = json.loads((change / "BENCH_pure.json").read_text())
    for workload in tool.WORKLOADS:
        sides = record["workloads"][workload]
        assert list(sides["change"]["phase_digests"]) == [str(seed) for seed in tool.SEEDS]
        assert sides["parent"]["phase_digests"]["4"] == {"40": f"{workload}:4:0", "41": f"{workload}:4:1"}
        assert sides["change"]["phase_digests"]["4"]["42"] == f"{workload}:4:2"
    # One unit's digest differs: the file is still written, the unit named, the exit 1.
    differ["parent"] = True
    assert tool.main(["--repo", str(change), "--parent", str(parent)]) == 1
    err = capsys.readouterr().err
    assert "the two sides computed different phase sets in: ingest-detect seed=4 unit=41\n" in err
    record = json.loads((change / "BENCH_pure.json").read_text())
    assert record["workloads"]["ingest-detect"]["parent"]["phase_digests"]["4"]["41"] == "other"
