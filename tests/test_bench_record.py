"""tools/bench_record.py: what it does with a run whose outputs failed their checks."""

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
    context = {"backend": "pure", "python": "3", "nproc": 1}

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
