"""CLI surface: subcommands, file outputs, exit codes."""

import csv
import gc
import json
import warnings

import pytest

import hllrt.cli
from hllrt.cli import main
from respserver import running_server


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def attack_file(tmp_path):
    out = tmp_path / "v.txt"
    code = run_cli(
        "attack", "--registers", "1024", "--cardinality", "5120",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    return out


def test_attack_writes_set_and_report(tmp_path):
    out = tmp_path / "v.txt"
    report_path = tmp_path / "report.json"
    # The set and the report both record the seed mod 2**64.
    for seed, recorded in (("1", 1), ("-1", 2**64 - 1)):
        code = run_cli(
            "attack", "--registers", "1024", "--cardinality", "4096",
            "--seed", seed, "--out", str(out), "--report", str(report_path),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        elements = [l for l in lines if not l.startswith("#")]
        assert "# phase=3" in meta
        report = json.loads(report_path.read_text())
        assert [p["phase"] for p in report["phases"]] == [1, 2, 3]
        assert report["phases"][2]["set_size"] == len(elements)
        assert report["total_insertions"] <= 3 * 4096
        assert f"# seed={recorded}" in meta and report["seed"] == recorded


def test_attack_cardinality_one(tmp_path):
    out = tmp_path / "one.txt"
    assert run_cli("attack", "--registers", "64", "--cardinality", "1",
                   "--out", str(out)) == 0
    elements = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(elements) == 1


def test_attack_checkpoints(tmp_path):
    out = tmp_path / "v.txt"
    ckpt = tmp_path / "ckpts"
    assert run_cli("attack", "--registers", "64", "--cardinality", "500",
                   "--out", str(out), "--checkpoint-dir", str(ckpt)) == 0
    names = sorted(p.name for p in ckpt.iterdir())
    assert names == ["phase1.txt", "phase2.txt", "phase3.txt"]


def test_verify_reports_estimate_and_inflation(attack_file, capsys):
    code = run_cli("verify", "--registers", "1024", "--set-file", str(attack_file))
    assert code == 0
    output = capsys.readouterr().out
    assert "estimate:" in output and "inflation:" in output
    estimate = int(output.split("estimate:")[1].splitlines()[0])
    assert abs(estimate - 5120) <= 0.1 * 5120


def test_verify_rejects_duplicates_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# seed=1\n# target_C=2\n# phase=3\nxx\nxx\n")
    code = run_cli("verify", "--registers", "64", "--set-file", str(bad))
    assert code == 1
    assert "line 5" in capsys.readouterr().err


def test_detect_sns_flags_attack_sets(attack_file, tmp_path, capsys):
    report_path = tmp_path / "rep.json"
    code = run_cli("detect", "--registers", "1024", "--input", str(attack_file),
                   "--mode", "sns", "--out", str(report_path))
    assert code == 3
    payload = json.loads(report_path.read_text())
    assert payload["alarm"] is True
    assert payload["detector"] == "sns"


def test_detect_stats_flags_attack_sets(attack_file, capsys):
    code = run_cli("detect", "--registers", "1024", "--input", str(attack_file),
                   "--mode", "stats")
    assert code == 3
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["alarm"] is True
    assert payload["change_fraction"] == 1.0


def test_detect_honest_stream_is_quiet(tmp_path, capsys):
    from hllrt._kernel import stream_elements

    stream_file = tmp_path / "honest.txt"
    with open(stream_file, "w") as fh:
        for e in stream_elements(9, 0, 20000):
            fh.write(e.decode() + "\n")
    for mode in ("sns", "stats"):
        assert run_cli("detect", "--registers", "1024", "--input",
                       str(stream_file), "--mode", mode) == 0


@pytest.mark.parametrize("flag, mode", [
    ("--threshold", "sns"), ("--fraction-threshold", "stats"), ("--increment-threshold", "stats"),
])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_detect_refuses_a_threshold_that_is_not_a_non_negative_number(
    attack_file, capsys, flag, mode, value
):
    code = run_cli("detect", "--registers", "1024", "--input", str(attack_file),
                   "--mode", mode, flag, value)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "must be a non-negative number" in captured.err


def test_experiment_csv_schema_and_reproducibility(tmp_path):
    args = [
        "experiment", "--registers", "256", "--cardinalities", "2560,5120",
        "--seeds", "1,2", "--format", "csv",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    plot = tmp_path / "plot.csv"
    assert run_cli(*args, "--out", str(out_a), "--plot-data", str(plot)) == 0
    assert run_cli(*args, "--out", str(out_b)) == 0

    with open(out_a) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["R", "C", "seed", "phase", "set_size",
                             "estimate", "insertions", "wall_time_ms"]
    assert len(rows) == 2 * 2 * 3  # cardinalities x seeds x phases
    for row in rows:
        assert int(row["phase"]) in (1, 2, 3)

    def strip_wall(path):
        with open(path) as fh:
            return [
                {k: v for k, v in row.items() if k != "wall_time_ms"}
                for row in csv.DictReader(fh)
            ]

    assert strip_wall(out_a) == strip_wall(out_b)

    with open(plot) as fh:
        plot_rows = list(csv.DictReader(fh))
    assert list(plot_rows[0]) == ["C", "phase", "mean_set_size", "mean_estimate"]
    assert len(plot_rows) == 2 * 3


def test_experiment_json_format(tmp_path):
    out = tmp_path / "rows.json"
    for seed, recorded in (("7", 7), ("-1", 2**64 - 1)):  # rows record the seed mod 2**64
        assert run_cli("experiment", "--registers", "64", "--cardinalities", "500",
                       "--seeds", seed, "--format", "json", "--out", str(out)) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert rows[2]["phase"] == 3
        assert rows[1]["estimate"] >= rows[0]["estimate"]  # monotone phases
        assert [row["seed"] for row in rows] == [recorded] * 3


def test_experiment_writes_no_register_count_for_a_remote_target(tmp_path):
    # The CLI never learns a remote target's R, so it writes none, whatever
    # --registers says; the in-process target's R is its own.
    with running_server(register_count=64) as server:
        for fmt in ("csv", "json"):
            out = tmp_path / f"rows.{fmt}"
            assert run_cli("experiment", "--registers", "4096", "--cardinalities", "320",
                           "--seeds", "3", "--format", fmt, "--out", str(out),
                           "--target", server.url(fmt)) == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh)) if fmt == "csv" else json.load(fh)
            assert [row["R"] for row in rows] == (["", "", ""] if fmt == "csv" else [None] * 3)
    out = tmp_path / "inproc.json"
    assert run_cli("experiment", "--registers", "64", "--cardinalities", "320",
                   "--seeds", "3", "--format", "json", "--out", str(out)) == 0
    assert [row["R"] for row in json.loads(out.read_text())] == [64] * 3


def test_experiment_flushes_finished_runs_when_verify_hits_a_target_error(
    tmp_path, monkeypatch, capsys
):
    # The 4th verify is the second run's first: the first run's three rows
    # are written, the second run's none.
    real_verify = hllrt.cli.verify
    calls = []

    def failing_verify(oracle, attack_set):
        calls.append(attack_set.phase)
        if len(calls) == 4:
            raise ConnectionResetError("connection reset by peer")
        return real_verify(oracle, attack_set)

    monkeypatch.setattr(hllrt.cli, "verify", failing_verify)
    out = tmp_path / "rows.json"
    code = run_cli("experiment", "--registers", "64", "--cardinalities", "300,600",
                   "--seeds", "1", "--format", "json", "--out", str(out))
    assert code == 2
    assert "partial results flushed" in capsys.readouterr().err
    rows = json.loads(out.read_text())
    assert [(row["C"], row["phase"]) for row in rows] == [(300, 1), (300, 2), (300, 3)]


def test_attack_at_table_scale(tmp_path, capsys):
    # R=4096 at the largest table cardinality: the final set holds about
    # R elements and replays to within 3% of the 100k target.
    out = tmp_path / "v.txt"
    report_path = tmp_path / "report.json"
    code = run_cli(
        "attack", "--registers", "4096", "--cardinality", "100000",
        "--seed", "7", "--out", str(out), "--report", str(report_path),
    )
    assert code == 0
    elements = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert 4096 <= len(elements) <= 4200
    report = json.loads(report_path.read_text())
    assert abs(report["phases"][2]["estimate"] - 100000) <= 0.03 * 100000

    capsys.readouterr()
    assert run_cli("verify", "--registers", "4096", "--set-file", str(out)) == 0
    inflation = float(capsys.readouterr().out.split("inflation:")[1].strip())
    assert inflation == pytest.approx(100000 / 4096, rel=0.1)


def test_analyze_golden_values(capsys):
    assert run_cli("analyze", "missed", "--registers", "4096", "--n", "1000000") == 0
    value = json.loads(capsys.readouterr().out)["expected_missed"]
    assert value == pytest.approx(25.2, abs=0.1)

    assert run_cli("analyze", "threshold", "--registers", "4096",
                   "--estimate", "20000") == 0
    value = json.loads(capsys.readouterr().out)["undetectable_delta_threshold"]
    assert value == pytest.approx(0.015, abs=0.002)

    assert run_cli("analyze", "zdelta", "--old", "3", "--new", "3") == 0
    assert json.loads(capsys.readouterr().out)["z_delta"] == 0.0

    assert run_cli("analyze", "misscondition", "--registers", "4096",
                   "--estimate", "32000") == 0
    payload = json.loads(capsys.readouterr().out)
    assert 7.0 <= payload["miss_condition_register_value"] <= 8.5
    assert payload["expected_register_value"] == pytest.approx(4.0, abs=0.1)

    assert run_cli("analyze", "increment", "--registers", "1024",
                   "--estimate", "5000", "--old", "0", "--new", "7",
                   "--z", "150") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == pytest.approx(34, abs=1.5)


def test_analyze_unknown_formula_lists_choices(capsys):
    assert run_cli("analyze", "nosuchformula") == 1
    err = capsys.readouterr().err
    assert "missed" in err and "zdelta" in err


def test_usage_errors_exit_one(capsys):
    assert run_cli("attack", "--registers", "64") == 1  # missing --cardinality/--out
    assert run_cli("attack", "--registers", "100", "--cardinality", "10",
                   "--out", "/tmp/x") == 1  # invalid register count
    assert run_cli("experiment", "--registers", "64", "--cardinalities", "abc",
                   "--seeds", "1", "--out", "/tmp/x") == 1
    assert run_cli("verify", "--set-file", "/nonexistent/file") == 1


def test_bad_target_exits_usage(tmp_path):
    out = tmp_path / "v.txt"
    assert run_cli("attack", "--cardinality", "10", "--out", str(out),
                   "--target", "carrier-pigeon://x") == 1


def test_port_out_of_range_exits_usage_error(tmp_path):
    out = tmp_path / "v.txt"
    for port in ("71915", "99999", "-1"):
        assert run_cli("attack", "--cardinality", "10", "--out", str(out),
                       "--target", f"redis://127.0.0.1:{port}/k") == 1
    assert not out.exists()


def test_unreachable_redis_exits_target_error(tmp_path):
    out = tmp_path / "v.txt"
    code = run_cli("attack", "--cardinality", "10", "--out", str(out),
                   "--target", "redis://127.0.0.1:1/k")
    assert code == 2


def test_env_var_supplies_default_target(tmp_path, monkeypatch):
    with running_server(register_count=256) as server:
        monkeypatch.setenv("HLLRT_TARGET", server.url("envkey"))
        out = tmp_path / "v.txt"
        assert run_cli("attack", "--cardinality", "300", "--seed", "2",
                       "--out", str(out)) == 0
        elements = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert elements


def test_remote_commands_close_their_connection_and_report_traffic(tmp_path):
    out = tmp_path / "v.txt"
    report_path = tmp_path / "report.json"
    with running_server(register_count=256) as server:
        url = server.url("clikey")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("attack", "--cardinality", "600", "--seed", "2", "--out", str(out),
                           "--report", str(report_path), "--target", url) == 0
            attack_commands = sum(server.commands_seen.values())
            assert run_cli("verify", "--set-file", str(out), "--target", url) == 0
            assert run_cli("experiment", "--cardinalities", "300", "--seeds", "1",
                           "--out", str(tmp_path / "e.csv"), "--target", url) == 0
            gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    traffic = json.loads(report_path.read_text())["remote"]
    assert traffic["commands"] == attack_commands
    assert traffic["bytes_out"] > traffic["bytes_in"] > 0
    assert 0 < traffic["round_trips"] < attack_commands
    assert (traffic["reconnects"], traffic["replays"]) == (0, 0)


def test_inproc_report_has_no_remote_traffic(tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli("attack", "--registers", "64", "--cardinality", "200", "--out",
                   str(tmp_path / "v.txt"), "--report", str(report_path)) == 0
    assert "remote" not in json.loads(report_path.read_text())
