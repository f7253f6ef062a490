"""Command-line front end.

Subcommands: attack (build an inflation set), verify (replay a set and
report the achieved estimate), detect (run a stream or set through a
detector), experiment (table-style multi-run sweeps to CSV/JSON), and
analyze (closed-form calculators).

Targets are either the in-process sketch (``inproc``) or a live
Redis-compatible server (``redis://host:port/key``); the HLLRT_TARGET
environment variable supplies the default. Exit codes: 0 success,
1 usage error, 2 target/connection error, 3 detection alarm.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from contextlib import contextmanager
from dataclasses import asdict

from . import analysis
from .attack import AttackAborted, AttackSet, run_attack, verify
from .defense import SnsGuard, StatsMonitor
from .remote import ProtocolError, RemoteOracle, ServerError, parse_endpoint
from .sketch import HllParams, HllSketch, kernel_backend, make_oracle

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TARGET = 2
EXIT_ALARM = 3

_CSV_FIELDS = ["R", "C", "seed", "phase", "set_size", "estimate", "insertions", "wall_time_ms"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _add_sketch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--registers", type=int, default=4096,
                        help="register count R for in-process targets (default 4096)")
    parser.add_argument("--width", type=int, default=6,
                        help="register width in bits (default 6)")


def _add_target_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--target", default=None,
                        help="inproc or redis://host:port/key "
                             "(default: $HLLRT_TARGET, else inproc)")


def build_parser() -> _Parser:
    parser = _Parser(prog="hllrt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_attack = sub.add_parser("attack", help="build an estimate-inflating set")
    _add_sketch_flags(p_attack)
    _add_target_flag(p_attack)
    p_attack.add_argument("--cardinality", type=int, required=True,
                          help="target cardinality C")
    p_attack.add_argument("--seed", type=int, default=1, help="stream seed (default 1)")
    p_attack.add_argument("--out", required=True, help="attack-set output file")
    p_attack.add_argument("--report", help="write phase reports as JSON")
    p_attack.add_argument("--checkpoint-dir",
                          help="directory for per-phase checkpoint files")

    p_verify = sub.add_parser("verify", help="replay an attack set, print its estimate")
    _add_sketch_flags(p_verify)
    _add_target_flag(p_verify)
    p_verify.add_argument("--set-file", required=True, help="attack-set file")

    p_detect = sub.add_parser("detect", help="run a stream/set through a detector")
    _add_sketch_flags(p_detect)
    p_detect.add_argument("--input", required=True,
                          help="element file (one per line, # lines ignored)")
    p_detect.add_argument("--mode", choices=["sns", "stats"], required=True)
    p_detect.add_argument("--threshold", type=float,
                          help="SNS divergence threshold (default 5*1.04/sqrt(R))")
    p_detect.add_argument("--window", type=int,
                          help="stats window size (default 4*R)")
    p_detect.add_argument("--fraction-threshold", type=float, default=0.5)
    p_detect.add_argument("--increment-threshold", type=float, default=4.0)
    p_detect.add_argument("--out", help="also write the report JSON to this file")

    p_exp = sub.add_parser("experiment", help="multi-run sweep, CSV/JSON output")
    _add_sketch_flags(p_exp)
    _add_target_flag(p_exp)
    p_exp.add_argument("--cardinalities", required=True,
                       help="comma-separated target cardinalities")
    p_exp.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_exp.add_argument("--out", required=True, help="output file")
    p_exp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_exp.add_argument("--plot-data",
                       help="write (C, phase, mean size, mean estimate) tuples here")

    p_an = sub.add_parser("analyze", help="evaluate a closed-form quantity")
    an_sub = p_an.add_subparsers(dest="formula", required=True)

    an_missed = an_sub.add_parser("missed", help="expected maxima missed to the low range")
    an_missed.add_argument("--registers", type=int, required=True)
    an_missed.add_argument("--n", type=int, required=True, help="distinct items")

    an_zdelta = an_sub.add_parser("zdelta", help="denominator change of a register update")
    an_zdelta.add_argument("--old", type=int, required=True)
    an_zdelta.add_argument("--new", type=int, required=True)

    an_inc = an_sub.add_parser("increment", help="estimate change of a register update")
    an_inc.add_argument("--registers", type=int, required=True)
    an_inc.add_argument("--estimate", type=float, required=True)
    an_inc.add_argument("--delta", type=float, help="denominator delta")
    an_inc.add_argument("--old", type=int, help="old register value (with --new)")
    an_inc.add_argument("--new", type=int, help="new register value (with --old)")
    an_inc.add_argument("--z", type=float, help="current denominator Z")

    an_thr = an_sub.add_parser("threshold", help="largest invisible denominator delta")
    an_thr.add_argument("--registers", type=int, required=True)
    an_thr.add_argument("--estimate", type=float, required=True)

    an_miss = an_sub.add_parser("misscondition",
                                help="register value above which updates can be missed")
    an_miss.add_argument("--registers", type=int, required=True)
    an_miss.add_argument("--estimate", type=float, required=True)

    an_ratio = an_sub.add_parser("phase1ratio", help="predicted phase-1 estimate ratio")
    an_ratio.add_argument("--registers", type=int, required=True)
    an_ratio.add_argument("--cardinality", type=int, required=True)
    an_ratio.add_argument("--zfull", type=float, required=True,
                          help="denominator Z of the full-stream sketch")

    return parser


# -- targets ---------------------------------------------------------------


def _resolve_target(args) -> str:
    target = args.target or os.environ.get("HLLRT_TARGET") or "inproc"
    if target != "inproc" and not target.startswith("redis://"):
        raise _UsageError(f"target must be 'inproc' or redis://host:port/key, got {target!r}")
    return target


@contextmanager
def _target_oracle(args):
    """One oracle for the whole command; a remote one is closed on the way out."""
    target = _resolve_target(args)
    if target == "inproc":
        yield make_oracle(HllParams(args.registers, args.width))
        return
    with RemoteOracle(parse_endpoint(target)) as oracle:
        yield oracle


def _read_elements(path: str) -> list[bytes]:
    """Tolerant element reader for detect: keeps duplicates, skips # lines."""
    elements = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            elements.append(line.encode("utf-8"))
    return elements


# -- subcommands -------------------------------------------------------------


def _cmd_attack(args) -> int:
    checkpoint = None
    if args.checkpoint_dir:
        os.makedirs(args.checkpoint_dir, exist_ok=True)

        def checkpoint(phase_set: AttackSet) -> None:
            phase_set.save(os.path.join(args.checkpoint_dir, f"phase{phase_set.phase}.txt"))

    with _target_oracle(args) as oracle:
        try:
            run = run_attack(lambda: oracle, args.seed, args.cardinality, checkpoint)
        except AttackAborted as aborted:
            if args.checkpoint_dir:
                path = os.path.join(args.checkpoint_dir,
                                    f"aborted.phase{aborted.partial.phase}.txt")
                aborted.partial.save(path)
                print(f"aborted: {aborted}; partial set saved to {path}", file=sys.stderr)
            else:
                print(f"aborted: {aborted}", file=sys.stderr)
            return EXIT_TARGET
    run.attack_set.save(args.out)
    if args.report:
        payload = {
            "target_cardinality": args.cardinality,
            "seed": run.attack_set.source_seed,
            "backend": kernel_backend(),
            "total_insertions": run.total_insertions,
            "phases": [asdict(report) for report in run.reports],
        }
        if isinstance(oracle, RemoteOracle):
            payload["remote"] = oracle.traffic()
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    final = run.reports[2]
    print(f"attack set: {args.out} ({final.set_size} elements, "
          f"estimate {final.estimate}, total insertions {run.total_insertions})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    attack_set = AttackSet.load(args.set_file)
    with _target_oracle(args) as oracle:
        estimate = verify(oracle, attack_set)
    size = len(attack_set.elements)
    inflation = estimate / size if size else 0.0
    print(f"estimate: {estimate}")
    print(f"set_size: {size}")
    print(f"inflation: {inflation:.2f}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    elements = _read_elements(args.input)
    params = HllParams(args.registers, args.width)
    if args.mode == "sns":
        guard = SnsGuard(params, divergence_threshold=args.threshold)
        guard.insert_many(elements)
        report = guard.check()
    else:
        sketch = HllSketch(params)
        monitor = StatsMonitor(
            params.register_count,
            window_size=args.window,
            fraction_threshold=args.fraction_threshold,
            increment_threshold=args.increment_threshold,
        )
        # Offline classification: replay the whole file and judge the
        # end-state window (transients while the estimate first crosses
        # R are not a verdict on the file).
        report = None
        for element in elements:
            increment = sketch.insert_increment(element)
            report = monitor.observe(increment > 0, increment, sketch.estimate())
        if report is None:
            report = monitor.observe(False, 0, sketch.estimate())
    text = report.to_json()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_ALARM if report.alarm else EXIT_OK


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"{flag} must be a comma-separated integer list") from exc
    if not values:
        raise _UsageError(f"{flag} must name at least one value")
    return values


def _cmd_experiment(args) -> int:
    cardinalities = _parse_int_list(args.cardinalities, "--cardinalities")
    seeds = _parse_int_list(args.seeds, "--seeds")
    if any(c < 1 for c in cardinalities):
        raise _UsageError("cardinalities must be >= 1")
    rows: list[dict] = []
    failure: Exception | None = None
    with _target_oracle(args) as oracle:
        try:
            for cardinality in cardinalities:
                for seed in seeds:
                    rows.extend(_experiment_rows(oracle, seed, cardinality))
        except (AttackAborted, ServerError, ProtocolError, OSError) as exc:
            failure = exc
    _write_rows(args.out, rows, args.format)
    if args.plot_data:
        _write_plot_data(args.plot_data, rows)
    _print_aggregate(rows)
    if failure:
        kind = "aborted" if isinstance(failure, AttackAborted) else "target error"
        print(f"{kind}: {failure}; partial results flushed", file=sys.stderr)
        return EXIT_TARGET
    return EXIT_OK


def _experiment_rows(oracle, seed: int, cardinality: int) -> list[dict]:
    """One row per phase of one attack run, each phase set verified on ``oracle``.
    A remote target's ``R`` is None: its register count is not known here."""
    run = run_attack(lambda: oracle, seed, cardinality)
    scan_insertions = [
        run.reports[0].insertions_performed,
        len(run.phase_sets[0].elements) + run.reports[1].insertions_performed,
        run.reports[2].insertions_performed,
    ]
    return [
        {
            "R": oracle.params.register_count if isinstance(oracle, HllSketch) else None,
            "C": cardinality,
            "seed": phase_set.source_seed,
            "phase": phase_index + 1,
            "set_size": len(phase_set.elements),
            "estimate": verify(oracle, phase_set),
            "insertions": scan_insertions[phase_index],
            "wall_time_ms": round(run.wall_times_ms[phase_index], 3),
        }
        for phase_index, phase_set in enumerate(run.phase_sets)
    ]


def _write_rows(path: str, rows: list[dict], fmt: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "json":
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
            writer.writeheader()
            writer.writerows(rows)


def _aggregate(rows: list[dict]) -> list[tuple[int, int, float, float]]:
    keys = sorted({(row["C"], row["phase"]) for row in rows})
    out = []
    for c, phase in keys:
        group = [row for row in rows if row["C"] == c and row["phase"] == phase]
        out.append((
            c,
            phase,
            statistics.fmean(row["set_size"] for row in group),
            statistics.fmean(row["estimate"] for row in group),
        ))
    return out


def _write_plot_data(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["C", "phase", "mean_set_size", "mean_estimate"])
        for c, phase, size, estimate in _aggregate(rows):
            writer.writerow([c, phase, f"{size:.1f}", f"{estimate:.1f}"])


def _print_aggregate(rows: list[dict]) -> None:
    if not rows:
        return
    print(f"{'C':>10} {'phase':>5} {'mean size':>12} {'mean estimate':>14}")
    for c, phase, size, estimate in _aggregate(rows):
        print(f"{c:>10} {phase:>5} {size:>12.1f} {estimate:>14.1f}")


def _cmd_analyze(args) -> int:
    name = args.formula
    if name == "missed":
        result = {"expected_missed": analysis.expected_missed_lpca(args.registers, args.n)}
    elif name == "zdelta":
        result = {"z_delta": analysis.z_delta(args.old, args.new)}
    elif name == "increment":
        delta = args.delta
        if delta is None:
            if args.old is None or args.new is None:
                raise _UsageError("increment needs --delta or both --old and --new")
            delta = analysis.z_delta(args.old, args.new)
        prediction = analysis.estimate_increment(
            delta, args.estimate, args.registers, z=args.z
        )
        result = {"delta": delta, "exact": prediction.exact, "approx": prediction.approx}
    elif name == "threshold":
        result = {
            "undetectable_delta_threshold": analysis.undetectable_delta_threshold(
                args.registers, args.estimate
            )
        }
    elif name == "misscondition":
        result = {
            "miss_condition_register_value": analysis.miss_condition_register_value(
                args.registers, args.estimate
            ),
            "expected_register_value": analysis.expected_register_value(
                args.registers, args.estimate
            ),
        }
    else:
        result = {
            "predicted_phase1_ratio": analysis.predicted_phase1_ratio(
                args.registers, args.cardinality, args.zfull
            )
        }
    print(json.dumps(result))
    return EXIT_OK


_COMMANDS = {
    "attack": _cmd_attack,
    "verify": _cmd_verify,
    "detect": _cmd_detect,
    "experiment": _cmd_experiment,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ServerError, ProtocolError, OSError) as exc:
        print(f"target error: {exc}", file=sys.stderr)
        return EXIT_TARGET


if __name__ == "__main__":
    sys.exit(main())
