#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of a change and its parent as BENCH_<backend>.json.

    python3 tools/bench_record.py --parent ../parent-checkout
    python3 tools/bench_record.py --repo ../change --parent ../parent-checkout

Runs ``perfbench/run.py`` of both checkouts once for each workload and
seed (1-10), one run at a time, the two sides in turn: for each seed both
sides run back to back, the parent first on odd seeds and the change first
on even ones, so that the machine's drift falls on both alike. Each run is
as long as the change's ``BENCHMARK.json`` says (``run_seconds``). It
writes ``BENCH_<backend>.json`` at the root of ``--repo``: for each
workload and side the median and interquartile range (IQR) of the four
end-to-end metrics, the runs in seed order, and the failed-unit ratio;
for each workload and metric, in how many seeds' pairs the change read
better than the parent (``change_better_pairs``, by the metric's
``better`` in ``BENCHMARK.json``) and, in ``verdicts``, the change's
median move against the parent's and its verdict by the metric's
``bound`` (see ``verdict``), printing each one that is not ``within
bound``; for each workload and side the phase-set digests of every run,
by seed (``phase_digests``, from the run's ``context`` line); and the
kernel backend, Python version, nproc and the git commit of each
checkout. Both checkouts must run the same backend. If any run's outputs
failed their checks (``correct`` false in its result), or the two sides
computed different phase sets (a different digest for the same
workload, seed and unit), it still writes the file, then names those
runs and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("attack-inproc", "attack-resp", "ingest-detect")
SEEDS = tuple(range(1, 11))  # ten alternating pairs per workload
METRICS = ("setup_s", "unit_cal.p50", "elements_per_cal", "peak_rss_mb")


def run_once(repo: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(context, result) of one perfbench run: its ``context`` line and its last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=repo, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.rstrip("\n").split("\n")
    context = next(json.loads(line[len("context "):]) for line in lines if line.startswith("context "))
    return context, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "runs": values}


def commit_of(repo: Path) -> str:
    """The checkout's HEAD commit; raises ``CalledProcessError`` if it is not a git work tree."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, stdout=subprocess.PIPE, text=True,
                          check=True)
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=repo, stdout=subprocess.PIPE, text=True, check=True)
    return head.stdout.strip() + ("+uncommitted changes" if dirty.stdout.strip() else "")


def side_record(runs: list[tuple[dict, dict]]) -> dict:
    return {
        "failed_ratio": sum(r["failed"] for _, r in runs) / sum(r["attempted"] for _, r in runs),
        "metrics": {
            metric: {"unit": runs[0][1]["metrics"][metric]["unit"]}
            | summary([r["metrics"][metric]["value"] for _, r in runs])
            for metric in METRICS
        },
        "phase_digests": {str(seed): context["phase_digests"] for seed, (context, _) in zip(SEEDS, runs)},
    }


def digest_mismatches(workload: str, parent: dict, change: dict) -> list[str]:
    """Each seed and unit for which both sides report a phase-set digest and the two differ."""
    return [
        f"{workload} seed={seed} unit={unit}"
        for seed, digests in change.items()
        for unit, digest in digests.items()
        if parent[seed].get(unit, digest) != digest
    ]


def better_pairs(parent: list, change: list, better: dict[str, str]) -> dict[str, int]:
    """Per metric, the number of seeds in which the change read better than the parent."""
    counts = {}
    for metric in METRICS:
        sign = 1 if better[metric] == "higher" else -1
        counts[metric] = sum(
            sign * (c["metrics"][metric]["value"] - p["metrics"][metric]["value"]) > 0
            for (_, p), (_, c) in zip(parent, change)
        )
    return counts


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The change's median move against the parent's, relative to the parent's, and its verdict.

    ``worse`` if the move is worse than ``bound``; else ``unresolved`` if the
    parent's IQR is wider than ``bound`` of its median, unless every change
    run reads better than every parent run; else ``within bound``.
    """
    base = summary(parent)
    move = (statistics.median(change) - base["median"]) / base["median"]
    sign = 1 if better == "higher" else -1
    if sign * move < -bound:
        result = "worse"
    elif base["iqr"] > bound * base["median"] and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        result = "unresolved"
    else:
        result = "within bound"
    return {"move": move, "verdict": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", type=Path, default=ROOT, help="the change's checkout (default: this one)")
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's checkout")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.repo.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    bound = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}

    record = {
        "commits": {side: commit_of(repo) for side, repo in sides.items()},
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    contexts = []
    incorrect = []
    mismatched = []
    for workload in WORKLOADS:
        runs: dict[str, list] = {side: [] for side in sides}
        for seed in SEEDS:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                context, result = run_once(sides[side], workload, seed, seconds)
                runs[side].append((context, result))
                contexts.append(context)
                if not result["correct"]:
                    incorrect.append(f"{workload} seed={seed} {side}")
                values = ", ".join(f"{m}={result['metrics'][m]['value']:.4g}" for m in METRICS)
                print(f"{workload} seed={seed} {side}: failed {result['failed']}/{result['attempted']}, "
                      f"{values}", flush=True)
        entry = record["workloads"][workload] = {side: side_record(runs[side]) for side in sides}
        entry["change_better_pairs"] = better_pairs(runs["parent"], runs["change"], better)
        mismatched += digest_mismatches(workload, entry["parent"]["phase_digests"],
                                        entry["change"]["phase_digests"])
        entry["verdicts"] = {
            metric: verdict(entry["parent"]["metrics"][metric]["runs"], entry["change"]["metrics"][metric]["runs"],
                            better[metric], bound[metric])
            for metric in METRICS
        }
        for metric, judged in entry["verdicts"].items():
            if judged["verdict"] != "within bound":
                print(f"{workload} {metric}: {judged['verdict']}, median moved {judged['move']:+.1%} "
                      f"against a bound of {bound[metric]:.0%}", flush=True)
    for key in ("backend", "python", "nproc"):
        found = {context[key] for context in contexts}
        if len(found) != 1:
            raise SystemExit(f"runs disagree on {key}: {sorted(found)}")
        record[key] = found.pop()

    out = sides["change"] / f"BENCH_{record['backend']}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    if incorrect:
        print(f"outputs failed their checks in: {', '.join(incorrect)}", file=sys.stderr)
    if mismatched:
        print(f"the two sides computed different phase sets in: {', '.join(mismatched)}", file=sys.stderr)
    return 1 if incorrect or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
