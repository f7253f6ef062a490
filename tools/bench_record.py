#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics over seeds 1-5 as BENCH_<backend>.json.

    python3 tools/bench_record.py                       # this checkout
    python3 tools/bench_record.py --repo ../other-checkout

Runs ``perfbench/run.py`` of the checkout given by ``--repo`` once for each
workload and seed, one run at a time and each as long as that checkout's
``BENCHMARK.json`` says (``run_seconds``). It writes
``BENCH_<backend>.json`` at the root of that checkout: for each workload
the median and interquartile range (IQR) of the four end-to-end metrics
and the failed-unit ratio, with the kernel backend, Python version, nproc
and git commit of the checkout.
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
SEEDS = (1, 2, 3, 4, 5)
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
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, stdout=subprocess.PIPE, text=True)
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=repo, stdout=subprocess.PIPE, text=True)
    return head.stdout.strip() + ("+uncommitted changes" if dirty.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    seconds = json.loads((repo / "BENCHMARK.json").read_text())["run_seconds"]

    record = {"commit": commit_of(repo), "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            context, result = run_once(repo, workload, seed, seconds)
            runs.append((context, result))
            values = ", ".join(f"{m}={result['metrics'][m]['value']:.4g}" for m in METRICS)
            print(f"{workload} seed={seed}: failed {result['failed']}/{result['attempted']}, {values}",
                  flush=True)
        for key in ("backend", "python", "nproc"):
            found = {context[key] for context, _ in runs} | ({record[key]} if key in record else set())
            if len(found) != 1:
                raise SystemExit(f"runs disagree on {key}: {sorted(found)}")
            record[key] = found.pop()
        record["workloads"][workload] = {
            "failed_ratio": sum(r["failed"] for _, r in runs) / sum(r["attempted"] for _, r in runs),
            "metrics": {
                metric: {"unit": runs[0][1]["metrics"][metric]["unit"]}
                | summary([r["metrics"][metric]["value"] for _, r in runs])
                for metric in METRICS
            },
        }

    out = repo / f"BENCH_{record['backend']}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
