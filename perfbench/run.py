#!/usr/bin/env python3
"""hllrt benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload attack-inproc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30          # every workload, in turn

Run from the repository root; the package is imported from ``src/``
(whichever kernel backend is importable there, named in the output).
A run sets the workload up in this process, then runs units of work
(one full attack, or one ingest window) until ``--seconds`` have passed,
checking every unit's outputs. Between units it sets the workload up in
fresh interpreters, several times over the run, for ``setup_s``. Times
are divided by calibrations taken next to them (see ``END_TO_END``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced units on the same inputs, reports the per-layer
metrics and ``trace.overhead_ratio``, and writes the spans to
``perfbench/out/``. Every line before the last describes the run for a
reader; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 7

# Set-up times are scaled to the machine speed at which the compute
# calibration loop (``calibration_s`` in workloads.py) takes this long:
# its time on the 2-vCPU Intel Xeon the benchmark was tuned on, unloaded.
CAL_REFERENCE_S = 0.005

# The package under test comes from this checkout, never from site-packages.
sys.path.insert(0, str(ROOT / "src"))

# Times other than setup_s are in "cal": a unit's wall time divided by the
# wall time of the workload's calibration (``calibrate`` in workloads.py),
# taken at the unit's ends and every 50 ms inside it (``UnitClock``). The
# speed of a shared machine switches by up to 2x within a second; the
# ratio cancels most of it, so it repeats from run to run where raw
# seconds vary by a third. Raw seconds, and the 90th percentiles (near the
# maximum of the dozen attacks a run holds), are printed beside them.
END_TO_END = {
    "setup_s": ("s", "fresh interpreter to inputs built, at reference speed, median of {setup_n} set-ups"),
    "unit_cal.p50": ("cal", "per {unit}, median of n={n}"),
    "elements_per_cal": ("1/cal", "{elements} per cal"),
    "peak_rss_mb": ("MB", "peak resident memory of the client process"),
}

# (unit of work, what elements are, name of the raw-seconds figures)
UNIT_NAMES = {
    "attack-inproc": ("three-phase run_attack", "oracle insertions", "attack_s", "insertions_per_s"),
    "attack-resp": ("three-phase run_attack", "oracle insertions", "attack_s", "insertions_per_s"),
    "ingest-detect": ("window", "elements through both detectors", "window_s", "ingest_per_s"),
}

PER_LAYER = {
    "kernel.insert_ns": "ns",
    "kernel.estimate_ns": "ns",
    "kernel.stream_element_ns": "ns",
    "kernel.insert_many_ns": "ns",
    "kernel.hash64_ns": "ns",
    "oracle.insert_us": "us",
    "oracle.estimate_us": "us",
    "oracle.estimate_queries_per_insertion": "count",
    "attack.scan_self_us": "us",
    "attack.phase1_s": "s",
    "attack.phase2_s": "s",
    "attack.phase3_s": "s",
    "attack.insertions_per_C": "count",
    "attack.kept_ratio": "ratio",
    "remote.round_trips_per_insertion": "count",
    "remote.rtt_us.p50": "us",
    "remote.rtt_us.p90": "us",
    "remote.encode_us": "us",
    "remote.decode_us": "us",
    "remote.bytes_out_per_insertion": "B",
    "remote.reconnects": "count",
    "remote.client_busy_share": "ratio",
    "remote.server_busy_share": "ratio",
    "sketch.insert_increment_us": "us",
    "sketch.estimate_us": "us",
    "sketch.witness_us": "us",
    "sketch.merge_us": "us",
    "sketch.snapshot_us": "us",
    "defense.sns_insert_us": "us",
    "defense.stats_observe_us": "us",
    "defense.check_us": "us",
    "trace.overhead_ratio": "ratio",
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> None:
    """Keep this process and its children (server, set-up probes) on one CPU.

    The calibration loop then times the CPU that did the work, and the
    attack over RESP no longer depends on where the scheduler put the
    server from one run to the next. So attack-resp measures loopback on
    one core: client and server take turns, their busy shares add up to
    at most 1, and work that overlaps the two cannot show. With the server
    on the other vCPU of a 2-vCPU machine, whose speed drifts apart from
    the client's, the IQR of unit_cal.p50 over five seeds reached half
    its median.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def time_setup(name: str, seed: int, size: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its workload being set up.

    Returns the raw seconds and the seconds scaled to the reference speed
    by the compute calibration taken around the probe: raw set-up time
    followed the machine's drift by a third between two sets of runs.
    """
    from workloads import calibration_s

    before = calibration_s()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name, str(seed), size],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up of {name} failed in a fresh interpreter (exit {code})")
    calibration = (before + calibration_s()) / 2
    return elapsed, elapsed * CAL_REFERENCE_S / calibration


def run_units(workload, seconds: float, tracer, between=None) -> list:
    """Run units until ``seconds`` have passed; traced runs alternate plain and traced.

    ``between``, when given, is called after each unit with the share of
    the run's time gone so far.
    """
    from workloads import TICK_ITERATIONS, Unit, calibration_s

    units = []
    begin = perf_counter()
    deadline = begin + seconds
    i = 0
    while len(units) < (2 if tracer else 1) or perf_counter() < deadline or (tracer and i % 2):
        traced = tracer is not None and i % 2 == 1
        index = i // 2 if tracer else i
        start = perf_counter()
        try:
            unit = workload.unit(index, tracer if traced else None)
        except Exception:
            # A unit that raises is a failed operation, not the end of the run.
            unit = Unit(perf_counter() - start, 0, traced, [traceback.format_exc(limit=4)])
            if traced:
                tracer.unwind()
            unit.cal_s = calibration_s(TICK_ITERATIONS)
        units.append(unit)
        i += 1
        if between:
            between((perf_counter() - begin) / seconds)
    return units


def end_to_end(units, setup_samples) -> dict:
    costs = [unit.wall_s / unit.cal_s for unit in units]
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "unit_cal.p50": statistics.median(costs),
        "elements_per_cal": sum(unit.elements for unit in units) / sum(costs),
        "peak_rss_mb": peak_rss_mb(),
    }


def seconds_figures(name: str, units, setup_samples=()) -> dict:
    """The raw wall-clock figures, reported beside the metrics: (value, unit, note)."""
    _, _, time_name, rate_name = UNIT_NAMES[name]
    figures = {}
    if setup_samples:
        raw = statistics.median(seconds for seconds, _ in setup_samples)
        figures["setup_raw_s"] = (raw, "s", f"median of {len(setup_samples)} set-ups, unscaled")
    attempted = len(units)
    failed = sum(1 for unit in units if unit.failures)
    units = [unit for unit in units if not unit.traced]
    walls = [unit.wall_s for unit in units]
    costs = [unit.wall_s / unit.cal_s for unit in units]
    return figures | {
        "unit_cal.p90": (percentile(costs, 0.9), "cal", f"90th percentile of n={len(costs)}"),
        f"{time_name}.p50": (statistics.median(walls), "s", f"median of n={len(walls)}"),
        f"{time_name}.p90": (percentile(walls, 0.9), "s", f"90th percentile of n={len(walls)}"),
        rate_name: (sum(unit.elements for unit in units) / sum(walls), "1/s", "per wall second"),
        "cal_s": (statistics.median(unit.cal_s for unit in units), "s", "calibration the units ran at, median"),
        "failed_ratio": (failed / attempted, "ratio", f"{failed} of {attempted} units failed a check or raised"),
    }


def layer_metrics(workload, tracer, units) -> dict:
    """Per-layer metrics from a traced run; 0 where the layer did not run."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    calls, counts = tracer.calls, tracer.counts

    def per_call_us(name: str) -> float:
        stats = calls.get(name)
        return stats.total_ns / stats.count / 1e3 if stats and stats.count else 0.0

    ops = counts.get("kernel.ops", 0)
    if ops:
        for op in ("insert", "estimate", "stream_element", "insert_many", "hash64"):
            metrics[f"kernel.{op}_ns"] = counts[f"kernel.{op}.ns"] / ops

    insertions = counts.get("attack.insertions", 0)
    if insertions:
        metrics["oracle.insert_us"] = per_call_us("oracle.insert")
        metrics["oracle.estimate_us"] = per_call_us("oracle.estimate")
        metrics["oracle.estimate_queries_per_insertion"] = (
            calls["oracle.estimate"].count / calls["oracle.insert"].count
        )
        phase_self_ns = 0
        for k in (1, 2, 3):
            spans = tracer.named(f"phase{k}")
            phase_self_ns += sum(span["self_ns"] for span in spans)
            metrics[f"attack.phase{k}_s"] = statistics.median(
                (span["end_ns"] - span["start_ns"]) / 1e9 for span in spans
            )
        metrics["attack.scan_self_us"] = phase_self_ns / insertions / 1e3
        metrics["attack.insertions_per_C"] = insertions / counts["attack.C"]
        metrics["attack.kept_ratio"] = counts["attack.kept"] / insertions

    round_trips = calls.get("remote.round_trip")
    if round_trips and round_trips.count:
        metrics["remote.round_trips_per_insertion"] = round_trips.count / insertions
        metrics["remote.rtt_us.p50"] = percentile(round_trips.durations, 0.5) / 1e3
        metrics["remote.rtt_us.p90"] = percentile(round_trips.durations, 0.9) / 1e3
        metrics["remote.encode_us"] = counts["remote.encode.ns"] / counts["remote.commands"] / 1e3
        metrics["remote.decode_us"] = counts["remote.decode.ns"] / counts["remote.replies"] / 1e3
        metrics["remote.bytes_out_per_insertion"] = counts["remote.bytes_out"] / insertions
        metrics["remote.reconnects"] = workload.reconnects
        # CPU shares come from the untraced units, which the trace does not slow.
        plain = [unit for unit in units if not unit.traced]
        wall = sum(unit.wall_s for unit in plain)
        metrics["remote.client_busy_share"] = sum(unit.cpu_s for unit in plain) / wall
        metrics["remote.server_busy_share"] = sum(unit.server_cpu_s for unit in plain) / wall

    elements = counts.get("ingest.elements", 0)
    if elements:
        metrics["sketch.insert_increment_us"] = per_call_us("sketch.insert_increment")
        metrics["sketch.estimate_us"] = per_call_us("sketch.estimate")
        metrics["sketch.witness_us"] = per_call_us("sketch.witness")
        metrics["sketch.merge_us"] = per_call_us("sketch.merge")
        metrics["sketch.snapshot_us"] = per_call_us("sketch.snapshot")
        # SnsGuard.insert_many makes its sketch calls inside the library, so
        # its span holds them: this is the guard's whole cost per element.
        metrics["defense.sns_insert_us"] = calls["defense.sns_insert_many"].total_ns / elements / 1e3
        observe = calls["defense.stats_observe"]
        metrics["defense.stats_observe_us"] = observe.self_ns / observe.count / 1e3
        metrics["defense.check_us"] = per_call_us("defense.check")

    traced = [unit.wall_s / unit.cal_s for unit in units if unit.traced]
    plain = [unit.wall_s / unit.cal_s for unit in units if not unit.traced]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the lines describing it."""
    from workloads import WORKLOADS

    samples = []
    wanted = 0 if trace else setup_samples

    def probe_when_due(progress: float) -> None:
        # Set-up probes are spread over the run, so that their median sees
        # the same drift of machine speed as the units do.
        while len(samples) < wanted and len(samples) <= progress * wanted:
            samples.append(time_setup(name, seed, size))

    workload = WORKLOADS[name](seed, size)
    tracer = Tracer() if trace else None
    try:
        workload.setup()
        units = run_units(workload, seconds, tracer, None if trace else probe_when_due)
        probe_when_due(float("inf"))
        if trace:
            metrics = layer_metrics(workload, tracer, units)
        else:
            metrics = end_to_end(units, samples)
        context = workload.context()
        context.update(workload.side_metrics())
    finally:
        workload.close()

    failed = [unit for unit in units if unit.failures]
    context.update(trace=int(trace), units=len(units), failed=len(failed))
    unit_name, elements_name, _, _ = UNIT_NAMES[name]
    lines = [f"perfbench {name}: backend={context['backend']} python={context['python']} "
             f"nproc={context['nproc']} seed={seed} trace={int(trace)}",
             "context " + json.dumps(context)]
    for metric, value in metrics.items():
        if trace:
            unit, note = PER_LAYER[metric], ""
        else:
            unit, note = END_TO_END[metric]
            note = note.format(setup_n=len(samples), unit=unit_name, n=len(units), elements=elements_name)
        lines.append(f"  {metric:<40} {value:>14.6g} {unit:<6} {note}")
    lines.append("  reported beside the metrics:")
    for figure, (value, unit, note) in seconds_figures(name, units, samples).items():
        lines.append(f"  {figure:<40} {value:>14.6g} {unit:<6} {note}")
    for unit in failed[:5]:
        lines.append("  FAILED: " + " | ".join(unit.failures).strip())

    result = {
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {
            metric: {"value": value, "unit": PER_LAYER[metric] if trace else END_TO_END[metric][0]}
            for metric, value in metrics.items()
        },
    }
    if trace:
        tracer.write(OUT / f"trace-{name}-seed{seed}.json", context, metrics)
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "attack-inproc", "attack-resp", "ingest-detect"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hllrt" / "__init__.py").is_file():
        print(f"error: no hllrt package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
