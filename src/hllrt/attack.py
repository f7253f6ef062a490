"""Black-box construction of a small set that inflates an HLL estimate.

Given only a cardinality oracle (reset / insert / integer estimate), the
attack builds a set of roughly R elements whose insertion drives the
estimate to an arbitrary target C. Three passes over a deterministic
stream S of C distinct elements:

1. insert S into an empty oracle, keeping every element that raised the
   integer estimate (set Y — close to the per-register maxima, but the
   low-range regime and integer rounding hide some of them);
2. preload Y into a fresh oracle, rescan S and keep the elements that
   now raise the estimate (recovers the hidden maxima);
3. replay Y in reverse insertion order into a fresh oracle, keeping the
   risers — per register only the maximum survives, collapsing the set
   to about R elements.

Total oracle insertions are 2C plus the two intermediate set sizes,
i.e. O(C): the attack costs the same order of work as honestly
inserting C elements. Each pass is one ``CardinalityOracle.scan``, which
queries the estimate once per insertion plus once at the start, and the
phase-2 preload is one ``CardinalityOracle.insert_many``. An in-process
oracle runs all of them inside the kernel: phases 1 and 2 call its
``scan_stream``, which generates and hashes the stream in the kernel and
makes ``bytes`` only for the elements it keeps. A remote oracle
pipelines its scans and its preload. Any other oracle (counting, or
duck-typed with only reset/insert/estimate) gets the reference path: the
stream generated a block at a time (``stream_elements``), never held
whole, and an ``insert`` per preloaded element.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ._kernel import stream_element, stream_elements
from .oracle import CardinalityOracle

__all__ = [
    "ElementGenerator",
    "AttackSet",
    "PhaseReport",
    "AttackRun",
    "AttackAborted",
    "phase1",
    "phase2",
    "phase3",
    "run_attack",
    "verify",
]

_MASK64 = (1 << 64) - 1
# Elements ElementGenerator.stream generates at a time: few enough that a
# long stream is never held whole.
_CHUNK = 512


class ElementGenerator:
    """Deterministic stream of distinct elements.

    Element k is a pure function of (seed, k), so the stream can be
    re-walked in any phase, or resumed at any index, without storing it.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64

    def element(self, k: int) -> bytes:
        return stream_element(self.seed, k)

    def stream(self, count: int) -> Iterator[bytes]:
        """Elements 0 .. count - 1, generated ``_CHUNK`` at a time as they are read."""
        for start in range(0, count, _CHUNK):
            yield from stream_elements(self.seed, start, min(_CHUNK, count - start))


@dataclass
class PhaseReport:
    """Per-phase accounting.

    ``estimate`` is what the scanned oracle reported when the phase
    finished; for phase 3 that equals the estimate the final set V
    produces on a fresh oracle (dropped elements never change a
    register). ``insertions_performed`` counts the phase's scan loop
    only — the phase-2 preload is part of total attack cost but not of
    the scan. ``estimate_queries`` is ``insertions_performed + 1``: one
    query after each insertion and one before the first.
    """

    phase: int
    set_size: int
    estimate: int
    insertions_performed: int
    estimate_queries: int


@dataclass
class AttackSet:
    """Ordered element set produced by one attack phase.

    ``achieved_estimate`` is the scanned oracle's estimate at the end of
    the producing phase. Order is significant: ``verify`` replays
    elements exactly as stored.
    """

    elements: list[bytes]
    phase: int
    target_cardinality: int
    achieved_estimate: int
    source_seed: int

    def __len__(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        if self.phase not in (1, 2, 3):
            raise ValueError(f"phase must be 1, 2 or 3, got {self.phase}")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("attack set contains duplicate elements")

    # -- file form ---------------------------------------------------------
    # UTF-8 text, '#'-prefixed metadata lines, then one element per line
    # in insertion order.

    def save(self, path) -> None:
        """Write the file form; refuse, before writing, an element it cannot hold.

        An element must be non-empty UTF-8 with no CR or LF and must not
        start with '#', or ``load`` would skip it, split it or read it
        as metadata.
        """
        lines = []
        for element in self.elements:
            try:
                text = element.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"element {element!r} is not UTF-8") from None
            if not text or text.startswith("#") or "\r" in text or "\n" in text:
                raise ValueError(
                    f"element {element!r} cannot be stored one per line: "
                    "it is empty, starts with '#' or holds CR or LF"
                )
            lines.append(text + "\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# seed={self.source_seed}\n")
            fh.write(f"# target_C={self.target_cardinality}\n")
            fh.write(f"# phase={self.phase}\n")
            fh.write(f"# estimate={self.achieved_estimate}\n")
            fh.write(f"# size={len(self.elements)}\n")
            fh.writelines(lines)

    @classmethod
    def load(cls, path) -> "AttackSet":
        meta: dict[str, int] = {}
        elements: list[bytes] = []
        seen: set[bytes] = set()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" not in body:
                        raise ValueError(f"line {lineno}: malformed metadata {line!r}")
                    key, _, value = body.partition("=")
                    try:
                        meta[key.strip()] = int(value.strip())
                    except ValueError as exc:
                        raise ValueError(
                            f"line {lineno}: non-integer metadata value {line!r}"
                        ) from exc
                    continue
                element = line.encode("utf-8")
                if element in seen:
                    raise ValueError(f"line {lineno}: duplicate element {line!r}")
                seen.add(element)
                elements.append(element)
        for key in ("seed", "target_C", "phase"):
            if key not in meta:
                raise ValueError(f"missing metadata line '# {key}='")
        if "size" in meta and meta["size"] != len(elements):
            raise ValueError(
                f"metadata size={meta['size']} but file holds {len(elements)} elements"
            )
        found = cls(
            elements=elements,
            phase=meta["phase"],
            target_cardinality=meta["target_C"],
            achieved_estimate=meta.get("estimate", -1),
            source_seed=meta["seed"],
        )
        found.validate()
        return found


class AttackAborted(RuntimeError):
    """Raised when the oracle fails mid-phase; carries the partial set.

    The partial set's ``achieved_estimate`` is -1 (unknown): the failed
    phase never finished.
    """

    def __init__(self, message: str, partial: AttackSet):
        super().__init__(message)
        self.partial = partial


def _scan(
    oracle: CardinalityOracle,
    elements: Iterable[bytes] | ElementGenerator,
    kept: list[bytes],
    phase: int,
    target_cardinality: int,
    seed: int,
) -> tuple[int, int, int]:
    """Insert each element, keeping those that raise the integer estimate.

    An ``ElementGenerator`` stands for its first ``target_cardinality``
    elements. Returns (final estimate, insertions, estimate queries); a
    scan observes the estimate once per insertion plus once at the start.
    On oracle failure raises AttackAborted carrying what was kept so far.
    """
    # Methods are looked up on the type: an object with only
    # reset/insert/estimate gets the reference loop.
    scan_stream = getattr(type(oracle), "scan_stream", None)
    scan = getattr(type(oracle), "scan", CardinalityOracle.scan)
    try:
        if not isinstance(elements, ElementGenerator):
            last, insertions = scan(oracle, elements, kept)
        elif scan_stream is None:
            last, insertions = scan(oracle, elements.stream(target_cardinality), kept)
        else:
            last, insertions = scan_stream(oracle, elements.seed, 0, target_cardinality, kept)
    except Exception as exc:
        partial = AttackSet(
            elements=kept,
            phase=phase,
            target_cardinality=target_cardinality,
            achieved_estimate=-1,
            source_seed=seed,
        )
        raise AttackAborted(
            f"oracle failed during phase {phase} after keeping {len(kept)} elements: {exc}",
            partial,
        ) from exc
    return last, insertions, insertions + 1


def phase1(
    oracle: CardinalityOracle, stream: ElementGenerator, target_cardinality: int
) -> tuple[AttackSet, PhaseReport]:
    """Greedy first pass: keep every element of S that raises the estimate."""
    if target_cardinality < 1:
        raise ValueError("target cardinality must be at least 1")
    kept: list[bytes] = []
    last, insertions, queries = _scan(oracle, stream, kept, 1, target_cardinality, stream.seed)
    result = AttackSet(kept, 1, target_cardinality, last, stream.seed)
    return result, PhaseReport(1, len(kept), last, insertions, queries)


def phase2(
    oracle: CardinalityOracle, y: AttackSet, stream: ElementGenerator
) -> tuple[AttackSet, PhaseReport]:
    """Recovery pass: preload Y, rescan S, append the new risers."""
    if stream.seed != y.source_seed:
        raise ValueError("stream seed does not match the phase-1 set")
    getattr(type(oracle), "insert_many", CardinalityOracle.insert_many)(oracle, y.elements)
    additions: list[bytes] = []
    try:
        last, insertions, queries = _scan(
            oracle, stream, additions, 2, y.target_cardinality, y.source_seed
        )
    except AttackAborted as aborted:
        aborted.partial.elements = y.elements + aborted.partial.elements
        raise
    result = AttackSet(
        y.elements + additions, 2, y.target_cardinality, last, y.source_seed
    )
    return result, PhaseReport(2, len(result.elements), last, insertions, queries)


def phase3(
    oracle: CardinalityOracle, y2: AttackSet
) -> tuple[AttackSet, PhaseReport]:
    """Minimizing pass: replay Y in reverse order, keep only the risers."""
    kept: list[bytes] = []
    last, insertions, queries = _scan(
        oracle,
        iter(reversed(y2.elements)),
        kept,
        3,
        y2.target_cardinality,
        y2.source_seed,
    )
    result = AttackSet(kept, 3, y2.target_cardinality, last, y2.source_seed)
    return result, PhaseReport(3, len(kept), last, insertions, queries)


@dataclass
class AttackRun:
    """Complete three-phase run with intermediate sets and accounting."""

    attack_set: AttackSet
    phase_sets: tuple[AttackSet, AttackSet, AttackSet]
    reports: tuple[PhaseReport, PhaseReport, PhaseReport]
    total_insertions: int
    wall_times_ms: tuple[float, float, float] = field(default=(0.0, 0.0, 0.0))


def run_attack(
    oracle_factory: Callable[[], CardinalityOracle],
    seed: int,
    target_cardinality: int,
    checkpoint: Callable[[AttackSet], None] | None = None,
) -> AttackRun:
    """Run phases 1-3, each against a fresh oracle from the factory.

    ``checkpoint``, when given, receives each phase's completed set (so
    a remote run that dies later can resume). Total insertions are
    C (phase 1) + |Y| + C (phase 2 preload and rescan) + |Y2| (phase 3),
    bounded by 3C whenever |Y| + |Y2| <= C.
    """
    stream = ElementGenerator(seed)

    def fresh() -> CardinalityOracle:
        oracle = oracle_factory()
        oracle.reset()
        return oracle

    t0 = time.perf_counter()
    y1, report1 = phase1(fresh(), stream, target_cardinality)
    t1 = time.perf_counter()
    if checkpoint:
        checkpoint(y1)
    y2, report2 = phase2(fresh(), y1, stream)
    t2 = time.perf_counter()
    if checkpoint:
        checkpoint(y2)
    v, report3 = phase3(fresh(), y2)
    t3 = time.perf_counter()
    if checkpoint:
        checkpoint(v)
    total = (
        report1.insertions_performed
        + len(y1.elements)
        + report2.insertions_performed
        + report3.insertions_performed
    )
    return AttackRun(
        attack_set=v,
        phase_sets=(y1, y2, v),
        reports=(report1, report2, report3),
        total_insertions=total,
        wall_times_ms=(
            (t1 - t0) * 1000.0,
            (t2 - t1) * 1000.0,
            (t3 - t2) * 1000.0,
        ),
    )


def verify(oracle: CardinalityOracle, attack_set: AttackSet) -> int:
    """Insert an attack set into a reset oracle; return the final estimate.

    The set goes in through ``insert_many``, looked up on the type as in
    ``phase2``: an oracle with only reset/insert/estimate gets the loop.
    """
    oracle.reset()
    getattr(type(oracle), "insert_many", CardinalityOracle.insert_many)(oracle, attack_set.elements)
    return oracle.estimate()
