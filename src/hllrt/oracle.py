"""Black-box cardinality oracle: the attacker's only view of a sketch.

The oracle contract is deliberately tiny: reset, insert, integer
estimate. The attack code is written against this interface alone, so
anything implementing it (in-process sketch, remote Redis key) is a
valid target. Three bulk calls are built from those three: ``scan``, the
attack's unit of work; ``scan_stream``, the scan of a span of the
attack's stream; and ``insert_many``, through which phase 2 preloads and
``verify`` replays a set. An oracle may override any of them only with
code that observes the same estimates and leaves the same registers as
the reference it replaces; every ``insert_many`` refuses a batch that
holds a bad element before it inserts any. ``HllSketch`` is the
in-process oracle and overrides all three with the kernel's.
``RemoteOracle`` overrides ``scan`` and ``insert_many`` with pipelines;
its inherited ``scan_stream`` pipelines through its ``scan``.
"""

from __future__ import annotations

import abc
from typing import Iterable

from ._kernel import stream_elements

__all__ = ["CardinalityOracle", "CountingOracle"]

# Stream elements the reference scan_stream generates at a time: few
# enough that a long span is never held whole.
_BLOCK = 512


def checked_element(element: bytes) -> bytes:
    """``element``, if a kernel would take it; else ``TypeError``, or ``ValueError`` if empty.

    The one copy of the kernel's element rule above a kernel, for the
    oracles in which none runs.
    """
    if type(element) is not bytes:
        raise TypeError(f"expected bytes, got {type(element).__name__}")
    if not element:
        raise ValueError("element must be non-empty")
    return element


class CardinalityOracle(abc.ABC):
    """reset / insert / estimate — nothing else is observable."""

    __slots__ = ()

    @abc.abstractmethod
    def reset(self) -> None:
        """Return the target to its empty state."""

    @abc.abstractmethod
    def insert(self, element: bytes) -> None:
        """Insert one element."""

    @abc.abstractmethod
    def estimate(self) -> int:
        """Current integer cardinality estimate (side-effect free)."""

    def insert_many(self, elements: Iterable[bytes]) -> None:
        """Insert every element in order: ``insert`` for each, once all pass ``checked_element``."""
        elements = [checked_element(element) for element in elements]
        insert = self.insert
        for element in elements:
            insert(element)

    def scan(self, elements: Iterable[bytes], kept: list[bytes]) -> tuple[int, int]:
        """Insert every element in order, keeping those that raise the estimate.

        Appends to ``kept`` each element whose insertion left the estimate
        above the one just before it, and returns (final estimate,
        insertions). The estimate is observed once at the start and once
        after each insertion. If this raises, ``kept`` holds only elements
        whose after-estimate was observed.

        This loop uses nothing but ``insert`` and ``estimate``, so it is the
        reference the overrides must match, and it runs on any object that
        has those two methods.
        """
        insert = self.insert
        estimate = self.estimate
        append = kept.append
        last = estimate()
        insertions = 0
        for element in elements:
            insert(element)
            insertions += 1
            after = estimate()
            if after > last:
                append(element)
            last = after
        return last, insertions

    def scan_stream(self, seed: int, start: int, count: int, kept: list[bytes]) -> tuple[int, int]:
        """``scan(stream_elements(seed, start, count), kept)``, ``_BLOCK`` elements at a time.

        The first block is made before the scan starts, so an argument
        ``stream_elements`` refuses raises before the first insertion.
        """
        first = stream_elements(seed, start, min(count, _BLOCK))

        def span():
            yield from first
            for offset in range(_BLOCK, count, _BLOCK):
                yield from stream_elements(seed, start + offset, min(_BLOCK, count - offset))

        return self.scan(span(), kept)


class CountingOracle(CardinalityOracle):
    """Wrapper counting every interface call made against another oracle.

    Used to instrument attack cost (oracle insertions are the unit the
    complexity bound is stated in) and to demonstrate that the attack
    touches nothing beyond the black-box interface: this wrapper defines
    only the three oracle methods plus counters, and inherits the
    reference ``insert_many``, ``scan`` and ``scan_stream``, which call
    them. ``inner`` needs only those three methods, so the wrapper also
    adapts a bare object that has nothing else. An insertion is counted
    once ``inner`` has taken it.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.insertions = 0
        self.estimate_queries = 0
        self.resets = 0

    def reset(self) -> None:
        self.resets += 1
        self._inner.reset()

    def insert(self, element: bytes) -> None:
        self._inner.insert(element)
        self.insertions += 1

    def estimate(self) -> int:
        self.estimate_queries += 1
        return self._inner.estimate()
