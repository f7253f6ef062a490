"""Black-box cardinality oracle: the attacker's only view of a sketch.

The oracle contract is deliberately tiny: reset, insert, integer
estimate. The attack code is written against this interface alone, so
anything implementing it (in-process sketch, remote Redis key) is a
valid target. Two bulk calls are built from those three: ``scan``, the
attack's unit of work, and ``insert_many``, through which phase 2
preloads and ``verify`` replays a set. An oracle may override either
only with code that observes the same estimates and leaves the same
registers as the loop it replaces. ``InProcessOracle`` overrides both
with the kernel's (``RegisterFile.scan`` and ``HllSketch.insert_many``)
and adds ``scan_stream``: the scan of a span of the attack's stream,
generated inside the kernel, which equals
``scan(stream_elements(seed, start, count), kept)``. ``RemoteOracle``
overrides both with pipelines.
"""

from __future__ import annotations

import abc
from typing import Iterable

from .sketch import HllParams, HllSketch

__all__ = ["CardinalityOracle", "InProcessOracle", "CountingOracle", "make_oracle"]


class CardinalityOracle(abc.ABC):
    """reset / insert / estimate — nothing else is observable."""

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
        """Insert every element in order: ``insert`` for each."""
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


class InProcessOracle(CardinalityOracle):
    """Oracle backed by a local HllSketch.

    Oracles built from equal params share hash functions, matching the
    adversarial assumption that the attacker can instantiate sketches
    hash-compatible with the target.
    """

    def __init__(self, params: HllParams) -> None:
        self._sketch = HllSketch(params)
        # Bound kernel methods keep the per-call overhead flat.
        self._insert = self._sketch._core.insert
        self._estimate = self._sketch._core.estimate
        self._scan = self._sketch._core.scan

    @property
    def sketch(self) -> HllSketch:
        """The underlying sketch (evaluation plumbing, not attack surface)."""
        return self._sketch

    def reset(self) -> None:
        self._sketch.reset()

    def insert(self, element: bytes) -> None:
        if type(element) is bytes and not element:  # the kernel type-checks the rest
            raise ValueError("element must be non-empty")
        self._insert(element)

    def insert_many(self, elements: Iterable[bytes]) -> None:
        # Refuses a bad element before it inserts anything.
        self._sketch.insert_many(elements)

    def estimate(self) -> int:
        return self._estimate()

    def scan(self, elements: Iterable[bytes], kept: list[bytes]) -> tuple[int, int]:
        # The kernel's scan reads the estimate only after an insertion that
        # changed a register: the estimate depends on the registers alone.
        return self._scan(elements, kept)

    def scan_stream(self, seed: int, start: int, count: int, kept: list[bytes]) -> tuple[int, int]:
        """``scan(stream_elements(seed, start, count), kept)``, generated inside the kernel."""
        return self._sketch._core.scan_stream(seed, start, count, kept)


def make_oracle(params: HllParams) -> InProcessOracle:
    """Fresh in-process oracle; estimate() == 0 until something is inserted."""
    return InProcessOracle(params)


class CountingOracle(CardinalityOracle):
    """Wrapper counting every interface call made against another oracle.

    Used to instrument attack cost (oracle insertions are the unit the
    complexity bound is stated in) and to demonstrate that the attack
    touches nothing beyond the black-box interface: this wrapper defines
    only the three oracle methods plus counters, and inherits the
    reference ``insert_many`` and ``scan`` loops, which call them.
    """

    def __init__(self, inner: CardinalityOracle) -> None:
        self._inner = inner
        self.insertions = 0
        self.estimate_queries = 0
        self.resets = 0

    def reset(self) -> None:
        self.resets += 1
        self._inner.reset()

    def insert(self, element: bytes) -> None:
        self.insertions += 1
        self._inner.insert(element)

    def estimate(self) -> int:
        self.estimate_queries += 1
        return self._inner.estimate()
