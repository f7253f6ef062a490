"""Attack detection: salted shadow sketch and insertion statistics.

Two monitors, both cheap enough to run inline with ingestion:

* ``SnsGuard`` feeds every insertion into the public sketch and into a
  shadow sketch keyed with a secret random salt. The attack set is
  crafted against the public hash mapping, so under the shadow salt its
  elements behave like a random set of |V| items: the two estimates
  diverge by roughly C/R to 1 and the guard alarms. Honest streams keep
  both estimates within a few standard errors of each other.

* ``StatsMonitor`` watches which insertions still change a register and
  by how much. Honest traffic changes registers rarely once the
  estimate exceeds R, and changing insertions increment the value by
  about 2 on average; an attack-set replay changes a register on every
  single insertion.
"""

from __future__ import annotations

import json
import secrets
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Iterable

from .sketch import HllParams, HllSketch

__all__ = ["DetectionReport", "SnsGuard", "StatsMonitor", "default_divergence_threshold"]


def default_divergence_threshold(register_count: int) -> float:
    """Five standard errors of one HLL estimate (5 * 1.04/sqrt(R)).

    ``SnsGuard.check`` compares two estimates of one stream, whose difference
    has sqrt(2) times that error: the threshold is about 3.5 of its standard
    errors, so an honest stream alarms in about 1 of 2,500 checks.
    """
    return 5.0 * 1.04 / register_count**0.5


@dataclass(slots=True)
class DetectionReport:
    """Detector verdict plus the statistics that produced it."""

    alarm: bool
    detector: str  # "sns" | "stats"
    public_estimate: int
    shadow_estimate: int | None = None
    change_fraction: float | None = None
    mean_increment: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _check_threshold(name: str, threshold: float) -> None:
    # A NaN threshold would never alarm, a negative one always.
    if not threshold >= 0:
        raise ValueError(f"{name} must be a non-negative number, got {threshold!r}")


class SnsGuard:
    """Salted / not-salted dual-sketch comparator.

    The public sketch uses the given (shared, mergeable) parameters; the
    shadow sketch uses a secret random salt that never leaves the guard.
    ``check`` alarms when the relative divergence of the two estimates
    exceeds the threshold.
    """

    def __init__(
        self,
        params: HllParams,
        divergence_threshold: float | None = None,
        shadow_salt: int | None = None,
    ) -> None:
        if divergence_threshold is None:
            divergence_threshold = default_divergence_threshold(params.register_count)
        if shadow_salt is None:
            shadow_salt = secrets.randbits(64) | 1  # never the unsalted mapping
        _check_threshold("divergence_threshold", divergence_threshold)
        self.params = params
        self.divergence_threshold = divergence_threshold
        self.public_sketch = HllSketch(params)
        self.__shadow = HllSketch(replace(params, salt=shadow_salt))

    def insert(self, element: bytes) -> None:
        self.public_sketch.insert(element)
        self.__shadow.insert(element)

    def insert_many(self, elements: Iterable[bytes]) -> None:
        elements = list(elements)
        self.public_sketch.insert_many(elements)
        self.__shadow.insert_many(elements)

    def check(self) -> DetectionReport:
        public = self.public_sketch.estimate()
        shadow = self.__shadow.estimate()
        divergence = abs(public - shadow) / max(public, shadow, 1)
        return DetectionReport(
            alarm=divergence > self.divergence_threshold,
            detector="sns",
            public_estimate=public,
            shadow_estimate=shadow,
        )


class StatsMonitor:
    """Sliding-window monitor of register-change frequency and size.

    Only insertions arriving while the estimate exceeds R are monitored:
    below that, honest streams legitimately change registers on most
    insertions, so those observations carry no signal and are ignored.
    The change fraction is taken over the monitored observations
    currently in the window; the mean increment over the changing
    insertions among them (honest changes increment by about 2, the
    mean of the geometric rank law).
    """

    def __init__(
        self,
        register_count: int,
        window_size: int | None = None,
        fraction_threshold: float = 0.5,
        increment_threshold: float = 4.0,
    ) -> None:
        if window_size is None:
            window_size = 4 * register_count
        if window_size < 1:
            raise ValueError("window_size must be positive")
        _check_threshold("fraction_threshold", fraction_threshold)
        _check_threshold("increment_threshold", increment_threshold)
        self.register_count = register_count
        self.window_size = window_size
        self.fraction_threshold = fraction_threshold
        self.increment_threshold = increment_threshold
        self._window: deque[int] = deque(maxlen=window_size)  # increments, 0 = no change
        self._changed = 0
        self._increment_sum = 0

    def observe(self, changed: bool, increment: int, current_estimate: int) -> DetectionReport:
        """Record one insertion outcome and return the verdict, built positionally for speed."""
        if changed and increment < 1:
            raise ValueError("a changing insertion must have increment >= 1")
        if not changed:
            increment = 0
        window = self._window
        if current_estimate > self.register_count:
            if len(window) == self.window_size:
                evicted = window[0]
                if evicted > 0:
                    self._changed -= 1
                    self._increment_sum -= evicted
            window.append(increment)
            if increment > 0:
                self._changed += 1
                self._increment_sum += increment
        changed_count = self._changed
        fraction = changed_count / len(window) if window else 0.0
        mean_inc = self._increment_sum / changed_count if changed_count else 0.0
        alarm = bool(window) and (
            fraction > self.fraction_threshold or mean_inc > self.increment_threshold
        )
        return DetectionReport(alarm, "stats", current_estimate, None, fraction, mean_inc)
