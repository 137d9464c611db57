"""Executor-allocation skylines and AUC.

The paper's cost metric is the *total executor occupancy*
``AUC = ∫ n_s ds`` — the area under the skyline of allocated executors
``n_s`` over the query's lifetime (Section 2, Figure 1's data labels,
Figure 12).  A :class:`Skyline` is a right-continuous step function built
from executor arrival/removal events.

Point queries (:meth:`Skyline.value_at`) and areas (:meth:`Skyline.auc`)
binary-search a lazily built index over the recorded breakpoints — prefix
areas plus a sorted time array — instead of rescanning the step list, so
repeated queries against a long skyline (the fleet engine's pool skyline
sees one step per grant/release) are O(log n).  The index is invalidated
by :meth:`Skyline.record` and rebuilt on the next query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["Skyline"]


@dataclass
class Skyline:
    """Step function of allocated executors over time.

    Points are ``(time, count)`` steps: the count holds from each point's
    time until the next point.  Times must be non-decreasing.
    """

    points: list[tuple[float, int]] = field(default_factory=list)
    _index: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def record(self, time: float, count: int) -> None:
        """Append a step; collapses consecutive equal counts."""
        if count < 0:
            raise ValueError("executor counts cannot be negative")
        if self.points:
            last_time, last_count = self.points[-1]
            if time < last_time:
                raise ValueError("skyline times must be non-decreasing")
            if count == last_count:
                return
            self._index = None
            if time == last_time:
                self.points[-1] = (time, count)
                return
        else:
            self._index = None
        self.points.append((time, count))

    def _ensure_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted breakpoint times, counts, and prefix areas.

        ``prefix[i]`` is the area accumulated left-to-right over segments
        ``0..i-1`` (each ``count · width``), matching the sequential
        summation order of the original scan so cached and scanned areas
        agree bit-for-bit.
        """
        if self._index is None:
            times = np.array([t for t, _ in self.points])
            counts = np.array([float(c) for _, c in self.points])
            widths = np.diff(times)
            prefix = np.concatenate(
                ([0.0], np.add.accumulate(counts[:-1] * widths))
            )
            self._index = (times, counts, prefix)
        return self._index

    def value_at(self, time: float) -> int:
        """Executor count in effect at ``time`` (0 before the first step)."""
        if not self.points:
            return 0
        times, _, _ = self._ensure_index()
        idx = int(np.searchsorted(times, time, side="right")) - 1
        if idx < 0:
            return 0
        return self.points[idx][1]

    @property
    def max_executors(self) -> int:
        """Peak allocation ``n = max(n_s)`` (paper metric 1)."""
        if not self.points:
            return 0
        return max(c for _, c in self.points)

    def auc(self, end_time: float) -> float:
        """Total executor occupancy up to ``end_time`` (executor-seconds)."""
        if end_time < 0:
            raise ValueError("end_time must be >= 0")
        if not self.points:
            return 0.0
        times, _, prefix = self._ensure_index()
        # Rightmost step strictly before end_time; steps at or past the
        # end contribute nothing.
        idx = int(np.searchsorted(times, end_time, side="left")) - 1
        if idx < 0:
            return 0.0
        partial = self.points[idx][1] * (end_time - self.points[idx][0])
        return float(prefix[idx] + partial)

    def window_auc(self, start: float, end: float) -> float:
        """Occupancy over ``[start, end]`` (0.0 for an empty window)."""
        if end <= start:
            return 0.0
        return self.auc(end) - self.auc(start)

    def auc_batch(self, end_times: np.ndarray | Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`auc` over many end times.

        Evaluating a skyline at a whole grid of horizons (percentile
        sweeps, animation frames, per-query cutoffs over a shared pool
        skyline) via repeated ``auc`` calls rescans the breakpoint prefix
        each time; this resolves every horizon with one ``searchsorted``.
        """
        ends = np.asarray(end_times, dtype=float)
        if ends.size and float(ends.min()) < 0:
            raise ValueError("end_time must be >= 0")
        if not self.points:
            return np.zeros(ends.shape)
        times, counts, prefix = self._ensure_index()
        idx = np.searchsorted(times, ends, side="left") - 1
        clipped = np.clip(idx, 0, None)
        area = prefix[clipped] + counts[clipped] * (ends - times[clipped])
        return np.where(idx < 0, 0.0, area)

    def truncated(self, end_time: float) -> "Skyline":
        """Copy of this skyline cut off at ``end_time``."""
        out = Skyline()
        for t, c in self.points:
            if t >= end_time:
                break
            out.record(t, c)
        return out
