"""Windowed activity series from timestamped events, and spike detection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

MAD_SCALE = 1.4826  # normal-consistency factor for median absolute deviation
DEFAULT_Z_THRESHOLD = 3.0


@dataclass(frozen=True)
class EventSeries:
    """Per-window event totals, and the window and node of every event.

    Windows are contiguous and of one width, starting at the first event's
    timestamp. ``actives`` counts distinct active members per window from
    ``windows`` and ``nodes``, so every member set lines up window for window.
    """

    totals: np.ndarray
    windows: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)

    @property
    def num_windows(self) -> int:
        return int(len(self.totals))

    def actives(self, members: Iterable[int]) -> np.ndarray:
        """Distinct ``members`` (any iterable of node ids) active in each window."""
        keep = np.isin(self.nodes, np.fromiter(members, dtype=np.int64))
        windows, nodes = self.windows[keep], self.nodes[keep]
        order = np.lexsort((nodes, windows))
        windows, nodes = windows[order], nodes[order]
        first = np.ones(len(windows), dtype=bool)
        first[1:] = (windows[1:] != windows[:-1]) | (nodes[1:] != nodes[:-1])
        return np.bincount(windows[first], minlength=self.num_windows)


@dataclass(frozen=True)
class SpikeReport:
    """Windows whose robust z-score clears the threshold, plus all scores."""

    spike_windows: tuple[int, ...]
    zscores: tuple[float, ...]


def bin_events(events: np.ndarray | Sequence[tuple[int, int]], window_seconds: int) -> EventSeries:
    """Bin (timestamp, node) events into windows ``window_seconds`` wide.

    ``events`` is an (N, 2) int64 array of ``[stamp, node]`` rows, or any
    sequence of such pairs; the order does not matter. ``totals`` counts all
    events per window, ``actives(members)`` distinct members.
    """
    if window_seconds < 1:
        raise ValueError("window must be at least one second")
    if len(events) == 0:
        raise ValueError("empty event stream")
    events = np.asarray(events, dtype=np.int64)
    stamps, nodes = events[:, 0], events[:, 1]
    t0 = int(stamps.min())
    span = int(stamps.max()) - t0
    num_windows = span // window_seconds + 1
    # offsets in uint64 stay exact when the span passes 2**63
    offsets = stamps.view(np.uint64) - np.uint64(t0 % 2**64)
    if window_seconds <= span:
        windows = (offsets // np.uint64(window_seconds)).astype(np.intp)
    else:
        windows = np.zeros(len(stamps), dtype=np.intp)
    return EventSeries(totals=np.bincount(windows, minlength=num_windows), windows=windows,
                       nodes=nodes)


def sample_control_nodes(boundary: Iterable[int], num_nodes: int, seed: int = 0) -> set[int]:
    """Uniform sample, the boundary set's size, of the nodes below ``num_nodes`` outside it."""
    boundary_set = set(boundary)
    population = [v for v in range(num_nodes) if v not in boundary_set]
    if len(boundary_set) > len(population):
        raise ValueError(
            f"the boundary set ({len(boundary_set)} nodes) outnumbers the "
            f"{len(population)} other nodes, so no equal-size control set exists"
        )
    rng = np.random.default_rng(seed % (1 << 64))  # numpy takes no negative seed
    picks = rng.choice(len(population), size=len(boundary_set), replace=False)
    return {population[int(i)] for i in picks}


def control_series(series: EventSeries, boundary: Iterable[int], num_nodes: int,
                   seed: int = 0) -> np.ndarray:
    """Active counts per window of ``series`` for a random node set the boundary set's size.

    The sample excludes boundary nodes so the comparison is sharp, and is
    deterministic given the seed.
    """
    return series.actives(sample_control_nodes(boundary, num_nodes, seed))


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array, from one sort: ``np.median`` imports ``numpy.ma``.

    The middle value, or the mean (a + b) / 2 of the two middle values; NaN
    if any value is NaN. Only the sign of a zero median can differ.
    """
    ordered = np.sort(values)  # NaNs sort last
    middle = len(ordered) // 2
    if np.isnan(ordered[-1]):
        return float("nan")
    if len(ordered) % 2:
        return float(ordered[middle])
    return float((ordered[middle - 1] + ordered[middle]) / 2)


def detect_spikes(series: Sequence[float],
                  z_threshold: float = DEFAULT_Z_THRESHOLD) -> SpikeReport:
    """Flag windows deviating above the series baseline by robust z-score.

    The score is (x - median) / (1.4826 * MAD), which the spike itself
    cannot inflate the way a mean/std baseline would. Degenerate rule: when
    MAD is zero (over half the windows share one value), any deviation from
    the median is infinitely many scale units away, so windows above the
    median score +inf and are flagged, and windows below it score -inf.
    """
    values = np.asarray(series, dtype=float)
    if len(values) < 5:
        raise ValueError(f"need at least 5 windows, got {len(values)}")
    median = _median(values)
    mad = _median(np.abs(values - median))
    if mad == 0.0:
        zscores = np.select([values > median, values < median], [np.inf, -np.inf], 0.0)
    else:
        zscores = (values - median) / (MAD_SCALE * mad)
    spikes = np.flatnonzero(zscores >= z_threshold)
    return SpikeReport(
        spike_windows=tuple(int(w) for w in spikes),
        zscores=tuple(float(z) for z in zscores),
    )
