"""Windowed activity series from timestamped events, and spike detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAD_SCALE = 1.4826  # normal-consistency factor for median absolute deviation


@dataclass(frozen=True)
class EventSeries:
    """Per-window event totals and distinct-active-node counts.

    Windows are contiguous, ``window_seconds`` wide, starting at the first
    event's timestamp ``t0``. When a node filter was applied, both arrays
    count only events from filtered nodes.
    """

    window_seconds: int
    t0: int
    totals: np.ndarray
    actives: np.ndarray

    @property
    def num_windows(self) -> int:
        return int(len(self.totals))


@dataclass(frozen=True)
class SpikeReport:
    """Windows whose robust z-score clears the threshold, plus all scores."""

    spike_windows: tuple[int, ...]
    zscores: tuple[float, ...]


def bin_events(
    events: Sequence[tuple[int, int]],
    window_seconds: int,
    node_filter: set[int] | None = None,
) -> EventSeries:
    """Bin (timestamp, node) events into fixed windows.

    The window span always covers the full event stream, so series produced
    with different filters line up window for window. ``totals`` counts
    filtered events per window, ``actives`` distinct filtered nodes.
    """
    if window_seconds < 1:
        raise ValueError("window must be at least one second")
    if len(events) == 0:
        raise ValueError("empty event stream")
    stamps = [int(t) for t, _ in events]
    t0 = min(stamps)
    num_windows = (max(stamps) - t0) // window_seconds + 1
    totals = np.zeros(num_windows, dtype=np.int64)
    seen: list[set[int]] = [set() for _ in range(num_windows)]
    for t, node in events:
        if node_filter is not None and node not in node_filter:
            continue
        w = (int(t) - t0) // window_seconds
        totals[w] += 1
        seen[w].add(node)
    actives = np.array([len(s) for s in seen], dtype=np.int64)
    return EventSeries(
        window_seconds=window_seconds, t0=t0, totals=totals, actives=actives
    )


def sample_control_nodes(
    boundary: Iterable[int], all_nodes: Iterable[int], seed: int = 0
) -> set[int]:
    """Uniform sample, matching the boundary set's size, from the non-boundary nodes."""
    boundary_set = set(boundary)
    population = sorted(set(all_nodes) - boundary_set)
    if len(boundary_set) > len(population):
        raise ValueError(
            f"cannot sample {len(boundary_set)} control nodes "
            f"from {len(population)} non-boundary nodes"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(population), size=len(boundary_set), replace=False)
    return {population[int(i)] for i in picks}


def control_series(
    events: Sequence[tuple[int, int]],
    boundary: Iterable[int],
    all_nodes: Iterable[int],
    window_seconds: int,
    seed: int = 0,
) -> EventSeries:
    """Activity series of a random node set the same size as the boundary set.

    The sample excludes boundary nodes so the comparison is sharp, and is
    deterministic given the seed.
    """
    control = sample_control_nodes(boundary, all_nodes, seed)
    return bin_events(events, window_seconds, node_filter=control)


def detect_spikes(series: Sequence[float], z_threshold: float = 3.0) -> SpikeReport:
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
    median = float(np.median(values))
    mad = float(np.median(np.abs(values - median)))
    if mad == 0.0:
        zscores = np.select([values > median, values < median], [np.inf, -np.inf], 0.0)
    else:
        zscores = (values - median) / (MAD_SCALE * mad)
    spikes = np.flatnonzero(zscores >= z_threshold)
    return SpikeReport(
        spike_windows=tuple(int(w) for w in spikes),
        zscores=tuple(float(z) for z in zscores),
    )
