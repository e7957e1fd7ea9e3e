import math

import numpy as np
import pytest

from boundary_vicinity import (
    bin_events,
    control_series,
    detect_spikes,
    sample_control_nodes,
)


def test_bin_counts_distinct_actives():
    events = [(100, 7), (110, 7), (150, 7)]
    series = bin_events(events, 60, node_filter={7})
    assert series.totals.tolist() == [3]
    assert series.actives.tolist() == [1]


def test_bin_empty_filter_keeps_time_span():
    events = [(0, 1), (250, 2)]
    series = bin_events(events, 60, node_filter=set())
    assert series.num_windows == 5
    assert series.totals.tolist() == [0] * 5
    assert series.actives.tolist() == [0] * 5


def test_bin_uniform_stream_arithmetic():
    events = [(t, t % 10) for t in range(600)]
    series = bin_events(events, 60)
    assert series.totals.tolist() == [60] * 10
    assert series.actives.tolist() == [10] * 10


def test_bin_unsorted_input_allowed():
    events = [(500, 1), (0, 2), (250, 3)]
    series = bin_events(events, 100)
    assert series.t0 == 0
    assert series.totals.sum() == 3


def test_bin_actives_bounded_by_totals_and_filter():
    rng = np.random.default_rng(0)
    events = [(int(t), int(n)) for t, n in
              zip(rng.integers(0, 1000, 500), rng.integers(0, 20, 500))]
    node_filter = {0, 1, 2, 3, 4}
    series = bin_events(events, 50, node_filter=node_filter)
    assert np.all(series.actives <= series.totals)
    assert np.all(series.actives <= len(node_filter))
    unfiltered = bin_events(events, 50)
    assert unfiltered.totals.sum() == 500


def test_bin_rejects_empty_stream():
    with pytest.raises(ValueError):
        bin_events([], 60)


def test_control_excludes_boundary_and_matches_size():
    control = sample_control_nodes({0, 1, 2, 3, 4}, set(range(100)), seed=1)
    assert len(control) == 5
    assert control.isdisjoint({0, 1, 2, 3, 4})


def test_control_deterministic():
    a = sample_control_nodes({1, 2}, set(range(50)), seed=9)
    b = sample_control_nodes({1, 2}, set(range(50)), seed=9)
    assert a == b
    events = [(t, t % 50) for t in range(200)]
    s1 = control_series(events, {1, 2}, set(range(50)), 60, seed=9)
    s2 = control_series(events, {1, 2}, set(range(50)), 60, seed=9)
    assert np.array_equal(s1.actives, s2.actives)
    assert np.array_equal(s1.totals, s2.totals)


def test_control_boundary_equals_population_errors():
    with pytest.raises(ValueError):
        sample_control_nodes({0, 1}, {0, 1}, seed=0)


def test_spikes_constant_series_none():
    report = detect_spikes([5, 5, 5, 5, 5, 5])
    assert report.spike_windows == ()
    assert report.zscores == (0.0,) * 6


def test_spikes_mad_zero_degenerate_rule():
    report = detect_spikes([10, 10, 10, 100, 10, 10])
    assert report.spike_windows == (3,)
    assert math.isinf(report.zscores[3])


def test_spikes_robust_zscore_case():
    report = detect_spikes([8, 12, 9, 11, 10, 40, 9])
    assert report.spike_windows == (5,)
    assert report.zscores[5] >= 3.0
    assert report.zscores[5] == pytest.approx(30 / 1.4826, rel=1e-9)


def test_spikes_downward_deviation_not_flagged():
    report = detect_spikes([10, 12, 9, 11, 10, 1, 9, 10])
    assert 5 not in report.spike_windows
    report = detect_spikes([10, 10, 10, 1, 10, 10])  # MAD is 0
    assert report.spike_windows == ()
    assert report.zscores[3] == -math.inf


def test_spikes_indices_ascending_and_thresholded():
    rng = np.random.default_rng(2)
    base = rng.normal(100, 2, size=50)
    base[[10, 30]] += 100
    report = detect_spikes(base, z_threshold=3.0)
    assert list(report.spike_windows) == sorted(report.spike_windows)
    assert set(report.spike_windows) >= {10, 30}
    for w in report.spike_windows:
        assert report.zscores[w] >= 3.0


def test_spikes_requires_five_windows():
    with pytest.raises(ValueError):
        detect_spikes([1, 2, 3, 4])


def test_boundary_spike_found_in_boundary_and_total_series():
    """A window dominated by boundary-node chatter spikes in both series."""
    boundary = set(range(10))
    background = set(range(10, 30))
    others = set(range(10, 100))
    events = []
    # steady background: every background node tweets once per window
    for w in range(10):
        for node in sorted(background):
            events.append((w * 60 + (node - 10), node))
    # burst window 6: boundary nodes produce two thirds of the traffic
    for i, b in enumerate(sorted(boundary)):
        for r in range(4):
            events.append((6 * 60 + 20 + (4 * i + r) % 39, b))
    totals = bin_events(events, 60)
    boundary_active = bin_events(events, 60, node_filter=boundary)
    total_report = detect_spikes(totals.totals)
    boundary_report = detect_spikes(boundary_active.actives)
    assert total_report.spike_windows == (6,)
    assert boundary_report.spike_windows == (6,)
    # control nodes were never co-activated, so their series stays flat
    control = control_series(events, boundary, boundary | others, 60, seed=3)
    control_report = detect_spikes(control.actives)
    assert 6 not in control_report.spike_windows
