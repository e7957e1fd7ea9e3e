import math

import numpy as np
import pytest

from boundary_vicinity import (
    bin_events,
    control_series,
    detect_spikes,
    sample_control_nodes,
)


def bin_events_reference(events, window_seconds, members):
    """The per-event binning loop: event totals, and one Python set of active members,
    per window."""
    stamps = [int(t) for t, _ in events]
    t0 = min(stamps)
    num_windows = (max(stamps) - t0) // window_seconds + 1
    totals = [0] * num_windows
    seen = [set() for _ in range(num_windows)]
    for t, node in events:
        w = (int(t) - t0) // window_seconds
        totals[w] += 1
        if node in members:
            seen[w].add(node)
    return totals, [len(s) for s in seen]


def test_bin_counts_distinct_actives():
    events = [(100, 7), (110, 7), (150, 7)]
    series = bin_events(events, 60)
    assert series.totals.tolist() == [3]
    assert series.actives({7}).tolist() == [1]


def test_bin_empty_filter_keeps_time_span():
    events = [(0, 1), (250, 2)]
    series = bin_events(events, 60)
    assert series.num_windows == 5
    assert series.totals.tolist() == [1, 0, 0, 0, 1]
    assert series.actives(set()).tolist() == [0] * 5


def test_bin_uniform_stream_arithmetic():
    events = [(t, t % 10) for t in range(600)]
    series = bin_events(events, 60)
    assert series.totals.tolist() == [60] * 10
    assert series.actives(range(10)).tolist() == [10] * 10


def test_bin_unsorted_input_allowed():
    events = [(500, 1), (0, 2), (250, 3)]
    series = bin_events(events, 100)
    assert series.totals.tolist() == [1, 0, 1, 0, 0, 1]  # windows start at the least stamp


def test_bin_actives_bounded_by_totals_and_filter():
    rng = np.random.default_rng(0)
    events = [(int(t), int(n)) for t, n in
              zip(rng.integers(0, 1000, 500), rng.integers(0, 20, 500))]
    members = {0, 1, 2, 3, 4}
    series = bin_events(events, 50)
    actives = series.actives(members)
    assert np.all(actives <= series.totals)
    assert np.all(actives <= len(members))
    assert series.totals.sum() == 500


@pytest.mark.parametrize("seed", range(6))
def test_bin_matches_per_event_reference(seed):
    """Array binning equals the per-event loop on random unsorted streams."""
    rng = np.random.default_rng(seed)
    num_events = int(rng.integers(1, 400))
    # seed 1 and up: node ids far above the event count, to rule out a dense key
    top = 30 if seed == 0 else 10**15
    nodes = rng.choice(rng.integers(0, top, size=40), size=num_events)
    stamps = rng.integers(-5_000, 5_000, size=num_events) + 1_600_000_000 * (seed % 2)
    pairs = [(int(t), int(v)) for t, v in zip(stamps, nodes)]
    present = sorted(set(nodes.tolist()))
    absent = {top + 1, top + 2}
    window = int(rng.integers(1, 700))
    member_sets = [set(present), set(), set(present[::3]), absent,
                   set(present[1::2]) | absent]
    for events in (pairs, np.array(pairs, dtype=np.int64)):
        series = bin_events(events, window)
        for members in member_sets:
            totals, actives = bin_events_reference(pairs, window, members)
            assert series.num_windows == len(totals)
            assert series.totals.tolist() == totals
            assert series.actives(members).tolist() == actives


def test_bin_span_beyond_int64_offsets():
    """Stamps at both ends of int64 bin exactly, although t - t0 passes 2**63."""
    lo, hi = -(2**63), 2**63 - 1
    events = np.array([[hi, 1], [lo, 2], [lo + 5, 2], [0, 3]], dtype=np.int64)
    window = 2**62
    series = bin_events(events, window)
    assert series.num_windows == (hi - lo) // window + 1 == 4
    assert series.totals.tolist() == [2, 0, 1, 1]
    assert series.actives({1, 2, 3}).tolist() == [1, 0, 1, 1]
    assert bin_events(events, 2**70).totals.tolist() == [4]


def test_bin_rejects_empty_stream():
    with pytest.raises(ValueError):
        bin_events([], 60)


def test_control_excludes_boundary_and_matches_size():
    control = sample_control_nodes({0, 1, 2, 3, 4}, 100, seed=1)
    assert len(control) == 5
    assert control.isdisjoint({0, 1, 2, 3, 4})


def test_control_deterministic():
    a = sample_control_nodes({1, 2}, 50, seed=9)
    b = sample_control_nodes({1, 2}, 50, seed=9)
    assert a == b
    series = bin_events([(t, t % 50) for t in range(200)], 60)
    s1 = control_series(series, {1, 2}, 50, seed=9)
    s2 = control_series(series, {1, 2}, 50, seed=9)
    assert np.array_equal(s1, s2)
    assert np.array_equal(s1, series.actives(a))


def test_control_seed_reduced_mod_2_64():
    boundary, num_nodes = {3, 8, 20}, 40
    population = sorted(set(range(num_nodes)) - boundary)
    for seed in (0, 9, 2**64 - 1):  # drawn by numpy's generator for that seed, as before
        picks = np.random.default_rng(seed).choice(len(population), size=3, replace=False)
        assert sample_control_nodes(boundary, num_nodes, seed=seed) == \
            {population[int(i)] for i in picks}
    for seed in (-1, 2**64 + 9):
        assert sample_control_nodes(boundary, num_nodes, seed=seed) == \
            sample_control_nodes(boundary, num_nodes, seed=seed % 2**64)


def test_control_boundary_equals_population_errors():
    with pytest.raises(ValueError):
        sample_control_nodes({0, 1}, 2, seed=0)
    with pytest.raises(ValueError, match=r"boundary set \(3 nodes\) outnumbers the 2 other"):
        sample_control_nodes({0, 1, 2}, 5, seed=0)


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
    events = []
    # steady background: every background node tweets once per window
    for w in range(10):
        for node in sorted(background):
            events.append((w * 60 + (node - 10), node))
    # burst window 6: boundary nodes produce two thirds of the traffic
    for i, b in enumerate(sorted(boundary)):
        for r in range(4):
            events.append((6 * 60 + 20 + (4 * i + r) % 39, b))
    series = bin_events(events, 60)
    total_report = detect_spikes(series.totals)
    boundary_report = detect_spikes(series.actives(boundary))
    assert total_report.spike_windows == (6,)
    assert boundary_report.spike_windows == (6,)
    # control nodes were never co-activated, so their series stays flat
    control_report = detect_spikes(control_series(series, boundary, 100, seed=3))
    assert 6 not in control_report.spike_windows
