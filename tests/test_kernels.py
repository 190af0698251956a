"""Kernels against the plain-loop oracles, including inputs with exact ties."""

import numpy as np
import pytest

from anchorstream import hierarchy, kernels

from oracles import (
    add_at_sum_by_index,
    exhaustive_l1_assign,
    ordered_sum_by_index,
    per_cell_argmin,
)


@pytest.fixture
def cloud(rng):
    return rng.random((2000, 3), dtype=np.float32), rng.random((60, 3), dtype=np.float32)


def grid_snapped(rng, n, step=0.25, cells=8):
    """Points on a coarse lattice, where equal L1 distances are common."""
    return (rng.integers(0, cells, (n, 3)) * step).astype(np.float32)


def l1_ties(points, anchors):
    """Points with more than one anchor at their minimum L1 distance."""
    d = np.abs(points[:, None, :].astype(np.float64) - anchors[None]).sum(axis=2)
    return ((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum()


def test_l1_nearest_matches_oracle(cloud, rng):
    points, anchors = cloud
    assert np.array_equal(kernels.l1_nearest(points, anchors),
                          exhaustive_l1_assign(points, anchors))
    points, anchors = grid_snapped(rng, 1500), grid_snapped(rng, 40)
    assert l1_ties(points, anchors) > 100  # the tie-break is actually exercised
    assert np.array_equal(kernels.l1_nearest(points, anchors),
                          exhaustive_l1_assign(points, anchors))
    points, anchors = PRUNED_CASES["few_points_many_anchors"]  # scanned, unpinned
    assert np.array_equal(kernels.l1_nearest(points, anchors),
                          exhaustive_l1_assign(points, anchors))


# The pruned-path tests pin the crossovers, so every case below prunes above
# this many anchors, at any point count, however the constants are tuned.
TOP = 64


@pytest.fixture
def pruning(monkeypatch):
    monkeypatch.setattr(kernels, "SCAN_MAX_ANCHORS", TOP)
    monkeypatch.setattr(kernels, "PRUNE_MIN_POINTS", 0)


def _pruned_cases():
    """Inputs above the pinned crossover, N * A <= 1e6 each, so the oracle stays fast."""
    rng = np.random.default_rng(77)
    unit = lambda n: rng.random((n, 3), dtype=np.float32)
    cloud = unit(1500)
    base = unit(120)
    flat = unit(1500)
    flat[:, 1] = 0.5
    return {
        "random_150": (unit(3000), unit(150)),
        "random_400": (unit(1000), unit(400)),
        "anchors_from_points": (cloud, cloud[rng.choice(1500, 300, replace=False)]),
        "duplicate_anchors": (unit(2000), rng.permutation(np.concatenate([base, base[::2], base[:5]]))),
        "far_outside": (unit(1000) * 6 + 4, unit(200)),
        "far_around": ((unit(1500) - 0.5) * 20, unit(200) * 0.1),
        "zero_extent_axis": (flat, unit(200)),
        "one_point": (unit(1), unit(300)),
        "at_crossover": (unit(3000), unit(TOP)),
        "above_crossover": (unit(3000), unit(TOP + 1)),
    } | _shape_cases(unit)


def _shape_cases(unit):
    """The shapes production calls take, and float32 inputs that stress the grid."""
    line = unit(1500)
    line[:, 1:] = 0.25
    # float32 spacing near 1e4 is about 1e-3, so points sit on a coarse
    # lattice and cell indices round right at their edges
    offset = unit(1500) + np.float32(1e4)
    field = unit(2000)
    return {
        "few_points_many_anchors": (unit(300), unit(1000)),  # relocation assignment
        "offset_1e4": (offset, unit(200) + np.float32(1e4)),
        "points_on_a_line": (line, unit(200)),
        "grid_sampled_anchors": (field, field[hierarchy.sample_anchors(field, 216).anchor_indices]),
    }


PRUNED_CASES = _pruned_cases()


@pytest.mark.parametrize("case", PRUNED_CASES)
def test_l1_nearest_pruned_matches_oracle(case, pruning):
    points, anchors = PRUNED_CASES[case]
    assert np.array_equal(kernels.l1_nearest(points, anchors),
                          exhaustive_l1_assign(points, anchors))


def test_l1_nearest_pruned_keeps_every_tie(rng, pruning):
    points, anchors = grid_snapped(rng, 2500), grid_snapped(rng, 250)
    assert anchors.shape[0] > TOP
    assert l1_ties(points, anchors) > 100  # tied minimizers, duplicate anchors among them
    assert np.unique(anchors, axis=0).shape[0] < anchors.shape[0]
    assert np.array_equal(kernels.l1_nearest(points, anchors),
                          exhaustive_l1_assign(points, anchors))


def record_scans(monkeypatch):
    """The anchor count of every ``_scan`` call; anchors come in axis-major, (3, A)."""
    scanned = []
    scan = kernels._scan
    monkeypatch.setattr(kernels, "_scan",
                        lambda pts, anc: scanned.append(anc.shape[1]) or scan(pts, anc))
    return scanned


def test_l1_nearest_switches_to_pruning_above_the_crossover(rng, monkeypatch):
    """At the crossover one scan sees every anchor; one above, blocks see fewer."""
    scanned = record_scans(monkeypatch)
    points = rng.random((kernels.PRUNE_MIN_POINTS, 3), dtype=np.float32)
    top = kernels.SCAN_MAX_ANCHORS
    kernels.l1_nearest(points, rng.random((top, 3), dtype=np.float32))
    assert scanned == [top]
    scanned.clear()
    kernels.l1_nearest(points, rng.random((top + 1, 3), dtype=np.float32))
    assert len(scanned) > 1 and max(scanned) < top + 1


def test_l1_nearest_scans_below_the_point_crossover(rng, monkeypatch):
    """Fewer points than the crossover scan all anchors however many there are."""
    scanned = record_scans(monkeypatch)
    anchors = rng.random((1000, 3), dtype=np.float32)
    few = rng.random((kernels.PRUNE_MIN_POINTS - 1, 3), dtype=np.float32)
    kernels.l1_nearest(few, anchors)
    assert scanned == [1000]
    scanned.clear()
    kernels.l1_nearest(np.concatenate([few, few[:1]]), anchors)
    assert len(scanned) > 1 and max(scanned) < 1000


def test_l1_nearest_tie_break_lowest_ordinal():
    points = np.float32([[0.0, 0.0, 0.0]])
    anchors = np.float32([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # both L1 distance 1
    assert kernels.l1_nearest(points, anchors)[0] == 0
    assert exhaustive_l1_assign(points, anchors)[0] == 0


def test_cell_winners_matches_oracle(rng):
    codes = rng.integers(0, 50, size=3000).astype(np.int64)
    d2 = rng.random(3000)
    d2[100] = d2[200]  # force at least one exact tie
    codes[200] = codes[100]
    snapped = rng.integers(0, 4, size=3000) * 0.5  # many exact ties per cell
    for dist in (d2, snapped):
        got_codes, got_idx = kernels.cell_winners(codes, dist)
        want_codes, want_idx = per_cell_argmin(codes, dist)
        assert np.array_equal(got_codes, want_codes)
        assert np.array_equal(got_idx, want_idx)


def test_cell_winners_tie_prefers_lower_index():
    codes = np.array([7, 7], np.int64)
    d2 = np.array([0.25, 0.25])
    for impl in (kernels.cell_winners, per_cell_argmin):
        out_codes, out_idx = impl(codes, d2)
        assert list(out_codes) == [7]
        assert list(out_idx) == [0]


def test_sum_by_index_matches_oracle_bit_exact(rng):
    values = rng.standard_normal((5000, 3))
    index = rng.integers(0, 37, size=5000).astype(np.int64)
    wide = rng.standard_normal((5000, 9))
    cases = {
        "width_3": (values, index, 37),
        "width_4": (rng.standard_normal((5000, 4)), index, 37),  # quaternion gradients
        "float32": (values.astype(np.float32), index, 37),
        "column_slice": (wide[:, 2:8:2], index, 37),  # strided, not contiguous
        "empty_index": (np.empty((0, 3)), np.empty(0, np.int64), 5),
        "trailing_empty_buckets": (values, index, 50),  # buckets 37..49 get no row
    }
    for name, (vals, idx, n_out) in cases.items():
        got = kernels.sum_by_index(vals, idx, n_out)
        assert got.dtype == np.float64 and got.shape == (n_out, vals.shape[1]), name
        assert got.tobytes() == ordered_sum_by_index(vals, idx, n_out).tobytes(), name
        assert got.tobytes() == add_at_sum_by_index(vals, idx, n_out).tobytes(), name
    assert not kernels.sum_by_index(values, index, 50)[37:].any()
    assert not wide[:, 2:8:2].flags.c_contiguous


@pytest.mark.parametrize("bad", [-1, 37])
def test_sum_by_index_rejects_an_index_outside_the_buckets(rng, bad):
    index = rng.integers(0, 37, size=100).astype(np.int64)
    index[[40, 70]] = bad
    with pytest.raises(ValueError, match=rf"index {bad} at row 40 is outside \[0, 37\)"):
        kernels.sum_by_index(np.ones((100, 3)), index, 37)


def test_dispatchers_run(cloud):
    points, anchors = cloud
    assert kernels.l1_nearest(points, anchors).shape == (2000,)
    codes = np.zeros(10, np.int64)
    d2 = np.arange(10, dtype=np.float64)
    cs, idx = kernels.cell_winners(codes, d2)
    assert list(cs) == [0] and list(idx) == [0]
    out = kernels.sum_by_index(np.ones((4, 2)), np.array([0, 0, 1, 1]), 2)
    assert np.array_equal(out, [[2, 2], [2, 2]])
    assert kernels.backend_name() == "numpy"
