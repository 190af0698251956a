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


# g = round(A^(1/3)) cells per axis: TOP anchors is the most that give g = 4,
# and TOP + 1 the fewest that give g = 5.
TOP = 91


@pytest.fixture
def cell_search(monkeypatch):
    """Send every call, however small, through the cell search."""
    monkeypatch.setattr(kernels, "SCAN_MAX_PAIRS", 0)


def _pruned_cases():
    """Inputs of every shape the cell search meets, N * A <= 1e6 each, so the oracle stays fast."""
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
    } | _shape_cases(unit) | _degenerate_cases(unit)


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


def _degenerate_cases(unit):
    """Boxes of zero extent, and coordinates far from the origin."""
    here = np.full((1500, 3), 0.375, np.float32)
    return {
        "identical_points": (here, unit(200)),
        # points and anchors at one position: every axis has zero extent
        "one_position": (here, here[:150]),
        # float32 spacing near 1e6 is 1/16: a 16-step lattice per unit, all ties
        "offset_1e6": (unit(1500) + np.float32(1e6), unit(200) + np.float32(1e6)),
        # a float64 box so thin that g / extent would overflow: searched as flat
        "subnormal_extent": (np.arange(4500.0).reshape(1500, 3) % 7 * 5e-324,
                             np.arange(600.0).reshape(200, 3) % 5 * 5e-324),
    }


PRUNED_CASES = _pruned_cases()


@pytest.mark.parametrize("case", PRUNED_CASES)
def test_l1_nearest_pruned_matches_oracle(case, cell_search):
    points, anchors = PRUNED_CASES[case]
    assert np.array_equal(kernels.l1_nearest(points, anchors),
                          exhaustive_l1_assign(points, anchors))


def test_l1_nearest_pruned_keeps_every_tie(rng, cell_search):
    points, anchors = grid_snapped(rng, 2500), grid_snapped(rng, 250)
    assert anchors.shape[0] > TOP
    assert l1_ties(points, anchors) > 100  # tied minimizers, duplicate anchors among them
    assert np.unique(anchors, axis=0).shape[0] < anchors.shape[0]
    assert np.array_equal(kernels.l1_nearest(points, anchors),
                          exhaustive_l1_assign(points, anchors))


def test_l1_nearest_keeps_every_tie_above_the_scan_threshold(rng, monkeypatch):
    """Unforced, just past the threshold: the cell search takes the lattice's ties."""
    scanned = record_scans(monkeypatch)
    anchors = grid_snapped(rng, 256)
    points = grid_snapped(rng, kernels.SCAN_MAX_PAIRS // 256 + 1)
    assert l1_ties(points, anchors) > 100
    assert np.array_equal(kernels.l1_nearest(points, anchors),
                          exhaustive_l1_assign(points, anchors))
    assert all(n < points.shape[0] for n, _ in scanned)


def record_scans(monkeypatch):
    """The (points, anchors) counts of every ``_scan`` call; inputs come in axis-major, (3, n)."""
    scanned = []
    scan = kernels._scan
    monkeypatch.setattr(kernels, "_scan", lambda pts, anc: scanned.append(
        (pts.shape[1], anc.shape[1])) or scan(pts, anc))
    return scanned


def test_l1_nearest_scans_up_to_the_pair_threshold(rng, monkeypatch):
    """At most ``SCAN_MAX_PAIRS`` point-anchor pairs get one scan over every anchor."""
    scanned = record_scans(monkeypatch)
    anchors = rng.random((500, 3), dtype=np.float32)
    points = rng.random((kernels.SCAN_MAX_PAIRS // 500, 3), dtype=np.float32)
    kernels.l1_nearest(points, anchors)
    assert scanned == [(points.shape[0], 500)]


def test_l1_nearest_searches_cells_above_the_pair_threshold(rng, monkeypatch):
    """One point more and the cell search runs; the scan sees at most its leftovers."""
    scanned = record_scans(monkeypatch)
    anchors = rng.random((500, 3), dtype=np.float32)
    points = rng.random((kernels.SCAN_MAX_PAIRS // 500 + 1, 3), dtype=np.float32)
    got = kernels.l1_nearest(points, anchors)
    assert all(n < points.shape[0] for n, _ in scanned)
    assert np.array_equal(got, exhaustive_l1_assign(points, anchors))


def test_l1_nearest_scans_what_the_cells_cannot_certify(rng, monkeypatch, cell_search):
    """Anchors packed in one corner leave far points with no anchor within two cells."""
    scanned = record_scans(monkeypatch)
    points = rng.random((2000, 3), dtype=np.float32) * 10
    anchors = rng.random((300, 3), dtype=np.float32) * 0.05
    assert np.array_equal(kernels.l1_nearest(points, anchors),
                          exhaustive_l1_assign(points, anchors))
    assert len(scanned) == 1 and scanned[0][1] == 300 and 0 < scanned[0][0] <= 2000


def test_l1_nearest_certifies_nearly_every_point_on_a_field(rng, monkeypatch):
    """A field_large level: fewer than 1% of the points fall back to the full scan.

    A correct kernel that quietly decays into scanning every anchor fails here.
    """
    scanned = record_scans(monkeypatch)
    points = rng.random((20000, 3), dtype=np.float32)
    anchors = points[hierarchy.sample_anchors(points, 1000).anchor_indices]
    got = kernels.l1_nearest(points, anchors)
    assert sum(n for n, _ in scanned) < 200
    axis_major = (np.ascontiguousarray(x.T, dtype=np.float64) for x in (points, anchors))
    assert np.array_equal(got, kernels._scan(*axis_major))


def test_l1_nearest_chunks_bound_every_table(rng, monkeypatch, cell_search):
    """Anchors crowded into one cell make rows of ~900; no chunk holds over _SCAN_CELLS entries."""
    widths, entries = [], []
    table, nearest = kernels._CellGrid._table, kernels._CellGrid._nearest

    def recorded_table(self, cells, offsets, width):
        entries.extend([cells.shape[0] * width, cells.shape[0] * offsets.shape[0]])
        return table(self, cells, offsets, width)

    def recorded_nearest(self, pts, rows, tab, buffers):
        widths.append(tab.shape[1])
        entries.append(rows.shape[0] * tab.shape[1])
        return nearest(self, pts, rows, tab, buffers)

    monkeypatch.setattr(kernels._CellGrid, "_table", recorded_table)
    monkeypatch.setattr(kernels._CellGrid, "_nearest", recorded_nearest)
    points = rng.random((6000, 3), dtype=np.float32)
    anchors = np.concatenate([rng.random((100, 3), dtype=np.float32),
                              0.5 + 0.01 * rng.random((900, 3), dtype=np.float32)])
    axis_major = (np.ascontiguousarray(x.T, dtype=np.float64) for x in (points, anchors))
    assert np.array_equal(kernels.l1_nearest(points, anchors), kernels._scan(*axis_major))
    assert max(widths) >= 900
    assert max(entries) <= kernels._SCAN_CELLS


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_l1_nearest_leaves_non_finite_coordinates_to_the_scan(rng, bad, cell_search):
    points = rng.random((500, 3))
    anchors = rng.random((200, 3))
    points[7, 1] = bad
    axis_major = (np.ascontiguousarray(x.T) for x in (points, anchors))
    assert np.array_equal(kernels.l1_nearest(points, anchors), kernels._scan(*axis_major))


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


def test_cell_winners_rejects_a_negative_code():
    # np.minimum.at would wrap -2 onto cell 3, which no other point holds, and let row 3 win it
    codes = np.array([4, 0, 4, -2, 1], np.int64)
    d2 = np.array([0.5, 0.25, 0.75, 0.0, 0.5])
    with pytest.raises(ValueError, match="cell code -2 at row 3 is negative"):
        kernels.cell_winners(codes, d2)


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
