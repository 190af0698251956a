from fractions import Fraction

import numpy as np
import pytest

from anchorstream import (
    GaussianSet,
    SceneState,
    StreamConfig,
    assign_clusters,
    build_hierarchy,
    grid_resolution,
    rehierarchize,
    sample_anchors,
)
from anchorstream import hierarchy, kernels
from anchorstream.hierarchy import level_caps, level_targets, nearest_legacy_anchors

from cell_scenes import L1_SCENES, SQEUCLIDEAN_SCENES, record_reach_two
from oracles import (
    brute_force_sample_anchors,
    dense_nearest_legacy_anchors,
    exhaustive_knn3,
    exhaustive_l1_assign,
    rowmajor_cell_geometry,
)


# ---------------------------------------------------------------------------
# grid_resolution
# ---------------------------------------------------------------------------


def test_grid_resolution_perfect_cube():
    assert grid_resolution(1000) == 10


def test_grid_resolution_degenerate():
    assert grid_resolution(1) == 1


def test_grid_resolution_level_scaling():
    # base 1000 at ratio 3: level 2 targets 3000, and the smallest m with
    # m^3 >= 3000 is 15 (14^3 = 2744 < 3000 <= 15^3 = 3375)
    targets = level_targets(3000, StreamConfig(levels=2, finest_fraction=1))
    assert targets == (1000, 3000)
    assert [grid_resolution(t) for t in targets] == [10, 15]


def test_grid_resolution_rejects_bad_input():
    with pytest.raises(ValueError):
        grid_resolution(0)
    with pytest.raises(ValueError):
        grid_resolution(-5)


def test_grid_resolution_monotone():
    prev = 0
    for n in range(1, 200):
        m = grid_resolution(n)
        assert m >= prev
        prev = m
    targets = level_targets(5000, StreamConfig(levels=4))
    edges = [grid_resolution(t) for t in targets]
    assert edges == sorted(edges)


def test_grid_resolution_exact_cubes_all_levels():
    for m in range(1, 20):
        assert grid_resolution(m**3) == m


# ---------------------------------------------------------------------------
# sample_anchors
# ---------------------------------------------------------------------------


def test_corner_points_one_per_cell():
    corners = np.array(
        [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], np.float32
    )
    lvl = sample_anchors(corners, 8, 1)
    assert lvl.grid_resolution == 2
    assert sorted(lvl.anchor_indices) == list(range(8))


def test_single_point_many_cells():
    lvl = sample_anchors(np.float32([[0.3, 0.7, 0.2]]), 27, 1)
    assert lvl.anchor_count == 1


def test_sample_anchors_matches_brute_force(rng):
    pos = rng.random((5000, 3), dtype=np.float32)
    lvl = sample_anchors(pos, 64, 1)
    oracle = brute_force_sample_anchors(pos, 64)
    assert np.array_equal(lvl.anchor_indices, oracle)


def test_sample_anchors_degenerate_axis(rng):
    pos = rng.random((300, 3), dtype=np.float32)
    pos[:, 2] = 0.5  # coplanar: z axis collapses to one cell
    lvl = sample_anchors(pos, 27, 1)
    oracle = brute_force_sample_anchors(pos, 27)
    assert np.array_equal(lvl.anchor_indices, oracle)


def test_all_identical_positions_single_anchor():
    pos = np.tile(np.float32([0.5, 0.5, 0.5]), (20, 1))
    lvl = sample_anchors(pos, 8, 1)
    assert lvl.anchor_count == 1
    assert lvl.anchor_indices[0] == 0  # lowest index wins the tie


def test_sample_anchors_permutation_invariant_points(rng):
    pos = rng.random((400, 3), dtype=np.float32)
    lvl = sample_anchors(pos, 27, 1)
    perm = rng.permutation(400)
    lvl_p = sample_anchors(pos[perm], 27, 1)
    chosen = {tuple(pos[i]) for i in lvl.anchor_indices}
    chosen_p = {tuple(pos[perm][i]) for i in lvl_p.anchor_indices}
    assert chosen == chosen_p


def cell_geometry_cases():
    rng = np.random.default_rng(29)
    uniform = rng.random((2000, 3), dtype=np.float32)
    flat = uniform.copy()
    flat[:, 1] = 0.25  # zero extent on y
    far = (rng.random((2000, 3)) * 0.5 + 1e6).astype(np.float32)  # 1e6 offsets, coarse float32
    wide = np.zeros((2000, 9), np.float32)
    wide[:, ::3] = uniform  # a strided, non-contiguous (2000, 3) view
    clustered = np.repeat(uniform[:50], 40, axis=0)  # exact ties on every center distance
    return {"uniform": uniform, "zero_extent_axis": flat, "offset_1e6": far,
            "strided_view": wide[:, ::3], "clustered": clustered}


@pytest.mark.parametrize("m", [1, 3, 7, 40])
@pytest.mark.parametrize("case", list(cell_geometry_cases()))
def test_axis_major_cell_geometry_matches_the_row_major_one_bit_for_bit(case, m):
    pos = cell_geometry_cases()[case]
    if case == "strided_view":
        assert not pos.flags.c_contiguous
    want = rowmajor_cell_geometry(pos.astype(np.float64), m)
    got = hierarchy._cell_geometry(np.ascontiguousarray(pos.T, np.float64), m)
    for name, g, w in zip(("bmin", "bmax", "codes", "d2"), got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    lvl = sample_anchors(pos, m**3, 1)
    assert lvl.bounds_min.tobytes() == want[0].astype(np.float32).tobytes()
    assert np.array_equal(lvl.anchor_indices, brute_force_sample_anchors(pos, m**3))


def test_a_signed_zero_tie_moves_no_cell_code_or_distance():
    rng = np.random.default_rng(31)
    pos = rng.choice(np.float32([-0.0, 0.0, 0.5, 1.0]), size=(500, 3))
    pos[::7, 0] = -1.0  # x spans [-1, 1]; y and z have +0.0 and -0.0 tied at the minimum
    want = rowmajor_cell_geometry(pos.astype(np.float64), 5)
    got = hierarchy._cell_geometry(np.ascontiguousarray(pos.T, np.float64), 5)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2].tobytes() == want[2].tobytes() and got[3].tobytes() == want[3].tobytes()


def test_sample_anchors_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        sample_anchors(np.empty((0, 3), np.float32), 8, 1)
    with pytest.raises(ValueError):
        sample_anchors(np.float32([[np.nan, 0, 0]]), 8, 1)


# ---------------------------------------------------------------------------
# assign_clusters
# ---------------------------------------------------------------------------


def test_assign_point_on_anchor(rng):
    pos = rng.random((50, 3), dtype=np.float32)
    lvl = sample_anchors(pos, 8, 1)
    assignment = assign_clusters(pos, lvl)
    for ordinal, gaussian_idx in enumerate(lvl.anchor_indices):
        assert assignment[gaussian_idx] == ordinal  # anchors own their cluster


def test_assign_tie_break():
    anchors_at = np.float32([[1, 0, 0], [0, 1, 0]])
    pos = np.concatenate([anchors_at, np.float32([[0, 0, 0]])])
    lvl = sample_anchors(pos, 8, 1)
    assignment = assign_clusters(pos, lvl)
    anchor_map = {tuple(pos[g]): o for o, g in enumerate(lvl.anchor_indices)}
    # the origin is L1-equidistant from both anchors: lowest ordinal wins
    assert assignment[2] == min(anchor_map.values())


def test_assign_matches_exhaustive(rng):
    pos = rng.random((5000, 3), dtype=np.float32)
    lvl = sample_anchors(pos, 64, 1)
    assignment = assign_clusters(pos, lvl)
    oracle = exhaustive_l1_assign(pos, pos[lvl.anchor_indices])
    assert np.array_equal(assignment, oracle)


# ---------------------------------------------------------------------------
# build_hierarchy
# ---------------------------------------------------------------------------


def test_level_targets_defaults_216():
    cfg = StreamConfig()
    assert level_targets(216, cfg) == (1, 3, 9)


def test_level_targets_single_gaussian():
    # no level aims above N; the caps keep the grids of the unclamped targets
    cfg = StreamConfig()
    assert level_targets(1, cfg) == (1, 1, 1)
    assert level_caps(1, cfg) == (1, 8, 27)


def test_level_targets_clamp_small(rng):
    # the finest request clamps to one anchor, and the base to one
    cfg = StreamConfig()
    assert level_targets(24, cfg) == (1, 3, 9)
    assert level_caps(24, cfg) == (1, 8, 27)
    # finest 13 at ratio 20 needs base 1, so the finest level would aim at 400
    cfg = StreamConfig(level_ratio=20)
    assert level_targets(300, cfg) == (1, 20, 300)
    assert level_caps(300, cfg) == (1, 27, 512)
    h = build_hierarchy(rng.random((300, 3), dtype=np.float32), cfg)
    assert [lvl.grid_resolution for lvl in h.levels] == [1, 3, 7]
    assert level_targets(300, StreamConfig(levels=4, level_ratio=2**31)) == (1, 300, 300, 300)


@pytest.mark.parametrize("ratio", [1, 2, 3, 4])
def test_level_ratio_governs_every_level(rng, ratio):
    pos = rng.random((3000, 3), dtype=np.float32)
    cfg = StreamConfig(level_ratio=ratio, finest_fraction=Fraction(1, 10))
    targets = level_targets(3000, cfg)
    assert targets[-1] >= 300 > targets[-1] - ratio**2  # base rounds up
    assert all(fine == coarse * ratio for coarse, fine in zip(targets, targets[1:]))
    h = build_hierarchy(pos, cfg)
    assert [lvl.grid_resolution for lvl in h.levels] == [grid_resolution(t) for t in targets]
    assert all(c <= cap for c, cap in zip(h.anchor_counts(), level_caps(3000, cfg)))


def test_build_hierarchy_level_structure(rng):
    pos = rng.random((216, 3), dtype=np.float32)
    cfg = StreamConfig()
    h = build_hierarchy(pos, cfg)
    assert h.level_count == 3
    for l, lvl in enumerate(h.levels, start=1):
        assert lvl.level == l
        assert lvl.grid_resolution == grid_resolution(level_targets(216, cfg)[l - 1])
        assert 1 <= lvl.anchor_count <= lvl.grid_resolution**3
        assert lvl.assignment.shape == (216,)
        # canonical order: anchors sorted by cell key means sorted unique codes
        assert len(np.unique(lvl.anchor_indices)) == lvl.anchor_count


def test_build_hierarchy_counts_non_decreasing(rng):
    pos = rng.random((2000, 3), dtype=np.float32)
    h = build_hierarchy(pos, StreamConfig())
    counts = h.anchor_counts()
    assert all(counts[i] <= counts[i + 1] for i in range(len(counts) - 1))


def test_build_hierarchy_single_gaussian():
    h = build_hierarchy(np.float32([[0.1, 0.2, 0.3]]), StreamConfig())
    assert h.anchor_counts() == (1, 1, 1)
    for lvl in h.levels:
        assert lvl.anchor_indices[0] == 0
        assert lvl.assignment[0] == 0


# ---------------------------------------------------------------------------
# rehierarchize
# ---------------------------------------------------------------------------


def _state_for(pos, cfg):
    g = GaussianSet.from_positions(pos)
    return SceneState(g, build_hierarchy(g, cfg), 0)


def test_rehierarchize_fixed_point(rng):
    pos = rng.random((300, 3), dtype=np.float32)
    cfg = StreamConfig()
    state = _state_for(pos, cfg)
    new_hier, neighbor_maps = rehierarchize(state, cfg)
    for old_lvl, new_lvl, nbr in zip(state.hierarchy.levels, new_hier.levels, neighbor_maps):
        assert np.array_equal(old_lvl.anchor_indices, new_lvl.anchor_indices)
        assert np.array_equal(nbr[:, 0], np.arange(new_lvl.anchor_count))  # itself first


def test_rehierarchize_single_legacy_anchor_repeats():
    pos = np.float32([[0, 0, 0], [1, 1, 1]])
    cfg = StreamConfig(levels=1, finest_fraction=1)
    state = _state_for(pos[:1], cfg)
    nbr = nearest_legacy_anchors(pos, state.gaussians.positions[state.hierarchy.levels[0].anchor_indices])
    assert np.array_equal(nbr, [[0, 0, 0], [0, 0, 0]])


def test_rehierarchize_matches_exhaustive_knn(rng):
    pos = rng.random((2000, 3), dtype=np.float32)
    cfg = StreamConfig()
    state = _state_for(pos, cfg)
    state.gaussians.positions += np.float32([0.3, -0.1, 0.2])  # rigid translation
    new_hier, neighbor_maps = rehierarchize(state, cfg)
    cur = state.gaussians.positions
    for old_lvl, new_lvl, nbr in zip(state.hierarchy.levels, new_hier.levels, neighbor_maps):
        oracle = exhaustive_knn3(cur[new_lvl.anchor_indices], cur[old_lvl.anchor_indices])
        assert np.array_equal(nbr, oracle)


# 1500 legacy anchors span several chunks of new anchors
@pytest.mark.parametrize("n_new, n_legacy", [(400, 1), (400, 2), (400, 3), (400, 200), (120, 1500)])
def test_nearest_legacy_anchors_matches_oracle_with_ties(rng, n_new, n_legacy):
    snap = lambda n: (rng.integers(0, 5, (n, 3)) * 0.5).astype(np.float32)
    new, legacy = snap(n_new), snap(n_legacy)
    got = nearest_legacy_anchors(new, legacy)
    assert np.array_equal(got, exhaustive_knn3(new, legacy))
    if n_legacy > 3:
        d2 = ((new[:, None, :].astype(np.float64) - legacy[None]) ** 2).sum(axis=2)
        third = np.sort(d2, axis=1)[:, 2:4]
        assert (third[:, 0] == third[:, 1]).sum() > n_new // 4  # the third pick is a tie
    if n_legacy < 3:
        assert np.array_equal(got[:, n_legacy:], np.repeat(got[:, :1], 3 - n_legacy, axis=1))
    # every legacy anchor equidistant from every new anchor: each pick is a tie
    alike = nearest_legacy_anchors(new, np.repeat(legacy[:1], n_legacy, axis=0))
    picks = [0, 1, 2][:n_legacy] + [0] * max(0, 3 - n_legacy)
    assert np.array_equal(alike, np.tile(picks, (n_new, 1)))


def _legacy_cases():
    """(new, legacy) anchor positions of every layout the cell search meets."""
    rng = np.random.default_rng(91)
    unit = lambda n: rng.random((n, 3), dtype=np.float32)
    legacy = unit(1000)
    snap = lambda n: (rng.integers(0, 6, (n, 3)) * 0.5).astype(np.float32)
    lattice = snap(400)
    flat_new, flat_legacy = unit(1500), unit(800)
    flat_new[:, 2] = flat_legacy[:, 2] = 0.25
    return {
        "uniform": (unit(1500), legacy),
        "moved_by_sigma_0.01": (
            legacy + (rng.standard_normal((1000, 3)) * 0.01).astype(np.float32), legacy),
        # duplicate legacy anchors, and many at equal distances from a new one
        "tie_lattice": (snap(1200), np.concatenate([lattice, lattice[::3]])),
        "flat_axis": (flat_new, flat_legacy),
        "disjoint_boxes": (unit(1200), unit(600) + np.float32(3.0)),
        # tight clumps at the corners: most new anchors see fewer than three
        "clumped_legacy": (unit(1200), unit(600) * np.float32(0.05) + np.repeat(
            np.float32([[0, 0, 0], [1, 1, 1], [0, 1, 0]]), 200, axis=0)),
        "exactly_three": (unit(2000), unit(3)),
        # a pair_additive box: cells twice as long along x as along y and z
        "box_2_1_1": (unit(1500) * np.float32([2, 1, 1]), unit(800) * np.float32([2, 1, 1])),
        # most legacy anchors in one cell, the rest spread thin
        "crowded_cell": (unit(1500), np.concatenate([
            unit(200), np.float32(0.5) + np.float32(0.02) * unit(600)])),
    } | {f"scene_{name}": scene[:2] for name, scene in L1_SCENES.items()}


LEGACY_CASES = _legacy_cases()


def count_calls(monkeypatch, module, name):
    """Record the first argument's column count on every call of ``module.name``."""
    seen, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: seen.append(args[0].shape[1])
                        or original(*args, **kwargs))
    return seen


@pytest.mark.parametrize("case", LEGACY_CASES)
def test_the_cell_search_finds_the_dense_legacy_anchors(monkeypatch, case):
    monkeypatch.setattr(kernels, "SCAN_MAX_PAIRS", 0)  # every level goes through the cells
    searched = count_calls(monkeypatch, kernels, "cell_search")
    dense = count_calls(monkeypatch, hierarchy, "_dense_nearest_legacy")
    new, legacy = LEGACY_CASES[case]
    got = nearest_legacy_anchors(new, legacy)
    assert np.array_equal(got, dense_nearest_legacy_anchors(new, legacy))
    assert searched == [new.shape[0]]
    if case == "disjoint_boxes":  # no legacy anchor within reach of any new one
        assert dense == [new.shape[0]]
    if case == "clumped_legacy":  # the cells prove some triples and leave the rest open
        assert 0 < sum(dense) < new.shape[0]
    if case == "tie_lattice":
        d2 = ((new[:, None, :].astype(np.float64) - legacy[None]) ** 2).sum(axis=2)
        third = np.sort(d2, axis=1)[:, 2:4]
        assert (third[:, 0] == third[:, 1]).sum() > new.shape[0] // 4  # the third pick is a tie


@pytest.mark.parametrize("scene", SQEUCLIDEAN_SCENES)
def test_the_cell_search_proves_a_triple_by_the_anchors_two_cells_out(monkeypatch, scene):
    """The triple is the dense pass's, and proved in 3 x 3 x 3 cells only when right.

    A face-set anchor exactly at the third pick's distance leaves the new
    anchor open; one a rounding step farther proves it.
    """
    monkeypatch.setattr(kernels, "SCAN_MAX_PAIRS", 0)
    reach_two = record_reach_two(monkeypatch, kernels)
    new, legacy, triple, proved = SQEUCLIDEAN_SCENES[scene]
    got = nearest_legacy_anchors(new, legacy)
    assert np.array_equal(got, dense_nearest_legacy_anchors(new, legacy))
    assert got[0].tolist() == triple
    assert all(0 not in idx for idx in reach_two) == proved


@pytest.mark.parametrize("extra, searched", [(0, False), (1, True)])
def test_nearest_legacy_anchors_searches_cells_only_above_the_pair_threshold(
        monkeypatch, rng, extra, searched):
    calls = count_calls(monkeypatch, kernels, "cell_search")
    legacy = rng.random((729, 3), dtype=np.float32)
    new = rng.random((kernels.SCAN_MAX_PAIRS // 729 + extra, 3), dtype=np.float32)
    assert (new.shape[0] * 729 > kernels.SCAN_MAX_PAIRS) == searched
    got = nearest_legacy_anchors(new, legacy)
    assert np.array_equal(got, dense_nearest_legacy_anchors(new, legacy))
    assert bool(calls) == searched


def test_rehierarchize_leaves_few_anchors_to_the_dense_pass(monkeypatch):
    """The 3-NN of a 20k field's large levels stays near-linear: few anchors fall back."""
    rng = np.random.default_rng(5)
    cfg = StreamConfig()
    state = _state_for(rng.random((20_000, 3), dtype=np.float32), cfg)
    state.gaussians.positions += (rng.standard_normal((20_000, 3)) * 0.01).astype(np.float32)
    dense = count_calls(monkeypatch, hierarchy, "_dense_nearest_legacy")
    new_hier, _ = rehierarchize(state, cfg)
    pairs = [(new.anchor_count, old.anchor_count)
             for new, old in zip(new_hier.levels, state.hierarchy.levels)]
    small = [a_new for a_new, a_leg in pairs if a_new * a_leg <= kernels.SCAN_MAX_PAIRS]
    large = [a_new for a_new, a_leg in pairs if a_new * a_leg > kernels.SCAN_MAX_PAIRS]
    assert sum(large) >= 900  # the finest level, about 1000 anchors, is searched
    assert sorted(dense[:len(small)]) == sorted(small)  # small levels take the dense pass whole
    assert sum(dense[len(small):]) <= 0.01 * sum(large)


def test_rehierarchize_requires_hierarchy(rng):
    state = SceneState(GaussianSet.from_positions(rng.random((10, 3), dtype=np.float32)))
    with pytest.raises(ValueError):
        rehierarchize(state, StreamConfig())
