import numpy as np
import pytest

from anchorstream import (
    AnchorDeltaSet,
    CompositionMode,
    DegenerateQuaternionError,
    FrameDeformation,
    GaussianSet,
    StreamConfig,
    apply_deformation,
    build_hierarchy,
    compose_deformation,
    inherit_deformation,
)
from anchorstream.motion import canonical_sign, quat_from_axis_angle

from oracles import dominant_eigenvector, rotation_matrix


def hierarchy_for(pos, levels=3):
    cfg = StreamConfig(levels=levels)
    return build_hierarchy(pos, cfg)


def random_deltas(hierarchy, rng, scale=0.1):
    per_level = []
    for lvl in hierarchy.levels:
        per_level.append(
            AnchorDeltaSet(
                (rng.standard_normal((lvl.anchor_count, 3)) * scale).astype(np.float32),
                (rng.standard_normal((lvl.anchor_count, 4)) * scale).astype(np.float32),
            )
        )
    return FrameDeformation(per_level)


# ---------------------------------------------------------------------------
# compose_deformation
# ---------------------------------------------------------------------------


def test_compose_zero_deltas(rng):
    pos = rng.random((50, 3), dtype=np.float32)
    h = hierarchy_for(pos)
    dmu = compose_deformation(h, FrameDeformation.zeros(h))
    assert dmu.shape == (50, 3) and not dmu.any()


def test_compose_single_anchor_broadcast(rng):
    pos = rng.random((20, 3), dtype=np.float32)
    h = hierarchy_for(pos, levels=1)
    assert h.anchor_counts() == (1,)
    ds = AnchorDeltaSet(np.float32([[1, 2, 3]]), np.zeros((1, 4), np.float32))
    dmu = compose_deformation(h, FrameDeformation([ds]))
    assert np.array_equal(dmu, np.tile(np.float32([1, 2, 3]), (20, 1)))


def test_compose_matches_per_gaussian_loop(rng):
    rng = np.random.default_rng(7)
    pos = rng.random((100, 3), dtype=np.float32)
    h = hierarchy_for(pos)
    deltas = random_deltas(h, rng)
    dmu = compose_deformation(h, deltas)
    for g in range(100):
        want_mu = np.zeros(3, np.float32)
        for lvl, ds in zip(h.levels, deltas.per_level):
            want_mu += ds.translations[lvl.assignment[g]]
        assert np.array_equal(dmu[g], want_mu)


def test_compose_linear_in_deltas(rng):
    pos = rng.random((60, 3), dtype=np.float32)
    h = hierarchy_for(pos)
    # dyadic values keep float32 arithmetic exact under scaling and addition
    d1 = FrameDeformation(
        [AnchorDeltaSet(np.full((l.anchor_count, 3), 0.25, np.float32),
                        np.full((l.anchor_count, 4), 0.5, np.float32)) for l in h.levels]
    )
    d2 = FrameDeformation(
        [AnchorDeltaSet(np.full((l.anchor_count, 3), 0.125, np.float32),
                        np.full((l.anchor_count, 4), -0.25, np.float32)) for l in h.levels]
    )
    combo = FrameDeformation(
        [AnchorDeltaSet(2 * a.translations + 4 * b.translations,
                        2 * a.rotations + 4 * b.rotations)
         for a, b in zip(d1.per_level, d2.per_level)]
    )
    dmu_c = compose_deformation(h, combo)
    dmu_1 = compose_deformation(h, d1)
    dmu_2 = compose_deformation(h, d2)
    assert np.array_equal(dmu_c, 2 * dmu_1 + 4 * dmu_2)


def test_compose_rejects_mismatched_deltas(rng):
    pos = rng.random((30, 3), dtype=np.float32)
    h = hierarchy_for(pos)
    bad = FrameDeformation([AnchorDeltaSet.zeros(lvl.anchor_count + 1) for lvl in h.levels])
    with pytest.raises(ValueError):
        compose_deformation(h, bad)


# ---------------------------------------------------------------------------
# apply_deformation
# ---------------------------------------------------------------------------


def test_apply_zero_is_identity_both_modes(rng):
    pos = rng.random((40, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = hierarchy_for(pos)
    zeros = FrameDeformation.zeros(h)
    for mode in (CompositionMode.additive, CompositionMode.pivot):
        out = apply_deformation(g, h, zeros, mode)
        for a, b in zip(g.attribute_arrays(), out.attribute_arrays()):
            assert np.array_equal(a, b)


def own_anchor_hierarchy(pos):
    """One level in which every gaussian is its own anchor."""
    h = build_hierarchy(pos, StreamConfig(levels=1, finest_fraction=1))
    h.levels[0].anchor_indices = np.arange(len(pos))
    h.levels[0].assignment = np.arange(len(pos))
    return h


def translations_only(translations):
    t = np.asarray(translations, np.float32)
    return FrameDeformation([AnchorDeltaSet(t, np.zeros((len(t), 4), np.float32))])


def random_appearance(pos, rng):
    """Gaussians with non-identity unit orientations and varied appearance."""
    n = len(pos)
    q = rng.standard_normal((n, 4))
    return GaussianSet(
        pos,
        rng.uniform(0.01, 0.2, (n, 3)),
        (q / np.linalg.norm(q, axis=1, keepdims=True)).astype(np.float32),
        rng.uniform(0.0, 1.0, n),
        rng.standard_normal((n, 12)),
    )


def test_apply_additive_pure_translation(rng):
    pos = rng.random((25, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = build_hierarchy(pos, StreamConfig(levels=1), finest_target=1)
    assert h.anchor_counts() == (1,)
    out = apply_deformation(g, h, translations_only([[0, 0, 1]]))
    assert np.array_equal(out.positions, pos + np.float32([0, 0, 1]))
    assert np.array_equal(out.orientations, g.orientations)


def test_apply_additive_keeps_everything_but_positions_byte_equal(rng):
    pos = rng.random((5000, 3), dtype=np.float32)
    g = random_appearance(pos, rng)
    h = hierarchy_for(pos)
    deltas = FrameDeformation(
        [AnchorDeltaSet((rng.standard_normal((lvl.anchor_count, 3)) * 0.1).astype(np.float32),
                        np.zeros((lvl.anchor_count, 4), np.float32)) for lvl in h.levels]
    )
    out = apply_deformation(g, h, deltas, CompositionMode.additive)
    for name in ("scales", "orientations", "opacities", "sh"):
        assert getattr(out, name).tobytes() == getattr(g, name).tobytes(), name
    assert out.positions.tobytes() == (pos + compose_deformation(h, deltas)).tobytes()


def test_apply_additive_rejects_a_nonzero_rotation(rng):
    pos = rng.random((40, 3), dtype=np.float32)
    h = hierarchy_for(pos)
    deltas = FrameDeformation.zeros(h)
    deltas.per_level[-1].rotations[0, 2] = 1e-3
    with pytest.raises(ValueError, match="rotation"):
        apply_deformation(GaussianSet.from_positions(pos), h, deltas, CompositionMode.additive)


def test_apply_additive_round_trip_within_ulp(rng):
    pos = rng.random((50, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = own_anchor_hierarchy(pos)
    dmu = rng.standard_normal((50, 3)).astype(np.float32) * 0.2
    there = apply_deformation(g, h, translations_only(dmu))
    back = apply_deformation(there, h, translations_only(-dmu))
    ulp = np.spacing(np.abs(pos) + np.abs(dmu))
    assert (np.abs(back.positions - pos) <= ulp).all()


def test_apply_degenerate_quaternion_rejected(rng):
    pos = rng.random((5, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = own_anchor_hierarchy(pos)
    rot = np.zeros((5, 4), np.float32)
    rot[2, 0] = -1.0  # (1,0,0,0) + delta cancels to zero norm
    deltas = FrameDeformation([AnchorDeltaSet(np.zeros((5, 3), np.float32), rot)])
    with pytest.raises(DegenerateQuaternionError):
        apply_deformation(g, h, deltas, CompositionMode.pivot)


def test_apply_pivot_rotation_about_anchor():
    # two points: the anchor at the origin and a satellite at (1, 0, 0)
    pos = np.float32([[0, 0, 0], [1, 0, 0]])
    g = GaussianSet.from_positions(pos)
    cfg = StreamConfig(levels=1, finest_fraction=1)
    h = build_hierarchy(pos, cfg)
    h.levels[0].anchor_indices = np.array([0])
    h.levels[0].assignment = np.array([0, 0])
    # increment encoding 90 degrees about z: q_hat = (1,0,0,0) + delta ~ unit
    q90 = quat_from_axis_angle([0, 0, 1], np.pi / 2)
    scale = 1.0 / q90[0]  # so that (1,0,0,0) + delta is parallel to q90
    delta = (q90 * scale - np.array([1.0, 0, 0, 0])).astype(np.float32)
    ds = AnchorDeltaSet(np.zeros((1, 3), np.float32), delta[None, :])
    out = apply_deformation(g, h, FrameDeformation([ds]), CompositionMode.pivot)
    assert np.abs(out.positions[1] - np.float32([0, 1, 0])).max() < 1e-6
    assert np.abs(out.positions[0]).max() < 1e-6  # the anchor itself only spins


def test_apply_pivot_matches_rotation_matrix_oracle(rng):
    pos = rng.random((30, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    cfg = StreamConfig(levels=1, finest_fraction=1)
    h = build_hierarchy(pos, cfg)
    anchor = int(h.levels[0].anchor_indices[0])
    h.levels[0].anchor_indices = np.array([anchor])
    h.levels[0].assignment = np.zeros(30, np.int64)
    delta_q = (rng.standard_normal(4) * 0.2).astype(np.float32)
    delta_t = (rng.standard_normal(3) * 0.1).astype(np.float32)
    ds = AnchorDeltaSet(delta_t[None, :], delta_q[None, :])
    out = apply_deformation(g, h, FrameDeformation([ds]), CompositionMode.pivot)

    y = delta_q.astype(np.float64)
    y[0] += 1.0
    q_hat = y / np.linalg.norm(y)
    rot = rotation_matrix(q_hat)
    pivot = pos[anchor].astype(np.float64)
    want = (pos.astype(np.float64) - pivot) @ rot.T + pivot + delta_t.astype(np.float64)
    assert np.abs(out.positions - want.astype(np.float32)).max() < 1e-6


# ---------------------------------------------------------------------------
# rotation averaging, as inherit_deformation does it
# ---------------------------------------------------------------------------


def unit(v):
    v = np.asarray(v, np.float64)
    return v / np.linalg.norm(v)


def inherited_rotations(rows):
    """Inherit one anchor per consecutive triple of rotation rows."""
    rows = np.asarray(rows, np.float32)
    legacy = AnchorDeltaSet(np.zeros((len(rows), 3), np.float32), rows)
    nbr = np.arange(len(rows)).reshape(-1, 3)
    return inherit_deformation(legacy, nbr).rotations.astype(np.float64)


def test_average_identical_quaternions(rng):
    q = unit(rng.standard_normal(4)).astype(np.float32)
    avg = inherited_rotations([q, q, q])[0]
    assert np.abs(avg - canonical_sign(q.astype(np.float64))).max() < 1e-6


def test_average_sign_flip_exact(rng):
    q = unit(rng.standard_normal(4))
    a = inherited_rotations([q, q, q])
    b = inherited_rotations([q, -q, q])
    assert np.array_equal(a, b)


def test_average_matches_jacobi_oracle():
    rng = np.random.default_rng(3)
    rows = np.stack([unit(rng.standard_normal(4)) for _ in range(600)]).astype(np.float32)
    avg = inherited_rotations(rows)  # 200 anchors in one batched eigh
    for a, triple in enumerate(rows.astype(np.float64).reshape(200, 3, 4)):
        _, oracle_vec = dominant_eigenvector(sum(np.outer(q, q) for q in triple))
        assert min(
            np.abs(avg[a] - oracle_vec).max(), np.abs(avg[a] + oracle_vec).max()
        ) < 1e-6


# ---------------------------------------------------------------------------
# inherit_deformation
# ---------------------------------------------------------------------------


def test_inherit_all_zero(rng):
    legacy = AnchorDeltaSet.zeros(5)
    nbr = rng.integers(0, 5, (8, 3)).astype(np.int64)
    out = inherit_deformation(legacy, nbr)
    assert not out.translations.any() and not out.rotations.any()


def test_inherit_translation_mean():
    legacy = AnchorDeltaSet(
        np.float32([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        np.zeros((3, 4), np.float32),
    )
    out = inherit_deformation(legacy, np.array([[0, 1, 2]]))
    third = np.float32(1.0 / 3.0)
    assert np.abs(out.translations[0] - third).max() <= np.spacing(third)


def test_inherit_rotation_matches_jacobi_oracle():
    angles = [np.deg2rad(d) for d in (10, 20, 30)]
    quats = [quat_from_axis_angle([0, 0, 1], a) for a in angles]
    legacy = AnchorDeltaSet(
        np.zeros((3, 3), np.float32),
        np.stack(quats).astype(np.float32),
    )
    out = inherit_deformation(legacy, np.array([[0, 1, 2]]))
    m = sum(np.outer(q.astype(np.float64), q.astype(np.float64))
            for q in legacy.rotations)
    _, oracle_vec = dominant_eigenvector(m)
    got = out.rotations[0].astype(np.float64)
    assert min(np.abs(got - oracle_vec).max(), np.abs(got + oracle_vec).max()) < 1e-6


def test_inherit_skips_zero_rotations():
    q = quat_from_axis_angle([0, 1, 0], 0.3).astype(np.float32)
    legacy = AnchorDeltaSet(
        np.zeros((3, 3), np.float32),
        np.stack([q, np.zeros(4, np.float32), q]),
    )
    out = inherit_deformation(legacy, np.array([[0, 1, 2]]))
    # averaging two copies of q (zeros skipped) gives back q up to sign
    got = out.rotations[0].astype(np.float64)
    want = canonical_sign(q.astype(np.float64))
    assert np.abs(got - want).max() < 1e-6


def test_inherit_rejects_empty_legacy():
    with pytest.raises(ValueError):
        inherit_deformation(AnchorDeltaSet.zeros(0), np.zeros((2, 3), np.int64))


def test_inherit_rejects_bad_ordinals():
    with pytest.raises(ValueError):
        inherit_deformation(AnchorDeltaSet.zeros(2), np.array([[0, 1, 5]]))
