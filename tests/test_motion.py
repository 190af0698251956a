import hashlib
from fractions import Fraction

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
    inherit_deformation,
)
from anchorstream.motion import (
    canonical_sign,
    deform_rows,
    dominant_eigenvectors,
    gather_rows,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
)

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


def translations_per_level(hierarchy, rng, scale=0.1):
    """Random translations at every level, zero rotations: an additive frame."""
    return FrameDeformation(
        [AnchorDeltaSet((rng.standard_normal((lvl.anchor_count, 3)) * scale).astype(np.float32),
                        np.zeros((lvl.anchor_count, 4), np.float32)) for lvl in hierarchy.levels]
    )


def frame_deltas(hierarchy, rng, mode):
    """Random deltas a frame of ``mode`` can carry: rotations in pivot mode only."""
    if mode == CompositionMode.pivot:
        return random_deltas(hierarchy, rng)
    return translations_per_level(hierarchy, rng)


# ---------------------------------------------------------------------------
# additive composition: a sum of translations across levels
# ---------------------------------------------------------------------------


def test_compose_zero_deltas(rng):
    pos = rng.random((50, 3), dtype=np.float32)
    h = hierarchy_for(pos)
    out = apply_deformation(GaussianSet.from_positions(pos), h, FrameDeformation.zeros(h),
                            CompositionMode.additive)
    assert out.positions.tobytes() == pos.tobytes()


def test_compose_single_anchor_broadcast(rng):
    pos = rng.random((20, 3), dtype=np.float32)
    h = hierarchy_for(pos, levels=1)
    assert h.anchor_counts() == (1,)
    ds = AnchorDeltaSet(np.float32([[1, 2, 3]]), np.zeros((1, 4), np.float32))
    out = apply_deformation(GaussianSet.from_positions(pos), h, FrameDeformation([ds]),
                            CompositionMode.additive)
    # one float32 addition, rounded once either way
    assert np.array_equal(out.positions, pos + np.float32([1, 2, 3]))


def test_compose_matches_per_gaussian_loop(rng):
    rng = np.random.default_rng(7)
    pos = rng.random((100, 3), dtype=np.float32)
    h = hierarchy_for(pos)
    deltas = translations_per_level(h, rng)
    out = apply_deformation(GaussianSet.from_positions(pos), h, deltas, CompositionMode.additive)
    for g in range(100):
        want = pos[g].astype(np.float64)
        for lvl, ds in zip(h.levels, deltas.per_level):
            want = want + ds.translations[lvl.assignment[g]].astype(np.float64)
        assert np.array_equal(out.positions[g], want.astype(np.float32))


def test_compose_linear_in_deltas(rng):
    # dyadic positions and deltas keep every sum exact
    pos = (rng.integers(0, 64, (60, 3)) / 64).astype(np.float32)
    g = GaussianSet.from_positions(pos)
    h = hierarchy_for(pos)
    d1 = FrameDeformation(
        [AnchorDeltaSet(np.full((l.anchor_count, 3), 0.25, np.float32),
                        np.zeros((l.anchor_count, 4), np.float32)) for l in h.levels]
    )
    d2 = FrameDeformation(
        [AnchorDeltaSet(np.full((l.anchor_count, 3), 0.125, np.float32),
                        np.zeros((l.anchor_count, 4), np.float32)) for l in h.levels]
    )
    combo = FrameDeformation(
        [AnchorDeltaSet(2 * a.translations + 4 * b.translations, a.rotations)
         for a, b in zip(d1.per_level, d2.per_level)]
    )
    moved = lambda d: apply_deformation(g, h, d, CompositionMode.additive).positions - pos
    assert np.array_equal(moved(combo), 2 * moved(d1) + 4 * moved(d2))


def test_compose_rejects_mismatched_deltas(rng):
    pos = rng.random((30, 3), dtype=np.float32)
    h = hierarchy_for(pos)
    bad = FrameDeformation([AnchorDeltaSet.zeros(lvl.anchor_count + 1) for lvl in h.levels])
    with pytest.raises(ValueError):
        apply_deformation(GaussianSet.from_positions(pos), h, bad, CompositionMode.additive)


# ---------------------------------------------------------------------------
# deform_rows: the one forward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_apply_positions_are_the_forward_cast_to_float32(mode):
    rng = np.random.default_rng(17)
    pos = rng.random((3000, 3), dtype=np.float32)
    g = random_appearance(pos, rng)
    h = hierarchy_for(pos)
    assert h.level_count == 3 and min(h.anchor_counts()) > 1
    deltas = frame_deltas(h, rng, mode)
    forward, _ = deform_rows(h, deltas, gather_rows(g, h, mode))
    out = apply_deformation(g, h, deltas, mode)
    assert out.positions.tobytes() == forward.T.astype(np.float32).tobytes()


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_forward_of_some_rows_equals_those_rows_of_the_full_forward(mode):
    rng = np.random.default_rng(5)
    pos = rng.random((400, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = hierarchy_for(pos)
    deltas = frame_deltas(h, rng, mode)
    rows = rng.choice(400, size=57, replace=False)
    full, full_rotations = deform_rows(h, deltas, gather_rows(g, h, mode))
    gathered = gather_rows(g, h, mode, rows)
    before = [a.copy() for a in [gathered.positions, *gathered.members, *(gathered.centers or [])]]
    for _ in range(2):  # a walk leaves the gathered arrays as it found them
        some, some_rotations = deform_rows(h, deltas, gathered)
        assert some.tobytes() == full[:, rows].tobytes()
        if mode == CompositionMode.additive:
            assert full_rotations is None and some_rotations is None
            continue
        for a, b in zip(full_rotations, some_rotations, strict=True):
            assert a[:, rows].tobytes() == b.tobytes()
    after = [gathered.positions, *gathered.members, *(gathered.centers or [])]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after, strict=True))


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_forward_layout_contract(mode):
    rng = np.random.default_rng(23)
    pos = rng.random((500, 3), dtype=np.float32)
    g = random_appearance(pos, rng)
    h = hierarchy_for(pos)
    deltas = frame_deltas(h, rng, mode)
    rows = rng.choice(500, size=71, replace=False)
    units = []
    for lvl, ds in zip(h.levels, deltas.per_level):
        y = ds.rotations.astype(np.float64)
        y[:, 0] += 1.0
        units.append((y / np.linalg.norm(y, axis=1, keepdims=True))[lvl.assignment])
    for picked, r in ((None, 500), (rows, 71)):
        out, rotations = deform_rows(h, deltas, gather_rows(g, h, mode, picked))
        # axis-major positions in both modes: the fit reads them one axis at a time
        assert out.shape == (3, r) and out.dtype == np.float64 and out.flags.c_contiguous
        if mode == CompositionMode.additive:
            assert rotations is None
            continue
        # axis-major row rotations, one per level: each row's anchor's unit quaternion
        assert len(rotations) == h.level_count
        for unit, member_q in zip(units, rotations):
            assert member_q.shape == (4, r) and member_q.dtype == np.float64
            assert member_q.flags.c_contiguous
            want = unit if picked is None else unit[picked]
            assert member_q.T.tobytes() == want.tobytes()
    if mode == CompositionMode.additive:
        return
    # pivot orientations: each level's row-major unit quaternions, composed coarse first
    orient = g.orientations.astype(np.float64)
    for unit in units:
        orient = quat_multiply(unit, orient)
    want = quat_normalize(orient).astype(np.float32)
    assert apply_deformation(g, h, deltas, mode).orientations.tobytes() == want.tobytes()


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
    h = build_hierarchy(pos, StreamConfig(levels=1, finest_fraction=Fraction(1, 25)))
    assert h.anchor_counts() == (1,)
    out = apply_deformation(g, h, translations_only([[0, 0, 1]]), CompositionMode.additive)
    assert np.array_equal(out.positions, pos + np.float32([0, 0, 1]))
    assert np.array_equal(out.orientations, g.orientations)


def test_apply_additive_keeps_everything_but_positions_byte_equal(rng):
    pos = rng.random((5000, 3), dtype=np.float32)
    g = random_appearance(pos, rng)
    h = hierarchy_for(pos)
    out = apply_deformation(g, h, translations_per_level(h, rng), CompositionMode.additive)
    assert not np.array_equal(out.positions, pos)
    for name in ("scales", "orientations", "opacities", "sh"):
        assert getattr(out, name).tobytes() == getattr(g, name).tobytes(), name


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
    there = apply_deformation(g, h, translations_only(dmu), CompositionMode.additive)
    back = apply_deformation(there, h, translations_only(-dmu), CompositionMode.additive)
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

E0 = np.array([1.0, 0.0, 0.0, 0.0])


def unit(v):
    v = np.asarray(v, np.float64)
    return v / np.linalg.norm(v)


def increments(quats):
    """Increments d = q - (1,0,0,0): normalize((1,0,0,0) + d) is q again; zeros stay zero."""
    q = np.atleast_2d(np.asarray(quats, np.float64))
    return np.where(q.any(axis=1, keepdims=True), q - E0, 0.0).astype(np.float32)


def rotations_of(rows):
    """The unit quaternion, w >= 0, that each increment row stands for; zeros stay zero."""
    d = np.asarray(rows, np.float64)
    q = d + E0
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0] *= -1.0
    q[~d.any(axis=1)] = 0.0
    return q


def inherit_triples(rows):
    """Inherit one anchor per consecutive triple of increment rows."""
    rows = np.asarray(rows, np.float32)
    legacy = AnchorDeltaSet(np.zeros((len(rows), 3), np.float32), rows)
    return inherit_deformation(legacy, np.arange(len(rows)).reshape(-1, 3)).rotations


def inherited_rotations(quats):
    """The unit quaternions inherited from consecutive triples of unit quaternions."""
    return rotations_of(inherit_triples(increments(quats)))


def oracle_mean(quats):
    """Dominant eigenvector, by the Jacobi oracle, of the float32 units averaged."""
    units = rotations_of(increments(quats)).astype(np.float32).astype(np.float64)
    return dominant_eigenvector(sum(np.outer(q, q) for q in units))[1]


def assert_same_rotation(got, want, tol=1e-6):
    assert min(np.abs(got - want).max(), np.abs(got + want).max()) < tol


def test_dominant_eigenvectors_match_the_jacobi_oracle(rng):
    a = rng.standard_normal((50, 4, 4))
    sym = a + a.transpose(0, 2, 1)
    got = dominant_eigenvectors(sym)
    for m, v in zip(sym, got):
        assert v[np.flatnonzero(v)[0]] > 0  # canonical sign
        assert_same_rotation(v, dominant_eigenvector(m)[1], tol=1e-9)


def test_average_identical_quaternions(rng):
    q = unit(rng.standard_normal(4)).astype(np.float32)
    avg = inherited_rotations([q, q, q])[0]
    assert np.abs(avg - canonical_sign(q.astype(np.float64))).max() < 1e-6


def test_average_sign_flip_exact():
    # dyadic unit quaternions: q and -q map to increments whose rotations are exact
    quats = np.array([[0.5, -0.5, 0.5, 0.5], [0.0, 0.0, 1.0, 0.0]])
    a = inherit_triples(increments(np.repeat(quats, 3, axis=0)))
    b = inherit_triples(increments([quats[0], -quats[0], quats[0],
                                    -quats[1], quats[1], -quats[1]]))
    assert a.tobytes() == b.tobytes()


def test_average_matches_jacobi_oracle():
    rng = np.random.default_rng(3)
    rows = np.stack([unit(rng.standard_normal(4)) for _ in range(600)])
    avg = inherited_rotations(rows)  # 200 anchors in one batched eigh
    for a, triple in enumerate(rows.reshape(200, 3, 4)):
        assert_same_rotation(avg[a], oracle_mean(triple))


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
    quats = [quat_from_axis_angle([0, 0, 1], np.deg2rad(d)) for d in (10, 20, 30)]
    assert_same_rotation(inherited_rotations(quats)[0], oracle_mean(quats))


def test_inherit_skips_zero_rotations():
    d = increments(quat_from_axis_angle([0, 1, 0], 0.3))[0]
    # averaging two copies of d (the zero row skipped) gives back d's rotation
    got = rotations_of(inherit_triples([d, np.zeros(4), d]))[0]
    assert np.abs(got - rotations_of([d])[0]).max() < 1e-6


def test_inherit_takes_and_returns_increments():
    # (1,0,0,0) + d has w < 0; the inherited increment names the same rotation with w > 0
    d = np.float32([-1.5, 0.25, 0.0, 0.0])
    want = -unit(d.astype(np.float64) + E0)
    assert want[0] > 0
    out = inherit_triples([d, d, d])[0].astype(np.float64)
    assert np.abs(out - (want - E0)).max() < 1e-6


def test_inherit_output_bytes_are_pinned():
    # the bytes of the shared dominant-eigenvector helper's first user, as they
    # were when inheritance ran its own eigh
    rng = np.random.default_rng(19)
    rotations = (rng.standard_normal((40, 4)) * 0.1).astype(np.float32)
    rotations[::5] = 0.0
    legacy = AnchorDeltaSet((rng.standard_normal((40, 3)) * 0.05).astype(np.float32), rotations)
    nbr = rng.integers(0, 40, (25, 3))
    nbr[3] = [0, 5, 10]  # three unrotated legacy anchors
    out = inherit_deformation(legacy, nbr)
    assert not out.rotations[3].any()
    digest = hashlib.sha256(out.translations.tobytes() + out.rotations.tobytes()).hexdigest()
    assert digest == "5fdee23d8c30f976d3f99bf1b3a16bf83022a9cd5f8ba65a46911e99d1ffb8d8"


def test_inherit_rejects_empty_legacy():
    with pytest.raises(ValueError):
        inherit_deformation(AnchorDeltaSet.zeros(0), np.zeros((2, 3), np.int64))


def test_inherit_rejects_bad_ordinals():
    with pytest.raises(ValueError):
        inherit_deformation(AnchorDeltaSet.zeros(2), np.array([[0, 1, 5]]))
