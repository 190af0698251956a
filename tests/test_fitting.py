from fractions import Fraction

import numpy as np
import pytest

from anchorstream import (
    AnchorDeltaSet,
    CompositionMode,
    Correspondences,
    FrameDeformation,
    GaussianSet,
    SceneState,
    StreamConfig,
    build_hierarchy,
    densify_residuals,
    fit_frame,
    loss_and_gradient,
    observed_rows,
    two_body_arm_spec,
    generate_scene,
)
from anchorstream import codec, fitting, motion, session
from anchorstream.motion import quat_from_axis_angle, quat_to_matrix

import conformance
from oracles import (
    additive_loss_and_gradient,
    central_difference,
    cross_rotate,
    rowmajor_pivot_loss,
)


def make_problem(n=80, levels=3, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = build_hierarchy(pos, StreamConfig(levels=levels))
    targets = pos + (rng.standard_normal((n, 3)) * 0.05).astype(np.float32)
    corr = Correspondences(np.arange(n), targets)
    return g, h, corr, rng


def random_deltas(h, rng, scale=0.1):
    return FrameDeformation(
        [
            AnchorDeltaSet(
                (rng.standard_normal((lvl.anchor_count, 3)) * scale).astype(np.float32),
                (rng.standard_normal((lvl.anchor_count, 4)) * scale).astype(np.float32),
            )
            for lvl in h.levels
        ]
    )


ADDITIVE = CompositionMode.additive


def evaluate(g, h, deltas, corr, mode):
    """``loss_and_gradient`` of ``deltas`` on a fresh plan of ``corr`` in ``mode``."""
    return loss_and_gradient(h, deltas, corr, observed_rows(g, h, corr, mode))


def fit(g, h, corr, init, sweeps, mode):
    """``fit_frame`` on a fresh plan of ``corr`` in ``mode``."""
    return fit_frame(h, corr, init, sweeps, observed_rows(g, h, corr, mode))


def densify(g, h, deltas, corr, threshold, mode):
    """``densify_residuals`` on a fresh plan of ``corr`` in ``mode``."""
    return densify_residuals(h, deltas, corr, threshold, observed_rows(g, h, corr, mode))


# ---------------------------------------------------------------------------
# loss_and_gradient
# ---------------------------------------------------------------------------


def test_loss_zero_at_exact_fit():
    g, h, _, _ = make_problem()
    corr = Correspondences(np.arange(len(g)), g.positions.copy())
    loss, grads = evaluate(g, h, FrameDeformation.zeros(h), corr, ADDITIVE)
    assert loss == 0
    for gt in grads:
        assert not gt.any()


def test_single_gaussian_hand_gradient():
    pos = np.float32([[0.5, 0.5, 0.5]])
    g = GaussianSet.from_positions(pos)
    h = build_hierarchy(pos, StreamConfig(levels=1))
    corr = Correspondences(np.array([0]), pos + np.float32([1, 0, 0]))
    loss, grads = evaluate(g, h, FrameDeformation.zeros(h), corr, ADDITIVE)
    assert abs(loss - 1.0) < 1e-12
    assert np.abs(grads[0][0] - [-2, 0, 0]).max() < 1e-12


def unpack(vec, counts):
    """Deltas whose translations are the flat ``vec``, for levels of ``counts`` anchors."""
    ends = np.cumsum([3 * a for a in counts])
    return FrameDeformation([AnchorDeltaSet(t.reshape(-1, 3), np.zeros((t.size // 3, 4)))
                             for t in np.split(vec, ends[:-1])])


def _rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return (np.abs(a - b) / denom).max()


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(20, 60))
        levels = int(rng.integers(1, 4))
        pos = rng.random((n, 3), dtype=np.float32)
        g = GaussianSet.from_positions(pos)
        h = build_hierarchy(pos, StreamConfig(levels=levels))
        targets = pos + (rng.standard_normal((n, 3)) * 0.1).astype(np.float32)
        corr = Correspondences(np.arange(n), targets)
        deltas = random_deltas(h, rng, scale=0.15)
        counts = [lvl.anchor_count for lvl in h.levels]

        _, grads = evaluate(g, h, deltas, corr, ADDITIVE)
        analytic = np.concatenate([gt.ravel() for gt in grads])

        def loss_at(vec):
            return evaluate(g, h, unpack(vec, counts), corr, ADDITIVE)[0]

        x0 = np.concatenate([ds.translations.astype(np.float64).ravel()
                             for ds in deltas.per_level])
        numeric = central_difference(loss_at, x0, h=1e-4)
        assert _rel_err(analytic, numeric) < 1e-4


def rotation_cases(n=400, seed=21):
    """(q, u, g) batches: random, identity, near-pi, and zero vectors in every slot."""
    rng = np.random.default_rng(seed)

    def unit_quats(w):
        axis = rng.standard_normal((n, 3))
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        return np.concatenate([w[:, None], axis * np.sqrt(1.0 - w * w)[:, None]], axis=1)

    random_q = rng.standard_normal((n, 4))
    random_q /= np.linalg.norm(random_q, axis=1, keepdims=True)
    vec = lambda: rng.standard_normal((n, 3))
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    near_pi = unit_quats(rng.choice([0.0, -0.0, 1e-12, -1e-9, 3e-6], size=n))
    zero = np.zeros((n, 3))
    return {
        "random": (random_q, vec(), vec()),
        "identity": (identity, vec(), vec()),
        "near_pi": (near_pi, vec(), vec()),
        "zero_u": (random_q, zero, vec()),
        "zero_g": (near_pi, vec(), zero),
        "negative_zero_u": (identity, -zero, -zero),
        "pi_about_z_negative_zero_g": (np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)), vec(), -zero),
    }


def axis_major(*arrays):
    """C-contiguous transposes: row-major (n, k) rows to the kernels' (k, n) form."""
    return [np.ascontiguousarray(a.T) for a in arrays]


@pytest.mark.parametrize("case", list(rotation_cases()))
def test_rotation_kernels_match_the_np_cross_oracle_bitwise(case):
    # u turns by q, as the forward turns offsets; g by q's conjugate, as the
    # pivot sweep maps targets back
    q, u, g = rotation_cases()[case]
    qa, ua, ga = axis_major(q, u, g)
    scale, two_w = motion._rotation_terms(qa)
    assert motion._rotate(qa[1:], ua, scale, two_w).T.tobytes() == cross_rotate(q, u).tobytes()
    conjugate = np.concatenate([q[:, :1], -q[:, 1:]], axis=1)
    assert motion._rotate(-qa[1:], ga, scale, two_w).T.tobytes() == (
        cross_rotate(conjugate, g).tobytes())


def as_deformation(deltas):
    """A FrameDeformation of what fit_frame hands loss_and_gradient."""
    if isinstance(deltas, FrameDeformation):
        return deltas
    return FrameDeformation([AnchorDeltaSet(t, q) for t, q in deltas])


@pytest.mark.parametrize("mode", list(CompositionMode))
def test_fit_frame_deltas_equal_the_oracle_kernels_bytewise(mode, monkeypatch):
    # the reference fit evaluates every candidate with a row-major oracle of
    # the loss and, in additive mode, its gradients, bucket sums by np.add.at
    g, h, corr, rng = make_problem(n=120, seed=13)
    init = random_deltas(h, rng, scale=0.05)
    got = fit(g, h, corr, init, 12, mode)
    calls = []

    def reference(hierarchy, deltas, corr, rows):
        calls.append(1)
        deltas = as_deformation(deltas)
        if mode == CompositionMode.pivot:
            return rowmajor_pivot_loss(g, hierarchy, deltas, corr), None
        return additive_loss_and_gradient(g, hierarchy, deltas, corr)

    monkeypatch.setattr(fitting, "loss_and_gradient", reference)
    want = fit(g, h, corr, init, 12, mode)
    assert len(calls) >= 13
    assert not np.array_equal(got.per_level[0].translations, init.per_level[0].translations)
    for a, b in zip(got.per_level, want.per_level):
        assert a.translations.tobytes() == b.translations.tobytes()
        assert a.rotations.tobytes() == b.rotations.tobytes()


def pivot_problem(case, levels, seed):
    """A random pivot problem whose deltas or offsets hit one kernel edge case."""
    rng = np.random.default_rng(seed)
    n = 160
    pos = rng.random((n, 3), dtype=np.float32)
    if case == "negative_zero_offsets":
        pos[:, 2] = -0.0
    h = build_hierarchy(pos, StreamConfig(levels=levels))
    if case == "negative_zero_offsets":
        # the coarsest anchors at z = +0.0: every other row's z offset is -0.0 - (+0.0)
        pos[h.levels[0].anchor_indices, 2] = 0.0
    g = GaussianSet.from_positions(pos)
    targets = pos + (rng.standard_normal((n, 3)) * 0.05).astype(np.float32)
    corr = Correspondences(rng.permutation(n)[: n - 17], targets[: n - 17])
    deltas = random_deltas(h, rng, scale=0.1)
    for ds in deltas.per_level:
        if case in ("identity", "negative_zero_offsets"):
            ds.rotations[:] = 0.0
        elif case == "near_pi":
            # (1,0,0,0) + delta has w at or near zero: half-turns
            ds.rotations[:, 0] = -1.0 + rng.choice([0.0, 1e-7, -3e-6], size=len(ds))
    return g, h, deltas, corr


def assert_same_loss_and_gradient(got, want):
    """The same loss bits and, where there are any, the same gradient bits."""
    (loss, grads), (want_loss, want_grads) = got, want
    assert float(loss).hex() == float(want_loss).hex()
    if want_grads is None:
        assert grads is None
        return
    for gt, wt in zip(grads, want_grads, strict=True):
        assert gt.shape == wt.shape and gt.tobytes() == wt.tobytes()


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["random", "identity", "near_pi", "negative_zero_offsets"])
def test_pivot_loss_and_gradient_equal_the_rowmajor_reference_bytewise(case, levels):
    g, h, deltas, corr = pivot_problem(case, levels, seed=40 + levels)
    assert h.level_count == levels
    assert_same_loss_and_gradient(evaluate(g, h, deltas, corr, CompositionMode.pivot),
                                  (rowmajor_pivot_loss(g, h, deltas, corr), None))
    if case == "negative_zero_offsets":
        # the coarsest level's offsets, as the forward's first step takes them
        rows = motion.gather_rows(g, h, CompositionMode.pivot, corr.indices)
        u = rows.positions - rows.centers[0]
        assert (np.signbit(u) & (u == 0.0)).any()


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["random", "identity", "near_pi", "negative_zero_offsets"])
def test_gathered_rows_give_the_pivot_loss_and_gradient_bytewise(case, levels):
    g, h, deltas, corr = pivot_problem(case, levels, seed=40 + levels)
    rows = observed_rows(g, h, corr, CompositionMode.pivot)
    want = (rowmajor_pivot_loss(g, h, deltas, corr), None)
    for other in (FrameDeformation.zeros(h), deltas):  # one plan serves every evaluation
        loss_and_gradient(h, other, corr, rows)
        assert_same_loss_and_gradient(loss_and_gradient(h, deltas, corr, rows), want)


def test_gathered_rows_give_the_additive_loss_and_gradient_bytewise():
    # a state whose relocated rows were reassigned to their nearest anchors
    # after the build, with no rebuild since
    result = conformance.encode_case("additive_full32")
    g, h = result.state.gaussians, result.state.hierarchy
    assert not any(row.reconfig for row in result.metrics)
    relocated = []
    for payload, _ in codec.iter_frames(result.stream, result.header):
        relocated.extend(payload.deltas.relocation_ordinals)
    rng = np.random.default_rng(5)
    idx = rng.permutation(len(g))[: len(g) - 9]
    assert np.isin(idx, relocated).any()
    targets = g.positions[idx] + rng.normal(0.0, 0.01, (len(idx), 3)).astype(np.float32)
    corr = Correspondences(idx, targets)
    deltas = random_deltas(h, rng, scale=0.02)
    rows = observed_rows(g, h, corr, ADDITIVE)
    want = additive_loss_and_gradient(g, h, deltas, corr)
    for other in (FrameDeformation.zeros(h), deltas):  # one plan serves every evaluation
        loss_and_gradient(h, other, corr, rows)
        assert_same_loss_and_gradient(loss_and_gradient(h, deltas, corr, rows), want)


def test_correspondences_reject_a_negative_index():
    # numpy would wrap -1 onto gaussian 49 of 50, observing it twice
    with pytest.raises(ValueError, match="index -1 is negative"):
        Correspondences([3, -1, 49, -2], np.zeros((4, 3), np.float32))


def test_correspondences_reject_a_repeated_index_naming_it():
    # sorted, the first repeat is 4, though 9 repeats first in row order
    with pytest.raises(ValueError, match="correspondence index 4 appears twice or more"):
        Correspondences([9, 4, 9, 7, 4, 0], np.zeros((6, 3), np.float32))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_correspondences_reject_a_non_finite_target(bad):
    targets = np.zeros((5, 3), np.float32)
    targets[2, 1] = targets[4, 0] = bad
    with pytest.raises(ValueError, match="target at row 2 is not finite"):
        Correspondences(np.arange(5), targets)


@pytest.mark.parametrize("indices, targets, message", [
    ([0, 1, 2], np.zeros((3, 2)), r"targets must have shape \(C, 3\), got \(3, 2\)"),
    ([0, 1, 2], np.zeros((3, 4)), r"targets must have shape \(C, 3\), got \(3, 4\)"),
    ([0.7, 1.2, 2.9], np.zeros((3, 3)), "index 0.7 is not a whole number"),
    ([1.0, 1e30], np.zeros((2, 3)), "index 1e[+]30 is not a whole number in int64 range"),
    ([[0, 1], [2, 3]], np.zeros((2, 3)), r"indices must be 1-D, got shape \(2, 2\)"),
    (np.array([True, False]), np.zeros((2, 3)), r"boolean mask; .* np\.flatnonzero\(mask\)"),
    (np.array([1, 2 ** 63], np.uint64), np.zeros((2, 3)),
     "index 9223372036854775808 is not a whole number in int64 range"),
], ids=["targets_c2", "targets_c4", "fractional_index", "index_past_int64", "indices_2d",
        "bool_mask", "uint64_past_int64"])
def test_correspondences_reject_a_bad_shape_or_a_fractional_index(indices, targets, message):
    with pytest.raises(ValueError, match=message):
        Correspondences(indices, targets)


# ---------------------------------------------------------------------------
# fit_frame
# ---------------------------------------------------------------------------


def test_fit_already_optimal_stays_near_zero():
    g, h, _, _ = make_problem()
    corr = Correspondences(np.arange(len(g)), g.positions.copy())
    out = fit(g, h, corr, FrameDeformation.zeros(h), 20, ADDITIVE)
    loss, _ = evaluate(g, h, out, corr, ADDITIVE)
    assert loss < 1e-12


def test_fit_recovers_global_translation():
    rng = np.random.default_rng(4)
    pos = rng.random((150, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = build_hierarchy(pos, StreamConfig(levels=1, finest_fraction=Fraction(1, 150)))
    assert h.anchor_counts() == (1,)
    corr = Correspondences(np.arange(150), pos + np.float32([0.1, 0, 0]))
    out = fit(g, h, corr, FrameDeformation.zeros(h), 100, ADDITIVE)
    fitted = out.per_level[0].translations[0].astype(np.float64)
    assert np.abs(fitted - [0.1, 0, 0]).max() < 1e-4


def test_fit_loss_monotone_and_never_touches_state():
    spec = two_body_arm_spec()
    scene = generate_scene(spec)
    g = GaussianSet.from_positions(scene.positions[0].astype(np.float32))
    before = [arr.copy() for arr in g.attribute_arrays()]
    h = build_hierarchy(g, StreamConfig())
    corr = Correspondences(np.arange(scene.point_count), scene.targets[1].astype(np.float32))

    losses = []
    current = FrameDeformation.zeros(h)
    # re-run the fit one sweep at a time to observe the loss sequence
    for _ in range(40):
        current = fit(g, h, corr, current, 1, ADDITIVE)
        losses.append(evaluate(g, h, current, corr, ADDITIVE)[0])
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    for old, new in zip(before, g.attribute_arrays()):
        assert np.array_equal(old, new)  # bitwise untouched


def test_fit_returns_loss_not_above_initial(rng):
    g, h, corr, rng = make_problem(seed=9)
    init = random_deltas(h, rng, scale=0.2)
    loss0, _ = evaluate(g, h, init, corr, ADDITIVE)
    out = fit(g, h, corr, init, 30, ADDITIVE)
    loss1, _ = evaluate(g, h, out, corr, ADDITIVE)
    assert loss1 <= loss0


def test_fit_two_body_scene_under_error_bound():
    spec = two_body_arm_spec()
    scene = generate_scene(spec)
    g = GaussianSet.from_positions(scene.positions[0].astype(np.float32))
    h = build_hierarchy(g, StreamConfig(levels=3))
    idx = np.arange(scene.point_count)
    corr = Correspondences(idx, scene.targets[1].astype(np.float32))
    out = fit(g, h, corr, FrameDeformation.zeros(h), 100, ADDITIVE)
    pos, _ = motion.deform_rows(h, out, observed_rows(g, h, corr, ADDITIVE))
    err = np.linalg.norm(pos.T - scene.targets[1], axis=1).mean()
    assert err < 1e-3 * scene.diameter()


def test_fit_depth_monotone_loss():
    spec = two_body_arm_spec()
    scene = generate_scene(spec)
    g = GaussianSet.from_positions(scene.positions[0].astype(np.float32))
    corr = Correspondences(np.arange(scene.point_count), scene.targets[1].astype(np.float32))
    losses = {}
    for levels in (2, 3):
        h = build_hierarchy(g, StreamConfig(levels=levels))
        out = fit(g, h, corr, FrameDeformation.zeros(h), 200, ADDITIVE)
        losses[levels], _ = evaluate(g, h, out, corr, ADDITIVE)
    assert losses[3] <= losses[2] + 1e-9


def reversed_start(mode, sweeps=20):
    """Arm frame 1, and a warm start that runs a fit of its motion backwards."""
    scene = generate_scene(two_body_arm_spec(seed=3))
    g = GaussianSet.from_positions(scene.positions[0].astype(np.float32))
    h = build_hierarchy(g, StreamConfig())
    corr = Correspondences(np.arange(scene.point_count), scene.targets[1].astype(np.float32))
    forward = fit(g, h, corr, FrameDeformation.zeros(h), sweeps, mode)
    return g, h, corr, negated(forward)


def negated(deltas):
    return FrameDeformation([AnchorDeltaSet(-ds.translations, -ds.rotations)
                             for ds in deltas.per_level])


def assert_same_deltas(a, b):
    for x, y in zip(a.per_level, b.per_level, strict=True):
        assert x.translations.dtype == y.translations.dtype == np.float32
        assert x.translations.tobytes() == y.translations.tobytes()
        assert x.rotations.tobytes() == y.rotations.tobytes()


@pytest.mark.parametrize("mode", list(CompositionMode))
def test_fit_from_a_reversed_start_ends_below_both_starts(mode):
    g, h, corr, backward = reversed_start(mode)
    zero = FrameDeformation.zeros(h)
    loss = lambda d: evaluate(g, h, d, corr, mode)[0]
    assert loss(backward) > loss(zero)  # the warm start points the wrong way
    out = fit(g, h, corr, backward, 20, mode)
    assert loss(out) <= min(loss(backward), loss(zero))
    # the zero start wins, so the sweeps are the cold ones, byte for byte
    assert_same_deltas(out, fit(g, h, corr, zero, 20, mode))


@pytest.mark.parametrize("mode", list(CompositionMode))
def test_fit_without_steps_returns_the_better_start(mode):
    g, h, corr, backward = reversed_start(mode)
    assert_same_deltas(fit(g, h, corr, backward, 0, mode), FrameDeformation.zeros(h))
    forward = negated(backward)
    assert_same_deltas(fit(g, h, corr, forward, 0, mode), forward)


def test_fit_start_tie_keeps_init():
    # additive positions ignore the rotation increments: init and zero tie
    g, h, corr, rng = make_problem(seed=6)
    init = FrameDeformation([AnchorDeltaSet(np.zeros_like(ds.translations), ds.rotations)
                             for ds in random_deltas(h, rng).per_level])
    assert_same_deltas(fit(g, h, corr, init, 0, ADDITIVE), init)


def test_fit_rejects_an_init_with_another_level_split():
    # the totals match, so unchecked counts would re-slice the deltas onto other anchors
    g, h, corr, _ = make_problem(n=200, levels=2)
    counts = h.anchor_counts()
    assert counts[0] != counts[1]
    init = FrameDeformation([AnchorDeltaSet.zeros(a) for a in reversed(counts)])
    with pytest.raises(ValueError, match=f"level {h.levels[0].level}: {counts[1]} delta entries"):
        fit(g, h, corr, init, 3, ADDITIVE)


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
@pytest.mark.parametrize("bad", [-1, 0])
def test_observed_rows_rejects_an_anchor_ordinal_outside_its_level(bad, mode):
    g, h, corr, _ = make_problem(levels=2)
    lvl = h.levels[1]
    lvl.assignment = lvl.assignment.copy()
    lvl.assignment[7] = bad if bad < 0 else lvl.anchor_count
    with pytest.raises(ValueError, match=rf"level {lvl.level}: an anchor ordinal is outside"):
        observed_rows(g, h, corr, mode)


@pytest.mark.parametrize("mode", list(CompositionMode), ids=lambda m: m.name)
def test_observed_rows_rejects_empty_correspondences_and_an_index_past_the_gaussians(mode):
    g, h, _, _ = make_problem(n=50)
    empty = Correspondences(np.empty(0, np.int64), np.empty((0, 3), np.float32))
    with pytest.raises(ValueError, match="correspondences must be non-empty"):
        observed_rows(g, h, empty, mode)
    past = Correspondences([4, 50, 7, 61], g.positions[[4, 0, 7, 1]])
    with pytest.raises(ValueError, match="correspondence index 50 is past the last of 50"):
        observed_rows(g, h, past, mode)


@pytest.mark.parametrize("mode", list(CompositionMode))
def test_a_nonzero_start_costs_exactly_one_extra_evaluation(mode, monkeypatch):
    g, h, corr, backward = reversed_start(mode)
    zero = FrameDeformation.zeros(h)
    calls = []
    evaluate = fitting.loss_and_gradient
    monkeypatch.setattr(fitting, "loss_and_gradient",
                        lambda *args, **kwargs: calls.append(1) or evaluate(*args, **kwargs))

    def evaluations(init, sweeps):
        calls.clear()
        fit(g, h, corr, init, sweeps, mode)
        return len(calls)

    assert evaluations(zero, 0) == 1
    assert evaluations(backward, 0) == 2
    # zero wins the start, so the sweeps retrace the cold fit's evaluations
    assert evaluations(backward, 10) == evaluations(zero, 10) + 1


# ---------------------------------------------------------------------------
# the block solves
# ---------------------------------------------------------------------------


def one_level_problem(n=240, anchors=8, seed=30):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = build_hierarchy(pos, StreamConfig(levels=1, finest_fraction=Fraction(anchors, n)))
    assert h.level_count == 1
    return g, h, rng


def test_one_additive_sweep_gives_each_cluster_its_mean_residual():
    g, h, rng = one_level_problem()
    targets = g.positions + (rng.standard_normal((len(g), 3)) * 0.05).astype(np.float32)
    corr = Correspondences(np.arange(len(g)), targets)
    out = fit(g, h, corr, FrameDeformation.zeros(h), 1, ADDITIVE)
    al = h.levels[0].assignment
    residual = targets.astype(np.float64) - g.positions.astype(np.float64)
    want = np.stack([residual[al == a].mean(axis=0) for a in range(h.levels[0].anchor_count)])
    # the least-squares optimum in float64, rounded once to float32
    np.testing.assert_array_max_ulp(out.per_level[0].translations, want.astype(np.float32), 1)
    assert not out.per_level[0].rotations.any()


def test_a_rigid_scene_translation_lands_on_the_coarsest_level():
    g, h, corr, _ = make_problem(n=300, levels=3, seed=31)
    shift = np.float32([0.05, -0.02, 0.03])
    corr = Correspondences(np.arange(len(g)), g.positions + shift)
    out = fit(g, h, corr, FrameDeformation.zeros(h), 3, ADDITIVE)
    rms = [np.sqrt((ds.translations.astype(np.float64) ** 2).mean()) for ds in out.per_level]
    assert np.abs(out.per_level[0].translations - shift).max() < 1e-6
    assert max(rms[1:]) < 1e-3 * rms[0]


def rigid_targets(g, h, rng, angle=0.3):
    """Targets that move each cluster of a one-level hierarchy rigidly about its anchor."""
    lvl = h.levels[0]
    quats = motion.canonical_sign(np.array([
        quat_from_axis_angle(rng.standard_normal(3), rng.uniform(-angle, angle))
        for _ in range(lvl.anchor_count)]))
    shifts = rng.standard_normal((lvl.anchor_count, 3)) * 0.05
    pos = g.positions.astype(np.float64)
    pivots = pos[lvl.anchor_indices][lvl.assignment]
    turned = np.einsum("rij,rj->ri", quat_to_matrix(quats)[lvl.assignment], pos - pivots)
    return quats, shifts, turned + pivots + shifts[lvl.assignment]


def test_one_pivot_sweep_recovers_a_rigid_motion_per_cluster():
    g, h, rng = one_level_problem(seed=32)
    assert (np.bincount(h.levels[0].assignment) >= 3).all()
    quats, shifts, targets = rigid_targets(g, h, rng)
    corr = Correspondences(np.arange(len(g)), targets.astype(np.float32))
    out = fit(g, h, corr, FrameDeformation.zeros(h), 1, CompositionMode.pivot)
    got_q = motion.level_unit_quats(out.per_level[0].rotations)
    assert np.abs(got_q - quats).max() < 1e-6
    assert np.abs(out.per_level[0].translations - shifts).max() < 1e-6


def test_a_cluster_of_one_or_two_observed_members_keeps_its_rotation():
    g, h, rng = one_level_problem(seed=33)
    lvl = h.levels[0]
    al = lvl.assignment
    init = random_deltas(h, rng, scale=0.05)
    moved = motion.deform_rows(h, init, motion.gather_rows(g, h, CompositionMode.pivot))[0].T
    targets = moved + rng.standard_normal(moved.shape) * 0.002
    # anchor 0 keeps two observed members, anchor 1 one, anchor 2 none
    keep = np.ones(len(g), bool)
    for anchor, observed in ((0, 2), (1, 1), (2, 0)):
        keep[np.flatnonzero(al == anchor)[observed:]] = False
    idx = np.flatnonzero(keep)
    corr = Correspondences(idx, targets[idx].astype(np.float32))
    mode = CompositionMode.pivot
    zero = FrameDeformation.zeros(h)
    assert evaluate(g, h, init, corr, mode)[0] < evaluate(g, h, zero, corr, mode)[0]
    out = fit(g, h, corr, init, 3, mode)
    got, start = out.per_level[0], init.per_level[0]
    assert got.rotations[:3].tobytes() == start.rotations[:3].tobytes()
    assert got.translations[2].tobytes() == start.translations[2].tobytes()
    assert not np.array_equal(got.translations[:2], start.translations[:2])
    solved = np.bincount(al[idx], minlength=lvl.anchor_count) >= 3
    assert not (got.rotations == start.rotations).all(axis=1)[solved].any()


# ---------------------------------------------------------------------------
# densify_residuals
# ---------------------------------------------------------------------------


def test_densify_nothing_when_converged():
    g, h, _, _ = make_problem()
    corr = Correspondences(np.arange(len(g)), g.positions.copy())
    sources, positions = densify(g, h, FrameDeformation.zeros(h), corr, 0.05, ADDITIVE)
    assert sources.shape == (0,) and positions.shape == (0, 3)


def test_densify_single_outlier():
    g, h, _, _ = make_problem(n=50)
    targets = g.positions.copy()
    targets[7] += np.float32([0.25, 0, 0])  # 5x the threshold
    corr = Correspondences(np.arange(50), targets)
    sources, positions = densify(g, h, FrameDeformation.zeros(h), corr, 0.05, ADDITIVE)
    assert sources.tolist() == [7]
    assert np.array_equal(positions, targets[7:8])


def test_densify_teleporting_points():
    rng = np.random.default_rng(8)
    pos = rng.random((200, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = build_hierarchy(pos, StreamConfig())
    targets = pos.copy()
    moved = rng.choice(200, size=10, replace=False)
    targets[moved] += np.float32([2.0, 0, 0])
    corr = Correspondences(np.arange(200), targets)
    sources, positions = densify(g, h, FrameDeformation.zeros(h), corr, 0.5, ADDITIVE)
    assert sorted(sources.tolist()) == sorted(moved.tolist())
    assert np.array_equal(positions, targets[sources])


def test_densify_returns_its_picks_in_ascending_ordinal_order():
    rng = np.random.default_rng(9)
    pos = rng.random((200, 3), dtype=np.float32)
    g = GaussianSet.from_positions(pos)
    h = build_hierarchy(pos, StreamConfig())
    targets = pos.copy()
    moved = rng.choice(200, size=12, replace=False)
    targets[moved] += np.float32([2.0, 0, 0])
    order = rng.permutation(200)  # rows observed in no particular order
    corr = Correspondences(order, targets[order])
    ordinals, positions = densify(g, h, FrameDeformation.zeros(h), corr, 0.5, ADDITIVE)
    assert ordinals.tolist() == sorted(moved.tolist())
    assert np.array_equal(positions, targets[ordinals])


# ---------------------------------------------------------------------------
# Residual norms, axis-major
# ---------------------------------------------------------------------------


def special_rows(dtype) -> np.ndarray:
    """Rows of signed zeros, huge and tiny entries, and sums that round by their order.

    Three rows hold a 1 beside two entries whose squares are each just over
    half its spacing: added to it one at a time they round up twice, added
    to each other first they round up once.
    """
    info = np.finfo(dtype)
    a = 1.5 * 2.0 ** -27
    orders = np.float64([[1.0, a, a], [a, 1.0, a], [a, a, 1.0]])
    return np.concatenate([
        [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 3.0, -0.0], [3.0, -4.0, 12.0]],
        [[info.max, info.max, -info.max], [info.max / 4, 0.0, -0.0]],
        [[info.smallest_subnormal, -info.smallest_subnormal, 0.0],
         [info.tiny, info.tiny, -info.tiny]],
        orders, orders * 2.0 ** 40, orders * 2.0 ** -40,
    ]).astype(dtype)


def extreme_rows(rng, n, dtype):
    """:func:`special_rows`, then n rows of random magnitudes and n of like ones."""
    info = np.finfo(dtype)
    exponents = rng.integers(info.minexp, info.maxexp - 4, (n, 3))  # |normal| < 8 stays in range
    rows = rng.standard_normal((n, 3)) * np.exp2(exponents.astype(np.float64))
    return np.concatenate([special_rows(dtype), rows.astype(dtype),
                           rng.standard_normal((n, 3)).astype(dtype)])


def test_residual_norms_equal_the_row_norm_bit_for_bit(rng):
    rows = extreme_rows(rng, 5000, np.float64)
    with np.errstate(over="ignore"):
        want = np.linalg.norm(rows, axis=1)
        got = fitting.residual_norms(np.ascontiguousarray(rows.T))
    assert np.isinf(want).any() and (want == 0.0).any() and (want < 1e-300).any()
    assert got.tobytes() == want.tobytes()


def test_densify_and_the_mean_error_take_the_row_norm_bit_for_bit(rng):
    pos = extreme_rows(rng, 600, np.float32)
    special = len(special_rows(np.float32))
    targets = extreme_rows(rng, 600, np.float32)[::-1].copy()
    targets[special::3] = pos[special::3]  # zero residuals, signed zeros among them
    targets[:special] = 0.0  # residuals that are the special rows themselves
    g = GaussianSet.from_positions(pos)
    h = build_hierarchy(pos, StreamConfig(levels=1, finest_fraction=0.01))
    idx = rng.permutation(len(pos))
    corr = Correspondences(idx, targets[idx])
    rows = observed_rows(g, h, corr, ADDITIVE)
    zero = FrameDeformation.zeros(h)
    moved, _ = motion.deform_rows(h, zero, rows)
    want = np.linalg.norm(moved.T - corr.targets.astype(np.float64), axis=1)
    # each special residual as the threshold: one that rounds otherwise crosses it
    for threshold in (0.0, float(np.median(want)), *want[idx < special].tolist()):
        ordinals, _ = densify_residuals(h, zero, corr, threshold, rows)
        assert ordinals.tolist() == sorted(idx[want > threshold].tolist())
    state = SceneState(g)
    picks = [np.arange(len(idx))] + [[row] for row in np.flatnonzero(idx < special)]
    for pick in picks:  # all rows, and each special row alone: a mean of many hides a last bit
        got = session._mean_position_error(state, idx[pick], rows.targets[:, pick])
        assert got == float(want[pick].mean())
