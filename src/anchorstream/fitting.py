"""Two-phase frame optimization against positional correspondences.

Phase 1 fits all per-level anchor deltas jointly by momentum gradient descent
on a mean squared position error; appearance and scale never change. The
optimizer's settings are fixed: a learning rate of 1e-2 and momentum 0.9,
with each anchor's step preconditioned by its cluster size. Phase 2
densifies: each gaussian whose residual stays above a threshold gets a
relocation record that moves it to its observed target position.

The fit is warm-started. The session passes the previous frame's applied
deltas as ``init`` (inherited ones at a rebuild), so motion carries from
frame to frame and a few steps refine it. The descent starts from whichever
of ``init`` and zero has the lower loss, ``init`` on a tie, so a start that
points the wrong way (a reversal of motion, an inheritance that blurs it)
can never leave a frame worse than a fit from rest.

Supervision here is geometric (observed target positions per gaussian), which
stands in for photometric rendering losses; rendering is out of scope for
this package. In additive mode positions do not depend on the rotation
increments, so their gradient is exactly zero and the fit leaves them at
their zero start.

The loss and the densify residuals move gaussians through
:func:`anchorstream.motion.deform_rows`, the same float64 forward that
advances the mirrored state; this module holds no forward of its own, only
the backward pass. Gradients are exact analytic derivatives, computed in
float64 and verified against central finite differences in the test suite.

Each :func:`fit_frame` call plans its evaluations once. It checks ``init``
and the anchor ordinals against the hierarchy, gathers the observed rows
(:func:`anchorstream.motion.gather_rows`: their positions, anchor ordinals
and pivot centers) and counts each anchor's members for the
preconditioner. Every candidate it then evaluates is rounded to float32,
the precision of a delta, and checked finite once, and goes to
:func:`loss_and_gradient` as per-level array pairs with the gathered rows,
with no delta objects built. The plan is local to the call and is freed
when the fit returns. The loss, the gradients and so the fitted deltas are
the bits that gathering afresh for each evaluation gives.

The pivot backward is axis-major like the forward: it transposes the
upstream gradient once per call to (3, R) and peels the levels' (4, R)
rotations off it with the same kernels. It reuses the terms the forward
kept in each level's :class:`anchorstream.motion.LevelMotion`: v x u,
2 v.u and 2w in the quaternion gradient, and w*w - v.v and 2w in
R(q)^T g, since the conjugate quaternion that undoes a rotation shares
them. R(q)^T g is skipped after the coarsest level, where nothing reads
it. Every element keeps the row-major form's operation order, and each
bucket sum is still one ``np.bincount`` per component in ascending row
order, so the loss and the gradients are the same bits (``tests/oracles.py``
keeps the row-major form as a reference). The gradients come back
row-major, shaped like the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hierarchy import AnchorHierarchy
from .kernels import sum_by_index
from .motion import (
    AnchorDeltaSet,
    FrameDeformation,
    GatheredRows,
    _check_consistent,
    _cross,
    _dot,
    _rotate,
    deform_rows,
    gather_rows,
)
from .types import CompositionMode, GaussianSet

_LEARNING_RATE = 1e-2
_MOMENTUM = 0.9


@dataclass
class Correspondences:
    """Observed target positions for a subset of gaussian indices."""

    indices: np.ndarray  # (C,) int64, unique, non-negative
    targets: np.ndarray  # (C, 3) float32

    def __post_init__(self):
        self.indices = np.ascontiguousarray(self.indices, np.int64)
        self.targets = np.ascontiguousarray(self.targets, np.float32)
        if self.indices.shape[0] != self.targets.shape[0]:
            raise ValueError("indices and targets must have equal length")
        if np.unique(self.indices).shape[0] != self.indices.shape[0]:
            raise ValueError("correspondence indices must be unique")
        negative = self.indices[self.indices < 0]
        if negative.size:  # numpy would wrap it onto a gaussian counted from the end
            raise ValueError(f"correspondence index {negative[0]} is negative")
        bad = np.flatnonzero(~np.isfinite(self.targets).all(axis=1))
        if bad.size:
            raise ValueError(f"correspondence target at row {bad[0]} is not finite")

    def __len__(self) -> int:
        return self.indices.shape[0]


# ---------------------------------------------------------------------------
# Loss and its backward pass (the forward is motion.deform_rows)
# ---------------------------------------------------------------------------


def _rotation_grad(g: np.ndarray, v: np.ndarray, u: np.ndarray, cross: np.ndarray,
                   two_dot: np.ndarray, two_w: np.ndarray) -> np.ndarray:
    """d(loss)/d(unit quaternion) given upstream gradient g on R(q) u.

    Axis-major: (3, n) g, u and q's vector part v, (4, n) out. ``cross``,
    ``two_dot`` and ``two_w`` are the forward's v x u, 2 v.u and 2w
    (:class:`anchorstream.motion.LevelMotion`).
    """
    out = np.empty((4, g.shape[1]))
    dw = two_w * u
    dw += 2.0 * cross
    out[0] = _dot(g, dw)
    # d(Ru)/dv = 2(-u v^T + v u^T + (v.u) I - w [u]_x); contract with g
    gv = out[1:]
    np.multiply(-2.0 * _dot(g, u), v, out=gv)
    gv += (2.0 * _dot(g, v)) * u
    gv += two_dot * g
    gv -= two_w * _cross(g, u)
    return out


def loss_and_gradient(gaussians: GaussianSet, hierarchy: AnchorHierarchy,
                      deltas: FrameDeformation | Sequence[tuple[np.ndarray, np.ndarray]],
                      corr: Correspondences,
                      mode: CompositionMode = CompositionMode.additive, *,
                      rows: Optional[GatheredRows] = None,
                      ) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean squared position error and its exact per-delta gradients.

    Returns float64 gradients shaped like the deltas: one (A, 3) translation
    and one (A, 4) rotation gradient per level. ``rows``, when given, is
    :func:`anchorstream.motion.gather_rows` of ``corr.indices`` in ``mode``,
    and ``deltas`` may then be checked per-level (translations, rotations)
    pairs, as :func:`anchorstream.motion.deform_rows` takes them: this is
    how :func:`fit_frame` evaluates its candidates.
    """
    if len(corr) == 0:
        raise ValueError("correspondences must be non-empty")
    pos, levels = deform_rows(gaussians, hierarchy, deltas, mode,
                              corr.indices if rows is None else rows)
    r = pos - corr.targets.astype(np.float64)
    c = len(corr)
    loss = float((r * r).sum() / c)
    g = (2.0 / c) * r

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * hierarchy.level_count
    if mode == CompositionMode.additive:
        for li, (lvl, level) in enumerate(zip(hierarchy.levels, levels)):
            gt = sum_by_index(g, level.members, lvl.anchor_count)
            grads[li] = (gt, np.zeros((lvl.anchor_count, 4)))
        return loss, grads

    # pivot: walk levels fine-to-coarse, peeling one rotation at a time, with
    # g axis-major (3, R) like the forward's rotations and offsets
    g = np.ascontiguousarray(g.T)
    for li in range(hierarchy.level_count - 1, -1, -1):
        lvl = hierarchy.levels[li]
        level = levels[li]
        al, v = level.members, level.rotations[1:]
        gt = sum_by_index(g.T, al, lvl.anchor_count)
        gq_member = _rotation_grad(g, v, level.offsets, level.cross, level.two_dot, level.two_w)
        gq_anchor = sum_by_index(gq_member.T, al, lvl.anchor_count)
        # chain through q_hat = y / |y| with y = (1,0,0,0) + delta
        # row-major (A, 4) like gq_anchor, so each row sums in the same order
        unit = np.ascontiguousarray(level.anchor_rotations.T)
        proj = (gq_anchor * unit).sum(axis=1, keepdims=True)
        gq = (gq_anchor - unit * proj) / level.anchor_norms[:, None]
        grads[li] = (gt, gq)
        if li:
            # upstream gradient through the rotation: g <- R(q)^T g = R(q*) g;
            # the conjugate q* flips v and shares w*w - v.v and 2w with q
            g, _, _ = _rotate(-v, g, level.scale, level.two_w)
    return loss, grads


# ---------------------------------------------------------------------------
# Momentum descent with a monotone safeguard
# ---------------------------------------------------------------------------


def _pack(grads_or_deltas: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([t.ravel(), q.ravel()]) for t, q in grads_or_deltas])


def _split(vec: np.ndarray, counts: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-level (A, 3) translations and (A, 4) rotations of a packed vector.

    The vector is rounded to float32, the precision of a delta, and must be
    finite there; the pairs are float64 views of the rounded values.
    """
    rounded = vec.astype(np.float32)
    if not np.isfinite(rounded).all():
        raise ValueError("anchor deltas must be finite")
    rounded = rounded.astype(np.float64)
    out = []
    off = 0
    for a in counts:
        t = rounded[off:off + 3 * a].reshape(a, 3)
        off += 3 * a
        q = rounded[off:off + 4 * a].reshape(a, 4)
        off += 4 * a
        out.append((t, q))
    return out


def _unpack(vec: np.ndarray, counts: Sequence[int]) -> FrameDeformation:
    """The float32 deltas of a packed vector."""
    return FrameDeformation([AnchorDeltaSet(t, q) for t, q in _split(vec, counts)])


def fit_frame(gaussians: GaussianSet, hierarchy: AnchorHierarchy, corr: Correspondences,
              init: FrameDeformation, steps: int,
              mode: CompositionMode = CompositionMode.additive) -> FrameDeformation:
    """Fit all per-level deltas jointly; loss <= min(loss(init), loss(zero deltas)).

    The descent starts from ``init`` or from zero deltas, whichever has the
    lower loss; a tie keeps ``init``. Checking zero costs one extra loss
    evaluation, made only when ``init`` is nonzero, and the chosen start's
    gradient feeds the first step. Momentum gradient descent then runs over
    ``steps`` steps (zero returns the chosen start), with a monotone
    safeguard: a step that would raise the loss restarts momentum (velocity
    reset) and retries as a plain gradient step; if that still raises the
    loss, the step is skipped. The loss therefore never rises above its
    start, so the fit cannot diverge and needs no guard; a NaN candidate
    loss fails both comparisons and is skipped too. The state itself is
    never touched - only the returned deltas.

    Each anchor's gradient block is scaled by the inverse of its cluster's
    correspondence count, i.e. the inverse diagonal of the translation
    Hessian. Without it, anchors with few members take steps proportional to
    their share of the mean loss and effectively stall.

    ``init`` must hold as many deltas per level as the hierarchy has
    anchors, and every gaussian's anchor ordinal must lie among its level's
    anchors; otherwise ``ValueError`` names the first level that fails. A
    candidate that is not finite in float32 raises ``ValueError``.
    """
    _check_consistent(hierarchy, init)
    for lvl in hierarchy.levels:
        al = lvl.assignment
        if al.size and (al.min() < 0 or al.max() >= lvl.anchor_count):
            raise ValueError(f"level {lvl.level}: an anchor ordinal is outside "
                             f"[0, {lvl.anchor_count})")
    counts = hierarchy.anchor_counts()
    rows = gather_rows(gaussians, hierarchy, mode, corr.indices)

    def evaluate(vec: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grads = loss_and_gradient(gaussians, hierarchy, _split(vec, counts), corr, mode,
                                        rows=rows)
        return loss, _pack(grads)

    x = _pack([(ds.translations.astype(np.float64), ds.rotations.astype(np.float64))
               for ds in init.per_level])
    scale = _precondition_scale(hierarchy, rows.members, len(corr))
    loss0, grad = evaluate(x)
    if x.any():
        zero = np.zeros_like(x)
        loss_zero, grad_zero = evaluate(zero)
        if loss_zero < loss0:
            x, loss0, grad = zero, loss_zero, grad_zero
    loss_cur = loss0
    velocity = np.zeros_like(x)

    for _ in range(steps):
        eff_grad = grad * scale
        velocity = _MOMENTUM * velocity - _LEARNING_RATE * eff_grad
        cand = x + velocity
        loss_cand, grad_cand = evaluate(cand)
        if loss_cand <= loss_cur:
            x, loss_cur, grad = cand, loss_cand, grad_cand
        else:
            velocity = -_LEARNING_RATE * eff_grad
            cand = x + velocity
            loss_cand, grad_cand = evaluate(cand)
            if loss_cand <= loss_cur:
                x, loss_cur, grad = cand, loss_cand, grad_cand
            else:
                velocity[:] = 0.0
    return _unpack(x, counts)


def _precondition_scale(hierarchy: AnchorHierarchy, members: Sequence[np.ndarray],
                        c: int) -> np.ndarray:
    """Inverse diagonal translation Hessian per anchor, broadcast to all entries.

    ``members`` holds each level's anchor ordinals of the ``c`` observed rows.
    """
    parts = []
    for lvl, al in zip(hierarchy.levels, members):
        count = np.bincount(al, minlength=lvl.anchor_count).astype(np.float64)
        s = c / (2.0 * np.maximum(count, 1.0))
        parts.append(np.repeat(s[:, None], 3, axis=1).ravel())
        parts.append(np.repeat(s[:, None], 4, axis=1).ravel())
    return np.concatenate(parts)


def densify_residuals(gaussians: GaussianSet, hierarchy: AnchorHierarchy,
                      deltas: FrameDeformation, corr: Correspondences,
                      threshold: float,
                      mode: CompositionMode = CompositionMode.additive,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Pick the relocation records for targets whose residual exceeds the threshold.

    Returns, in ascending ordinal order, the index of each gaussian to move
    (K,) and the observed target it moves to (K, 3). The gaussian keeps its
    scale, orientation, opacity and SH. Nothing is ever pruned or added:
    opacity never changes without photometric training, so there is no
    signal to prune on, and every observed point already has a gaussian.
    """
    pos, _ = deform_rows(gaussians, hierarchy, deltas, mode, corr.indices)
    residual = np.linalg.norm(pos - corr.targets.astype(np.float64), axis=1)
    picked = np.nonzero(residual > threshold)[0]
    picked = picked[np.argsort(corr.indices[picked])]  # indices are unique
    return corr.indices[picked], corr.targets[picked]
