"""Two-phase frame optimization against positional correspondences.

Phase 1 fits all per-level anchor deltas jointly by momentum gradient descent
on a mean squared position error; appearance and scale never change. The
optimizer's settings are fixed: a learning rate of 1e-2 and momentum 0.9,
with each anchor's step preconditioned by its cluster size. Phase 2
densifies: correspondences whose residual stays above a threshold spawn a
clone of the source gaussian at the observed target position.

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
the backward pass. Gradients are exact analytic derivatives, computed in float64 and verified
against central finite differences in the test suite.

The pivot backward is axis-major like the forward: it transposes the
upstream gradient once per call to (3, R) and peels the levels' (4, R)
rotations off it with the same kernels. Every element keeps the row-major
form's operation order, and each bucket sum is still one ``np.bincount``
per component in ascending row order, so the loss and the gradients are the
same bits (``tests/oracles.py`` keeps the row-major form as a reference).
The gradients come back row-major, shaped like the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hierarchy import AnchorHierarchy
from .kernels import sum_by_index
from .motion import AnchorDeltaSet, FrameDeformation, _cross, _dot, _rotate, deform_rows
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


def _rotation_grad(g: np.ndarray, q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d(loss)/d(unit quaternion) given upstream gradient g on R(q) u.

    Axis-major: (3, n) g and u and (4, n) q in, (4, n) out.
    """
    w = q[0]
    v = q[1:]
    out = np.empty((4, g.shape[1]))
    dw = (2.0 * w) * u
    dw += 2.0 * _cross(v, u)
    out[0] = _dot(g, dw)
    # d(Ru)/dv = 2(-u v^T + v u^T + (v.u) I - w [u]_x); contract with g
    gv = out[1:]
    np.multiply(-2.0 * _dot(g, u), v, out=gv)
    gv += (2.0 * _dot(g, v)) * u
    gv += (2.0 * _dot(v, u)) * g
    gv -= (2.0 * w) * _cross(g, u)
    return out


def loss_and_gradient(gaussians: GaussianSet, hierarchy: AnchorHierarchy,
                      deltas: FrameDeformation, corr: Correspondences,
                      mode: CompositionMode = CompositionMode.additive,
                      ) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean squared position error and its exact per-delta gradients.

    Returns float64 gradients shaped like the deltas: one (A, 3) translation
    and one (A, 4) rotation gradient per level.
    """
    if len(corr) == 0:
        raise ValueError("correspondences must be non-empty")
    pos, levels = deform_rows(gaussians, hierarchy, deltas, mode, corr.indices)
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
        al, member_q = level.members, level.rotations
        gt = sum_by_index(g.T, al, lvl.anchor_count)
        gq_member = _rotation_grad(g, member_q, level.offsets)
        gq_anchor = sum_by_index(gq_member.T, al, lvl.anchor_count)
        # chain through q_hat = y / |y| with y = (1,0,0,0) + delta
        # row-major (A, 4) like gq_anchor, so each row sums in the same order
        unit = np.ascontiguousarray(level.anchor_rotations.T)
        proj = (gq_anchor * unit).sum(axis=1, keepdims=True)
        gq = (gq_anchor - unit * proj) / level.anchor_norms[:, None]
        grads[li] = (gt, gq)
        # upstream gradient through the rotation: g <- R(q)^T g
        # R(q)^T x = R(q*) x, conjugate quaternion flips the vector part
        conj = np.concatenate([member_q[:1], -member_q[1:]])
        g = _rotate(conj, g)
    return loss, grads


# ---------------------------------------------------------------------------
# Momentum descent with a monotone safeguard
# ---------------------------------------------------------------------------


def _pack(grads_or_deltas: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([t.ravel(), q.ravel()]) for t, q in grads_or_deltas])


def _unpack(vec: np.ndarray, counts: Sequence[int]) -> FrameDeformation:
    """The float32 deltas of a packed vector; ``AnchorDeltaSet`` casts them."""
    out = []
    off = 0
    for a in counts:
        t = vec[off:off + 3 * a].reshape(a, 3)
        off += 3 * a
        q = vec[off:off + 4 * a].reshape(a, 4)
        off += 4 * a
        out.append(AnchorDeltaSet(t, q))
    return FrameDeformation(out)


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
    """
    counts = hierarchy.anchor_counts()

    def evaluate(vec: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grads = loss_and_gradient(gaussians, hierarchy, _unpack(vec, counts), corr, mode)
        return loss, _pack(grads)

    x = _pack([(ds.translations.astype(np.float64), ds.rotations.astype(np.float64))
               for ds in init.per_level])
    scale = _precondition_scale(hierarchy, corr)
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


def _precondition_scale(hierarchy: AnchorHierarchy, corr: Correspondences) -> np.ndarray:
    """Inverse diagonal translation Hessian per anchor, broadcast to all entries."""
    c = len(corr)
    parts = []
    for lvl in hierarchy.levels:
        members = np.bincount(lvl.assignment[corr.indices],
                              minlength=lvl.anchor_count).astype(np.float64)
        s = c / (2.0 * np.maximum(members, 1.0))
        parts.append(np.repeat(s[:, None], 3, axis=1).ravel())
        parts.append(np.repeat(s[:, None], 4, axis=1).ravel())
    return np.concatenate(parts)


def densify_residuals(gaussians: GaussianSet, hierarchy: AnchorHierarchy,
                      deltas: FrameDeformation, corr: Correspondences,
                      threshold: float,
                      mode: CompositionMode = CompositionMode.additive,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Pick the clones for targets whose residual exceeds the threshold.

    Returns, per clone, the index of the gaussian it copies (K,) and the
    observed target it sits at (K, 3). The session builds each clone from
    its source's scale, orientation, opacity, and SH. Nothing is ever
    pruned: opacity never changes without photometric training, so there is
    no signal to prune on.
    """
    pos, _ = deform_rows(gaussians, hierarchy, deltas, mode, corr.indices)
    residual = np.linalg.norm(pos - corr.targets.astype(np.float64), axis=1)
    picked = np.nonzero(residual > threshold)[0]
    return corr.indices[picked], corr.targets[picked]
