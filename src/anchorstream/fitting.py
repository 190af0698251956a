"""Two-phase frame optimization against positional correspondences.

Phase 1 fits all per-level anchor deltas jointly by momentum gradient descent
on a mean squared position error; appearance and scale never change. The
optimizer's settings are fixed: a learning rate of 1e-2 and momentum 0.9,
with each anchor's step preconditioned by its cluster size. Phase 2
densifies: correspondences whose residual stays above a threshold spawn a
clone of the source gaussian at the observed target position.

Supervision here is geometric (observed target positions per gaussian), which
stands in for photometric rendering losses; rendering is out of scope for
this package. In additive mode positions do not depend on the rotation
increments, so their gradient is exactly zero and the fit leaves them at
their zero start.

Gradients are exact analytic derivatives, computed in float64 and verified
against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .hierarchy import AnchorHierarchy
from .kernels import sum_by_index
from .motion import AnchorDeltaSet, FrameDeformation, level_unit_quats
from .types import CompositionMode, GaussianSet

_DIVERGENCE_FACTOR = 1e6
_LEARNING_RATE = 1e-2
_MOMENTUM = 0.9


@dataclass
class Correspondences:
    """Observed target positions for a subset of gaussian indices."""

    indices: np.ndarray  # (C,) int64, unique
    targets: np.ndarray  # (C, 3) float32

    def __post_init__(self):
        self.indices = np.ascontiguousarray(self.indices, np.int64)
        self.targets = np.ascontiguousarray(self.targets, np.float32)
        if self.indices.shape[0] != self.targets.shape[0]:
            raise ValueError("indices and targets must have equal length")
        if np.unique(self.indices).shape[0] != self.indices.shape[0]:
            raise ValueError("correspondence indices must be unique")

    def __len__(self) -> int:
        return self.indices.shape[0]


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _level_arrays(deltas: FrameDeformation) -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (ds.translations.astype(np.float64), ds.rotations.astype(np.float64))
        for ds in deltas.per_level
    ]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b for (n, 3) rows, in ``np.cross``'s operation order."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    out = np.empty((a.shape[0], 3))
    np.subtract(a1 * b2, a2 * b1, out=out[:, 0])
    np.subtract(a2 * b0, a0 * b2, out=out[:, 1])
    np.subtract(a0 * b1, a1 * b0, out=out[:, 2])
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b as (n, 1), bit-equal to ``(a * b).sum(axis=1, keepdims=True)``.

    That reduction adds the three products left to right onto +0.0, so a
    row of -0.0 products sums to +0.0; the trailing ``+ 0.0`` does the same.
    """
    p = a * b
    return ((p[:, 0:1] + p[:, 1:2]) + p[:, 2:3]) + 0.0


def _rotate(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """R(q) u for unit quaternions, via the vector form of the rotation."""
    w = q[:, :1]
    v = q[:, 1:]
    return (w * w - _dot(v, v)) * u + 2.0 * _dot(v, u) * v + 2.0 * w * _cross(v, u)


def _anchor_pivots(gaussians: GaussianSet, hierarchy: AnchorHierarchy) -> list[np.ndarray]:
    """Frame-start anchor positions per level (float64)."""
    return [np.take(gaussians.positions, lvl.anchor_indices, axis=0).astype(np.float64)
            for lvl in hierarchy.levels]


def _forward_positions(base: np.ndarray, level_arrays, assign, pivots, mode):
    """Deformed float64 positions for the selected gaussians.

    For pivot mode also returns the per-level context needed by the backward
    pass: member unit quaternions, pre-rotation offsets, and per-anchor
    normalization data.
    """
    if mode == CompositionMode.additive:
        pos = base.copy()
        for (trans, _), al in zip(level_arrays, assign):
            pos += np.take(trans, al, axis=0)
        return pos, None

    pos = base.copy()
    ctx = []
    for (trans, rot), al, piv in zip(level_arrays, assign, pivots):
        unit, norms = level_unit_quats(rot)
        member_q = np.take(unit, al, axis=0)
        centers = np.take(piv, al, axis=0)
        u = pos - centers
        pos = _rotate(member_q, u) + centers + np.take(trans, al, axis=0)
        ctx.append((member_q, u, unit, norms))
    return pos, ctx


def _rotation_grad(g: np.ndarray, q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d(loss)/d(unit quaternion) given upstream gradient g on R(q) u."""
    w = q[:, :1]
    v = q[:, 1:]
    out = np.empty((g.shape[0], 4))
    out[:, 0:1] = _dot(g, 2.0 * w * u + 2.0 * _cross(v, u))
    # d(Ru)/dv = 2(-u v^T + v u^T + (v.u) I - w [u]_x); contract with g
    out[:, 1:] = (
        -2.0 * _dot(g, u) * v
        + 2.0 * _dot(g, v) * u
        + 2.0 * _dot(v, u) * g
        - 2.0 * w * _cross(g, u)
    )
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
    level_arrays = _level_arrays(deltas)
    if len(level_arrays) != hierarchy.level_count:
        raise ValueError("deltas do not match hierarchy level count")
    for lvl, (trans, _) in zip(hierarchy.levels, level_arrays):
        if trans.shape[0] != lvl.anchor_count:
            raise ValueError(f"level {lvl.level} deltas do not match anchor count")

    idx = corr.indices
    assign = [lvl.assignment[idx] for lvl in hierarchy.levels]
    base = np.take(gaussians.positions, idx, axis=0).astype(np.float64)
    targets = corr.targets.astype(np.float64)
    c = len(corr)

    pivots = _anchor_pivots(gaussians, hierarchy)
    pos, ctx = _forward_positions(base, level_arrays, assign, pivots, mode)
    r = pos - targets
    loss = float((r * r).sum() / c)
    g = (2.0 / c) * r

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * hierarchy.level_count
    if mode == CompositionMode.additive:
        for li, (lvl, al) in enumerate(zip(hierarchy.levels, assign)):
            gt = sum_by_index(g, al, lvl.anchor_count)
            grads[li] = (gt, np.zeros((lvl.anchor_count, 4)))
        return loss, grads

    # pivot: walk levels fine-to-coarse, peeling one rotation at a time
    for li in range(hierarchy.level_count - 1, -1, -1):
        lvl = hierarchy.levels[li]
        al = assign[li]
        member_q, u, unit, norms = ctx[li]
        gt = sum_by_index(g, al, lvl.anchor_count)
        gq_member = _rotation_grad(g, member_q, u)
        gq_anchor = sum_by_index(gq_member, al, lvl.anchor_count)
        # chain through q_hat = y / |y| with y = (1,0,0,0) + delta
        proj = (gq_anchor * unit).sum(axis=1, keepdims=True)
        gq = (gq_anchor - unit * proj) / norms[:, None]
        grads[li] = (gt, gq)
        # upstream gradient through the rotation: g <- R(q)^T g
        w = member_q[:, :1]
        v = member_q[:, 1:]
        # R(q)^T x = R(q*) x, conjugate quaternion flips the vector part
        conj = np.concatenate([w, -v], axis=1)
        g = _rotate(conj, g)
    return loss, grads


# ---------------------------------------------------------------------------
# Momentum descent with a monotone safeguard
# ---------------------------------------------------------------------------


def _pack(grads_or_deltas: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([t.ravel(), q.ravel()]) for t, q in grads_or_deltas])


def _unpack(vec: np.ndarray, counts: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    off = 0
    for a in counts:
        t = vec[off:off + 3 * a].reshape(a, 3)
        off += 3 * a
        q = vec[off:off + 4 * a].reshape(a, 4)
        off += 4 * a
        out.append((t, q))
    return out


def _to_deformation(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> FrameDeformation:
    return FrameDeformation(
        [AnchorDeltaSet(t.astype(np.float32), q.astype(np.float32)) for t, q in pairs]
    )


def fit_frame(gaussians: GaussianSet, hierarchy: AnchorHierarchy, corr: Correspondences,
              init: FrameDeformation, steps: int,
              mode: CompositionMode = CompositionMode.additive) -> FrameDeformation:
    """Fit all per-level deltas jointly; returns deltas with loss <= initial.

    Momentum gradient descent over ``steps`` steps (zero returns ``init``),
    with a monotone safeguard: a step that would raise the loss restarts
    momentum (velocity reset) and retries as a plain gradient step; if that
    still raises the loss, the step is skipped. The state itself is never
    touched - only the returned deltas.

    Each anchor's gradient block is scaled by the inverse of its cluster's
    correspondence count, i.e. the inverse diagonal of the translation
    Hessian. Without it, anchors with few members take steps proportional to
    their share of the mean loss and effectively stall.
    """
    counts = [lvl.anchor_count for lvl in hierarchy.levels]

    def evaluate(vec: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grads = loss_and_gradient(
            gaussians, hierarchy, _to_deformation(_unpack(vec, counts)), corr, mode
        )
        return loss, _pack(grads)

    x = _pack(_level_arrays(init))
    scale = _precondition_scale(hierarchy, corr, counts)
    loss0, grad = evaluate(x)
    loss_cur = loss0
    velocity = np.zeros_like(x)

    for step in range(steps):
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
        if loss_cur > _DIVERGENCE_FACTOR * max(loss0, 1e-30):
            raise NumericalError(
                f"fit diverged at step {step}: loss {loss_cur:.3e} vs initial {loss0:.3e}"
            )
    return _to_deformation(_unpack(x, counts))


def _precondition_scale(hierarchy: AnchorHierarchy, corr: Correspondences, counts) -> np.ndarray:
    """Inverse diagonal translation Hessian per anchor, broadcast to all entries."""
    c = len(corr)
    parts = []
    for lvl, a in zip(hierarchy.levels, counts):
        members = np.bincount(lvl.assignment[corr.indices], minlength=a).astype(np.float64)
        s = c / (2.0 * np.maximum(members, 1.0))
        parts.append(np.repeat(s[:, None], 3, axis=1).ravel())
        parts.append(np.repeat(s[:, None], 4, axis=1).ravel())
    return np.concatenate(parts)


def deformed_positions(gaussians: GaussianSet, hierarchy: AnchorHierarchy,
                       deltas: FrameDeformation, indices: np.ndarray,
                       mode: CompositionMode = CompositionMode.additive) -> np.ndarray:
    """Float64 deformed positions of selected gaussians (no state change)."""
    idx = np.ascontiguousarray(indices, np.int64)
    assign = [lvl.assignment[idx] for lvl in hierarchy.levels]
    base = np.take(gaussians.positions, idx, axis=0).astype(np.float64)
    pivots = _anchor_pivots(gaussians, hierarchy)
    pos, _ = _forward_positions(base, _level_arrays(deltas), assign, pivots, mode)
    return pos


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
    pos = deformed_positions(gaussians, hierarchy, deltas, corr.indices, mode)
    residual = np.linalg.norm(pos - corr.targets.astype(np.float64), axis=1)
    picked = np.nonzero(residual > threshold)[0]
    return corr.indices[picked], corr.targets[picked]
