"""Two-phase frame fitting against positional correspondences.

Phase 1 fits the per-level anchor deltas to the observed positions by
block coordinate descent (Gauss-Seidel): a sweep solves each level
exactly, coarse to fine, with the other levels held at their current
deltas. The loss is the mean squared position error; appearance and scale
never change. Phase 2 densifies: each gaussian whose residual stays above
a threshold gets a relocation record that moves it to its observed target
position.

- **Additive mode** is linear least squares. A level's solve moves each
  anchor by minus its cluster's mean residual. The sweep works in anchor
  space: the evaluated translation gradients are the clusters' residual
  sums, and a coarser level's update reaches a finer level's sums through
  co-membership counts, built once per fit. Positions do not depend on the
  rotation increments, so the fit leaves those as they start.
- **Pivot mode** maps the targets back through the finer levels, with the
  conjugates of their rotations. Each anchor's rotation and translation
  about its pivot then solve an absolute-orientation problem in closed
  form: the dominant eigenvector of a 4x4 symmetric matrix (B. K. P. Horn,
  "Closed-form solution of absolute orientation using unit quaternions",
  JOSA A 4(4), 1987), one batched ``eigh`` per level. An anchor with fewer
  than 3 observed members keeps its rotation and solves its translation
  only.

The fit has no learning rate or other setting; the sweep count is
``StreamConfig.phase1_steps``. Each sweep's float32 result is evaluated
once: it is kept if the loss does not rise, and otherwise dropped, which
ends the fit. In exact arithmetic no exact block solve raises the loss, so
the guard only catches rounding, degenerate clusters and a solve past
float32 range. The evaluation is :func:`loss_and_gradient`, which
computes only what the sweeps read: the loss, plus the translation
gradients that the next additive sweep starts from.

The fit is warm-started. The session passes the previous frame's applied
deltas as ``init`` (inherited ones at a rebuild), so motion carries from
frame to frame and a few sweeps refine it. The sweeps start from whichever
of ``init`` and zero has the lower loss, ``init`` on a tie, so a start that
points the wrong way (a reversal of motion, an inheritance that blurs it)
can never leave a frame worse than a fit from rest.

Supervision here is geometric (observed target positions per gaussian), which
stands in for photometric rendering losses; rendering is out of scope for
this package.

The loss and the densify residuals move gaussians through
:func:`anchorstream.motion.deform_rows`, the same float64 forward that
advances the mirrored state, and the pivot sweep moves its rows through
each solved level with :func:`anchorstream.motion.level_step`, that
forward's own step; this module holds no forward of its own, only the
loss, its additive gradients and the sweeps. The additive gradients are
exact, computed in float64 and verified against central finite
differences in the test suite.

Each encoded frame plans its evaluations once: :func:`observed_rows`
checks the correspondences and the anchor ordinals against the state and
gathers the observed rows (:func:`anchorstream.motion.gather_rows`).
:func:`fit_frame`, :func:`densify_residuals` and :func:`loss_and_gradient`
take that plan and neither check nor gather; the composition mode reaches
them only through it, as pivot centers held or not. A fit adds each
anchor's member counts and, in additive mode, the co-membership counts.
A sweep solves in float64, and its ``AnchorDeltaSet`` per level rounds
each delta to float32 and checks it finite.
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
    _rotate,
    _rotation_terms,
    deform_rows,
    dominant_eigenvectors,
    gather_rows,
    level_step,
    level_unit_quats,
    member_rotations,
)
from .types import CompositionMode, GaussianSet


@dataclass
class Correspondences:
    """Observed target positions for a subset of gaussian indices."""

    indices: np.ndarray  # (C,) int64, unique, non-negative
    targets: np.ndarray  # (C, 3) float32

    def __post_init__(self):
        indices, targets = np.asarray(self.indices), np.asarray(self.targets)
        if indices.ndim != 1:
            raise ValueError(f"correspondence indices must be 1-D, got shape {indices.shape}")
        if targets.ndim != 2 or targets.shape[1] != 3:
            raise ValueError(f"correspondence targets must have shape (C, 3), got {targets.shape}")
        if indices.dtype.kind == "b":  # numpy would read [True, False] as gaussians 1, 0
            raise ValueError("correspondence indices are a boolean mask; pass np.flatnonzero(mask)")
        if indices.dtype.kind != "i":
            if indices.dtype.kind == "u":  # compared as integers: 2**63 - 1 is no float64
                whole = indices <= np.uint64(np.iinfo(np.int64).max)
            else:  # numpy would truncate 0.7 onto gaussian 0
                as_float = indices.astype(np.float64)
                whole = (np.trunc(as_float) == as_float) & (np.abs(as_float) < 2.0 ** 63)
            bad = np.flatnonzero(~whole)
            if bad.size:
                raise ValueError(f"correspondence index {indices[bad[0]]} is not a whole "
                                 f"number in int64 range")
        self.indices = np.ascontiguousarray(indices, np.int64)
        self.targets = np.ascontiguousarray(targets, np.float32)
        if self.indices.shape[0] != self.targets.shape[0]:
            raise ValueError("indices and targets must have equal length")
        ordered = np.sort(self.indices)
        repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
        if repeated.size:
            raise ValueError(f"correspondence index {ordered[repeated[0]]} appears twice or more")
        negative = self.indices[self.indices < 0]
        if negative.size:  # numpy would wrap it onto a gaussian counted from the end
            raise ValueError(f"correspondence index {negative[0]} is negative")
        bad = np.flatnonzero(~np.isfinite(self.targets).all(axis=1))
        if bad.size:
            raise ValueError(f"correspondence target at row {bad[0]} is not finite")

    def __len__(self) -> int:
        return self.indices.shape[0]


def observed_rows(gaussians: GaussianSet, hierarchy: AnchorHierarchy, corr: Correspondences,
                  mode: CompositionMode) -> GatheredRows:
    """One frame's plan: :func:`anchorstream.motion.gather_rows` of ``corr.indices``, checked.

    ``corr`` must observe at least one gaussian, each below the gaussian
    count; otherwise ``ValueError`` says so, naming the first index past the
    count. Every gaussian's anchor ordinal must lie among its level's
    anchors; otherwise ``ValueError`` names the first level that fails.
    """
    if len(corr) == 0:
        raise ValueError("correspondences must be non-empty")
    past = corr.indices[corr.indices >= len(gaussians)]
    if past.size:
        raise ValueError(f"correspondence index {past[0]} is past the last of "
                         f"{len(gaussians)} gaussians")
    for lvl in hierarchy.levels:
        al = lvl.assignment
        if al.size and (al.min() < 0 or al.max() >= lvl.anchor_count):
            raise ValueError(f"level {lvl.level}: an anchor ordinal is outside "
                             f"[0, {lvl.anchor_count})")
    return gather_rows(gaussians, hierarchy, mode, corr.indices)


# ---------------------------------------------------------------------------
# The loss the sweeps are guarded by (the forward is motion.deform_rows)
# ---------------------------------------------------------------------------


def loss_and_gradient(hierarchy: AnchorHierarchy, deltas: FrameDeformation,
                      corr: Correspondences, rows: GatheredRows,
                      ) -> tuple[float, Optional[list[np.ndarray]]]:
    """Mean squared position error and, in additive mode, its translation gradients.

    ``rows`` is :func:`observed_rows` of ``corr``. Additive mode returns the
    loss and one float64 (A, 3) translation gradient per level, the exact
    derivative the next additive sweep starts from; rotation increments do
    not move additive rows. Pivot mode (``rows`` hold pivot centers)
    returns ``(loss, None)``: its sweeps solve each anchor in closed form
    and read only the loss. :func:`fit_frame` calls this once per start it
    weighs and once per sweep, and the benchmark harness counts the fit's
    evaluations by this name, so it keeps the name in both modes.
    """
    pos, _ = deform_rows(hierarchy, deltas, rows)
    r = pos - corr.targets.astype(np.float64)
    c = len(corr)
    loss = float((r * r).sum() / c)
    if rows.centers is not None:
        return loss, None
    g = (2.0 / c) * r
    return loss, [sum_by_index(g, al, lvl.anchor_count)
                  for al, lvl in zip(rows.members, hierarchy.levels)]


# ---------------------------------------------------------------------------
# Exact per-level block solves, swept coarse to fine
# ---------------------------------------------------------------------------


def _additive_sweep(hierarchy: AnchorHierarchy, members: Sequence[np.ndarray], c: int):
    """Plan the additive sweep for ``c`` rows with each level's anchor ordinals ``members``.

    A level's exact update, the other levels held, moves each anchor by
    minus its cluster's mean residual: its translation gradient times the
    inverse Hessian c / (2 n), with n the cluster's row count. The sweep
    starts from the translation gradients evaluated at its start. An update
    of a coarser level changes a finer anchor's gradient by 2/c times the
    update of each coarser anchor it shares rows with, times the number of
    rows they share. These co-membership counts, one per distinct (finer
    anchor, coarser anchor) pair, are built here once per fit, as flat
    per-component indices into the sweep's updates of all levels, so each
    level gathers its coarser levels' share with one ``np.bincount``.
    Rotation increments do not move additive rows, and the sweep leaves
    them as they are.
    """
    sizes = [lvl.anchor_count for lvl in hierarchy.levels]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    axes = np.arange(3)
    # an anchor that no row observes has a zero gradient; the 1 keeps its step zero
    inverse_hessians = [c / (2.0 * np.maximum(np.bincount(al, minlength=a), 1))[:, None]
                        for al, a in zip(members, sizes)]
    links = [None]
    for fine in range(1, len(sizes)):
        fine_anchor, coarse_anchor, shared = [], [], []
        for coarse in range(fine):
            pairs, count = np.unique(members[fine] * sizes[coarse] + members[coarse],
                                     return_counts=True)
            fine_anchor.append(pairs // sizes[coarse])
            coarse_anchor.append(pairs % sizes[coarse] + starts[coarse])
            shared.append(count)
        links.append(((3 * np.concatenate(fine_anchor)[:, None] + axes).ravel(),
                      (3 * np.concatenate(coarse_anchor)[:, None] + axes).ravel(),
                      np.repeat((2.0 / c) * np.concatenate(shared), 3)))

    def sweep(x: FrameDeformation, grads) -> FrameDeformation:
        updates = np.empty((starts[-1], 3))
        out = []
        for ds, g, inverse_hessian, a, start, link in zip(
                x.per_level, grads, inverse_hessians, sizes, starts, links):
            if link is not None:
                fine_index, coarse_index, weight = link
                g = g + np.bincount(fine_index, weight * np.take(updates, coarse_index),
                                    minlength=3 * a).reshape(a, 3)
            update = updates[start:start + a]
            np.multiply(-inverse_hessian, g, out=update)
            out.append(AnchorDeltaSet(ds.translations + update, ds.rotations))
        return FrameDeformation(out)

    return sweep


def _horn_solve(u: np.ndarray, v: np.ndarray, members: np.ndarray, count: np.ndarray,
                t: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each anchor's rotation and translation that best map its rows' offsets ``u`` onto ``v``.

    ``u`` and ``v`` are axis-major (3, R) offsets from the rows' pivots:
    where the rows stand before the level, and where the finer levels need
    them after it. ``count`` is each anchor's row count. The rotation is
    Horn's closed form: the dominant eigenvector of the 4x4 symmetric
    matrix of the centered cross-covariance (B. K. P. Horn, "Closed-form
    solution of absolute orientation using unit quaternions", JOSA A 4(4),
    1987). An anchor with fewer than 3 rows keeps its rotation increment in
    ``q``. The rotations are rounded to float32 before the translations
    solve against them, as the mean of v minus the rotated mean of u; an
    anchor with no rows keeps its translation in ``t``.
    """
    a = count.shape[0]
    means = sum_by_index(np.concatenate([u, v]).T, members, a) / np.maximum(count, 1)[:, None]
    u = u - np.take(means[:, :3].T, members, axis=1)
    v = v - np.take(means[:, 3:].T, members, axis=1)
    s = sum_by_index((u[:, None] * v[None]).reshape(9, -1).T, members, a).T.reshape(3, 3, a)
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = s
    horn = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, syy - sxx - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, szz - sxx - syy],
    ]).transpose(2, 0, 1)
    solved = count >= 3
    q = q.astype(np.float64)
    q[solved] = dominant_eigenvectors(horn[solved])
    q[solved, 0] -= 1.0
    q = q.astype(np.float32).astype(np.float64)
    unit = np.ascontiguousarray(level_unit_quats(q).T)
    turned = _rotate(unit[1:], np.ascontiguousarray(means[:, :3].T), *_rotation_terms(unit))
    return np.where((count > 0)[:, None], means[:, 3:] - turned.T, t), q


def _pivot_sweep(hierarchy: AnchorHierarchy, rows: GatheredRows, targets: np.ndarray):
    """Plan the pivot sweep for gathered ``rows`` observed at ``targets`` (R, 3).

    The finer levels, held at their deltas, move each row by a rigid map
    y -> Ay + b, so the sweep first maps the targets back through them,
    finest level first: y <- R(q)^T (y - pivot - t) + pivot, with the
    conjugate rotation. Then it solves the levels coarse to fine
    (:func:`_horn_solve`), moving the rows through each solved level with
    :func:`anchorstream.motion.level_step`, the forward's own step, with
    the translations as solved; only the returned deltas are rounded.
    """
    targets = np.ascontiguousarray(targets.T, dtype=np.float64)
    counts = [np.bincount(al, minlength=lvl.anchor_count)
              for al, lvl in zip(rows.members, hierarchy.levels)]

    def sweep(x: FrameDeformation, _) -> FrameDeformation:
        levels, mapped = x.per_level, [targets]
        for ds, al, centers in zip(levels[:0:-1], rows.members[:0:-1], rows.centers[:0:-1]):
            member_q, scale, two_w = member_rotations(ds.rotations, al)
            y = mapped[-1] - centers
            y -= np.take(ds.translations.T, al, axis=1)
            y = _rotate(-member_q[1:], y, scale, two_w)
            y += centers
            mapped.append(y)
        mapped.reverse()
        pos = rows.positions
        out = []
        for ds, al, centers, count, y in zip(levels, rows.members, rows.centers, counts, mapped):
            t, q = _horn_solve(pos - centers, y - centers, al, count, ds.translations, ds.rotations)
            out.append(AnchorDeltaSet(t, q))
            if len(out) < len(levels):
                pos, _ = level_step(pos, t, q, al, centers)
        return FrameDeformation(out)

    return sweep


def fit_frame(hierarchy: AnchorHierarchy, corr: Correspondences, init: FrameDeformation,
              sweeps: int, rows: GatheredRows) -> FrameDeformation:
    """Fit all per-level deltas by ``sweeps`` sweeps; loss <= min(loss(init), loss(zero deltas)).

    ``rows`` is :func:`observed_rows` of ``corr``; the sweeps are pivot
    sweeps where they hold pivot centers and additive sweeps otherwise. The
    sweeps start from ``init`` or from zero deltas, whichever has the lower
    loss; a tie keeps ``init``. Checking zero costs one extra loss
    evaluation, made only when ``init`` is nonzero, and the chosen start's
    translation gradients feed the first additive sweep. Each sweep solves
    every level exactly with the other levels held, coarse to fine, and
    rounds the result to float32. Its candidate is evaluated once and kept
    if the loss does not rise; a sweep that raises the loss, makes it NaN,
    or solves a delta that is not finite in float32 is dropped and ends the
    fit. Zero sweeps return the chosen start. The loss therefore never rises
    above its start. Returns the kept deltas, with no relocation records;
    the state itself is never touched.

    ``init`` must hold as many deltas per level as the hierarchy has
    anchors; otherwise ``ValueError`` names the first level that fails.
    """
    if rows.centers is None:
        sweep = _additive_sweep(hierarchy, rows.members, len(corr))
    else:
        sweep = _pivot_sweep(hierarchy, rows, corr.targets)

    def evaluate(deltas):
        return loss_and_gradient(hierarchy, deltas, corr, rows)

    x = FrameDeformation(init.per_level)
    loss, grads = evaluate(x)
    if any(ds.translations.any() or ds.rotations.any() for ds in x.per_level):
        zero = FrameDeformation.zeros(hierarchy)
        loss_zero, grads_zero = evaluate(zero)
        if loss_zero < loss:
            x, loss, grads = zero, loss_zero, grads_zero

    for _ in range(sweeps):
        try:  # AnchorDeltaSet rejects a delta that is not finite in float32
            with np.errstate(over="ignore"):
                candidate = sweep(x, grads)
        except ValueError:
            break
        loss_candidate, grads_candidate = evaluate(candidate)
        if not loss_candidate <= loss:
            break
        x, loss, grads = candidate, loss_candidate, grads_candidate
    return x


def densify_residuals(hierarchy: AnchorHierarchy, deltas: FrameDeformation,
                      corr: Correspondences, threshold: float, rows: GatheredRows,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Pick the relocation records for targets whose residual exceeds the threshold.

    ``rows`` is :func:`observed_rows` of ``corr``. Returns, in ascending
    ordinal order, the index of each gaussian to move (K,) and the observed
    target it moves to (K, 3). The gaussian keeps its scale, orientation,
    opacity and SH. Nothing is ever pruned or added: opacity never changes
    without photometric training, so there is no signal to prune on, and
    every observed point already has a gaussian.
    """
    pos, _ = deform_rows(hierarchy, deltas, rows)
    residual = np.linalg.norm(pos - corr.targets.astype(np.float64), axis=1)
    picked = np.nonzero(residual > threshold)[0]
    picked = picked[np.argsort(corr.indices[picked])]  # indices are unique
    return corr.indices[picked], corr.targets[picked]
