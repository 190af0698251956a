"""Deformation math: the one forward, its application, and inheritance.

Per-frame motion is carried by per-level anchor transforms: a translation
increment and a rotation increment d per anchor, where d stands for the unit
rotation normalize((1,0,0,0) + d). :func:`deform_rows` is the only code that
moves gaussians by those deltas. It applies the levels coarse to fine, in
float64. Pivot mode rotates each level's cluster members about their
anchor's frame-start position, then translates them. Additive mode moves
positions only: a gaussian shifts by the sum of its anchors' translations,
and its rotation increments must be zero. :func:`apply_deformation` runs the
forward over every gaussian to advance the mirrored state; the fit's loss
and the densify residuals in :mod:`anchorstream.fitting` run it over the
observed gaussians. The rotation kernels ``_rotate``, ``_rotation_terms``,
``_cross`` and ``_dot`` live here for both, and so does :func:`level_step`,
one level of the walk, which the fit's pivot sweep also moves its rows with.

The forward is split in two. :func:`gather_rows` reads what does not depend
on the deltas into a :class:`GatheredRows`: the rows' positions, each
level's anchor ordinals and, in pivot mode, each level's pivot centers.
:func:`deform_rows` then walks the levels with the deltas, one
:func:`level_step` per level. The mode reaches the walk only through the
gathered rows: a level whose pivot centers they hold rotates about them
and translates, any other level only translates. The fit gathers its
observed rows once per frame and walks them for every candidate it
evaluates.

The walk works axis-major in both modes: positions and offsets as (3, R)
arrays, quaternions as (4, R), one contiguous row per component, so each
kernel term is one 1-D ufunc over contiguous memory instead of a strided
(R, 1) column slice. It keeps every bit of the row-major form, because
each element still sees the same operations in the same order: the kernels
spell out every product, sum and difference that the row-major expressions
made, and the 3-term dot product adds left to right onto +0.0 as numpy's
row reduction did. Only the memory layout changed. The positions it
returns stay axis-major, (3, R): the fit's residuals, gradients and norms
read them row by row, and only the loss's sum and
:func:`apply_deformation`'s float32 positions interleave them into (R, 3).
Beside them, pivot mode returns each level's (4, R) row rotations, which
:func:`apply_deformation` composes into the orientations.

Inheritance transfers deltas from a retiring hierarchy to a freshly built one,
increments in and increments out: translations average arithmetically over
the three matched legacy anchors, and rotations average as the dominant
eigenvector of the summed outer products of their unit quaternions, which is
the standard chordal quaternion mean. The eigenvectors come from
:func:`dominant_eigenvectors`, one batched ``eigh``, which the fit's
per-anchor rotation solve shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateQuaternionError
from .hierarchy import AnchorHierarchy
from .types import CompositionMode, GaussianSet

_DEGENERATE_NORM = 1e-8


# ---------------------------------------------------------------------------
# Quaternion helpers (w, x, y, z convention), float64 vectorized
# ---------------------------------------------------------------------------


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, np.float64)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    return q / norm


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices for unit quaternions; shape (..., 3, 3)."""
    q = np.asarray(q, np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * float(angle)
    return np.concatenate([[np.cos(half)], np.sin(half) * axis / norm])


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip sign so the first nonzero component is positive (deterministic).

    Works on the last axis, so a stack of vectors is fixed row by row.
    """
    v = np.asarray(v, np.float64)
    first = np.take_along_axis(v, np.argmax(v != 0.0, axis=-1)[..., None], axis=-1)
    return np.where(first < 0.0, -v, v)


def dominant_eigenvectors(matrices: np.ndarray) -> np.ndarray:
    """The unit eigenvector of each symmetric matrix's largest eigenvalue.

    One batched ``eigh`` over a (..., k, k) stack, each vector in
    :func:`canonical_sign`, as a (..., k) float64 array. Rotation averaging
    in :func:`inherit_deformation` and the fit's per-anchor rotation solve
    (:mod:`anchorstream.fitting`) both take their unit quaternions here.
    """
    _, vectors = np.linalg.eigh(matrices)
    return canonical_sign(vectors[..., -1])


# ---------------------------------------------------------------------------
# Deformation containers
# ---------------------------------------------------------------------------


@dataclass
class AnchorDeltaSet:
    """Per-anchor transform increments for one hierarchy level."""

    translations: np.ndarray  # (A, 3) float32
    rotations: np.ndarray  # (A, 4) float32

    def __post_init__(self):
        self.translations = np.ascontiguousarray(self.translations, np.float32)
        self.rotations = np.ascontiguousarray(self.rotations, np.float32)
        if self.translations.ndim != 2 or self.translations.shape[1] != 3:
            raise ValueError(f"translations must be (A, 3), got {self.translations.shape}")
        if self.rotations.shape != (self.translations.shape[0], 4):
            raise ValueError("rotations must be (A, 4) matching translations")
        if not np.isfinite(self.translations).all() or not np.isfinite(self.rotations).all():
            raise ValueError("anchor deltas must be finite")

    def __len__(self) -> int:
        return self.translations.shape[0]

    @classmethod
    def zeros(cls, count: int) -> "AnchorDeltaSet":
        return cls(np.zeros((count, 3), np.float32), np.zeros((count, 4), np.float32))


@dataclass
class FrameDeformation:
    """Everything one frame carries: per-level deltas plus relocation records.

    Record k moves gaussian ``relocation_ordinals[k]`` (K,) int64 to
    ``relocation_positions[k]`` (K, 3) float32 after the frame's
    deformation. The ordinals strictly increase, so no gaussian is named
    twice and no write order decides a state.
    """

    per_level: list[AnchorDeltaSet]
    relocation_ordinals: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    relocation_positions: np.ndarray = field(default_factory=lambda: np.empty((0, 3), np.float32))

    def __post_init__(self):
        self.relocation_ordinals = np.ascontiguousarray(self.relocation_ordinals, np.int64)
        self.relocation_positions = np.ascontiguousarray(self.relocation_positions, np.float32)
        ordinals = self.relocation_ordinals
        k = ordinals.shape[0]
        if ordinals.shape != (k,) or self.relocation_positions.shape != (k, 3):
            raise ValueError("relocation ordinals must be (K,) and relocation positions (K, 3)")
        if k == 0:  # no records, as on every fit candidate: nothing left to check
            return
        if (ordinals < 0).any():
            raise ValueError("relocation ordinals must be non-negative")
        if (ordinals[1:] <= ordinals[:-1]).any():
            raise ValueError("relocation ordinals must be strictly increasing")
        if not np.isfinite(self.relocation_positions).all():
            raise ValueError("relocation positions must be finite")

    @classmethod
    def zeros(cls, hierarchy: AnchorHierarchy) -> "FrameDeformation":
        return cls([AnchorDeltaSet.zeros(lvl.anchor_count) for lvl in hierarchy.levels])


def _check_consistent(hierarchy: AnchorHierarchy, deltas: FrameDeformation) -> None:
    if len(deltas.per_level) != hierarchy.level_count:
        raise ValueError(
            f"deformation has {len(deltas.per_level)} levels, hierarchy has {hierarchy.level_count}"
        )
    for lvl, ds in zip(hierarchy.levels, deltas.per_level):
        if len(ds) != lvl.anchor_count:
            raise ValueError(
                f"level {lvl.level}: {len(ds)} delta entries for {lvl.anchor_count} anchors"
            )


# ---------------------------------------------------------------------------
# The deformation forward and its application
# ---------------------------------------------------------------------------


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise a x b for axis-major (3, n) vectors, in ``np.cross``'s operation order."""
    out = np.empty((3, a.shape[1]))
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise a . b of axis-major (3, n) vectors, as (n,).

    Bit-equal to the row-major ``(a.T * b.T).sum(axis=1)``: that reduction
    adds the three products left to right onto +0.0, so a column of -0.0
    products sums to +0.0; the trailing ``+ 0.0`` does the same.
    """
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    out += 0.0
    return out


def _rotation_terms(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms ``w*w - v.v`` and ``2w`` of axis-major (4, n) unit quaternions, as (n,) each."""
    w = q[0]
    return w * w - _dot(q[1:], q[1:]), 2.0 * w


def _rotate(v: np.ndarray, u: np.ndarray, scale: np.ndarray, two_w: np.ndarray) -> np.ndarray:
    """R(q) u for axis-major (3, n) vectors, given q's vector part v and its terms.

    ``scale`` and ``two_w`` are :func:`_rotation_terms` of q. The vector form
    of the rotation, ((w*w - v.v) u + (2 v.u) v) + (2w) (v x u), with each
    term's operation order fixed. Passing -v rotates by the conjugate, R(q)^T,
    which shares q's terms.
    """
    cross = _cross(v, u)
    out = scale * u
    out += (2.0 * _dot(v, u)) * v
    out += two_w * cross
    return out


def level_unit_quats(rotations: np.ndarray) -> np.ndarray:
    """Pivot rotation per anchor: normalize((1,0,0,0) + delta), float64 (A, 4)."""
    q = rotations.astype(np.float64)  # always a copy
    q[:, 0] += 1.0
    norms = np.linalg.norm(q, axis=1)
    if (norms < _DEGENERATE_NORM).any():
        bad = int(np.argmax(norms < _DEGENERATE_NORM))
        raise DegenerateQuaternionError(f"pivot increment for anchor {bad} has norm {norms[bad]:.3g}")
    return q / norms[:, None]


class GatheredRows(NamedTuple):
    """What :func:`deform_rows` reads of the state for a set of rows, whatever the deltas.

    Built by :func:`gather_rows`. ``positions`` are the rows' frame-start
    positions as an axis-major float64 (3, R) array, in both modes.
    ``members`` holds each level's ``assignment[rows]``. ``centers`` holds,
    in pivot mode only, each level's (3, R) float64 pivot positions, the
    frame-start positions of the rows' anchors; it is None in additive mode,
    and that is how the walk knows the mode. ``targets`` holds the rows'
    observed positions, axis-major (3, R) float64, where a fit planned them
    (:func:`anchorstream.fitting.observed_rows`), and is None otherwise; the
    walk does not read it. Nothing here is ever written to, so one gather
    serves any number of walks.
    """

    positions: np.ndarray
    members: list[np.ndarray]
    centers: Optional[list[np.ndarray]]
    targets: Optional[np.ndarray] = None


def gather_rows(gaussians: GaussianSet, hierarchy: AnchorHierarchy, mode: CompositionMode,
                rows: Optional[np.ndarray] = None) -> GatheredRows:
    """Gather ``rows`` (default all) of the state for :func:`deform_rows` in ``mode``."""
    if rows is None:
        pos = gaussians.positions
        members = [lvl.assignment for lvl in hierarchy.levels]
    else:
        pos = np.take(gaussians.positions, rows, axis=0)
        members = [lvl.assignment[rows] for lvl in hierarchy.levels]
    centers = None
    if mode == CompositionMode.pivot:
        centers = []
        for lvl, al in zip(hierarchy.levels, members):
            pivots = np.take(gaussians.positions, lvl.anchor_indices, axis=0).T.astype(np.float64)
            centers.append(np.take(pivots, al, axis=1))
    return GatheredRows(pos.T.astype(np.float64, order="C"), members, centers)


def deform_rows(hierarchy: AnchorHierarchy, deltas: FrameDeformation, rows: GatheredRows,
                ) -> tuple[np.ndarray, Optional[list[np.ndarray]]]:
    """The deformation forward: float64 deformed positions of the gathered ``rows``.

    Levels apply coarse to fine, one :func:`level_step` each: where ``rows``
    hold pivot centers (pivot mode), every row rotates about its anchor's
    frame-start position and then translates; otherwise it only translates,
    so a row moves by the sum of its anchors' translations and rotation
    increments are ignored. Returns the positions, a new axis-major (3, R)
    array the caller may write to, and in pivot mode each level's
    axis-major (4, R) float64 row rotations, unit quaternions (None in
    additive mode); nothing is modified, ``rows`` included. ``deltas`` must hold as many entries per level as the
    hierarchy has anchors; otherwise ``ValueError`` names the first level
    that fails.
    """
    _check_consistent(hierarchy, deltas)
    pos, rotations = rows.positions, []
    for ds, al, centers in zip(deltas.per_level, rows.members,
                               rows.centers or [None] * len(rows.members)):
        pos, member_q = level_step(pos, ds.translations, ds.rotations, al, centers)
        rotations.append(member_q)
    return pos, None if rows.centers is None else rotations


def member_rotations(q: np.ndarray, members: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level's pivot rotations per row, with their rotation terms.

    ``q`` is the level's (A, 4) rotation increments and ``members`` the
    rows' anchor ordinals. Returns the rows' axis-major (4, R) unit
    quaternions (:func:`level_unit_quats` of their anchors) and their
    :func:`_rotation_terms`.
    """
    unit = np.ascontiguousarray(level_unit_quats(q).T)
    member_q = np.take(unit, members, axis=1)
    scale, two_w = _rotation_terms(member_q)
    return member_q, scale, two_w


def level_step(pos: np.ndarray, t: np.ndarray, q: np.ndarray, members: np.ndarray,
               centers: Optional[np.ndarray]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One level of the forward on axis-major (3, R) rows.

    Given pivot ``centers`` (3, R), rotates each row about its anchor's
    pivot by the anchor's rotation increment in ``q`` (A, 4), then
    translates it by its row of ``t`` (A, 3). Given None, only translates:
    it never runs the pivot arithmetic there, since (p - c) + c need not be
    p in floating point. Returns the moved rows, a new (3, R) float64
    array, and the rows' (4, R) unit quaternions (None without centers).
    """
    shift = np.take(t.T.astype(np.float64), members, axis=1)
    if centers is None:
        shift += pos  # a new array, and t + p is p + t bit for bit
        return shift, None
    member_q, scale, two_w = member_rotations(q, members)
    pos = _rotate(member_q[1:], pos - centers, scale, two_w)
    pos += centers
    pos += shift
    return pos, member_q


def apply_deformation(gaussians: GaussianSet, hierarchy: AnchorHierarchy,
                      deltas: FrameDeformation, mode: CompositionMode) -> GaussianSet:
    """Deform all gaussians by one frame's deltas; appearance stays frozen.

    Positions are :func:`deform_rows` of every row, gathered here in
    ``mode``, interleaved into (N, 3) and cast to float32. The frozen
    columns (scales, opacities, sh) are not copied: the result shares the
    input's arrays, which a session holds read-only, so no frame can change
    them. Additive mode copies the
    orientations unchanged; a nonzero rotation increment raises
    ``ValueError``, since additive frames carry none. Pivot mode composes
    each orientation with the row's rotation at every level, coarse level
    first, by quaternion multiplication.
    """
    if mode == CompositionMode.additive and any(ds.rotations.any() for ds in deltas.per_level):
        raise ValueError("additive deformations carry no rotations, but one is nonzero")
    pos, rotations = deform_rows(hierarchy, deltas, gather_rows(gaussians, hierarchy, mode))
    if mode == CompositionMode.pivot:
        orient = gaussians.orientations.astype(np.float64)
        for member_q in rotations:
            orient = quat_multiply(member_q.T, orient)
        orientations = quat_normalize(orient).astype(np.float32)
    else:
        orientations = gaussians.orientations.copy()
    # np.stack interleaves the axes faster than a transposed copy
    return GaussianSet(np.stack(pos, axis=1).astype(np.float32), gaussians.scales, orientations,
                       gaussians.opacities, gaussians.sh)


# ---------------------------------------------------------------------------
# Inheritance
# ---------------------------------------------------------------------------


def inherit_deformation(legacy: AnchorDeltaSet, neighbor_map: np.ndarray) -> AnchorDeltaSet:
    """Seed a reconfigured level's deltas from its three matched legacy anchors.

    Increments in, increments out. Translations take the arithmetic mean.
    Rotations are averaged as the unit quaternions q = normalize((1,0,0,0) + d)
    the increments stand for; q and -q give the same q q^T, so their signs
    do not matter. The mean is the dominant eigenvector of sum(q q^T) with
    canonical sign (so w >= 0), one batched ``eigh`` over the anchors that
    have a rotation to average (:func:`dominant_eigenvectors`; none in an
    additive session), and it goes back as the increment mean - (1,0,0,0).
    Both the unit quaternions and their mean are rounded to float32, the
    precision of a delta row.
    Exactly-zero legacy rows ("no rotation observed") are left out of the
    average; if all three are zero the inherited row is zero as well, since
    the eigenvector of a zero matrix is undefined.
    """
    if len(legacy) == 0:
        raise ValueError("inheritance requires a non-empty legacy level")
    nbr = np.asarray(neighbor_map, np.int64)
    if nbr.ndim != 2 or nbr.shape[1] != 3:
        raise ValueError(f"neighbor map must be (A, 3), got {nbr.shape}")
    if (nbr < 0).any() or (nbr >= len(legacy)).any():
        raise ValueError("neighbor map references invalid legacy ordinals")

    trans64 = legacy.translations.astype(np.float64)
    new_trans = (trans64[nbr[:, 0]] + trans64[nbr[:, 1]] + trans64[nbr[:, 2]]) / 3.0

    moved = legacy.rotations.any(axis=1)
    unit = level_unit_quats(legacy.rotations)
    unit[~moved] = 0.0
    # a zero row adds a zero outer product, which is the skip rule
    picks = unit.astype(np.float32).astype(np.float64)[nbr]  # (A, 3, 4)
    outer = np.einsum("akp,akq->apq", picks, picks)
    observed = moved[nbr].any(axis=1)
    new_rot = np.zeros((nbr.shape[0], 4))
    new_rot[observed] = dominant_eigenvectors(outer[observed]).astype(np.float32)
    new_rot[observed, 0] -= 1.0
    return AnchorDeltaSet(new_trans.astype(np.float32), new_rot)
