"""Explicit motion composition, deformation application, and inheritance.

Per-frame motion is carried by per-level anchor transforms: a translation
increment and a raw quaternion increment per anchor. Two application modes
exist. Additive mode moves positions only: a gaussian shifts by the sum of
its assigned anchors' translations across levels, and its rotation
increments must be zero, so orientations, like the rest of its appearance,
stay as they are. Pivot mode has each level rigidly rotate cluster members
about their anchor.

Inheritance transfers deltas from a retiring hierarchy to a freshly built one:
translations average arithmetically over the three matched legacy anchors,
rotation increments average as the dominant eigenvector of the summed outer
products, which is the standard chordal quaternion mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Everything one frame carries: per-level deltas plus densification.

    Clone k copies gaussian ``clone_sources[k]`` (K,) int64 of the state
    before this frame's deformation and sits at ``clone_positions[k]``
    (K, 3) float32.
    """

    per_level: list[AnchorDeltaSet]
    clone_sources: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    clone_positions: np.ndarray = field(default_factory=lambda: np.empty((0, 3), np.float32))

    def __post_init__(self):
        self.clone_sources = np.ascontiguousarray(self.clone_sources, np.int64)
        self.clone_positions = np.ascontiguousarray(self.clone_positions, np.float32)
        k = self.clone_sources.shape[0]
        if self.clone_sources.shape != (k,) or self.clone_positions.shape != (k, 3):
            raise ValueError("clone sources must be (K,) and clone positions (K, 3)")
        if (self.clone_sources < 0).any():
            raise ValueError("clone sources must be non-negative")
        if not np.isfinite(self.clone_positions).all():
            raise ValueError("clone positions must be finite")

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
# Composition and application
# ---------------------------------------------------------------------------


def compose_deformation(hierarchy: AnchorHierarchy, deltas: FrameDeformation) -> np.ndarray:
    """Per-gaussian summed translations across levels, (N, 3) float32.

    A plain sum, coarse level first; this is the additive position update.
    """
    _check_consistent(hierarchy, deltas)
    n = hierarchy.levels[0].assignment.shape[0]
    dmu = np.zeros((n, 3), np.float32)
    for lvl, ds in zip(hierarchy.levels, deltas.per_level):
        dmu += ds.translations[lvl.assignment]
    return dmu


def level_unit_quats(rotations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot rotation per anchor: normalize((1,0,0,0) + delta), and the norms.

    Float64 results; the norms are what the fit's backward pass divides by.
    """
    q = rotations.astype(np.float64)  # always a copy
    q[:, 0] += 1.0
    norms = np.linalg.norm(q, axis=1)
    if (norms < _DEGENERATE_NORM).any():
        bad = int(np.argmax(norms < _DEGENERATE_NORM))
        raise DegenerateQuaternionError(f"pivot increment for anchor {bad} has norm {norms[bad]:.3g}")
    return q / norms[:, None], norms


def apply_deformation(gaussians: GaussianSet, hierarchy: AnchorHierarchy,
                      deltas: FrameDeformation,
                      mode: CompositionMode = CompositionMode.additive) -> GaussianSet:
    """Deform all gaussians by one frame's deltas; appearance stays frozen.

    Additive mode shifts positions by :func:`compose_deformation` and copies
    every other column unchanged; a nonzero rotation increment raises
    ``ValueError``, since additive frames carry none. Pivot mode applies
    levels coarse-to-fine, rotating members about their anchor's frame-start
    position before translating; orientations compose by quaternion
    multiplication.
    """
    if mode == CompositionMode.additive:
        if any(ds.rotations.any() for ds in deltas.per_level):
            raise ValueError("additive deformations carry no rotations, but one is nonzero")
        dmu = compose_deformation(hierarchy, deltas)
        return GaussianSet(
            gaussians.positions + dmu,
            gaussians.scales.copy(),
            gaussians.orientations.copy(),
            gaussians.opacities.copy(),
            gaussians.sh.copy(),
        )

    _check_consistent(hierarchy, deltas)
    pos = gaussians.positions.astype(np.float64)
    base_pos = pos.copy()
    orient = gaussians.orientations.astype(np.float64)
    for lvl, ds in zip(hierarchy.levels, deltas.per_level):
        unit, _ = level_unit_quats(ds.rotations)
        member_q = unit[lvl.assignment]
        pivots = base_pos[lvl.anchor_indices][lvl.assignment]
        rot = quat_to_matrix(member_q)
        pos = np.einsum("nij,nj->ni", rot, pos - pivots) + pivots
        pos += ds.translations.astype(np.float64)[lvl.assignment]
        orient = quat_multiply(member_q, orient)
    orient = quat_normalize(orient)
    return GaussianSet(
        pos.astype(np.float32),
        gaussians.scales.copy(),
        orient.astype(np.float32),
        gaussians.opacities.copy(),
        gaussians.sh.copy(),
    )


# ---------------------------------------------------------------------------
# Inheritance
# ---------------------------------------------------------------------------


def inherit_deformation(legacy: AnchorDeltaSet, neighbor_map: np.ndarray) -> AnchorDeltaSet:
    """Seed a reconfigured level's deltas from its three matched legacy anchors.

    Translations take the arithmetic mean. Rotation rows are averaged as
    quaternions (the dominant eigenvector of sum(q q^T), canonical sign), one
    batched ``eigh`` over all anchors, except that exactly-zero legacy rows
    are skipped ("no rotation observed"): if all three are zero the inherited
    row is zero as well, since the eigenvector of a zero matrix is undefined.
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

    # a zero increment adds a zero outer product, which is the skip rule
    picks = legacy.rotations.astype(np.float64)[nbr]  # (A, 3, 4)
    outer = np.einsum("akp,akq->apq", picks, picks)
    _, vectors = np.linalg.eigh(outer)
    new_rot = canonical_sign(vectors[:, :, -1])
    new_rot[~picks.any(axis=(1, 2))] = 0.0
    return AnchorDeltaSet(new_trans.astype(np.float32), new_rot.astype(np.float32))
