"""Core domain types: gaussian primitives, scene state, stream configuration.

All scalar state is float32. Higher precision is used inside numeric routines
but never stored, so encoder and decoder replicas can be compared bit for bit.
Gaussians live in one flat ordered sequence whose order is semantic: stream
payloads refer to primitives purely by position, never by explicit index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .hierarchy import AnchorHierarchy

# Degree-1 spherical harmonics: 4 coefficients x 3 channels. The DC triplet
# comes first, then the directional tail in channel-major order.
SH_COEFFS = 12

QUAT_NORM_TOL = 1e-6


class Quantization(IntEnum):
    """Value width of deformation blocks at the codec boundary."""

    full32 = 0
    half16 = 1
    fixed16 = 2


class CompositionMode(IntEnum):
    """How per-level anchor deltas act on cluster members.

    additive: positions shift by the summed translations; rotation increments
        are zero and orientations do not change.
    pivot: each level rotates members about their anchor position by the
        unit-normalized increment quaternion, then translates.
    """

    additive = 0
    pivot = 1


class GaussianSet:
    """Column store for an ordered sequence of anisotropic gaussian primitives.

    Each attribute is one contiguous float32 array with a row per gaussian:
    ``positions`` (N, 3); ``scales`` (N, 3), the diagonal of the axis-aligned
    scaling matrix in linear units (not log-space); ``orientations`` (N, 4),
    unit quaternions (w, x, y, z); ``opacities`` (N,); and ``sh`` (N, 12),
    the degree-1 coefficients. The row order is the canonical stream order.
    """

    __slots__ = ("positions", "scales", "orientations", "opacities", "sh")

    def __init__(self, positions, scales, orientations, opacities, sh):
        self.positions = np.ascontiguousarray(positions, dtype=np.float32)
        self.scales = np.ascontiguousarray(scales, dtype=np.float32)
        self.orientations = np.ascontiguousarray(orientations, dtype=np.float32)
        self.opacities = np.ascontiguousarray(opacities, dtype=np.float32)
        self.sh = np.ascontiguousarray(sh, dtype=np.float32)
        n = self.positions.shape[0]
        if self.positions.shape != (n, 3):
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.scales.shape != (n, 3):
            raise ValueError(f"scales must be (N, 3), got {self.scales.shape}")
        if self.orientations.shape != (n, 4):
            raise ValueError(f"orientations must be (N, 4), got {self.orientations.shape}")
        if self.opacities.shape != (n,):
            raise ValueError(f"opacities must be (N,), got {self.opacities.shape}")
        if self.sh.shape != (n, SH_COEFFS):
            raise ValueError(f"sh must be (N, {SH_COEFFS}), got {self.sh.shape}")

    def __len__(self) -> int:
        return self.positions.shape[0]

    def copy(self) -> "GaussianSet":
        return GaussianSet(
            self.positions.copy(),
            self.scales.copy(),
            self.orientations.copy(),
            self.opacities.copy(),
            self.sh.copy(),
        )

    def attribute_arrays(self) -> tuple[np.ndarray, ...]:
        """All column arrays in fixed order (used for digests and serialization)."""
        return (self.positions, self.scales, self.orientations, self.opacities, self.sh)

    @classmethod
    def from_positions(cls, positions, scale: float = 0.05, opacity: float = 0.5) -> "GaussianSet":
        """Build a set with uniform default appearance around given positions."""
        pos = np.asarray(positions, dtype=np.float32)
        n = pos.shape[0]
        orientations = np.zeros((n, 4), np.float32)
        orientations[:, 0] = 1.0
        return cls(
            pos,
            np.full((n, 3), scale, np.float32),
            orientations,
            np.full((n,), opacity, np.float32),
            np.zeros((n, SH_COEFFS), np.float32),
        )


@dataclass
class StreamConfig:
    """Session-wide knobs shared by encoder and decoder.

    ``levels``, ``finest_fraction``, ``level_ratio``, ``reconfig_period``,
    ``quantization`` and ``composition_mode`` travel in the stream header
    (:class:`anchorstream.codec.StreamHeader`), so a decoder runs with the
    encoder's values. ``phase1_steps``, ``phase2_steps`` and
    ``densify_threshold`` are encoder-only: they never travel, and a decoded
    header holds their defaults.

    ``phase1_steps`` is the fit's step count per frame. Each frame's fit
    starts from the previous frame's deltas, or from zero where that fits
    better (see :func:`anchorstream.session.encode_session`), so a few dozen
    steps refine the motion rather than learn it from rest. Of
    ``phase2_steps`` only zero versus positive matters: 0 turns densification
    off, and any positive value turns it on. ``densify_threshold`` is the
    residual above which a target spawns a clone; it must be finite and
    positive.
    """

    levels: int = 3
    finest_fraction: Fraction = Fraction(1, 24)
    level_ratio: int = 3
    reconfig_period: int = 10
    quantization: Quantization = Quantization.half16
    phase1_steps: int = 40
    phase2_steps: int = 100
    densify_threshold: float = 0.05
    composition_mode: CompositionMode = CompositionMode.additive

    def __post_init__(self):
        if not isinstance(self.finest_fraction, Fraction):
            self.finest_fraction = Fraction(self.finest_fraction)
        if not 1 <= self.levels <= 4:
            raise ConfigError(f"levels must be in [1, 4], got {self.levels}")
        if not 0 < self.finest_fraction <= 1:
            raise ConfigError(f"finest_fraction must be in (0, 1], got {self.finest_fraction}")
        if self.level_ratio < 1:
            raise ConfigError(f"level_ratio must be >= 1, got {self.level_ratio}")
        if self.reconfig_period < 1:
            raise ConfigError(f"reconfig_period must be >= 1, got {self.reconfig_period}")
        if self.phase1_steps < 0 or self.phase2_steps < 0:
            raise ConfigError("step counts must be >= 0")
        if not (math.isfinite(self.densify_threshold) and self.densify_threshold > 0):
            raise ConfigError(
                f"densify_threshold must be finite and > 0, got {self.densify_threshold}"
            )
        self.quantization = Quantization(self.quantization)
        self.composition_mode = CompositionMode(self.composition_mode)


@dataclass
class SceneState:
    """Mirrored encoder/decoder state: primitives plus the anchor hierarchy.

    Two replicas fed identical input streams must be bit-identical; every
    operation that advances a state is therefore deterministic.
    """

    gaussians: GaussianSet
    hierarchy: Optional["AnchorHierarchy"] = None
    frame_index: int = 0


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_state`."""

    index: int
    field: str
    message: str


def validate_state(state: SceneState) -> list[Violation]:
    """Check every type invariant; returns one descriptor per violation.

    Validation never raises: a structurally broken state simply yields a
    longer list. An empty list means the state is sound.
    """
    g = state.gaussians
    out: list[Violation] = []

    finite_checks = (
        ("position", g.positions),
        ("scale", g.scales),
        ("orientation", g.orientations),
        ("opacity", g.opacities),
        ("sh", g.sh),
    )
    for name, arr in finite_checks:
        bad = ~np.isfinite(arr)
        if bad.any():
            rows = np.unique(np.nonzero(bad)[0])
            for i in rows:
                out.append(Violation(int(i), name, f"{name} contains non-finite values"))

    norms = np.linalg.norm(g.orientations.astype(np.float64), axis=1)
    for i in np.nonzero(np.abs(norms - 1.0) > QUAT_NORM_TOL)[0]:
        if np.isfinite(norms[i]):
            out.append(Violation(int(i), "orientation", f"orientation norm {norms[i]:.6g} != 1"))

    nonpos = (g.scales <= 0) & np.isfinite(g.scales)
    for i in np.unique(np.nonzero(nonpos)[0]):
        out.append(Violation(int(i), "scale", "scale component not strictly positive"))

    finite_op = np.isfinite(g.opacities)
    bad_op = finite_op & ((g.opacities < 0) | (g.opacities > 1))
    for i in np.nonzero(bad_op)[0]:
        out.append(Violation(int(i), "opacity", f"opacity {g.opacities[i]:.6g} outside [0, 1]"))

    if state.hierarchy is not None:
        n = len(g)
        for lvl in state.hierarchy.levels:
            a = len(lvl.anchor_indices)
            bad_anchor = (lvl.anchor_indices < 0) | (lvl.anchor_indices >= n)
            for j in np.nonzero(bad_anchor)[0]:
                out.append(
                    Violation(int(lvl.anchor_indices[j]), "hierarchy",
                              f"level {lvl.level} anchor ordinal {j} references invalid gaussian")
                )
            if lvl.assignment is None or lvl.assignment.shape[0] != n:
                out.append(Violation(-1, "hierarchy",
                                     f"level {lvl.level} assignment does not cover all gaussians"))
                continue
            bad_assign = (lvl.assignment < 0) | (lvl.assignment >= a)
            for i in np.nonzero(bad_assign)[0]:
                out.append(Violation(int(i), "hierarchy",
                                     f"level {lvl.level} assignment out of range"))

    return out
