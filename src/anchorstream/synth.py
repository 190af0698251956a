"""Deterministic synthetic dynamic scenes with analytic ground truth.

Scenes are collections of rigid bodies: each body samples points uniformly in
a box at frame 0 and follows a parametric trajectory (rotation about an axis
through a pivot plus a constant translation velocity). A body may articulate
on a parent, in which case its world motion is the parent's transform applied
on top of its own.

Randomness comes from a counter-based SplitMix64 stream, not the platform
default generator, so identical seeds give bit-identical scenes on every
platform. Observation noise applies to the correspondence targets only;
the per-frame positions stay exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .motion import quat_from_axis_angle, quat_to_matrix

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64)
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


class SplitMix64:
    """Counter-based SplitMix64: value i is mix(seed + (i+1) * golden gamma).

    Counter-based output means any slice of the stream is computable directly
    and in parallel, and the sequence is identical across platforms.
    """

    def __init__(self, seed: int):
        self._seed = _U64(seed & 0xFFFFFFFFFFFFFFFF)
        self._count = 0

    def spawn(self, tag: int) -> "SplitMix64":
        """An independent substream derived from this seed and a tag."""
        base = _mix64(np.array([self._seed ^ _mix64(np.array([_U64(tag)], np.uint64))[0]], np.uint64))
        return SplitMix64(int(base[0]))

    def next_u64(self, count: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + count + 1, dtype=np.uint64)
        self._count += count
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GAMMA)

    def uniforms(self, count: int) -> np.ndarray:
        """float64 in [0, 1) with 53 random bits each."""
        return (self.next_u64(count) >> _U64(11)).astype(np.float64) * (2.0**-53)

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        pairs = (count + 1) // 2
        u1 = 1.0 - self.uniforms(pairs)  # (0, 1]: keeps the log finite
        u2 = self.uniforms(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(pairs * 2)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]


@dataclass
class BodySpec:
    """One rigid body: sampling box, trajectory, optional articulation parent.

    ``angle_rate`` is radians per frame about ``axis`` through ``pivot``
    (pivot defaults to the body center); ``velocity`` is scene units per
    frame. ``parent`` composes this body's motion with another body's.
    ``extent``, ``center``, ``velocity``, ``axis`` and ``pivot`` must each be
    3 finite numbers, ``angle_rate`` finite, and the axis nonzero whenever
    the body rotates; anything else is a :class:`ConfigError`.
    """

    point_count: int
    extent: np.ndarray
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    angle_rate: float = 0.0
    pivot: Optional[np.ndarray] = None
    parent: Optional[int] = None

    def __post_init__(self):
        self.extent = np.asarray(self.extent, np.float64)
        self.center = np.asarray(self.center, np.float64)
        self.velocity = np.asarray(self.velocity, np.float64)
        self.axis = np.asarray(self.axis, np.float64)
        if self.pivot is None:
            self.pivot = self.center.copy()
        else:
            self.pivot = np.asarray(self.pivot, np.float64)
        if self.point_count < 1:
            raise ConfigError("point_count must be >= 1")
        for name in ("extent", "center", "velocity", "axis", "pivot"):
            value = getattr(self, name)
            if value.shape != (3,) or not np.isfinite(value).all():
                raise ConfigError(f"{name} must be 3 finite numbers, got {value.tolist()}")
        if (self.extent < 0).any():
            raise ConfigError("extent components must be >= 0")
        if not math.isfinite(self.angle_rate):
            raise ConfigError(f"angle_rate must be finite, got {self.angle_rate}")
        if self.angle_rate != 0.0 and np.linalg.norm(self.axis) == 0:
            raise ConfigError("a rotating body needs a nonzero axis")


@dataclass
class SceneSpec:
    """A full scene: bodies, frame count, seed, and target observation noise."""

    bodies: list[BodySpec]
    frames: int
    seed: int
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.frames < 2:
            raise ConfigError("scene needs at least 2 frames")
        if not self.bodies:
            raise ConfigError("scene needs at least one body")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        order = []
        seen: set[int] = set()

        def visit(i: int, trail: set[int]):
            if i in trail:
                raise ConfigError(f"articulation cycle involving body {i}")
            if i in seen:
                return
            trail = trail | {i}
            parent = self.bodies[i].parent
            if parent is not None:
                if not 0 <= parent < len(self.bodies):
                    raise ConfigError(f"body {i} references unknown parent {parent}")
                visit(parent, trail)
            seen.add(i)
            order.append(i)

        for i in range(len(self.bodies)):
            visit(i, set())
        self._topo_order = order


@dataclass
class GeneratedScene:
    """Per-frame exact positions and noisy targets."""

    spec: SceneSpec
    base_positions: np.ndarray  # (N, 3) float64, frame 0
    body_of: np.ndarray  # (N,) int64
    positions: list[np.ndarray]  # exact (N, 3) float64 per frame
    targets: list[np.ndarray]  # observed (N, 3) float64 per frame (noise applied)

    @property
    def point_count(self) -> int:
        return self.base_positions.shape[0]

    def diameter(self) -> float:
        span = np.ptp(np.concatenate(self.positions), axis=0)
        return float(np.linalg.norm(span))


def _local_affine(body: BodySpec, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Body-local transform at frame t as (rotation matrix, translation)."""
    if body.angle_rate != 0.0:
        q = quat_from_axis_angle(body.axis, body.angle_rate * t)
        rot = quat_to_matrix(q)
    else:
        rot = np.eye(3)
    trans = body.pivot - rot @ body.pivot + body.velocity * float(t)
    return rot, trans


def generate_scene(spec: SceneSpec) -> GeneratedScene:
    """Sample frame 0 and roll exact rigid transforms through all frames.

    Raises :class:`ConfigError` naming the first frame whose positions or
    targets are not finite once cast to float32.
    """
    rng = SplitMix64(spec.seed)
    chunks = []
    body_of = []
    for bi, body in enumerate(spec.bodies):
        stream = rng.spawn(bi * 2 + 1)
        u = stream.uniforms(body.point_count * 3).reshape(body.point_count, 3)
        chunks.append(body.center + (u - 0.5) * body.extent)
        body_of.append(np.full(body.point_count, bi, np.int64))
    base = np.concatenate(chunks)
    body_of = np.concatenate(body_of)

    n_bodies = len(spec.bodies)
    positions = []
    for t in range(spec.frames):
        world: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n_bodies
        for bi in spec._topo_order:
            rot, trans = _local_affine(spec.bodies[bi], t)
            parent = spec.bodies[bi].parent
            if parent is not None:
                prot, ptrans = world[parent]
                rot, trans = prot @ rot, prot @ trans + ptrans
            world[bi] = (rot, trans)
        frame = np.empty_like(base)
        for bi in range(n_bodies):
            mask = body_of == bi
            rot, trans = world[bi]
            frame[mask] = base[mask] @ rot.T + trans
        positions.append(frame)

    targets = []
    for t in range(spec.frames):
        if spec.noise_sigma > 0 and t > 0:
            noise_stream = rng.spawn(0x70000000 + t)
            noise = noise_stream.normals(base.size).reshape(base.shape) * spec.noise_sigma
            targets.append(positions[t] + noise)
        else:
            targets.append(positions[t].copy())
    # the session takes positions and targets in float32; a spec can stay
    # finite in float64 and still leave float32's range. Rounding to float32
    # is monotonic, so a frame whose extremes stay finite stays finite.
    with np.errstate(over="ignore"):
        for t in range(spec.frames):
            for name, frame in (("positions", positions[t]), ("targets", targets[t])):
                if not np.isfinite(np.float32([frame.min(), frame.max()])).all():
                    raise ConfigError(f"frame {t} {name} leave the float32 range")
    return GeneratedScene(spec, base, body_of, positions, targets)


# ---------------------------------------------------------------------------
# Scene spec files (plain JSON; scene_spec_from_dict lists the keys)
# ---------------------------------------------------------------------------


def scene_spec_from_dict(data: dict) -> SceneSpec:
    """A scene spec from its JSON object; a missing or bad key is a :class:`ConfigError`.

    Keys, defaults in brackets: ``bodies``, ``frames`` and ``seed`` (all
    required), ``noise_sigma`` [0]. Each body: ``point_count`` and
    ``extent`` (required), ``center`` [0, 0, 0], ``velocity`` [0, 0, 0],
    ``axis`` [0, 0, 1], ``angle_rate`` [0], ``pivot`` [the center] and
    ``parent`` [none], as :class:`BodySpec` describes them.
    """
    try:
        bodies = [
            BodySpec(
                point_count=int(b["point_count"]),
                extent=b["extent"],
                center=b.get("center", (0.0, 0.0, 0.0)),
                velocity=b.get("velocity", (0.0, 0.0, 0.0)),
                axis=b.get("axis", (0.0, 0.0, 1.0)),
                angle_rate=float(b.get("angle_rate", 0.0)),
                pivot=b.get("pivot"),
                parent=b.get("parent"),
            )
            for b in data["bodies"]
        ]
        return SceneSpec(
            bodies=bodies,
            frames=int(data["frames"]),
            seed=int(data["seed"]),
            noise_sigma=float(data.get("noise_sigma", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scene spec: {exc}") from exc


def load_scene_spec(path) -> SceneSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scene spec {path} is not valid JSON: {exc}") from exc
    return scene_spec_from_dict(data)


# ---------------------------------------------------------------------------
# Bundled example scenes (also used by the test suite)
# ---------------------------------------------------------------------------


def two_body_arm_spec(frames: int = 4, seed: int = 11) -> SceneSpec:
    """Articulated arm: a drifting parent with a child rotating on a hinge."""
    return SceneSpec(
        bodies=[
            BodySpec(point_count=800, extent=[1.2, 0.8, 0.8], center=[0.0, 0.0, 0.0],
                     velocity=[0.02, 0.01, 0.0]),
            BodySpec(point_count=400, extent=[0.6, 0.4, 0.4], center=[1.05, 0.0, 0.0],
                     axis=[0.0, 0.0, 1.0], angle_rate=float(np.deg2rad(1.5)),
                     pivot=[0.6, 0.0, 0.0], parent=0),
        ],
        frames=frames,
        seed=seed,
    )


def drifting_pair_spec(frames: int = 61, seed: int = 21) -> SceneSpec:
    """Two drifting blocks that slowly separate; grows cluster mismatch."""
    return SceneSpec(
        bodies=[
            BodySpec(point_count=400, extent=[1.0, 1.0, 1.0], center=[0.0, 0.0, 0.0],
                     velocity=[0.05, 0.05, 0.0]),
            BodySpec(point_count=400, extent=[1.0, 1.0, 1.0], center=[1.06, 0.0, 0.0],
                     velocity=[0.058, 0.05, 0.0]),
        ],
        frames=frames,
        seed=seed,
    )
