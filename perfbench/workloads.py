"""The benchmark's named workloads: a scene spec plus a stream config each.

Scene geometry and motion are fixed per workload; the seed only drives the
SplitMix64 point sampling, so every seed poses the same problem on freshly
drawn points. Scene generation is not timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from anchorstream.synth import BodySpec, SceneSpec, drifting_pair_spec, two_body_arm_spec
from anchorstream.types import CompositionMode, Quantization, StreamConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_spec: Callable[[int], SceneSpec]
    config: StreamConfig
    # distinct scenes per run; the quality metrics average over them, which
    # damps how much one seed's point sampling moves them
    scenes: int


def arm_pivot_spec(seed: int, frames: int = 25, point_scale: float = 1.0) -> SceneSpec:
    spec = two_body_arm_spec(frames=frames, seed=seed)
    for body in spec.bodies:
        body.point_count = max(1, round(body.point_count * point_scale))
    return spec


def pair_additive_spec(seed: int, frames: int = 25, per_body: int = 3000) -> SceneSpec:
    spec = drifting_pair_spec(frames=frames, seed=seed)
    for body in spec.bodies:
        body.point_count = per_body
    return spec


def field_large_spec(seed: int, frames: int = 9, per_cube: int = 2500) -> SceneSpec:
    """Eight unit cubes tiling [-1, 1]^3, each with its own drift and spin."""
    bodies = []
    for i in range(8):
        corner = np.array([(i >> 2) & 1, (i >> 1) & 1, i & 1], np.float64)
        center = corner - 0.5
        axis = np.roll(np.array([0.0, 0.0, 1.0]), i % 3)
        bodies.append(
            BodySpec(point_count=per_cube, extent=[1.0, 1.0, 1.0], center=center,
                     velocity=0.004 * center + 0.002 * (i % 3),
                     axis=axis, angle_rate=float(np.deg2rad(0.5 + 0.25 * (i % 4)))),
        )
    return SceneSpec(bodies=bodies, frames=frames, seed=seed)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "arm_pivot",
            "fit-bound on the nonlinear pivot path; the only workload whose inheritance "
            "takes the eigen path",
            arm_pivot_spec,
            StreamConfig(composition_mode=CompositionMode.pivot),
            scenes=3,
        ),
        Workload(
            "pair_additive",
            "fit-bound on the linear additive path, where np.add.at in sum_by_index "
            "dominates; full32",
            pair_additive_spec,
            StreamConfig(quantization=Quantization.full32),
            scenes=3,
        ),
        Workload(
            "field_large",
            "hierarchy-bound: 20k points fill the grid, so O(N*A) L1 assignment dominates "
            "set-up, encode and decode",
            field_large_spec,
            StreamConfig(reconfig_period=4, phase1_steps=10, phase2_steps=1,
                         quantization=Quantization.fixed16),
            scenes=1,
        ),
    )
}
