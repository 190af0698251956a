"""Encoder and decoder sessions: the mirrored per-frame pipeline.

The one encode step is :meth:`Encoder.step`, which :func:`encode_session`
drives over a :class:`MotionSource`. It fits deformations against one
frame's targets, serializes them, parses the frame back from its own bytes
with the decoder's parser and applies it with the decoder's apply step,
:func:`_advance_state`, checks included. The mirror holds by construction,
as in any closed-loop predictive coder. Hierarchy rebuilds happen on a fixed
schedule (every ``reconfig_period`` frames) on both sides, read from the
stream header (:meth:`codec.StreamHeader.reconfigures_at`), which carries
every setting a decode needs besides the frame-0 input.

Densification relocates: a gaussian whose residual stays above the
threshold moves to its observed target after the frame's deformation, and
joins, per level, the cluster of its L1-nearest anchor by the same
deterministic rule on both sides, so stream payloads never carry anchor
indices. Nothing is appended, so the gaussian count stays the frame-0 count
and every build of a session sizes its grids for the same finest target.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol

import numpy as np

from . import codec
from .codec import StreamHeader
from .errors import ConfigError, NumericalError, StreamFormatError
from .fitting import Correspondences, densify_residuals, fit_frame, loss_and_gradient, observed_rows
from .hierarchy import AnchorHierarchy, build_hierarchy, rehierarchize
from .kernels import l1_nearest
from .motion import FrameDeformation, apply_deformation, inherit_deformation
from .synth import GeneratedScene
from .types import CompositionMode, GaussianSet, SceneState, StreamConfig


def state_checksum(state: SceneState) -> str:
    """SHA-256 over the raw float32 state columns plus the frame index."""
    digest = hashlib.sha256()
    digest.update(state.frame_index.to_bytes(8, "little"))
    for arr in state.gaussians.attribute_arrays():
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


class MotionSource(Protocol):
    """Per-frame observations driving an encode session."""

    frame_count: int

    def correspondences(self, frame: int) -> Correspondences: ...


class SyntheticSource:
    """Targets from a generated scene; indices are the original point ids."""

    def __init__(self, scene: GeneratedScene):
        self.scene = scene
        self.frame_count = scene.spec.frames
        self._indices = np.arange(scene.point_count, dtype=np.int64)

    def correspondences(self, frame: int) -> Correspondences:
        return Correspondences(self._indices, self.scene.targets[frame].astype(np.float32))

    def base_gaussians(self) -> GaussianSet:
        return GaussianSet.from_positions(self.scene.positions[0].astype(np.float32))


class StaticSource:
    """A scene with no observed motion: every frame targets frame-0 positions.

    Used when the input is a bare point cloud; the session still exercises
    the full pipeline and produces (near-)zero deltas.
    """

    def __init__(self, base: GaussianSet, frame_count: int):
        self.frame_count = frame_count
        self._targets = base.positions.copy()
        self._indices = np.arange(len(base), dtype=np.int64)

    def correspondences(self, frame: int) -> Correspondences:
        return Correspondences(self._indices, self._targets)


@dataclass
class FrameMetrics:
    """One metrics row per frame, the same on the encoder and the decoder side.

    ``payload_bytes`` is the frame's length in the stream; it splits exactly
    into ``delta_bytes``, ``relocation_bytes`` and ``overhead_bytes``
    (:func:`codec.frame_byte_split`). A decoder cannot know the fit's
    ``loss`` and ``mean_error``, so its rows hold nan there.
    """

    frame_index: int
    loss: float
    mean_error: float
    payload_bytes: int
    delta_bytes: int
    relocation_bytes: int
    overhead_bytes: int
    anchor_counts: tuple[int, ...]
    reconfig: bool
    checksum: str


def _frame_row(header: StreamHeader, payload: codec.FramePayload, size: int, state: SceneState,
               loss: float = math.nan, mean_error: float = math.nan) -> FrameMetrics:
    """The metrics row of a parsed frame of ``size`` bytes, built alike by encoder and decoder."""
    frame, counts = payload.frame_index, payload.realized_counts
    return FrameMetrics(
        frame, loss, mean_error, size,
        *codec.frame_byte_split(counts, len(payload.deltas.relocation_ordinals), header.config),
        counts, header.reconfigures_at(frame), state_checksum(state))


@dataclass
class StorageReport:
    frames: int
    total_bytes: int
    mean_bytes: float
    max_bytes: int
    delta_bytes: int
    relocation_bytes: int
    overhead_bytes: int

    def decomposition(self) -> str:
        return (
            f"frames={self.frames} total={self.total_bytes}B "
            f"mean={self.mean_bytes:.1f}B/frame max={self.max_bytes}B | "
            f"deltas={self.delta_bytes}B relocations={self.relocation_bytes}B "
            f"headers={self.overhead_bytes}B"
        )


def storage_report(rows: list[FrameMetrics]) -> StorageReport:
    """Aggregate per-frame rows into a session report."""
    if not rows:
        raise ValueError("storage report requires at least one encoded frame")
    totals = [r.payload_bytes for r in rows]
    return StorageReport(
        frames=len(rows),
        total_bytes=sum(totals),
        mean_bytes=sum(totals) / len(rows),
        max_bytes=max(totals),
        delta_bytes=sum(r.delta_bytes for r in rows),
        relocation_bytes=sum(r.relocation_bytes for r in rows),
        overhead_bytes=sum(r.overhead_bytes for r in rows),
    )


@dataclass
class SessionResult:
    """An encoded session; ``header.config`` is the config it ran with, under a budget the plan."""

    stream: bytes
    metrics: list[FrameMetrics]
    state: SceneState
    report: StorageReport
    header: StreamHeader


def _advance_state(state: SceneState, payload: codec.FramePayload, hierarchy: AnchorHierarchy,
                   mode: CompositionMode) -> SceneState:
    """The apply step of both replicas: deform on ``hierarchy``, relocate, reassign.

    A relocation ordinal not below the gaussian count or anchor counts other
    than the hierarchy's are a :class:`StreamFormatError`; a degenerate pivot
    rotation or deltas that carry a gaussian out of float32 range a
    :class:`NumericalError`; each names the frame and leaves ``state`` as it
    was. Each record overwrites its gaussian's deformed position, and per
    level the relocated rows join their L1-nearest anchor's cluster.
    """
    frame, deltas = payload.frame_index, payload.deltas
    ordinals = deltas.relocation_ordinals
    n = len(state.gaussians)
    if ordinals.size and ordinals[-1] >= n:
        raise StreamFormatError(f"frame {frame}: relocation ordinal {ordinals[-1]} is not "
                                f"below the gaussian count {n}")
    codec.verify_counts(payload, hierarchy)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            gaussians = apply_deformation(state.gaussians, hierarchy, deltas, mode)
    except NumericalError as exc:
        raise type(exc)(f"frame {frame}: {exc}") from exc
    if not (np.isfinite(gaussians.positions).all() and np.isfinite(gaussians.orientations).all()):
        raise NumericalError(f"frame {frame}: deltas carry gaussians out of float32 range")
    if ordinals.size:
        moved = deltas.relocation_positions
        gaussians.positions[ordinals] = moved
        for lvl in hierarchy.levels:
            assignment = lvl.assignment.copy()
            assignment[ordinals] = l1_nearest(moved, gaussians.positions[lvl.anchor_indices])
            lvl.assignment = assignment
    state.hierarchy, state.gaussians, state.frame_index = hierarchy, gaussians, frame
    return state


def _mean_position_error(state: SceneState, corr: Correspondences) -> float:
    pos = state.gaussians.positions.astype(np.float64)[corr.indices]
    return float(np.linalg.norm(pos - corr.targets.astype(np.float64), axis=1).mean())


class Encoder:
    """The encoder between frames: ``header``, ``state`` and the last applied deltas.

    A byte budget replaces ``config`` with :func:`codec.plan_budget`'s. An
    empty frame 0 is a :class:`ConfigError`. Each step advances ``state`` in place.
    """

    def __init__(self, base: GaussianSet, config: StreamConfig, *,
                 budget_bytes: Optional[int] = None):
        if len(base) < 1:
            raise ConfigError("an encoder needs at least one gaussian at frame 0")
        if budget_bytes is not None:
            config = codec.plan_budget(len(base), budget_bytes, config)
        self.header = StreamHeader(config, len(base))
        self.state = SceneState(base.copy(), build_hierarchy(base, config), 0)
        self.prev_deltas: Optional[FrameDeformation] = None

    def step(self, corr: Correspondences) -> tuple[bytes, FrameMetrics]:
        """Encode frame ``state.frame_index + 1`` against ``corr``: its bytes and its row.

        The fit starts from zero deltas on frame 1, from the previous deltas
        inherited onto the new anchors on a rebuild frame, and otherwise from
        the previous frame's applied (quantized) deltas; it falls back to zero
        deltas when they fit better. The observed rows are checked and gathered
        once (:func:`fitting.observed_rows`) for the fit, the densify residuals
        and the frame's loss. The state advances by the frame as parsed
        back from its bytes, through the decoder's apply step
        (:func:`_advance_state`), so a frame the decoder would reject raises an
        error naming the frame. A step that raises changes nothing.
        """
        header, state, init = self.header, self.state, self.prev_deltas
        config, t, hierarchy = header.config, state.frame_index + 1, state.hierarchy
        if header.reconfigures_at(t):
            hierarchy, neighbor_maps = rehierarchize(state, config)
            if init is not None:
                init = FrameDeformation([inherit_deformation(legacy, nbr)
                                         for legacy, nbr in zip(init.per_level, neighbor_maps)])
        if init is None:
            init = FrameDeformation.zeros(hierarchy)

        rows = observed_rows(state.gaussians, hierarchy, corr, config.composition_mode)
        fitted = fit_frame(hierarchy, corr, init, config.phase1_steps, rows)
        frame_def = fitted
        if config.phase2_steps > 0:
            ordinals, positions = densify_residuals(hierarchy, fitted, corr,
                                                    config.densify_threshold, rows)
            frame_def = FrameDeformation(fitted.per_level, ordinals, positions)

        loss, _ = loss_and_gradient(hierarchy, fitted, corr, rows)
        data, payload = codec.quantize_roundtrip(t, frame_def, hierarchy, header)
        self.state = _advance_state(state, payload, hierarchy, config.composition_mode)
        self.prev_deltas = FrameDeformation(payload.deltas.per_level)
        return data, _frame_row(header, payload, len(data), self.state, loss,
                                _mean_position_error(self.state, corr))


def encode_session(base: GaussianSet, source: MotionSource, config: StreamConfig, *,
                   budget_bytes: Optional[int] = None) -> SessionResult:
    """Run an :class:`Encoder` over all frames of a source.

    Every setting comes from ``config``: the fit's sweep count, whether to
    densify and at what threshold, and what the header records for the
    decoder. The fit has no other settings: each sweep solves the levels
    exactly (see :mod:`anchorstream.fitting`). A byte budget runs the session
    on :func:`codec.plan_budget`'s config. Each encoded frame gets its step's
    :class:`FrameMetrics` row, and ``report`` sums the rows' byte split. A
    source of fewer than two frames (frame 0 and one to encode) or an empty
    frame 0 is a :class:`ConfigError`.
    """
    if source.frame_count < 2 or len(base) < 1:
        raise ConfigError(
            f"a session needs at least 2 frames (frame 0 and one to encode) and one gaussian, "
            f"source has {source.frame_count} frames and {len(base)} gaussians at frame 0"
        )
    encoder = Encoder(base, config, budget_bytes=budget_bytes)
    chunks, metrics = [encoder.header.pack()], []
    for t in range(1, source.frame_count):
        data, row = encoder.step(source.correspondences(t))
        chunks.append(data)
        metrics.append(row)
    return SessionResult(b"".join(chunks), metrics, encoder.state, storage_report(metrics),
                         encoder.header)


@dataclass
class DecodeResult:
    state: SceneState
    metrics: list[FrameMetrics]
    header: StreamHeader


def _start_decode(base: GaussianSet, stream: bytes) -> tuple[StreamHeader, SceneState]:
    """Parse the header and build the frame-0 state a decode starts from."""
    header = StreamHeader.unpack(stream)
    if len(base) != header.gaussian_count_initial:
        raise StreamFormatError(
            f"frame-0 source has {len(base)} gaussians, stream expects "
            f"{header.gaussian_count_initial}"
        )
    hierarchy = build_hierarchy(base, header.config)
    return header, SceneState(base.copy(), hierarchy, 0)


def _decode_frames(stream: bytes, header: StreamHeader, state: SceneState
                   ) -> Iterator[tuple[FrameMetrics, SceneState]]:
    """The decode loop: advance ``state`` frame by frame, yielding each frame's row.

    Each frame goes through the encoder's apply step, :func:`_advance_state`.
    A :class:`NumericalError` it raises, which no encoder writes, is a
    :class:`StreamFormatError` here.
    """
    config = header.config
    for payload, size in codec.iter_frames(stream, header):
        hierarchy = state.hierarchy
        if header.reconfigures_at(payload.frame_index):
            # the encoder's rehierarchize builds exactly this; its legacy-anchor
            # maps only seed the encoder's fit
            hierarchy = build_hierarchy(state.gaussians, config)
        try:
            state = _advance_state(state, payload, hierarchy, config.composition_mode)
        except NumericalError as exc:
            raise StreamFormatError(str(exc)) from exc
        yield _frame_row(header, payload, size, state), state


def iter_decode_metrics(base: GaussianSet, stream: bytes
                        ) -> Iterator[tuple[FrameMetrics, SceneState]]:
    """Replay a stream lazily, yielding each frame's decoder-side metrics row and state.

    The row is the one :func:`decode_session` reports for the frame. The
    yielded state is advanced in place by the next frame; copy what must
    outlive an iteration.
    """
    header, state = _start_decode(base, stream)
    yield from _decode_frames(stream, header, state)


def decode_session(base: GaussianSet, stream: bytes,
                   level_ratio: Optional[int] = None,
                   composition_mode: Optional[CompositionMode] = None) -> DecodeResult:
    """Replay a stream against the identical frame-0 source.

    Every setting comes from the stream header. ``level_ratio`` and
    ``composition_mode`` are optional expectations: when given, each must
    equal the header's value, or the decode fails before frame 1. Any
    divergence surfaces as an anchor-count mismatch naming the level, or as
    a checksum difference. A stream without frames decodes to the frame-0
    state.
    """
    header, state = _start_decode(base, stream)
    config = header.config
    if level_ratio is not None and level_ratio != config.level_ratio:
        raise StreamFormatError(
            f"stream has level ratio {config.level_ratio}, caller expects {level_ratio}"
        )
    if composition_mode is not None and composition_mode != config.composition_mode:
        raise StreamFormatError(
            f"stream has composition mode {config.composition_mode.name}, caller expects "
            f"{CompositionMode(composition_mode).name}"
        )
    metrics: list[FrameMetrics] = []
    for row, state in _decode_frames(stream, header, state):
        metrics.append(row)
    return DecodeResult(state, metrics, header)
