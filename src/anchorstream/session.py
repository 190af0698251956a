"""Encoder and decoder sessions: the mirrored per-frame pipeline.

The encoder fits deformations against observed targets, serializes them, and
then advances its own state with the *dequantized* deltas - exactly what the
decoder will apply - so both replicas stay bit-identical at any quantization
mode. Hierarchy rebuilds happen on a fixed schedule (every ``reconfig_period``
frames) on both sides; each side reads it from the stream header
(:meth:`codec.StreamHeader.reconfigures_at`), so no frame carries a flag.
The stream header carries every session setting the decoder needs, so a
decode takes nothing but the frame-0 input and the stream.
Every build of a session sizes its grids for the same frame-0 finest target,
so the per-level anchor caps never move, however many gaussians are added.

Densified gaussians append to the end of the flat sequence on both sides and
are assigned to existing anchors by the same deterministic rule, so stream
payloads never carry anchor indices. A clone travels as the ordinal of the
gaussian it copies plus its position; :func:`_advance_state` rebuilds the
rest of its record from the mirrored state.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Optional, Protocol

import numpy as np

from . import codec
from .codec import StreamHeader
from .errors import ConfigError, NumericalError, StreamFormatError
from .fitting import Correspondences, densify_residuals, fit_frame, loss_and_gradient
from .hierarchy import build_hierarchy, level_caps, rehierarchize
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
    into ``delta_bytes`` (:func:`codec.delta_block_bytes` of the anchor
    counts), ``clone_bytes`` (``codec.CLONE_BYTES`` per clone) and
    ``overhead_bytes`` (:func:`codec.frame_overhead_bytes`). A decoder cannot
    know the fit's ``loss`` and ``mean_error``, so its rows hold nan there.
    """

    frame_index: int
    loss: float
    mean_error: float
    payload_bytes: int
    delta_bytes: int
    clone_bytes: int
    overhead_bytes: int
    anchor_counts: tuple[int, ...]
    reconfig: bool
    checksum: str


def _frame_row(header: StreamHeader, frame: int, counts: tuple[int, ...], clone_count: int,
               payload_bytes: int, state: SceneState, loss: float = math.nan,
               mean_error: float = math.nan) -> FrameMetrics:
    """The metrics row of one frame, built alike by encoder and decoder."""
    config = header.config
    return FrameMetrics(
        frame, loss, mean_error, payload_bytes,
        codec.delta_block_bytes(counts, config.quantization, config.composition_mode),
        clone_count * codec.CLONE_BYTES,
        codec.frame_overhead_bytes(config.levels),
        counts, header.reconfigures_at(frame), state_checksum(state),
    )


@dataclass
class StorageReport:
    frames: int
    total_bytes: int
    mean_bytes: float
    max_bytes: int
    delta_bytes: int
    added_bytes: int
    overhead_bytes: int

    def decomposition(self) -> str:
        return (
            f"frames={self.frames} total={self.total_bytes}B "
            f"mean={self.mean_bytes:.1f}B/frame max={self.max_bytes}B | "
            f"deltas={self.delta_bytes}B densification={self.added_bytes}B "
            f"headers={self.overhead_bytes}B"
        )


def storage_report(rows: list[FrameMetrics]) -> StorageReport:
    """Aggregate per-frame rows into a session report; clone bytes count as added."""
    if not rows:
        raise ValueError("storage report requires at least one encoded frame")
    totals = [r.payload_bytes for r in rows]
    return StorageReport(
        frames=len(rows),
        total_bytes=sum(totals),
        mean_bytes=sum(totals) / len(rows),
        max_bytes=max(totals),
        delta_bytes=sum(r.delta_bytes for r in rows),
        added_bytes=sum(r.clone_bytes for r in rows),
        overhead_bytes=sum(r.overhead_bytes for r in rows),
    )


@dataclass
class SessionResult:
    stream: bytes
    metrics: list[FrameMetrics]
    state: SceneState
    report: StorageReport
    header: StreamHeader
    planned_caps: Optional[tuple[int, ...]] = None


def _advance_state(state: SceneState, payload_deltas: FrameDeformation,
                   mode: CompositionMode, frame_index: int) -> SceneState:
    """Apply one frame to a state: deform, append clones, reassign.

    Shared verbatim by encoder and decoder - this is the mirror contract.
    Each clone takes its position from the frame and every other attribute
    from its source row as it stood before this frame's deformation.
    """
    before = state.gaussians
    gaussians = apply_deformation(before, state.hierarchy, payload_deltas, mode)
    src = payload_deltas.clone_sources
    if src.size:
        added = (payload_deltas.clone_positions,
                 *(col[src] for col in before.attribute_arrays()[1:]))
        for lvl in state.hierarchy.levels:
            anchors = gaussians.positions[lvl.anchor_indices]
            extra = l1_nearest(payload_deltas.clone_positions, anchors)
            lvl.assignment = np.concatenate([lvl.assignment, extra])
        gaussians = GaussianSet(*(np.concatenate([col, new])
                                  for col, new in zip(gaussians.attribute_arrays(), added)))
    state.gaussians = gaussians
    state.frame_index = frame_index
    return state


def _mean_position_error(state: SceneState, corr: Correspondences) -> float:
    pos = state.gaussians.positions.astype(np.float64)[corr.indices]
    return float(np.linalg.norm(pos - corr.targets.astype(np.float64), axis=1).mean())


def _finest_target(header: StreamHeader) -> int:
    """The finest-level anchor target of every (re)build in a session.

    Fixed at frame 0 as ceil(n0 * finest_fraction) from the header, so
    densified clones never raise the per-level anchor caps, and encoder and
    decoder derive the same value.
    """
    return math.ceil(header.gaussian_count_initial * header.config.finest_fraction)


def encode_session(base: GaussianSet, source: MotionSource, config: StreamConfig, *,
                   budget_bytes: Optional[int] = None) -> SessionResult:
    """Run the full encoder pipeline over all frames of a source.

    Every setting comes from ``config``: the fit's step count, whether to
    densify and at what threshold, and what the header records for the
    decoder. The fit's own optimizer settings are fixed (see
    :mod:`anchorstream.fitting`). Each frame's fit is warm-started: frame 1
    starts from zero deltas, a rebuild frame from the previous deltas
    inherited onto the new anchors, and every other frame from the previous
    frame's applied (quantized) deltas, on the same anchors. The fit itself
    falls back to zero deltas when they fit better. With a byte budget,
    the finest anchor target is planned first and written to the header as
    the effective finest fraction, so the decoder builds the same grids
    without ever seeing the budget. ``planned_caps`` then holds the per-level
    anchor caps that keep every frame's anchor deltas plus overhead within
    the budget. Clone records (16 B each) come on top of it: see
    :func:`codec.plan_budget`. Each encoded frame gets one
    :class:`FrameMetrics` row, the one the decoder builds for it apart from
    the fit's loss and error, and ``report`` sums the rows' byte split. The
    source needs at least two frames: frame 0 and one encoded frame.
    """
    if source.frame_count < 2:
        raise ConfigError(
            f"a session needs at least 2 frames (frame 0 and one to encode), "
            f"source has {source.frame_count}"
        )
    n0 = len(base)
    fraction = config.finest_fraction
    if budget_bytes is not None:
        fraction = Fraction(codec.plan_budget(n0, budget_bytes, config), n0)
    eff_config = replace(config, finest_fraction=fraction)
    header = StreamHeader(eff_config, n0)
    finest_target = _finest_target(header)
    planned = None if budget_bytes is None else level_caps(n0, eff_config, finest_target)

    state = SceneState(base.copy(), build_hierarchy(base, eff_config, finest_target), 0)
    chunks = [header.pack()]
    metrics: list[FrameMetrics] = []
    prev_deltas: Optional[FrameDeformation] = None

    for t in range(1, source.frame_count):
        init = prev_deltas
        if header.reconfigures_at(t):
            state.hierarchy, neighbor_maps = rehierarchize(state, eff_config, finest_target)
            if init is not None:
                init = FrameDeformation([inherit_deformation(legacy, nbr)
                                         for legacy, nbr in zip(init.per_level, neighbor_maps)])
        if init is None:
            init = FrameDeformation.zeros(state.hierarchy)

        corr = source.correspondences(t)
        fitted = fit_frame(state.gaussians, state.hierarchy, corr, init,
                           eff_config.phase1_steps, eff_config.composition_mode)
        frame_def = fitted
        if eff_config.phase2_steps > 0:
            sources, positions = densify_residuals(
                state.gaussians, state.hierarchy, fitted, corr,
                eff_config.densify_threshold, eff_config.composition_mode,
            )
            frame_def = FrameDeformation(fitted.per_level, sources, positions)

        loss, _ = loss_and_gradient(state.gaussians, state.hierarchy, fitted, corr,
                                    eff_config.composition_mode)
        payload = codec.encode_frame(t, frame_def, state.hierarchy, header)
        chunks.append(payload)

        applied = codec.quantize_roundtrip(frame_def, header)
        state = _advance_state(state, applied, eff_config.composition_mode, t)
        prev_deltas = FrameDeformation(applied.per_level)

        metrics.append(_frame_row(header, t, state.hierarchy.anchor_counts(),
                                  len(applied.clone_sources), len(payload), state,
                                  loss, _mean_position_error(state, corr)))

    return SessionResult(b"".join(chunks), metrics, state, storage_report(metrics),
                         header, planned)


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
    hierarchy = build_hierarchy(base, header.config, _finest_target(header))
    return header, SceneState(base.copy(), hierarchy, 0)


def _decode_frames(stream: bytes, header: StreamHeader, state: SceneState
                   ) -> Iterator[tuple[FrameMetrics, SceneState]]:
    """The decode loop: advance ``state`` frame by frame, yielding each frame's row.

    A payload that disagrees with the mirrored state (a clone source past
    the gaussian count, anchor counts other than the rebuilt hierarchy's)
    fails before the state changes. Whatever a well-framed payload makes go
    wrong while it is applied (a degenerate pivot rotation, deltas that
    carry positions out of float32 range) is a :class:`StreamFormatError`
    naming the frame.
    """
    config, finest_target = header.config, _finest_target(header)
    offset = codec.HEADER_BYTES
    expected = 1
    while offset < len(stream):
        start = offset
        payload, offset = codec.decode_frame(stream, offset, header)
        frame = payload.frame_index
        if frame != expected:
            raise StreamFormatError(f"frame index {frame} out of order, expected {expected}")
        n = len(state.gaussians)
        sources = payload.deltas.clone_sources
        if sources.size and sources.max() >= n:
            raise StreamFormatError(f"frame {frame}: clone source {sources.max()} is not "
                                    f"below the gaussian count {n}")
        hierarchy = state.hierarchy
        if header.reconfigures_at(frame):
            # the encoder's rehierarchize builds exactly this; its legacy-anchor
            # maps only seed the encoder's fit
            hierarchy = build_hierarchy(state.gaussians, config, finest_target)
        codec.verify_counts(payload, hierarchy)
        state.hierarchy = hierarchy
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                state = _advance_state(state, payload.deltas, config.composition_mode, frame)
        except NumericalError as exc:
            raise StreamFormatError(f"frame {frame}: {exc}") from exc
        g = state.gaussians
        if not (np.isfinite(g.positions).all() and np.isfinite(g.orientations).all()):
            raise StreamFormatError(f"frame {frame}: deltas carry gaussians out of float32 range")
        yield _frame_row(header, frame, payload.realized_counts, len(sources),
                         offset - start, state), state
        expected += 1


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
