"""Index-free binary stream format, quantization, and budget planning.

One ``.rcgs`` file per session: a fixed header followed by concatenated frame
payloads. Anchors are never named in the stream; both sides order them by
grid cell key, so delta blocks are raw value runs. All integers and floats
are little-endian. The header holds every setting a decoder needs; nothing
about a session travels out of band.

Header (33 bytes, format version 3):
    magic           4s   = b"RCGS"
    version         u16  = 3
    levels          u8   (1..4)
    quantization    u8   (0 full32, 1 half16, 2 fixed16)
    composition_mode u8  (0 additive, 1 pivot)
    level_ratio     u32  (>= 1)
    reconfig_period u32  (>= 1)
    finest_num      u32  \\ effective finest-level anchor fraction, in (0, 1]
    finest_den      u32  /
    gaussian_count_initial u64

Frame payload:
    frame_index     u64
    realized_anchor_counts  u32 x levels
    per level: translation block (3 values per anchor), then, in pivot mode
        only, rotation block (4 values per anchor)
        full32:  f32 runs
        half16:  f16 runs
        fixed16: per component (min f32, max f32), then u16 runs
    added_count     u32, then added_count u32 source ordinals, then
                    added_count x 3 f32 positions

Additive mode carries no rotation blocks: an additive frame moves positions
only, so its rotation increments are zero (the encoder refuses anything
else), the decoder restores them as zeros, and orientations never change.
A clone travels as the ordinal of the gaussian it copies, in the state
before the frame's deformation, plus its own position at full precision;
the rest of its record is its source's, which the decoder already holds.
Hierarchy rebuilds follow the header's schedule
(:meth:`StreamHeader.reconfigures_at`), so no frame carries a flag for them.
Streams of versions 1 and 2 are rejected.

fixed16 maps x to round((x - min) / (max - min) * 65535); max == min encodes
a constant block.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import BudgetError, ConfigError, StreamFormatError
from .hierarchy import AnchorHierarchy, level_caps
from .motion import AnchorDeltaSet, FrameDeformation
from .types import CompositionMode, Quantization, StreamConfig

MAGIC = b"RCGS"
VERSION = 3
_PREFIX = struct.Struct("<4sH")  # magic and version, where every version starts
_HEADER = struct.Struct("<4sHBBBIIIIQ")
HEADER_BYTES = _HEADER.size  # 33

CLONE_BYTES = 16  # u32 source ordinal + 3 f32 position values

VALUE_BYTES = {
    Quantization.full32: 4,
    Quantization.half16: 2,
    Quantization.fixed16: 2,
}

# wire dtype of the float widths; fixed16 is the one mode with its own block layout
_FLOAT_WIRE = {
    Quantization.full32: "<f4",
    Quantization.half16: "<f2",
}


def values_per_anchor(mode: CompositionMode) -> int:
    """Wire values per anchor: translation 3, plus rotation 4 in pivot mode."""
    return 7 if mode == CompositionMode.pivot else 3


@dataclass
class StreamHeader:
    """Fixed per-session header; everything a mirror decoder derives from."""

    levels: int
    quantization: Quantization
    composition_mode: CompositionMode
    level_ratio: int
    reconfig_period: int
    finest_num: int
    finest_den: int
    gaussian_count_initial: int
    version: int = VERSION

    @classmethod
    def for_session(cls, config: StreamConfig, gaussian_count_initial: int) -> "StreamHeader":
        """The header of a session run with ``config`` (its effective finest fraction)."""
        return cls(
            levels=config.levels,
            quantization=config.quantization,
            composition_mode=config.composition_mode,
            level_ratio=config.level_ratio,
            reconfig_period=config.reconfig_period,
            finest_num=config.finest_fraction.numerator,
            finest_den=config.finest_fraction.denominator,
            gaussian_count_initial=gaussian_count_initial,
        )

    @property
    def finest_fraction(self) -> Fraction:
        return Fraction(self.finest_num, self.finest_den)

    def reconfigures_at(self, frame: int) -> bool:
        """Whether the hierarchy is rebuilt before ``frame``, on both sides."""
        return frame % self.reconfig_period == 0

    def stream_config(self) -> StreamConfig:
        """The settings a decoder needs, as a config.

        The encoder-only settings (``phase1_steps``, ``phase2_steps``,
        ``densify_threshold``) keep their defaults; no decode reads them.
        """
        return StreamConfig(
            levels=self.levels,
            finest_fraction=self.finest_fraction,
            level_ratio=self.level_ratio,
            reconfig_period=self.reconfig_period,
            quantization=self.quantization,
            composition_mode=self.composition_mode,
        )

    def pack(self) -> bytes:
        return _HEADER.pack(
            MAGIC,
            self.version,
            self.levels,
            int(self.quantization),
            int(self.composition_mode),
            self.level_ratio,
            self.reconfig_period,
            self.finest_num,
            self.finest_den,
            self.gaussian_count_initial,
        )

    @classmethod
    def unpack(cls, buf: bytes) -> "StreamHeader":
        """Parse and check a header; every bad field is a :class:`StreamFormatError`."""
        if len(buf) < _PREFIX.size:
            raise StreamFormatError(f"stream shorter than header: {len(buf)} bytes")
        magic, version = _PREFIX.unpack_from(buf, 0)
        if magic != MAGIC:
            raise StreamFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise StreamFormatError(f"unsupported stream version {version}, expected {VERSION}")
        if len(buf) < HEADER_BYTES:
            raise StreamFormatError(f"stream shorter than header: {len(buf)} bytes")
        (_, _, levels, quant, mode, ratio, period, num, den,
         count) = _HEADER.unpack_from(buf, 0)
        if den == 0:
            raise StreamFormatError("bad stream header: finest fraction denominator is zero")
        try:
            header = cls(levels, Quantization(quant), CompositionMode(mode), ratio, period,
                         num, den, count, version)
            header.stream_config()  # the field ranges a config accepts
        except (ValueError, ConfigError) as exc:
            raise StreamFormatError(f"bad stream header: {exc}") from exc
        return header


@dataclass
class FramePayload:
    """Decoded frame content, deltas already dequantized to float32."""

    frame_index: int
    realized_counts: tuple[int, ...]
    deltas: FrameDeformation


# ---------------------------------------------------------------------------
# Block quantization
# ---------------------------------------------------------------------------


def _encode_block(values: np.ndarray, quantization: Quantization) -> bytes:
    arr = np.ascontiguousarray(values, np.float32)
    if quantization in _FLOAT_WIRE:
        return arr.astype(_FLOAT_WIRE[quantization]).tobytes()
    parts = []
    for j in range(arr.shape[1]):
        col = arr[:, j]
        mn = np.float32(col.min()) if col.size else np.float32(0)
        mx = np.float32(col.max()) if col.size else np.float32(0)
        parts.append(struct.pack("<ff", mn, mx))
        if mx > mn:
            q = np.round((col.astype(np.float64) - float(mn)) / (float(mx) - float(mn)) * 65535.0)
        else:
            q = np.zeros(col.shape, np.float64)
        parts.append(q.astype("<u2").tobytes())
    return b"".join(parts)


def _decode_block(buf: bytes, offset: int, count: int, width: int,
                  quantization: Quantization) -> tuple[np.ndarray, int]:
    if quantization in _FLOAT_WIRE:
        nbytes = count * width * VALUE_BYTES[quantization]
        _need(buf, offset, nbytes)
        arr = np.frombuffer(buf, _FLOAT_WIRE[quantization], count * width, offset)
        return arr.reshape(count, width).astype(np.float32), offset + nbytes
    cols = []
    for _ in range(width):
        _need(buf, offset, 8)
        mn, mx = struct.unpack_from("<ff", buf, offset)
        offset += 8
        _need(buf, offset, count * 2)
        q = np.frombuffer(buf, "<u2", count, offset).astype(np.float64)
        offset += count * 2
        if mx > mn:
            col = mn + q * ((float(mx) - float(mn)) / 65535.0)
        else:
            col = np.full(count, mn, np.float64)
        cols.append(col.astype(np.float32))
    return np.stack(cols, axis=1), offset


def quantize_roundtrip(deltas: FrameDeformation, quantization: Quantization) -> FrameDeformation:
    """Deltas as the decoder will reconstruct them.

    The encoder advances its own state with these values (quantize-then-apply
    on both ends), so encoder and decoder replicas never drift, whatever the
    quantization mode. Every mode goes through the same block encoder and
    decoder as a frame; for full32 that round trip through ``<f4`` returns
    every float32 bit for bit, signed zeros and subnormals included.
    """
    out = []
    for ds in deltas.per_level:
        count = len(ds)
        t, _ = _decode_block(_encode_block(ds.translations, quantization), 0, count, 3, quantization)
        r, _ = _decode_block(_encode_block(ds.rotations, quantization), 0, count, 4, quantization)
        out.append(AnchorDeltaSet(t, r))
    return replace(deltas, per_level=out)


# ---------------------------------------------------------------------------
# Frame encode / decode
# ---------------------------------------------------------------------------


def _need(buf: bytes, offset: int, nbytes: int) -> None:
    if offset + nbytes > len(buf):
        raise StreamFormatError(
            f"truncated payload: need {nbytes} bytes at offset {offset}, have {len(buf) - offset}"
        )


def encode_frame(frame_index: int, deltas: FrameDeformation, hierarchy: AnchorHierarchy,
                 header: StreamHeader) -> bytes:
    """Serialize one frame. Delta blocks follow the canonical anchor order.

    Raises ``ValueError`` for a nonzero rotation in additive mode, which the
    decoder could not restore.
    """
    counts = hierarchy.anchor_counts()
    if len(deltas.per_level) != len(counts):
        raise ValueError("deformation levels do not match hierarchy")
    pivot = header.composition_mode == CompositionMode.pivot
    parts = [struct.pack("<Q", frame_index)]
    parts.append(struct.pack(f"<{len(counts)}I", *counts))
    for ds, count in zip(deltas.per_level, counts):
        if len(ds) != count:
            raise ValueError(f"delta block has {len(ds)} anchors, hierarchy has {count}")
        parts.append(_encode_block(ds.translations, header.quantization))
        if pivot:
            parts.append(_encode_block(ds.rotations, header.quantization))
        elif ds.rotations.any():
            raise ValueError("additive frames carry no rotations, but a rotation is nonzero")
    parts.append(struct.pack("<I", len(deltas.clone_sources)))
    parts.append(deltas.clone_sources.astype("<u4").tobytes())
    parts.append(deltas.clone_positions.astype("<f4").tobytes())
    return b"".join(parts)


def decode_frame(buf: bytes, offset: int, header: StreamHeader) -> tuple[FramePayload, int]:
    """Parse one frame payload starting at ``offset``.

    The payload is self-describing given the header; consistency with the
    decoder's state (realized counts, clone source ordinals) is checked by
    the decode loop. In additive mode the rotations come back as zeros.
    """
    _need(buf, offset, 8)
    (frame_index,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    _need(buf, offset, 4 * header.levels)
    counts = struct.unpack_from(f"<{header.levels}I", buf, offset)
    offset += 4 * header.levels
    pivot = header.composition_mode == CompositionMode.pivot
    blocks = []
    for count in counts:
        trans, offset = _decode_block(buf, offset, count, 3, header.quantization)
        if pivot:
            rot, offset = _decode_block(buf, offset, count, 4, header.quantization)
        else:
            rot = np.zeros((count, 4), np.float32)
        blocks.append((trans, rot))
    _need(buf, offset, 4)
    (clone_count,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    _need(buf, offset, clone_count * CLONE_BYTES)
    sources = np.frombuffer(buf, "<u4", clone_count, offset).astype(np.int64)
    offset += 4 * clone_count
    positions = np.frombuffer(buf, "<f4", 3 * clone_count, offset).reshape(clone_count, 3)
    offset += 12 * clone_count
    try:  # well-framed bytes can still hold values no encoder writes
        deltas = FrameDeformation([AnchorDeltaSet(t, r) for t, r in blocks], sources, positions)
    except ValueError as exc:
        raise StreamFormatError(f"frame {frame_index}: {exc}") from exc
    return FramePayload(frame_index, tuple(int(c) for c in counts), deltas), offset


def verify_counts(payload: FramePayload, hierarchy: AnchorHierarchy) -> None:
    """Hard error naming the level if stream counts disagree with local state."""
    local = hierarchy.anchor_counts()
    for li, (got, want) in enumerate(zip(payload.realized_counts, local), start=1):
        if got != want:
            raise StreamFormatError(
                f"frame {payload.frame_index}: level {li} has {got} anchors in stream "
                f"but {want} in mirrored state"
            )


# ---------------------------------------------------------------------------
# Size accounting and budget planning
# ---------------------------------------------------------------------------
#
# A frame's payload splits exactly into three parts: the delta blocks
# (delta_block_bytes), the fixed frame overhead (frame_overhead_bytes) and
# CLONE_BYTES per clone. The session's per-frame rows and plan_budget both
# price frames with these functions and nothing else.


def delta_block_bytes(counts, quantization: Quantization, mode: CompositionMode) -> int:
    """Exact byte size of all per-level delta blocks for given anchor counts.

    fixed16 adds a (min, max) f32 range per level and component.
    """
    values = values_per_anchor(mode)
    total = sum(int(c) * values * VALUE_BYTES[quantization] for c in counts)
    if quantization == Quantization.fixed16:
        total += len(tuple(counts)) * values * 8
    return total


def frame_overhead_bytes(levels: int) -> int:
    """Fixed per-frame bytes: index, counts, clone count."""
    return 8 + 4 * levels + 4


def plan_budget(n_gaussians: int, bytes_per_frame: int, config: StreamConfig) -> int:
    """Largest finest-level anchor target whose deformation payload fits a budget.

    The budget covers anchor deltas plus frame overhead only. Each candidate
    is priced by :func:`delta_block_bytes` plus :func:`frame_overhead_bytes`
    at the anchor caps the hierarchy can fill with it
    (:func:`hierarchy.level_caps`), not at its nominal targets, so deltas
    plus overhead stay within the budget at every frame of a session whose
    rebuilds all use the returned target, however many gaussians
    densification appends. The clone records themselves (16 B each: a source
    ordinal and a position) are outside the budget, so a frame that densifies
    can exceed it, and a tighter budget means coarser anchors, larger
    residuals and often more clones. The target is capped at ceil(n_gaussians *
    finest_fraction). An infeasible budget raises with the minimum feasible
    one, the cost at a finest target of one anchor.
    """
    overhead = frame_overhead_bytes(config.levels)

    def cost(finest: int) -> int:
        caps = level_caps(n_gaussians, config, finest)
        return delta_block_bytes(caps, config.quantization, config.composition_mode) + overhead

    minimum = cost(1)
    if bytes_per_frame < minimum:
        raise BudgetError(
            f"budget {bytes_per_frame} B/frame below minimum feasible {minimum} B/frame",
            minimum_bytes=minimum,
        )
    lo, hi = 1, max(1, math.ceil(n_gaussians * config.finest_fraction))
    while lo < hi:  # cost is monotone in the finest target
        mid = (lo + hi + 1) // 2
        if cost(mid) <= bytes_per_frame:
            lo = mid
        else:
            hi = mid - 1
    return lo
