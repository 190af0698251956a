"""Index-free binary stream format, quantization, and budget planning.

One ``.rcgs`` file per session: a fixed header followed by concatenated frame
payloads. Anchors are never named in the stream; both sides order them by
grid cell key, so delta blocks are raw value runs. All integers and floats
are little-endian. The header holds every setting a decoder needs; nothing
about a session travels out of band.

:class:`StreamHeader` is the session's :class:`StreamConfig` plus its frame-0
gaussian count. Of the config, ``levels``, ``quantization``,
``composition_mode``, ``level_ratio``, ``reconfig_period`` and
``finest_fraction`` travel in the header. ``phase1_steps``, ``phase2_steps``
and ``densify_threshold`` steer only the encoder's fit and densification and
never travel; a parsed header holds their defaults.

Header (33 bytes, format version 4):
    magic           4s   = b"RCGS"
    version         u16  = 4
    levels          u8   (1..4)
    quantization    u8   (0 full32, 1 half16, 2 fixed16)
    composition_mode u8  (0 additive, 1 pivot)
    level_ratio     u32  (>= 1)
    reconfig_period u32  (>= 1)
    finest_num      u32  \\ effective finest-level anchor fraction, in (0, 1]
    finest_den      u32  /
    gaussian_count_initial u64  (>= 1)

Frame payload:
    frame_index     u64
    realized_anchor_counts  u32 x levels
    per level: translation block (3 values per anchor), then, in pivot mode
        only, rotation block (4 values per anchor)
        full32:  f32 runs
        half16:  f16 runs
        fixed16: per component (min f32, max f32), then u16 runs
    relocation_count u32, then relocation_count u32 gaussian ordinals,
                    strictly increasing, then relocation_count x 3 f32
                    positions

Additive mode carries no rotation blocks: an additive frame moves positions
only, so its rotation increments are zero (the encoder refuses anything
else), the decoder restores them as zeros, and orientations never change.
A relocation record moves one gaussian: after the frame's deformation, the
gaussian named by its ordinal takes the record's position, at full
precision, and keeps every other attribute. No gaussian is ever appended,
so the gaussian count stays the frame-0 count for the whole session.
Version 3 used the same 16 B record to append a copy of the named gaussian.
Hierarchy rebuilds follow the header's schedule
(:meth:`StreamHeader.reconfigures_at`), so no frame carries a flag for them.
Streams of versions 1 to 3 are rejected.

fixed16 maps x to round((x - min) / (max - min) * 65535); max == min encodes
a constant block, and min and max are finite.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import BudgetError, ConfigError, StreamFormatError
from .hierarchy import AnchorHierarchy, level_caps
from .motion import AnchorDeltaSet, FrameDeformation
from .types import CompositionMode, Quantization, StreamConfig

MAGIC = b"RCGS"
VERSION = 4
_PREFIX = struct.Struct("<4sH")  # magic and version, where every version starts
_HEADER = struct.Struct("<4sHBBBIIIIQ")
HEADER_BYTES = _HEADER.size  # 33

RELOCATION_BYTES = 16  # u32 gaussian ordinal + 3 f32 position values

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
    """Fixed per-session header; everything a mirror decoder derives from.

    Only the config's decode settings travel, so a header from :meth:`unpack`
    holds the defaults of the encoder-only ones (see the module docstring).
    Where those may differ, compare headers by their :meth:`pack` bytes.
    """

    config: StreamConfig
    gaussian_count_initial: int

    def reconfigures_at(self, frame: int) -> bool:
        """Whether the hierarchy is rebuilt before ``frame``, on both sides."""
        return frame % self.config.reconfig_period == 0

    def pack(self) -> bytes:
        c = self.config
        return _HEADER.pack(
            MAGIC,
            VERSION,
            c.levels,
            int(c.quantization),
            int(c.composition_mode),
            c.level_ratio,
            c.reconfig_period,
            c.finest_fraction.numerator,
            c.finest_fraction.denominator,
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
        if count == 0:  # no encoder writes it: a session needs a gaussian at frame 0
            raise StreamFormatError("bad stream header: frame-0 gaussian count is zero")
        try:  # the config checks every field's range
            config = StreamConfig(levels=levels, finest_fraction=Fraction(num, den),
                                  level_ratio=ratio, reconfig_period=period,
                                  quantization=quant, composition_mode=mode)
        except (ValueError, ConfigError) as exc:
            raise StreamFormatError(f"bad stream header: {exc}") from exc
        return cls(config, count)


@dataclass
class FramePayload:
    """Decoded frame content, deltas already dequantized to float32."""

    frame_index: int
    deltas: FrameDeformation

    @property
    def realized_counts(self) -> tuple[int, ...]:
        """The per-level anchor counts the frame states."""
        return tuple(len(ds) for ds in self.deltas.per_level)


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
        if not (math.isfinite(mn) and math.isfinite(mx)):
            raise StreamFormatError(f"fixed16 range ({mn}, {mx}) is not finite")
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


def quantize_roundtrip(deltas: FrameDeformation, header: StreamHeader) -> FrameDeformation:
    """Deltas as the decoder will reconstruct them.

    The encoder advances its own state with these values (quantize-then-apply
    on both ends), so encoder and decoder replicas never drift, whatever the
    quantization mode. Every mode goes through the same block encoder and
    decoder as a frame; for full32 that round trip through ``<f4`` returns
    every float32 bit for bit, signed zeros and subnormals included. As in
    :func:`decode_frame`, rotations round-trip only in pivot mode; additive
    rotations come back as fresh zeros, whatever zeros were sent.
    """
    quant = header.config.quantization
    pivot = header.config.composition_mode == CompositionMode.pivot

    def roundtrip(values: np.ndarray) -> np.ndarray:
        block = _encode_block(values, quant)
        return _decode_block(block, 0, values.shape[0], values.shape[1], quant)[0]

    out = []
    for ds in deltas.per_level:
        rot = roundtrip(ds.rotations) if pivot else np.zeros((len(ds), 4), np.float32)
        out.append(AnchorDeltaSet(roundtrip(ds.translations), rot))
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
    quant = header.config.quantization
    pivot = header.config.composition_mode == CompositionMode.pivot
    parts = [struct.pack("<Q", frame_index)]
    parts.append(struct.pack(f"<{len(counts)}I", *counts))
    for ds, count in zip(deltas.per_level, counts):
        if len(ds) != count:
            raise ValueError(f"delta block has {len(ds)} anchors, hierarchy has {count}")
        parts.append(_encode_block(ds.translations, quant))
        if pivot:
            parts.append(_encode_block(ds.rotations, quant))
        elif ds.rotations.any():
            raise ValueError("additive frames carry no rotations, but a rotation is nonzero")
    parts.append(struct.pack("<I", len(deltas.relocation_ordinals)))
    parts.append(deltas.relocation_ordinals.astype("<u4").tobytes())
    parts.append(deltas.relocation_positions.astype("<f4").tobytes())
    return b"".join(parts)


def decode_frame(buf: bytes, offset: int, header: StreamHeader) -> tuple[FramePayload, int]:
    """Parse one frame payload starting at ``offset``.

    The payload is self-describing given the header; consistency with the
    decoder's state (realized counts, relocation ordinals below the gaussian
    count) is checked by the decode loop. In additive mode the rotations
    come back as zeros.
    """
    _need(buf, offset, 8)
    (frame_index,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    levels, quant = header.config.levels, header.config.quantization
    _need(buf, offset, 4 * levels)
    counts = struct.unpack_from(f"<{levels}I", buf, offset)
    offset += 4 * levels
    pivot = header.config.composition_mode == CompositionMode.pivot
    blocks = []
    for count in counts:
        trans, offset = _decode_block(buf, offset, count, 3, quant)
        if pivot:
            rot, offset = _decode_block(buf, offset, count, 4, quant)
        else:
            rot = np.zeros((count, 4), np.float32)
        blocks.append((trans, rot))
    _need(buf, offset, 4)
    (count,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    _need(buf, offset, count * RELOCATION_BYTES)
    ordinals = np.frombuffer(buf, "<u4", count, offset).astype(np.int64)
    offset += 4 * count
    positions = np.frombuffer(buf, "<f4", 3 * count, offset).reshape(count, 3)
    offset += 12 * count
    try:  # well-framed bytes can still hold values no encoder writes
        deltas = FrameDeformation([AnchorDeltaSet(t, r) for t, r in blocks], ordinals, positions)
    except ValueError as exc:
        raise StreamFormatError(f"frame {frame_index}: {exc}") from exc
    return FramePayload(frame_index, deltas), offset


def iter_frames(stream: bytes, header: StreamHeader) -> Iterator[tuple[FramePayload, int]]:
    """Each frame after the header, in order: its payload and its length in bytes.

    A frame index other than the next in sequence is a :class:`StreamFormatError`.
    """
    offset, expected = HEADER_BYTES, 1
    while offset < len(stream):
        payload, end = decode_frame(stream, offset, header)
        if payload.frame_index != expected:
            raise StreamFormatError(
                f"frame index {payload.frame_index} out of order, expected {expected}")
        yield payload, end - offset
        offset, expected = end, expected + 1


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
# RELOCATION_BYTES per relocation record. frame_byte_split gives the three
# for one frame, and plan_budget prices frames with the same functions.


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
    """Fixed per-frame bytes: index, counts, relocation count."""
    return 8 + 4 * levels + 4


def frame_byte_split(counts, relocations: int, config: StreamConfig) -> tuple[int, int, int]:
    """A frame's (delta, relocation, overhead) bytes; they sum to its payload length."""
    return (delta_block_bytes(counts, config.quantization, config.composition_mode),
            relocations * RELOCATION_BYTES, frame_overhead_bytes(config.levels))


def plan_budget(n_gaussians: int, bytes_per_frame: int, config: StreamConfig) -> StreamConfig:
    """The config whose deltas plus frame overhead fit a budget with the most anchors.

    A candidate k is ``config`` with finest_fraction k / n_gaussians, priced by
    :func:`delta_block_bytes` plus :func:`frame_overhead_bytes` at the anchor
    caps it lets the hierarchy fill (:func:`hierarchy.level_caps`), so every
    frame of a session run with the plan stays within the budget. k is at
    most ceil(n_gaussians * finest_fraction), the plan when the budget does
    not bind. Relocation records (16 B each) are outside the budget, so a
    densifying frame can exceed it. An infeasible budget is a
    :class:`BudgetError` carrying the minimum feasible one, the cost at k = 1;
    fewer than one gaussian is a :class:`ConfigError`.
    """
    if n_gaussians < 1:
        raise ConfigError(f"a budget plan needs at least one gaussian, got {n_gaussians}")
    overhead = frame_overhead_bytes(config.levels)

    def cost(k: int) -> int:
        caps = level_caps(n_gaussians, replace(config, finest_fraction=Fraction(k, n_gaussians)))
        return delta_block_bytes(caps, config.quantization, config.composition_mode) + overhead

    minimum = cost(1)
    if bytes_per_frame < minimum:
        raise BudgetError(
            f"budget {bytes_per_frame} B/frame below minimum feasible {minimum} B/frame",
            minimum_bytes=minimum,
        )
    lo, hi = 1, math.ceil(n_gaussians * config.finest_fraction)
    while lo < hi:  # cost is monotone in the finest target
        mid = (lo + hi + 1) // 2
        if cost(mid) <= bytes_per_frame:
            lo = mid
        else:
            hi = mid - 1
    return replace(config, finest_fraction=Fraction(lo, n_gaussians))
