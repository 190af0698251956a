"""Gaussian point-cloud PLY ingestion and export.

The layout follows the common splatting export convention for the stored
quantities: scales are kept in log-space, opacity as a logit, SH split into
the DC triplet (f_dc_*) and the channel-major degree-1 tail (f_rest_0..8).
Only binary little-endian files with exactly this property list are accepted;
ascii and big-endian variants are rejected with a descriptive error. Parsing
is strict so that a file that reads back is guaranteed to round-trip.
"""

from __future__ import annotations

import numpy as np

from .errors import PlyParseError
from .types import GaussianSet

PLY_PROPERTIES = (
    "x", "y", "z",
    "scale_0", "scale_1", "scale_2",
    "rot_0", "rot_1", "rot_2", "rot_3",
    "opacity",
    "f_dc_0", "f_dc_1", "f_dc_2",
    "f_rest_0", "f_rest_1", "f_rest_2", "f_rest_3", "f_rest_4",
    "f_rest_5", "f_rest_6", "f_rest_7", "f_rest_8",
)

_FLOATS_PER_VERTEX = len(PLY_PROPERTIES)  # 23

_OPACITY_CLAMP = 1e-6


def _header_lines(count: int) -> list[str]:
    lines = ["ply", "format binary_little_endian 1.0", f"element vertex {count}"]
    lines += [f"property float {name}" for name in PLY_PROPERTIES]
    lines.append("end_header")
    return lines


def read_gaussian_ply(data: bytes) -> GaussianSet:
    """Parse a binary gaussian PLY into validated records.

    Stored log-scales are exponentiated, opacity logits pass through the
    logistic function, and quaternions are normalized. Record order is
    preserved. A record holding NaN or an infinity, or a log-scale whose
    scale is 0 or infinite in float32, is a :class:`PlyParseError` naming the
    first such record and its byte offset.
    """
    offset = 0

    def next_line() -> str:
        nonlocal offset
        end = data.find(b"\n", offset)
        if end < 0:
            raise PlyParseError("header not terminated", offset)
        line = data[offset:end].decode("ascii", errors="replace").strip()
        offset = end + 1
        return line

    if next_line() != "ply":
        raise PlyParseError("not a PLY file (missing 'ply' signature)", 0)
    fmt = next_line()
    if fmt != "format binary_little_endian 1.0":
        raise PlyParseError(
            f"unsupported format {fmt!r}; only binary_little_endian 1.0 is accepted", offset
        )

    count = None
    names: list[str] = []
    while True:
        at = offset
        line = next_line()
        if line == "end_header":
            break
        if line.startswith("comment"):
            continue
        if line.startswith("element "):
            parts = line.split()
            if len(parts) != 3 or parts[1] != "vertex":
                raise PlyParseError(f"unsupported element {line!r}", at)
            try:
                count = int(parts[2])
            except ValueError:
                count = -1  # reported just below, as a negative count is
            if count < 0:
                raise PlyParseError(f"bad vertex count in {line!r}", at)
            continue
        if line.startswith("property "):
            parts = line.split()
            if len(parts) != 3 or parts[1] != "float":
                raise PlyParseError(f"unsupported property {line!r}", at)
            names.append(parts[2])
            continue
        raise PlyParseError(f"unexpected header line {line!r}", at)

    if count is None:
        raise PlyParseError("missing 'element vertex' declaration", offset)
    if tuple(names) != PLY_PROPERTIES:
        missing = [n for n in PLY_PROPERTIES if n not in names]
        if missing:
            raise PlyParseError(f"missing properties {missing}", offset)
        raise PlyParseError(
            f"property order mismatch: got {names[:4]}..., expected {list(PLY_PROPERTIES[:4])}...",
            offset,
        )

    body_bytes = count * _FLOATS_PER_VERTEX * 4
    if len(data) - offset < body_bytes:
        raise PlyParseError(
            f"truncated body: need {body_bytes} bytes for {count} vertices, "
            f"have {len(data) - offset}",
            offset,
        )
    raw = np.frombuffer(data, "<f4", count * _FLOATS_PER_VERTEX, offset)
    cols = raw.reshape(count, _FLOATS_PER_VERTEX).astype(np.float64)

    def record_error(bad_rows: np.ndarray, what: str) -> PlyParseError:
        row = int(np.flatnonzero(bad_rows)[0])
        return PlyParseError(f"record {row} {what}", offset + row * _FLOATS_PER_VERTEX * 4)

    finite = np.isfinite(cols).all(axis=1)
    if not finite.all():
        raise record_error(~finite, "holds a non-finite value")
    positions = cols[:, 0:3]
    with np.errstate(over="ignore"):  # an overflow is reported just below
        scales = np.exp(cols[:, 3:6]).astype(np.float32)
    bad_scale = ~((scales > 0) & np.isfinite(scales)).all(axis=1)
    if bad_scale.any():
        raise record_error(bad_scale, "has a log-scale outside float32 range")
    quats = cols[:, 6:10]
    norms = np.linalg.norm(quats, axis=1)
    zero = norms < 1e-12
    if zero.any():
        raise record_error(zero, "has a zero-norm quaternion")
    quats = quats / norms[:, None]
    opacities = 1.0 / (1.0 + np.exp(-cols[:, 10]))
    sh = cols[:, 11:23]
    return GaussianSet(positions, scales, quats, opacities, sh)


def write_gaussian_ply(gaussians: GaussianSet) -> bytes:
    """Serialize records with the inverse field mapping (log scale, logit opacity).

    Opacities exactly 0 or 1 have no finite logit and are clamped to
    [1e-6, 1 - 1e-6] first; that is the one lossy edge of the round trip.
    """
    n = len(gaussians)
    header = ("\n".join(_header_lines(n)) + "\n").encode("ascii")
    if n == 0:
        return header
    scales = gaussians.scales.astype(np.float64)
    if (scales <= 0).any() or not np.isfinite(scales).all():
        raise ValueError("scales must be strictly positive and finite")
    opacity = np.clip(gaussians.opacities.astype(np.float64), _OPACITY_CLAMP, 1.0 - _OPACITY_CLAMP)
    body = np.concatenate(
        [
            gaussians.positions.astype(np.float64),
            np.log(scales),
            gaussians.orientations.astype(np.float64),
            np.log(opacity / (1.0 - opacity))[:, None],
            gaussians.sh.astype(np.float64),
        ],
        axis=1,
    )
    return header + body.astype("<f4").tobytes()
