"""Hot numeric kernels, one numpy implementation each.

Every kernel fixes its floating-point operation order and its tie-breaks, so
encoder and decoder replicas that call it on the same inputs get the same
bits. ``tests/test_kernels.py`` checks each against a plain-loop oracle.

:func:`l1_nearest` scans every anchor up to :data:`SCAN_MAX_ANCHORS`
anchors and prunes by blocks above it. Each block of points, one cell of a
g^3 grid with g = round(A^(1/3)), scans only the anchors whose L1 lower bound
to the block's tight box is within the block's upper bound. That filter keeps
every anchor that can be a point's minimizer, ties included, and the kept
anchors are scanned with the full scan's own float64 expression in ascending
ordinal order, so both paths give the same bits.

:func:`sum_by_index` scatter-adds one column at a time with ``np.bincount``,
which walks the rows in ascending order and accumulates each bucket in
float64. ``np.add.at`` gives the same bits, but its generic unbuffered
loop took 290-430 us where the bincounts take 40-50 us (6000 x 3 rows into
729 buckets, 2-core x86 host), and it wraps negative indices in silence.
"""

from __future__ import annotations

import numpy as np


# At or below this many anchors one scan over all of them is cheapest; above
# it, block pruning wins. Measured crossover: 54-64 anchors at N = 1.2k-20k.
SCAN_MAX_ANCHORS = 64


def _scan(pts: np.ndarray, anc: np.ndarray) -> np.ndarray:
    """Argmin over all anchors of ``|dx| + |dy| + |dz|``, first minimum wins."""
    n = pts.shape[0]
    out = np.empty(n, dtype=np.int64)
    # chunk so the (chunk, A, 3) broadcast stays within a few MB
    chunk = max(1, int(4_000_000 / max(1, anc.shape[0] * 3)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        d = np.abs(pts[start:stop, None, :] - anc[None, :, :]).sum(axis=2)
        out[start:stop] = d.argmin(axis=1)
    return out


def l1_nearest(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Index of the L1-nearest anchor for every point, lowest ordinal on ties.

    Distances accumulate in float64 as ``|dx| + |dy| + |dz|``, left to right.
    With at most :data:`SCAN_MAX_ANCHORS` anchors every point scans them all.
    Above that, the points are bucketed into a g^3 grid, g = round(A^(1/3)),
    and each occupied cell is a block with tight box [lo, hi]:

    - an anchor's lower bound to the box, sum over axes of
      max(lo - a, a - hi, 0), is at most its distance to any block point;
    - the upper bound is the largest distance from the block's points to the
      anchor with the smallest lower bound, so every point has an anchor at
      most that far;
    - the block scans only the anchors whose lower bound is within that
      upper bound times (1 + 1e-9), kept in ascending ordinal order.

    Every minimizer of every point, and so every anchor tied with it, passes
    the filter: lo <= p <= hi and rounding is monotone, so each computed
    per-axis bound is at most the computed |p - a| and the bound's sum at
    most the distance's; the margin absorbs any rounding in the upper bound
    itself. The scan over the kept anchors computes each distance with the
    same float64 operations as the full scan and takes the first minimum in
    ascending ordinal order, so the result is bit-identical to scanning all
    anchors.
    """
    pts = points.astype(np.float64)
    anc = anchors.astype(np.float64)
    n_anchor = anc.shape[0]
    if n_anchor <= SCAN_MAX_ANCHORS or pts.shape[0] == 0:
        return _scan(pts, anc)
    g = max(1, round(n_anchor ** (1.0 / 3.0)))
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    cell = np.zeros(pts.shape, dtype=np.int64)
    for axis in range(3):
        if extent[axis] > 0:
            scaled = np.floor((pts[:, axis] - lo[axis]) * (g / extent[axis]))
            cell[:, axis] = np.clip(scaled.astype(np.int64), 0, g - 1)
    codes = (cell[:, 0] * g + cell[:, 1]) * g + cell[:, 2]
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    stops = np.append(starts[1:], order.shape[0])
    out = np.empty(pts.shape[0], dtype=np.int64)
    for start, stop in zip(starts, stops):
        members = order[start:stop]
        block = pts[members]
        lower = np.maximum(np.maximum(block.min(axis=0) - anc, anc - block.max(axis=0)), 0.0)
        lower = lower.sum(axis=1)
        upper = np.abs(block - anc[lower.argmin()]).sum(axis=1).max()
        keep = np.flatnonzero(lower <= upper * (1.0 + 1e-9))
        out[members] = keep[_scan(block, anc[keep])]
    return out


def cell_winners(codes: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell argmin of ``d2`` keyed by ``codes``; cells returned in code order.

    Returns (sorted codes of the non-empty cells, winning point indices); on an
    exact tie the lowest point index wins.
    """
    codes = np.ascontiguousarray(codes, np.int64)
    d2 = np.ascontiguousarray(d2, np.float64)
    n = codes.shape[0]
    order = np.lexsort((np.arange(n), d2, codes))
    sorted_codes = codes[order]
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_codes[1:] != sorted_codes[:-1]
    return sorted_codes[first], order[first]


def sum_by_index(values: np.ndarray, index: np.ndarray, n_out: int) -> np.ndarray:
    """Sum rows of ``values`` into ``n_out`` buckets given by ``index``.

    Each column is one ``np.bincount(index, column, minlength=n_out)``: every
    bucket starts at +0.0 and adds its rows in float64, in ascending row
    order, so the floating-point reduction order is fixed and the result
    equals row-by-row accumulation bit for bit. An index outside
    ``[0, n_out)`` raises ``ValueError`` naming the first one.
    """
    values = np.asarray(values, np.float64)
    index = np.asarray(index, np.int64)
    if index.size and (index.min() < 0 or index.max() >= n_out):
        row = int(np.flatnonzero((index < 0) | (index >= n_out))[0])
        raise ValueError(f"index {index[row]} at row {row} is outside [0, {n_out})")
    out = np.empty((n_out, values.shape[1]), dtype=np.float64)
    for col in range(values.shape[1]):
        out[:, col] = np.bincount(index, values[:, col], minlength=n_out)
    return out


def backend_name() -> str:
    return "numpy"
