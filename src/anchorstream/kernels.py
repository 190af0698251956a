"""Hot numeric kernels, one numpy implementation each.

Every kernel fixes its floating-point operation order and its tie-breaks, so
encoder and decoder replicas that call it on the same inputs get the same
bits. ``tests/test_kernels.py`` checks each against a plain-loop oracle.

Points are L1 assigned in axis-major form. :func:`l1_nearest` copies the
points and anchors once into (3, n) and (3, A) float64 arrays and adds every
distance and every bound as three contiguous per-axis terms,
``(x + y) + z``. That is the order numpy uses to reduce a length-3 axis, so
the result equals the point-major ``.sum(axis=-1)`` bit for bit, without its
(n, A, 3) temporary. It scans every anchor up to :data:`SCAN_MAX_ANCHORS`
anchors or below :data:`PRUNE_MIN_POINTS` points, and prunes by blocks
otherwise. Each block of points, one cell of a g^3 grid with
g = round(A^(1/3)), scans only the anchors whose L1 lower bound to the
block's tight box is within the block's upper bound. That filter keeps
every anchor that can be a point's minimizer, ties included, and the kept
anchors are scanned with the full scan's own float64 expression in ascending
ordinal order, so both paths give the same bits.

:func:`sum_by_index` scatter-adds one column at a time with ``np.bincount``,
which walks the rows in ascending order and accumulates each bucket in
float64. ``np.add.at`` gives the same bits, but its generic unbuffered
loop took 290-430 us where the bincounts take 40-50 us (6000 x 3 rows into
729 buckets, 2-core x86 host), and it wraps negative indices in silence.
The bincounts themselves reveal an index outside the buckets, so the kernel
makes no range scan of its own unless one is there.
"""

from __future__ import annotations

import numpy as np


# At or below this many anchors one scan over all of them is cheapest; above
# it, block pruning wins. Measured with the axis-major arithmetic against
# grid-sampled anchors (2-core x86 host): the paths tie at 64 anchors for
# N = 20k, pruning takes 16-19% less time at 64 for N = 50k-200k, and one
# scan stays faster through 216 anchors for N = 6k.
SCAN_MAX_ANCHORS = 64

# Below this many points one scan is cheapest at any anchor count: the
# pruned path pays a fixed cost per block and a bound pass over all A anchors
# per block, which only enough points per block repay. Best of 9 runs, uniform
# random points, grid-sampled anchors, 2-core x86 host:
#
#     points x anchors    scan       pruned
#       300 x  981          2.7 ms     9.8 ms   (relocation assignment)
#      1200 x  982          6.8 ms    28.7 ms
#      5000 x  991         32.6 ms    41.2 ms
#      6000 x  343         12.3 ms    14.8 ms
#      7000 x  343         17.0 ms    14.1 ms
#      8000 x  343         17.3 ms    12.2 ms
#      8000 x 1000         42.8 ms    46.5 ms
#      9000 x 2165        128.3 ms   140.3 ms
#     12000 x  343         25.6 ms    21.6 ms
#     20000 x 1000        119.5 ms    47.9 ms
#
# The crossover drifts from 6-7k points at 125-729 anchors to 9-10k at
# 1000-2200, and runs swing by 10-20% near it; 8000 sits between.
PRUNE_MIN_POINTS = 8000

# Cells of each (points, anchors) distance array one scan chunk holds, 512 KB
# in float64: more runs no faster and only adds to peak memory.
_SCAN_CELLS = 1 << 16


def _scan(pts: np.ndarray, anc: np.ndarray) -> np.ndarray:
    """Argmin over all anchors of ``(|dx| + |dy|) + |dz|``, first minimum wins.

    ``pts`` is (3, n) and ``anc`` (3, A), float64, one row per axis.
    """
    n = pts.shape[1]
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, _SCAN_CELLS // max(1, anc.shape[1]))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        d = np.subtract.outer(pts[0, start:stop], anc[0])
        np.abs(d, out=d)
        term = np.empty_like(d)
        for axis in (1, 2):
            np.subtract.outer(pts[axis, start:stop], anc[axis], out=term)
            d += np.abs(term, out=term)
        out[start:stop] = d.argmin(axis=1)
    return out


def l1_nearest(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Index of the L1-nearest anchor for every point, lowest ordinal on ties.

    Distances accumulate in float64 as ``(|dx| + |dy|) + |dz|``. Both inputs
    are copied once to axis-major (3, n) and (3, A) float64 arrays, so every
    distance and every bound below is three contiguous per-axis terms added
    left to right, and no (n, A, 3) temporary is ever built. numpy reduces a
    length-3 axis the same way, first element plus second, then plus third,
    so these sums equal the ``.sum(axis=-1)`` of the point-major form bit for
    bit. With at most :data:`SCAN_MAX_ANCHORS` anchors, or fewer than
    :data:`PRUNE_MIN_POINTS` points, every point scans them all. Otherwise
    the points are bucketed into a g^3 grid, g = round(A^(1/3)), and each
    occupied cell is a block with tight box [lo, hi]; one ``reduceat`` pass
    over the code-sorted points takes every block's box.

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
    pts = np.ascontiguousarray(np.asarray(points).T, dtype=np.float64)
    anc = np.ascontiguousarray(np.asarray(anchors).T, dtype=np.float64)
    n, n_anchor = pts.shape[1], anc.shape[1]
    if n_anchor <= SCAN_MAX_ANCHORS or n < PRUNE_MIN_POINTS:
        return _scan(pts, anc)
    g = max(1, round(n_anchor ** (1.0 / 3.0)))
    lo = pts.min(axis=1)
    extent = pts.max(axis=1) - lo
    codes = np.zeros(n, dtype=np.int64)
    for axis in range(3):
        codes *= g
        if extent[axis] > 0:
            scaled = np.floor((pts[axis] - lo[axis]) * (g / extent[axis]))
            codes += np.clip(scaled.astype(np.int64), 0, g - 1)
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    stops = np.append(starts[1:], n)
    sorted_pts = pts[:, order]
    # (blocks, 3, 1): block b's box is a column that broadcasts against anc
    box_lo = np.minimum.reduceat(sorted_pts, starts, axis=1).T[:, :, None]
    box_hi = np.maximum.reduceat(sorted_pts, starts, axis=1).T[:, :, None]
    found = np.empty(n, dtype=np.int64)
    for b, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
        block = sorted_pts[:, start:stop]
        lower = np.maximum(box_lo[b] - anc, anc - box_hi[b])
        lower = np.maximum(lower, 0.0, out=lower).sum(axis=0)
        j = lower.argmin()
        upper = np.abs(block - anc[:, j:j + 1]).sum(axis=0).max()
        keep = (lower <= upper * (1.0 + 1e-9)).nonzero()[0]
        found[start:stop] = keep[_scan(block, anc[:, keep])]
    out = np.empty(n, dtype=np.int64)
    out[order] = found
    return out


def cell_winners(codes: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell argmin of ``d2`` keyed by ``codes``; cells returned in code order.

    Returns (sorted codes of the non-empty cells, winning point indices); on an
    exact tie the lowest point index wins. ``np.lexsort`` is a stable sort, so
    points with equal (code, d2) keep their ascending index order without an
    index key.
    """
    codes = np.ascontiguousarray(codes, np.int64)
    d2 = np.ascontiguousarray(d2, np.float64)
    n = codes.shape[0]
    order = np.lexsort((d2, codes))
    sorted_codes = codes[order]
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_codes[1:] != sorted_codes[:-1]
    return sorted_codes[first], order[first]


def _reject_outside(index: np.ndarray, n_out: int) -> None:
    """Raise ``ValueError`` naming the first index outside ``[0, n_out)``, if any."""
    bad = np.flatnonzero((index < 0) | (index >= n_out))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"index {index[row]} at row {row} is outside [0, {n_out})")


def sum_by_index(values: np.ndarray, index: np.ndarray, n_out: int) -> np.ndarray:
    """Sum rows of ``values`` into ``n_out`` buckets given by ``index``.

    Each column is one ``np.bincount(index, column, minlength=n_out)``: every
    bucket starts at +0.0 and adds its rows in float64, in ascending row
    order, so the floating-point reduction order is fixed and the result
    equals row-by-row accumulation bit for bit. An index outside
    ``[0, n_out)`` raises ``ValueError`` naming the first one. No pass over
    the index looks for one up front: an index at or past ``n_out`` shows
    as a bincount longer than ``n_out``, and ``np.bincount`` refuses a
    negative one itself; only then is the index scanned for the row to name.
    """
    values = np.asarray(values, np.float64)
    index = np.asarray(index, np.int64)
    out = np.empty((n_out, values.shape[1]), dtype=np.float64)
    for col in range(values.shape[1]):
        try:
            sums = np.bincount(index, values[:, col], minlength=n_out)
        except ValueError:
            _reject_outside(index, n_out)
            raise
        if sums.shape[0] > n_out:
            _reject_outside(index, n_out)
        out[:, col] = sums
    return out


def backend_name() -> str:
    return "numpy"
