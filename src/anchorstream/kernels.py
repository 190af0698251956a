"""Hot numeric kernels, one numpy implementation each.

Every kernel fixes its floating-point operation order and its tie-breaks, so
encoder and decoder replicas that call it on the same inputs get the same
bits. ``tests/test_kernels.py`` checks each against a plain-loop oracle.
"""

from __future__ import annotations

import numpy as np


def l1_nearest(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Index of the L1-nearest anchor for every point, lowest ordinal on ties.

    Distances accumulate in float64 as ``|dx| + |dy| + |dz|``, left to right.
    """
    pts = points.astype(np.float64)
    anc = anchors.astype(np.float64)
    n = pts.shape[0]
    out = np.empty(n, dtype=np.int64)
    # chunk so the (chunk, A, 3) broadcast stays within a few MB
    chunk = max(1, int(4_000_000 / max(1, anc.shape[0] * 3)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        d = np.abs(pts[start:stop, None, :] - anc[None, :, :]).sum(axis=2)
        out[start:stop] = d.argmin(axis=1)
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

    Rows accumulate in ascending row order, which fixes the floating-point
    reduction order.
    """
    values = np.ascontiguousarray(values, np.float64)
    index = np.ascontiguousarray(index, np.int64)
    out = np.zeros((n_out, values.shape[1]), dtype=np.float64)
    np.add.at(out, index, values)
    return out


def backend_name() -> str:
    return "numpy"
