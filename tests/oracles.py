"""Independent reference implementations used as test oracles.

Everything here is written from the operation definitions alone, structured
differently from the library code (plain loops, dictionaries, or a separate
algorithm entirely) so that a shared bug is unlikely.
"""

from __future__ import annotations

import math

import numpy as np


def cube_root_ceil(target: int) -> int:
    """Smallest m with m^3 >= target, by linear scan."""
    m = 1
    while m**3 < target:
        m += 1
    return m


def brute_force_sample_anchors(positions: np.ndarray, n_anchor: int) -> np.ndarray:
    """Per-cell argmin by explicit binning with a dictionary of cells."""
    pos = np.asarray(positions, np.float64)
    m = cube_root_ceil(n_anchor)
    bmin = pos.min(axis=0)
    bmax = pos.max(axis=0)
    delta = bmax - bmin
    cells: dict[tuple[int, int, int], tuple[float, int]] = {}
    for i, p in enumerate(pos):
        key = []
        center = []
        for axis in range(3):
            if delta[axis] > 0:
                j = int(math.floor((p[axis] - bmin[axis]) * (m / delta[axis])))
                j = min(max(j, 0), m - 1)
                key.append(j)
                center.append(bmin[axis] + (j + 0.5) * (delta[axis] / m))
            else:
                key.append(0)
                center.append(bmin[axis])
        d2 = sum((p[a] - center[a]) ** 2 for a in range(3))
        k = tuple(key)
        if k not in cells or d2 < cells[k][0]:
            cells[k] = (d2, i)
    return np.array([cells[k][1] for k in sorted(cells)], dtype=np.int64)


def exhaustive_l1_assign(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Full O(N*A) scan with the explicit lowest-ordinal tie-break."""
    pts = np.asarray(points, np.float64)
    anc = np.asarray(anchors, np.float64)
    out = np.empty(pts.shape[0], np.int64)
    for i, p in enumerate(pts):
        best = math.inf
        best_j = -1
        for j, a in enumerate(anc):
            d = abs(p[0] - a[0]) + abs(p[1] - a[1]) + abs(p[2] - a[2])
            if d < best:
                best = d
                best_j = j
        out[i] = best_j
    return out


def per_cell_argmin(codes: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted cell codes, winning indices) by one pass over a dictionary of cells.

    A later point replaces the cell's winner only when strictly closer, so the
    lowest index wins exact ties.
    """
    best: dict[int, tuple[float, int]] = {}
    for i, (code, d) in enumerate(zip(codes.tolist(), d2.tolist())):
        if code not in best or d < best[code][0]:
            best[code] = (d, i)
    keys = sorted(best)
    return np.array(keys, np.int64), np.array([best[k][1] for k in keys], np.int64)


def ordered_sum_by_index(values: np.ndarray, index: np.ndarray, n_out: int) -> np.ndarray:
    """Row-by-row accumulation in ascending row order, in Python floats."""
    width = values.shape[1]
    out = [[0.0] * width for _ in range(n_out)]
    for row, j in zip(np.asarray(values, np.float64).tolist(), index.tolist()):
        for k in range(width):
            out[j][k] += row[k]
    return np.array(out, np.float64).reshape(n_out, width)


# The fit kernels' former bodies, kept verbatim: their replacements must give
# the same bits.


def add_at_sum_by_index(values: np.ndarray, index: np.ndarray, n_out: int) -> np.ndarray:
    """The former kernel body: one unbuffered ``np.add.at`` scatter-add in float64."""
    values = np.ascontiguousarray(values, np.float64)
    index = np.ascontiguousarray(index, np.int64)
    out = np.zeros((n_out, values.shape[1]), dtype=np.float64)
    np.add.at(out, index, values)
    return out


def cross_rotate(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """R(q) u for unit quaternions, via the vector form of the rotation."""
    w = q[:, :1]
    v = q[:, 1:]
    vxu = np.cross(v, u)
    vdotu = (v * u).sum(axis=1, keepdims=True)
    vdotv = (v * v).sum(axis=1, keepdims=True)
    return (w * w - vdotv) * u + 2.0 * vdotu * v + 2.0 * w * vxu


def rowmajor_pivot_loss(gaussians, hierarchy, deltas, corr):
    """The pivot loss, row-major, with ``np.cross`` kernels.

    The former forward of the pivot fit on (R, 3) offsets and (R, 4)
    quaternions: per level, rotate each row about its anchor's frame-start
    position, then translate it.
    """
    rows = corr.indices
    pos = gaussians.positions[rows].astype(np.float64)
    for lvl, ds in zip(hierarchy.levels, deltas.per_level):
        members = lvl.assignment[rows]
        y = ds.rotations.astype(np.float64)
        y[:, 0] += 1.0
        q = (y / np.linalg.norm(y, axis=1)[:, None])[members]
        centers = gaussians.positions[lvl.anchor_indices].astype(np.float64)[members]
        t = ds.translations.astype(np.float64)[members]
        pos = cross_rotate(q, pos - centers) + centers + t
    r = pos - corr.targets.astype(np.float64)
    return float((r * r).sum() / len(rows))


def additive_loss_and_gradient(gaussians, hierarchy, deltas, corr):
    """The additive loss and its gradients, row-major, with ``np.add.at`` bucket sums.

    Each row moves by the sum of its anchors' translations, coarse level
    first; the translation gradient is the bucket sum of 2 r / C. Returns
    (loss, [(A, 3) translation gradient per level]).
    """
    rows = corr.indices
    pos = gaussians.positions[rows].astype(np.float64)
    for lvl, ds in zip(hierarchy.levels, deltas.per_level):
        pos += ds.translations.astype(np.float64)[lvl.assignment[rows]]
    r = pos - corr.targets.astype(np.float64)
    c = len(rows)
    g = (2.0 / c) * r
    return float((r * r).sum() / c), [
        add_at_sum_by_index(g, lvl.assignment[rows], lvl.anchor_count) for lvl in hierarchy.levels
    ]


def exhaustive_knn3(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """3 nearest references per query by sorting (squared distance, ordinal)."""
    q = np.asarray(queries, np.float64)
    r = np.asarray(references, np.float64)
    out = np.empty((q.shape[0], 3), np.int64)
    for i, p in enumerate(q):
        scored = sorted((float(((r[j] - p) ** 2).sum()), j) for j in range(r.shape[0]))
        picks = [j for _, j in scored[:3]]
        while len(picks) < 3:
            picks.append(picks[0])
        out[i] = picks
    return out


def jacobi_eigen_sym(matrix: np.ndarray, sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Textbook cyclic Jacobi for a small symmetric matrix.

    Returns (eigenvalues, eigenvectors as columns), unsorted.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off < 1e-14 * max(1.0, np.abs(a).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                if abs(a[p, q]) < 1e-30:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return np.diag(a).copy(), v


def dominant_eigenvector(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair via the Jacobi oracle, canonical sign applied."""
    values, vectors = jacobi_eigen_sym(matrix)
    k = int(np.argmax(values))
    vec = vectors[:, k]
    for comp in vec:
        if comp != 0.0:
            if comp < 0:
                vec = -vec
            break
    return float(values[k]), vec


def rotation_matrix(quaternion: np.ndarray) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z), written out."""
    w, x, y, z = np.asarray(quaternion, np.float64)
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


def central_difference(fn, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """Pure-int SplitMix64 counter stream, arbitrary-precision arithmetic."""
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15
    out = []
    for i in range(1, count + 1):
        z = (seed + i * gamma) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append(z)
    return out
