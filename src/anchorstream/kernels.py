"""Hot numeric kernels, one numpy implementation each.

Every kernel fixes its floating-point operation order and its tie-breaks, so
encoder and decoder replicas that call it on the same inputs get the same
bits. ``tests/test_kernels.py`` checks each against a plain-loop oracle.

Points are L1 assigned in axis-major form. :func:`l1_nearest` copies the
points and anchors once into (3, n) and (3, A) float64 arrays and adds every
distance as three contiguous per-axis terms, ``(x + y) + z``. That is the
order numpy uses to reduce a length-3 axis, so the result equals the
point-major ``.sum(axis=-1)`` bit for bit, without its (n, A, 3) temporary.
Up to :data:`SCAN_MAX_PAIRS` point-anchor pairs one scan measures them all.
Above that, a search over cell neighbourhoods (Bentley, Weide and Yao,
"Optimal expected-time algorithms for closest point problems", ACM TOMS
6(4), 1980) measures each point against the anchors of the 3 x 3 x 3 cells
around its own, all points at once. It proves, point by point, that no
anchor outside them is as near; the points it cannot prove are searched
over 5 x 5 x 5 cells, and the few left after that are scanned. Every answer
is the scan's own, bit for bit.

One grid serves two searches (:func:`cell_search`): the L1 1-NN of
:func:`l1_nearest`, and the Euclidean 3-NN with which
:func:`anchorstream.hierarchy.nearest_legacy_anchors` matches a rebuilt
level's anchors to its legacy ones. The second measures squared distances,
keeps the three least, and certifies the third against the squared gap.

:func:`sum_by_index` takes axis-major (k, R) values and scatter-adds each
contiguous row with one ``np.bincount``, which walks the entries in
ascending order and accumulates each bucket in float64. ``np.add.at`` gives
the same bits, but its generic unbuffered loop took 290-430 us where the
bincounts take 40-50 us (6000 x 3 rows into 729 buckets, 2-core x86 host);
a bincount over a strided column of row-major values first copies it. The
bincounts themselves reveal an index outside the buckets, so the kernel
makes no range scan of its own unless one is there. :func:`cell_winners`
scatters with ``np.minimum.at``, whose order does not matter to a minimum;
like every ``ufunc.at`` it wraps a negative index in silence, so the kernel
rejects a negative code first.
"""

from __future__ import annotations

import numpy as np


# At or below this many (point, anchor) pairs one scan over every anchor is
# cheapest; above it the cell search of :func:`l1_nearest` wins. Best of 9
# alternating runs, uniform float32 points, grid-sampled anchors, 2-core x86
# host, in ms:
#
#     points x anchors     pairs     scan    cells
#       1200 x   64          77k      0.4      0.9   (an arm_pivot level)
#        300 x  979         294k      1.1      0.9   (relocation assignment)
#       6000 x   64         384k      2.0      2.2   (a pair_additive level)
#       4000 x  125         500k      2.5      2.5
#       8000 x   64         512k      2.5      2.8
#        600 x  985         591k      2.9      1.3
#       6000 x  125         750k      3.8      2.9
#      12000 x   64         768k      4.0      4.3
#      20000 x   64        1.28M      6.9      6.5
#      20000 x  125        2.50M     12.7      7.7   (a field_large level)
#      20000 x 1000          20M      128       14   (a field_large level)
#      20000 x   27         540k      3.8      5.6
#
# The crossover falls from about 1M pairs at 64 anchors to under 300k at
# 1000; 2^19 sits at the one for 125. With 27 anchors the 3 x 3 x 3 cells
# around a point hold most of them and the search loses at any size, but
# under the default configuration a level that coarse has at most about
# 5800 gaussians, well below the threshold.
SCAN_MAX_PAIRS = 1 << 19

# Cells of each (points, anchors) distance array one scan chunk holds, 512 KB
# in float64: more runs no faster and only adds to peak memory. The cell
# search bounds its per-chunk arrays and tables by the same count.
_SCAN_CELLS = 1 << 16

# Relative slack of the cell search's certificate; :func:`l1_nearest` argues
# that it covers every rounding in the certificate and the distances, and
# :func:`anchorstream.hierarchy.nearest_legacy_anchors` that it does so for
# squared Euclidean distances too.
_MARGIN = 2.0 ** -20


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


class _CellGrid:
    """Anchors bucketed into a grid of cells, and each point's cell.

    The grid spans the bounding box of the points and the anchors together,
    with g = round(A^(1/3)) cells along every axis of nonzero extent and one
    along the others. Two empty cells pad it on every side, so the cells
    within reach 1 or 2 of any occupied cell have its code plus fixed
    offsets. ``pts`` and ``anc`` are axis-major float64, as in :func:`_scan`.
    Its searches find each point's ``k`` nearest anchors under ``metric``:
    ``"l1"``, ``(|dx| + |dy|) + |dz|``, or ``"sqeuclidean"``,
    ``(dx * dx + dy * dy) + dz * dz``, both in float64.
    """

    def __init__(self, pts: np.ndarray, anc: np.ndarray, lo: np.ndarray, extent: np.ndarray,
                 k: int = 1, metric: str = "l1"):
        self.pts = pts
        self.k = k
        self.metric = metric
        self.n_anchor = anc.shape[1]
        g = max(1, round(self.n_anchor ** (1.0 / 3.0)))
        # an axis too thin for g / extent to be finite is treated as flat: one
        # cell along it is slower to search, never wrong
        live = extent > 1e-300
        self.lo = lo
        self.scale = np.divide(g, extent, out=np.zeros(3), where=live)
        self.shape = np.where(live, g, 1)  # cells per axis
        self.width = extent / g
        self.dims = tuple((self.shape + 4).tolist())
        self.code = self._codes(pts)
        anchor_code = self._codes(anc)
        # anchor ordinals grouped by cell, ascending within each cell
        self.by_cell = np.argsort(anchor_code, kind="stable").astype(np.int32)
        self.count = np.bincount(anchor_code, minlength=np.prod(self.dims))
        self.first = np.cumsum(self.count) - self.count
        # ordinal A pads table rows: a sentinel at +inf from every point
        self.coords = np.concatenate([anc, np.full((3, 1), np.inf)], axis=1)

    def _codes(self, xs: np.ndarray) -> np.ndarray:
        """Padded cell code of each axis-major coordinate column."""
        cells = [self._cell(x, axis)[1] + 2 for axis, x in enumerate(xs)]
        return np.ravel_multi_index(cells, self.dims)

    def _cell(self, x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates along ``axis`` in cell widths from the grid's low face, and their cells.

        The arithmetic runs in place: each new array this large faults its
        pages in afresh, about 0.2 ms per 480 KiB on a 2-core x86 host,
        several times the arithmetic itself.
        """
        scaled = x - self.lo[axis]
        scaled *= self.scale[axis]
        # scaled >= 0, so truncation is floor; the top face joins the last cell
        return scaled, np.minimum(scaled.astype(np.int32), self.shape[axis] - 1)

    def _reach_counts(self, reach: int) -> np.ndarray:
        """Anchors within ``reach`` cells of each cell along every axis, by cell code."""
        box = self.count.reshape(self.dims)
        for axis in range(3):
            near = box
            box = near.copy()
            to, fro = box.swapaxes(0, axis), near.swapaxes(0, axis)
            for step in range(1, reach + 1):
                to[:-step] += fro[step:]
                to[step:] += fro[:-step]
        return box.ravel()

    def search(self, idx: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each point ``idx``'s ``k`` nearest anchors within ``reach`` cells, and whether final.

        Returns the points reordered, their anchors and their certificates:
        the k-th pick's distance below the gap's bound in ``metric``.
        Points are taken in chunks of whole cells, sorted by how many anchors
        lie within reach of their cell, so each chunk pads its table rows to
        nearly their own length. A chunk's (points, candidates) arrays and its
        neighbour lists hold at most ``_SCAN_CELLS`` entries each, and the
        distances reuse two buffers of that size: a new array that large costs
        more to fault in than to fill.
        """
        span = np.arange(-reach, reach + 1)
        _, across, along = self.dims
        offsets = (span[:, None, None] * (across * along) + span[:, None] * along + span).ravel()
        code = self.code[idx]
        around = self._reach_counts(reach)[code]  # anchors in each point's neighbourhood
        key = around * self.count.shape[0]
        key += code
        order = np.argsort(key)  # by neighbourhood size, then by cell
        del key
        idx = idx[order]
        around = around[order]
        code = code[order]
        del order
        new_cell = np.ones(idx.shape[0], dtype=bool)
        new_cell[1:] = code[1:] != code[:-1]
        row = np.cumsum(new_cell)
        row -= 1
        cells = code[new_cell]
        del code, new_cell
        bound = self._gap(idx, reach)
        bound *= 1.0 - _MARGIN
        if self.metric == "sqeuclidean":
            bound *= bound
        found = np.zeros((idx.shape[0], self.k), dtype=np.int64)
        final = np.zeros(idx.shape[0], dtype=bool)
        buffers = np.empty((2, _SCAN_CELLS))
        # entries a chunk holds per point: its row, or its cell's neighbour list
        size = np.maximum(around, offsets.shape[0])
        start = int(np.searchsorted(around, self.k))  # fewer than k anchors in reach: left open
        while start < idx.shape[0]:
            # the most points, at least one, that fit; sizes ascend, so the
            # last point's is the chunk's widest
            end = idx.shape[0]
            while end > start + 1 and (end - start) * int(size[end - 1]) > _SCAN_CELLS:
                end = start + max(1, _SCAN_CELLS // int(size[end - 1]))
            first_row, width = int(row[start]), int(around[end - 1])
            rows = row[start:end] - first_row
            table = self._table(cells[first_row:int(row[end - 1]) + 1], offsets, width)
            last, picks = self._nearest(self.pts[:, idx[start:end]], rows, table, buffers)
            for j, slot in enumerate(picks):
                found[start:end, j] = table[rows, slot]
            final[start:end] = last < bound[start:end]
            start = end
        return idx, found, final

    def _table(self, cells: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
        """(cells, width) ordinals of the anchors around each cell, ascending, sentinel-padded."""
        around = cells[:, None] + offsets
        counts = self.count[around]
        flat = counts.ravel()
        ends = np.cumsum(flat)
        at = np.repeat(self.first[around].ravel() - (ends - flat), flat) + np.arange(ends[-1])
        table = np.full((cells.shape[0], width), self.n_anchor, dtype=np.int32)
        table[np.arange(width) < counts.sum(axis=1)[:, None]] = self.by_cell[at]
        table.sort(axis=1)
        return table

    def _nearest(self, pts: np.ndarray, rows: np.ndarray, table: np.ndarray,
                 buffers: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per point, the k-th least distance in its table row, and the k picks' slots.

        The distance is :func:`_scan`'s ``(|dx| + |dy|) + |dz|`` under
        ``"l1"`` and ``(dx * dx + dy * dy) + dz * dz`` under ``"sqeuclidean"``,
        in float64. The picks are k rounds of ``argmin``, each pick's
        distance set to +inf before the next, so they come in (distance,
        slot) order: a table row ascends, so that is (distance, ordinal)
        order. Each pick is a (points,) array of slots.
        """
        coords = self.coords[:, table]  # (3, cells, width)
        shape = (rows.shape[0], table.shape[1])
        d, term = (buf[:shape[0] * shape[1]].reshape(shape) for buf in buffers)
        for axis in range(3):
            out = term if axis else d
            # rows are in range; mode="clip" lets take write straight into out
            np.take(coords[axis], rows, axis=0, out=out, mode="clip")
            np.subtract(pts[axis][:, None], out, out=out)
            if self.metric == "l1":
                np.abs(out, out=out)
            else:
                np.multiply(out, out, out=out)
            if axis:
                d += term
        at, picks = np.arange(shape[0]), []
        for _ in range(self.k):
            if picks:
                d[at, picks[-1]] = np.inf
            picks.append(d.argmin(axis=1))
        return d[at, picks[-1]], picks

    def _gap(self, idx: np.ndarray, reach: int) -> np.ndarray:
        """Lower bound on each point ``idx``'s distance to any anchor beyond ``reach`` cells."""
        gap = np.full(idx.shape[0], np.inf)
        for axis in np.flatnonzero(self.shape > 1):  # a one-cell axis has no cell beyond
            below, cell = self._cell(self.pts[axis, idx], axis)
            below -= cell  # cell widths above the cell's lower face
            above = (reach + 1) - below
            above[cell >= self.shape[axis] - reach - 1] = np.inf
            below += reach
            below[cell <= reach] = np.inf  # no cell lies beyond the reach below
            np.minimum(below, above, out=below)
            below *= self.width[axis]
            np.minimum(gap, below, out=gap)
        return gap


def l1_nearest(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Index of the L1-nearest anchor for every point, lowest ordinal on ties.

    The result is :func:`_scan`'s bit for bit: the argmin over all anchors of
    ``(|dx| + |dy|) + |dz|`` in float64, the first minimum winning. Up to
    :data:`SCAN_MAX_PAIRS` point-anchor pairs that scan runs itself, as it
    does for a bounding box that is not finite (a NaN or infinite
    coordinate). Above the threshold a cell search finds the same answers.

    - **Grid.** The bounding box of the points and the anchors together has
      g = round(A^(1/3)) cells along each axis of nonzero extent, and one
      along the others. Along an axis a coordinate x is at
      t = (x - lo) * (g / extent) cell widths from the low face, in cell
      min(floor(t), g - 1). A stable sort buckets the anchors by cell.
    - **Rings.** Each point is measured against every anchor of the cells
      within R = 1 of its own along every axis. Those anchors' ordinals form
      its cell's table row, ascending and padded with a sentinel at +inf,
      and each point takes its cell's row of per-cell coordinate tables
      whole. The distance is the scan's expression and ``argmin`` takes the
      first minimum, so the pick is the lowest ordinal among the nearest
      anchors of the neighbourhood.
    - **Certificate.** An anchor in a cell more than R cells away along some
      axis is, along that axis alone, at least R + f cell widths from the
      point, where f is the point's distance, in cell widths, to its own
      cell's face on that side. The gap is the least such bound over the
      axes and sides that have cells beyond the reach. A pick nearer than
      gap * (1 - 2^-20) is final: every anchor outside the neighbourhood is
      strictly farther, so none ties it or beats it, and the pick is the
      scan's.
    - **Margin.** Each cell index and each f come from the same computed t,
      so a t that rounds across a face moves the cell and the certificate
      together: an anchor in a cell more than R beyond the point's has a
      computed t at least R + f from the point's computed t. What rounding
      can still move is t against its exact value. Four correctly rounded
      operations (extent, g / extent, x - lo and the product) keep t within
      a relative 4u of it, u = 2^-53, and as 0 <= x - lo <= extent the
      error stays below 5u * g cells at any offset of the coordinates: the
      offset cancels in x - lo, before any scaling. An outside anchor is so
      at least R + f - 10u * g exact cell widths away, with R + f >= 1; its
      computed distance, three rounded operations on non-negative terms, is
      at least (1 - 3u) times the exact one; and the gap itself rounds by a
      few u. The margin 2^-20 covers all of it while g < 2^28 cells per
      axis.
    - **Fallback.** Points a certificate leaves open are searched again
      with R = 2, over tables built for their cells only. Points still open
      after that, and points with no anchor within reach, are scanned
      against every anchor. On 20k uniform points and 1000 grid-sampled
      anchors about 9% need R = 2 and none need the scan.

    Chunks of whole cells bound every (points, candidates) array and every
    table to about ``_SCAN_CELLS`` entries, whatever the anchors' layout.
    """
    pts = np.ascontiguousarray(np.asarray(points).T, dtype=np.float64)
    anc = np.ascontiguousarray(np.asarray(anchors).T, dtype=np.float64)
    if pts.shape[1] * anc.shape[1] <= SCAN_MAX_PAIRS:
        return _scan(pts, anc)
    out, todo = cell_search(pts, anc)
    out = out.ravel()  # (n, 1): a view
    if todo.size:
        out[todo] = _scan(pts[:, todo], anc)
    return out


def cell_search(pts: np.ndarray, anc: np.ndarray, k: int = 1, metric: str = "l1",
                ) -> tuple[np.ndarray, np.ndarray]:
    """Each point's ``k`` nearest anchors under ``metric``, where cells prove them.

    ``pts`` (3, n) and ``anc`` (3, A) are axis-major float64, with A >= k.
    The metric is ``"l1"`` or ``"sqeuclidean"`` (see :class:`_CellGrid`).
    Returns the (n, k) anchor ordinals, each row in (distance, ordinal)
    order, and the points left open, whose rows are not set: every point
    when the bounding box is not finite (a NaN or infinite coordinate). A
    proved row is the exhaustive answer bit for bit;
    :func:`l1_nearest` argues the certificate, and
    :func:`anchorstream.hierarchy.nearest_legacy_anchors` its Euclidean form.
    """
    n = pts.shape[1]
    out = np.empty((n, k), dtype=np.int64)
    todo = np.arange(n)
    lo = np.minimum(pts.min(axis=1), anc.min(axis=1))
    extent = np.maximum(pts.max(axis=1), anc.max(axis=1)) - lo
    if not np.isfinite(extent).all():
        return out, todo
    grid = _CellGrid(pts, anc, lo, extent, k, metric)
    for reach in (1, 2):
        todo, found, final = grid.search(todo, reach)
        out[todo[final]] = found[final]
        todo = todo[~final]
    return out, todo


def cell_winners(codes: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell argmin of ``d2`` (no NaN) keyed by ``codes``; cells returned in code order.

    Returns (codes of the non-empty cells, their winning point indices); on
    an exact tie the lowest point index wins. One ``np.minimum.at`` takes
    each cell's least ``d2``, a second the lowest index reaching it, over
    arrays of max(codes) + 1 entries (``sample_anchors`` codes are below
    m^3 <= 8N). A negative code raises ``ValueError`` naming it.
    """
    codes = np.ascontiguousarray(codes, np.int64)
    d2 = np.ascontiguousarray(d2, np.float64)
    n = codes.shape[0]
    negative = np.flatnonzero(codes < 0)
    if negative.size:  # np.minimum.at would wrap it onto a cell counted from the end
        raise ValueError(f"cell code {codes[negative[0]]} at row {negative[0]} is negative")
    size = int(codes.max()) + 1 if n else 0
    best = np.full(size, np.inf)
    np.minimum.at(best, codes, d2)
    reached = np.flatnonzero(d2 == best[codes])
    winner = np.full(size, n, dtype=np.int64)
    np.minimum.at(winner, codes[reached], reached)
    cells = np.flatnonzero(winner < n)
    return cells, winner[cells]


def _reject_outside(index: np.ndarray, n_out: int) -> None:
    """Raise ``ValueError`` naming the first index outside ``[0, n_out)``, if any."""
    bad = np.flatnonzero((index < 0) | (index >= n_out))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"index {index[row]} at row {row} is outside [0, {n_out})")


def sum_by_index(values: np.ndarray, index: np.ndarray, n_out: int) -> np.ndarray:
    """Sum the columns of axis-major ``values`` (k, R) into ``n_out`` buckets given by ``index``.

    Returns (k, n_out) float64. Each row is one contiguous
    ``np.bincount(index, row, minlength=n_out)``: every bucket starts at
    +0.0 and adds its entries in float64, in ascending column order, so the
    floating-point reduction order is fixed and the result equals
    column-by-column accumulation bit for bit. An index outside
    ``[0, n_out)`` raises ``ValueError`` naming the first one. No pass over
    the index looks for one up front: an index at or past ``n_out`` shows
    as a bincount longer than ``n_out``, and ``np.bincount`` refuses a
    negative one itself; only then is the index scanned for the one to name.
    """
    values = np.asarray(values, np.float64)
    index = np.asarray(index, np.int64)
    out = np.empty((values.shape[0], n_out), dtype=np.float64)
    for row, weights in zip(out, values):
        try:
            sums = np.bincount(index, weights, minlength=n_out)
        except ValueError:
            _reject_outside(index, n_out)
            raise
        if sums.shape[0] > n_out:
            _reject_outside(index, n_out)
        row[:] = sums
    return out


def backend_name() -> str:
    return "numpy"
