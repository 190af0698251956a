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
anchor outside them is as near: first from the distance to the faces of
those cells, then, as in the "ball within bounds" test of Friedman, Bentley
and Finkel (ACM TOMS 3(3), 1977), from the coordinates of the actual
anchors two cells out. The points it cannot prove are searched over
5 x 5 x 5 cells, and the few left after that are scanned. Every answer is
the scan's own, bit for bit.

One grid serves two searches (:func:`cell_search`): the L1 1-NN of
:func:`l1_nearest`, and the Euclidean 3-NN with which
:func:`anchorstream.hierarchy.nearest_legacy_anchors` matches a rebuilt
level's anchors to its legacy ones. The second measures squared distances,
keeps the three least, and certifies the third against squared bounds.

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
    within reach 2 of any occupied cell have its code plus fixed offsets.
    ``pts`` and ``anc`` are axis-major float64, as in :func:`_scan`. Its
    searches find each point's ``k`` nearest anchors under ``metric``:
    ``"l1"``, ``(|dx| + |dy|) + |dz|``, or ``"sqeuclidean"``,
    ``(dx * dx + dy * dy) + dz * dz``, both in float64. Cell codes, anchor
    counts and ordinals are int32, as are a search's per-point arrays and
    neighbour lists: this holds for fewer than 2^31 points, anchors and
    cells.
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
        shape = np.where(live, g, 1)  # cells per axis
        self.dims = tuple((shape + 4).tolist())
        # per axis, as (3, 1) columns that broadcast over one axis or all three
        self.lo = lo[:, None]
        self.scale = np.divide(g, extent, out=np.zeros(3), where=live)[:, None]
        self.top = (shape - 1).astype(np.int32)[:, None]  # last cell
        # no cell lies beyond a flat axis's one: an infinite width says so
        self.width = np.where(live, extent / g, np.inf)[:, None]
        self.code = self._codes(pts)
        anchor_code = self._codes(anc)
        # anchor ordinals grouped by cell, ascending within each cell
        self.by_cell = np.argsort(anchor_code, kind="stable").astype(np.int32)
        self.count = np.bincount(anchor_code, minlength=np.prod(self.dims)).astype(np.int32)
        self.first = np.cumsum(self.count, dtype=np.int32) - self.count
        # ordinal A pads table rows: a sentinel at +inf from every point
        self.coords = np.concatenate([anc, np.full((3, 1), np.inf)], axis=1)

    def _codes(self, xs: np.ndarray) -> np.ndarray:
        """Padded cell code of each axis-major coordinate column."""
        code = np.zeros(xs.shape[1], dtype=np.int32)
        for axis, x in enumerate(xs):
            code *= self.dims[axis]
            code += self._cell(x, axis)[1]
            code += 2
        return code

    def _cell(self, x: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates along ``axis`` in cell widths from the grid's low face, and their cells.

        ``axis`` is one axis for a row ``x``, or ``slice(None)`` for all
        three rows of an axis-major ``x``. The arithmetic runs in place: each
        new array this large faults its pages in afresh, about 0.2 ms per
        480 KiB on a 2-core x86 host, several times the arithmetic itself.
        """
        scaled = x - self.lo[axis]
        scaled *= self.scale[axis]
        # scaled >= 0, so truncation is floor; the top face joins the last cell
        return scaled, np.minimum(scaled.astype(np.int32), self.top[axis])

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

    def search(self, idx: np.ndarray, reach: int, out: np.ndarray) -> np.ndarray:
        """Each point ``idx``'s ``k`` nearest anchors within ``reach`` cells; the points left open.

        Writes each searched point's picks to its row of ``out``, and
        returns the points whose picks no certificate proves, with those
        that have fewer than ``k`` anchors within reach (rows not set). A
        point's picks are proved when the k-th pick's distance is below the
        gap's bound in ``metric``; at reach 1, a point the gap leaves open is
        proved when that distance is below :meth:`_beyond`'s bound.

        Points are taken in chunks of whole cells, sorted by how many anchors
        lie within reach of their cell, so each chunk pads its table rows to
        nearly their own length. A chunk's (points, candidates) arrays and its
        neighbour lists hold at most ``_SCAN_CELLS`` entries each, unless one
        point alone has more anchors within reach, and the distances reuse
        two buffers of that size: a new array that large costs more to fault
        in than to fill.
        """
        span = np.arange(-reach, reach + 1, dtype=np.int32)
        _, across, along = self.dims
        offsets = (span[:, None, None] * (across * along) + span[:, None] * along + span).ravel()
        per_cell = self._reach_counts(reach)
        # cells ranked by (anchors within reach, code): the points sort on an
        # int32 key by neighbourhood size, then by cell
        rank = np.empty(per_cell.shape[0], dtype=np.int32)
        rank[np.argsort(per_cell, kind="stable")] = np.arange(per_cell.shape[0], dtype=np.int32)
        code = self.code[idx]
        order = np.argsort(rank[code])
        idx = idx[order]
        code = code[order]
        del order
        around = per_cell[code]  # anchors in each point's neighbourhood
        new_cell = np.ones(idx.shape[0], dtype=bool)
        new_cell[1:] = code[1:] != code[:-1]
        row = np.cumsum(new_cell, dtype=np.int32)
        row -= 1
        cells = code[new_cell]
        del code, new_cell
        final = np.zeros(idx.shape[0], dtype=bool)
        # at reach 1, the points the gap leaves open and their k-th distances
        gap_open, gap_open_last = [], []
        buffers = np.empty((2, _SCAN_CELLS))
        start = int(np.searchsorted(around, self.k))  # fewer than k anchors in reach: left open
        while start < idx.shape[0]:
            # the most points, at least one, that fit; sizes ascend, so the
            # last point's is the chunk's widest. A point holds its row or
            # its cell's neighbour list, whichever is longer.
            end = idx.shape[0]
            while end > start + 1:
                size = max(int(around[end - 1]), offsets.shape[0])
                if (end - start) * size <= _SCAN_CELLS:
                    break
                end = start + max(1, _SCAN_CELLS // size)
            first_row, width = int(row[start]), int(around[end - 1])
            rows = row[start:end] - first_row
            table = self._table(cells[first_row:int(row[end - 1]) + 1], offsets, width)
            at = idx[start:end]
            xs = np.take(self.pts, at, axis=1)
            bound = self._gaps(xs, reach).min(axis=0)  # before the distances take their memory
            last, picks = self._nearest(xs, rows, table, buffers)
            for j, slot in enumerate(picks):
                out[at, j] = table[rows, slot]
            proved = last < bound
            final[start:end] = proved
            if reach == 1:
                miss = np.flatnonzero(~proved)
                gap_open.append(miss + start)
                gap_open_last.append(last[miss])
            start = end
        del buffers
        if gap_open:
            at = np.concatenate(gap_open)
            final[at] = np.concatenate(gap_open_last) < self._beyond(idx[at], cells[row[at]])
        return idx[~final]

    def _table(self, cells: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
        """(cells, width) ordinals of the anchors around each cell, ascending, sentinel-padded."""
        around = cells[:, None] + offsets
        counts = self.count[around]
        flat = counts.ravel()
        ends = np.cumsum(flat, dtype=np.int32)
        at = np.repeat(self.first[around].ravel() - (ends - flat), flat)
        at += np.arange(ends[-1], dtype=np.int32)
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
        order. Each pick is a (points,) array of slots. The distances take
        the two rows of ``buffers``, unless one point alone has more anchors
        within reach than a row holds.
        """
        coords = np.take(self.coords, table, axis=1)  # (3, cells, width)
        shape = (rows.shape[0], table.shape[1])
        size = shape[0] * shape[1]
        if size > buffers.shape[1]:
            buffers = np.empty((2, size))
        d, term = (buf[:size].reshape(shape) for buf in buffers)
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

    def _gaps(self, xs: np.ndarray, reach: int) -> np.ndarray:
        """Per axis, a bound in ``metric`` on each of ``xs``'s distance to cells beyond ``reach``.

        ``xs`` is axis-major (3, n). Row a bounds the distance to any anchor
        more than ``reach`` cells from the point's own along axis a, from its
        distance to the faces of the cells within reach; +inf where no cell
        lies beyond on either side. Each bound shrinks by the margin, which
        :func:`l1_nearest` and
        :func:`anchorstream.hierarchy.nearest_legacy_anchors` argue.
        """
        below, cell = self._cell(xs, slice(None))
        below -= cell  # cell widths above the cell's lower face
        above = (reach + 1) - below
        np.putmask(above, cell >= self.top - reach, np.inf)
        below += reach
        np.putmask(below, cell <= reach, np.inf)  # no cell lies beyond the reach below
        np.minimum(below, above, out=below)
        below *= self.width
        below *= 1.0 - _MARGIN
        if self.metric == "sqeuclidean":
            below *= below
        return below

    def _beyond(self, idx: np.ndarray, code: np.ndarray) -> np.ndarray:
        """Bound in ``metric`` on each point's distance to the anchors outside its 3 x 3 x 3 cells.

        ``code`` holds the points' cell codes. A cell outside lies in one of
        three sets, each with its bound:

        - two cells out along exactly one axis and within one along the
          others, a face set: from the anchors there (:meth:`_faces`);
        - three or more cells out along some axis: the reach-2 gap;
        - two cells out along two or more axes: the sum of the point's
          reach-1 gaps along two of them, so the least such sum in
          ``metric``.

        The bound is the least of the three.
        """
        xs = np.take(self.pts, idx, axis=1)
        one = self._gaps(xs, 1)
        bound = self._gaps(xs, 2).min(axis=0)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            np.minimum(bound, one[a] + one[b], out=bound)
        face = np.take(self._faces(), code, axis=1)
        # each face set's computed per-axis distance: fl(m - p) above, fl(p - M) below
        face[0::2] -= xs
        face[1::2] += xs
        face = face.min(axis=0)
        if self.metric == "sqeuclidean":
            face *= face
        return np.minimum(bound, face, out=bound)

    def _faces(self) -> np.ndarray:
        """Extreme anchor coordinates in each cell's face sets, (6, cells) by cell code.

        The face set of cell c above it along x is the 3 x 3 cells two cells
        above c along x and within one of c along y and z; below, and along
        y and z, alike. Row 2a holds the least coordinate along axis a among
        the anchors of each face set above, row 2a + 1 the greatest among
        those below, negated; +inf for an empty face set, beyond the grid or
        not. Each cell's own extremes come from its anchors in cell order;
        a minimum over three cells along each of the other two axes, then a
        shift of two cells along a, gather them. Only the entries of cells
        that hold points are meant, and for those no shift crosses the
        padding (see :func:`_min3`).

        An anchor in the face set above has a computed cell above the
        point's along a, and a computed cell index only grows with the
        coordinate, so the anchor lies above the point: its computed |da|,
        fl(a_a - p_a), is at least fl(m - p_a) for m the least such
        coordinate, since rounding is monotone. Below, it is at least
        fl(p_a - M). These bounds need no margin.
        """
        held = np.flatnonzero(self.count)
        starts = self.first[held]
        cols = np.take(self.coords, self.by_cell, axis=1)  # grouped by cell
        own = np.full((6, self.count.shape[0]), np.inf)
        own[0::2, held] = np.minimum.reduceat(cols, starts, axis=1)
        own[1::2, held] = -np.maximum.reduceat(cols, starts, axis=1)
        stride = (self.dims[1] * self.dims[2], self.dims[2], 1)
        # minima over 3 x 3 cells across each axis: along z, then y or x for
        # the x and y rows; along y, then x, for the z rows
        x_and_y = _min3(own[:4], stride[2])
        planes = (_min3(x_and_y[:2], stride[1]), _min3(x_and_y[2:], stride[0]),
                  _min3(_min3(own[4:], stride[1]), stride[0]))
        faces = np.full_like(own, np.inf)
        for axis, plane in enumerate(planes):
            shift = 2 * stride[axis]
            faces[2 * axis, :-shift] = plane[0, shift:]
            faces[2 * axis + 1, shift:] = plane[1, :-shift]
        return faces


def _min3(rows: np.ndarray, step: int) -> np.ndarray:
    """Each entry's minimum with the entries ``step`` before and after it in its row.

    On a flat table of cell codes a step of one axis's stride moves one
    cell along that axis. A cell whose neighbours along it lie within the
    grid, padding included, gets the minimum over them; the ``step`` entries
    at each end get +inf, and others that wrap into the next row are not
    meant. A cell holding points is two cells inside the padding, so its
    face sets, and the cells on either side of them, never wrap.
    """
    out = np.full_like(rows, np.inf)
    inner = out[:, step:-step]
    np.minimum(rows[:, :-2 * step], rows[:, step:-step], out=inner)
    np.minimum(inner, rows[:, 2 * step:], out=inner)
    return out


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
    - **Anchors two cells out.** The gap stops at the neighbourhood's faces,
      about half a cell short of the anchors beyond them, so at R = 1 a
      point it leaves open gets a second test. A cell outside the
      3 x 3 x 3 cells is in one of three sets:

      - a face set, two cells out along one axis and within one along the
        others. An anchor there lies beyond the point along that axis, so
        its computed distance is at least fl(m - p) for m the face set's
        anchor coordinate nearest the point (see ``_CellGrid._faces``);
      - three or more cells out along some axis: at least the R = 2 gap;
      - two cells out along two or more axes: at least the sum of the
        point's two least per-axis R = 1 gaps.

      A pick nearer than the least of the three bounds, the last two times
      1 - 2^-20, is final. Strictly nearer: an anchor in a face set exactly
      at the pick's distance may tie it with a lower ordinal.
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
      axis. The two-axis bound adds two such per-axis gaps, each shrunk by
      the margin, and rounds once more; an anchor two out along both axes
      is at least the exact gap along each. The face-set bound needs no
      margin: it is a bound on the computed distance itself.
    - **Fallback.** Points left open are searched again with R = 2, over
      tables built for their cells only, against the gap alone. Points
      still open after that, and points with no anchor within reach, are
      scanned against every anchor. On 20k uniform points and 1000
      grid-sampled anchors about 0.5% need R = 2 (9% against the gap
      alone) and none need the scan.

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
    Each point is searched over the 3 x 3 x 3 cells around its own, then,
    if no certificate proves its picks there, over 5 x 5 x 5 cells.
    Returns the (n, k) anchor ordinals, each row in (distance, ordinal)
    order, and the int32 indices of the points left open, whose rows are
    not set: every point when the bounding box is not finite (a NaN or
    infinite coordinate). A proved row is the exhaustive answer bit for bit;
    :func:`l1_nearest` argues the certificates, and
    :func:`anchorstream.hierarchy.nearest_legacy_anchors` their Euclidean
    form.
    """
    n = pts.shape[1]
    out = np.empty((n, k), dtype=np.int64)
    todo = np.arange(n, dtype=np.int32)
    lo = np.minimum(pts.min(axis=1), anc.min(axis=1))
    extent = np.maximum(pts.max(axis=1), anc.max(axis=1)) - lo
    if not np.isfinite(extent).all():
        return out, todo
    grid = _CellGrid(pts, anc, lo, extent, k, metric)
    for reach in (1, 2):
        todo = grid.search(todo, reach, out)
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
