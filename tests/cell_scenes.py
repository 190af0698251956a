"""Hand-built inputs on which one certificate of the cell search decides the answer.

Each scene puts a point p in a grid of 5 x 5 x 5 unit cells over [0, 5]^3:
the box of p and the far corners (0, 0, 0) and (5, 5, 5), with between 92
and 166 anchors, so g = round(A^(1/3)) = 5. The cells within one of p's
own along every axis, and p's face sets (the cells two out along exactly
one axis and within one along the others), hold only the named anchors,
which come first. Every other cell holds three filler anchors, farther
from p than any named one. Coordinates are dyadic, so distances meant to
tie are exactly equal in float64.
"""

from __future__ import annotations

import itertools

import numpy as np


def face_set_scene(point, named) -> tuple[np.ndarray, np.ndarray]:
    """(points, anchors), float64: ``point`` and two far corners; ``named``, then fillers."""
    own = np.floor(point).astype(int)
    fillers = []
    for cell in itertools.product(range(5), repeat=3):
        out = np.abs(np.subtract(cell, own))
        if out.max() <= 1 or (out.max() == 2 and (out == 2).sum() == 1):
            continue  # p's 3 x 3 x 3 cells, or one of its face sets
        centre = np.add(cell, 0.5)
        fillers += [centre, centre + [0, 0, 0.125], centre - [0, 0, 0.125]]
    anchors = np.array(list(named) + fillers, dtype=np.float64)
    assert round(anchors.shape[0] ** (1 / 3)) == 5
    return np.array([point, (0, 0, 0), (5, 5, 5)], dtype=np.float64), anchors


def nudged(x: float, way: float) -> float:
    """The float64 next to ``x`` towards ``way``."""
    return float(np.nextafter(x, way))


def _l1_scenes():
    """Scenes for the L1 1-NN: (points, anchors, p's answer, p proved within one cell)."""
    # B, in p's own cell, and F, in the face set above p along x, both at 1.875
    p = (1.875, 2.5, 2.5)
    tie = lambda fx: face_set_scene(p, [(fx, 2.5, 2.5), (1.0, 2.0, 2.0)])
    # the same below p, in a top cell: the face set above lies beyond the grid
    top = (3.25, 2.5, 2.5)
    return {
        "face_tie": (*tie(3.75), 0, False),  # equal distances: F's lower ordinal wins
        "face_one_ulp_farther": (*tie(nudged(3.75, 4.0)), 1, True),
        "face_one_ulp_nearer": (*tie(nudged(3.75, 3.0)), 0, False),
        "face_tie_below_in_a_top_cell": (
            *face_set_scene(top, [(1.625, 2.5, 2.5), (3.875, 2.0, 2.0)]), 0, False),
        "face_below_one_ulp_farther": (
            *face_set_scene(top, [(nudged(1.625, 1.0), 2.5, 2.5), (3.875, 2.0, 2.0)]), 1, True),
        # Q, two out along x and y, at 2.5; the block's best at 2.625
        "two_axes_out": (
            *face_set_scene((2.75, 2.75, 2.5), [(4.0, 4.0, 2.5), (1.0, 1.875, 2.5)]), 0, False),
        # R, three out along x, at 2.125; the block's best at 2.25
        "three_cells_out": (
            *face_set_scene((1.875, 2.5, 2.5), [(4.0, 2.5, 2.5), (0.5, 2.5, 3.375)]), 0, False),
    }


def _sqeuclidean_scenes():
    """Scenes for the Euclidean 3-NN: (points, anchors, p's triple, p proved within one cell).

    B1, B2 and B3 lie in p's 3 x 3 x 3 cells and F in its face set above
    along x, all four at 1.25 from p = (1.875, 2.5, 2.5), or F a rounding
    step farther or nearer.
    """
    p = (1.875, 2.5, 2.5)
    near = [(0.625, 2.5, 2.5), (1.125, 1.5, 2.5), (1.875, 3.25, 3.5)]
    tie = lambda fx: face_set_scene(p, [(fx, 2.5, 2.5)] + near)
    return {
        "face_tie": (*tie(3.125), [0, 1, 2], False),
        "face_one_ulp_farther": (*tie(nudged(3.125, 4.0)), [1, 2, 3], True),
        "face_one_ulp_nearer": (*tie(nudged(3.125, 3.0)), [0, 1, 2], False),
    }


L1_SCENES = _l1_scenes()
SQEUCLIDEAN_SCENES = _sqeuclidean_scenes()


def record_reach_two(monkeypatch, kernels) -> list[np.ndarray]:
    """The points each ``kernels._CellGrid.search`` over 5 x 5 x 5 cells is given."""
    seen, search = [], kernels._CellGrid.search

    def recorded(self, idx, reach, out):
        if reach == 2:
            seen.append(idx.copy())
        return search(self, idx, reach, out)

    monkeypatch.setattr(kernels._CellGrid, "search", recorded)
    return seen
