"""Sublevel-set geometry: attraction-domain masks, contours, comparisons.

The attracted region is read off a solved field as the connected component
of {v < 1 - eps} holding the origin.  Everything downstream is plain
raster geometry: marching squares for 2-D outlines, chamfer distances for
comparing a mask against a reference region, CSV emitters for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import (ConfigError, Grid, _grid_header, _node_columns,
                      _read_grid_csv, _write_csv)


@dataclass(frozen=True)
class DoaMask:
    """One face-connected blob of nodes around the origin."""

    grid: Grid
    inside: np.ndarray
    epsilon: float

    def __post_init__(self):
        inside = np.asarray(self.inside, dtype=bool)
        if inside.shape != tuple(self.grid.counts):
            raise ConfigError("mask shaped %s but grid wants %s"
                              % (inside.shape, tuple(self.grid.counts)))
        object.__setattr__(self, "inside", inside)
        if not inside[self.grid.origin_index]:
            raise ConfigError("mask must contain the origin node")
        from scipy import ndimage  # loaded on first use, not on import

        # ndimage.label's default structure is exactly face adjacency
        _, parts = ndimage.label(inside)
        if parts != 1:
            raise ConfigError("mask splits into %d face-connected pieces"
                              % parts)

    @property
    def node_count(self):
        return int(self.inside.sum())

    @property
    def touches_boundary(self):
        return bool(np.any(self.inside & ~self.grid.interior()))


def extract_doa(field, epsilon=0.01):
    """Connected component of {v < 1 - epsilon} containing the origin."""
    if field.transform != "kruzhkov":
        raise ConfigError("extract_doa wants a kruzhkov field")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")
    grid = field.grid
    if field.origin_value() >= 1.0 - epsilon:
        raise ConfigError("degenerate field: origin node has v=%.3g >= 1 - "
                          "epsilon" % field.origin_value())
    from scipy import ndimage

    labels, _ = ndimage.label(field.values < 1.0 - epsilon)
    return DoaMask(grid, labels == labels[grid.origin_index], float(epsilon))


# --- marching squares --------------------------------------------------------

# cell bitmask -> pairs of crossed edges (S/E/N/W), saddles handled inline
_MS_TABLE = {
    1: [("W", "S")], 2: [("S", "E")], 3: [("W", "E")], 4: [("E", "N")],
    6: [("S", "N")], 7: [("W", "N")], 8: [("N", "W")], 9: [("S", "N")],
    11: [("E", "N")], 12: [("E", "W")], 13: [("S", "E")], 14: [("S", "W")],
}


def _edge_key(name, i, j):
    if name == "S":
        return ("h", i, j)
    if name == "E":
        return ("v", i + 1, j)
    if name == "N":
        return ("h", i, j + 1)
    return ("v", i, j)


def contour2d(field, level):
    """Level-set polylines of a 2-D field, row-major deterministic order.

    Vertices sit on cell edges whose endpoint values straddle the level
    (linear interpolation along the edge); each polyline is either closed
    or ends on the grid box.  Saddle cells split by comparing the corner
    average against the level.
    """
    grid = field.grid
    if grid.n_axes != 2:
        raise ConfigError("contour2d wants a 2-D field")
    level = float(level)
    v = field.values
    ax0, ax1 = grid.axes
    # every cell's case bitmask (SW, SE, NE, NW corners below the level),
    # and for the saddle cells whether their corner average is below it
    below = (v < level).astype(np.uint8)
    cases = (below[:-1, :-1] | below[1:, :-1] << 1
             | below[1:, 1:] << 2 | below[:-1, 1:] << 3)
    si, sj = np.nonzero((cases == 5) | (cases == 10))
    avg_below = np.zeros(cases.shape, dtype=bool)
    avg_below[si, sj] = (v[si, sj] + v[si + 1, sj] + v[si, sj + 1]
                         + v[si + 1, sj + 1]) / 4.0 < level

    segs = []
    for i, j in np.argwhere((cases != 0) & (cases != 15)).tolist():
        m = int(cases[i, j])
        if m == 5:
            pairs = [("S", "E"), ("W", "N")] if avg_below[i, j] \
                else [("S", "W"), ("E", "N")]
        elif m == 10:
            pairs = [("S", "W"), ("E", "N")] if avg_below[i, j] \
                else [("S", "E"), ("N", "W")]
        else:
            pairs = _MS_TABLE[m]
        for a, b in pairs:
            segs.append((_edge_key(a, i, j), _edge_key(b, i, j)))

    def vertex(key):
        kind, i, j = key
        if kind == "h":
            va, vb = v[i, j], v[i + 1, j]
            t = (level - va) / (vb - va)
            return (ax0[i] + t * (ax0[i + 1] - ax0[i]), ax1[j])
        va, vb = v[i, j], v[i, j + 1]
        t = (level - va) / (vb - va)
        return (ax0[i], ax1[j] + t * (ax1[j + 1] - ax1[j]))

    incident = {}
    for sid, (a, b) in enumerate(segs):
        incident.setdefault(a, []).append(sid)
        incident.setdefault(b, []).append(sid)

    def walk(sid, key, visited):
        # enter `sid` through `key`, emit keys until a dead end or a loop
        keys = [key]
        while True:
            visited[sid] = True
            a, b = segs[sid]
            key = b if key == a else a
            keys.append(key)
            hits = incident[key]
            if len(hits) == 1:
                return keys
            nxt = hits[1] if hits[0] == sid else hits[0]
            if visited[nxt]:
                return keys
            sid = nxt

    visited = [False] * len(segs)
    polylines = []
    for sid in range(len(segs)):
        if visited[sid]:
            continue
        start = segs[sid][0]
        keys = walk(sid, start, visited)
        if keys[-1] != start:
            # an open chain: turn the walk round to start at its dead end,
            # then go on from `start` through its other segment, if any
            keys.reverse()
            others = [s for s in incident[start] if s != sid]
            if others:
                keys += walk(others[0], start, visited)[1:]
        polylines.append(np.array([vertex(k) for k in keys]))
    return polylines


# --- region comparison -------------------------------------------------------

def _directed_cells(src, dst):
    if not src.any():
        return 0.0
    if not dst.any():
        return math.inf
    from scipy import ndimage

    reach = ndimage.distance_transform_cdt(~dst, metric="chessboard")
    return float(reach[src].max())


def region_distance(mask, reference):
    """(hausdorff in cell units, |mask xor ref| / |ref|) on grid nodes."""
    grid = mask.grid
    coords = grid.node_coords().reshape(-1, grid.n_axes)
    ref = np.asarray(reference(coords), dtype=bool).reshape(
        tuple(grid.counts))
    inside = mask.inside
    hausdorff = max(_directed_cells(inside, ref),
                    _directed_cells(ref, inside))
    mismatch = int((inside ^ ref).sum())
    if ref.any():
        fraction = mismatch / float(ref.sum())
    else:
        fraction = 0.0 if mismatch == 0 else math.inf
    return hausdorff, fraction


# --- CSV emitters ------------------------------------------------------------

def save_mask(mask, path):
    """Header (n, counts, lo, hi, epsilon), then node rows i1..iN, 0/1."""
    grid = mask.grid
    flags = mask.inside.reshape(-1).view(np.uint8)  # 0 or 1
    _write_csv(path, _grid_header(grid) + ["%.17g" % mask.epsilon],
               [*_node_columns(grid, coords=False),
                np.array(["0", "1"], dtype=object)[flags]],
               ["%s"] * (grid.n_axes + 1))


def load_mask(path):
    with open(path, "rb") as fh:
        grid, tail, rows = _read_grid_csv(fh.read(), "mask", lambda n: n + 1)
    try:
        (epsilon,) = [float(token) for token in tail]
        if not 0.0 < epsilon < 1.0:  # extract_doa's rule
            raise ValueError("epsilon %s does not lie in (0, 1)" % epsilon)
    except ValueError as err:
        raise ConfigError("malformed mask header: %s" % err) from None
    flags = rows[:, -1]
    if not np.all((flags == 0.0) | (flags == 1.0)):
        raise ConfigError("mask file has a flag that is neither 0 nor 1")
    return DoaMask(grid, (flags == 1.0).reshape(tuple(grid.counts)), epsilon)


def save_contours(polylines, path):
    rows = [(pid, k, x, y) for pid, line in enumerate(polylines)
            for k, (x, y) in enumerate(line)]
    _write_csv(path, ["polyline_id", "vertex_index", "x", "y"],
               np.reshape(rows, (-1, 4)).T, ["%d", "%d", "%.17g", "%.17g"])
