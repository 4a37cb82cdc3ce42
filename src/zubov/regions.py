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
from scipy import ndimage

from .systems import (ConfigError, Grid, _grid_header, _read_grid_csv,
                      _write_csv)


@dataclass(frozen=True)
class DoaMask:
    """One face-connected blob of nodes around the origin."""

    grid: Grid
    inside: np.ndarray
    epsilon: float
    touches_boundary: bool

    def __post_init__(self):
        inside = np.asarray(self.inside, dtype=bool)
        if inside.shape != tuple(self.grid.counts):
            raise ConfigError("mask shaped %s but grid wants %s"
                              % (inside.shape, tuple(self.grid.counts)))
        object.__setattr__(self, "inside", inside)
        if not inside[self.grid.origin_index]:
            raise ConfigError("mask must contain the origin node")
        # ndimage.label's default structure is exactly face adjacency
        _, parts = ndimage.label(inside)
        if parts != 1:
            raise ConfigError("mask splits into %d face-connected pieces"
                              % parts)

    @property
    def node_count(self):
        return int(self.inside.sum())


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
    labels, _ = ndimage.label(field.values < 1.0 - epsilon)
    inside = labels == labels[grid.origin_index]
    touches = bool(np.any(inside & ~grid.interior()))
    return DoaMask(grid, inside, float(epsilon), touches)


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
    below = v < level

    segs = []
    for i in range(v.shape[0] - 1):
        for j in range(v.shape[1] - 1):
            m = (int(below[i, j]) | int(below[i + 1, j]) << 1
                 | int(below[i + 1, j + 1]) << 2 | int(below[i, j + 1]) << 3)
            if m in (0, 15):
                continue
            if m in (5, 10):
                avg_below = (v[i, j] + v[i + 1, j] + v[i, j + 1]
                             + v[i + 1, j + 1]) / 4.0 < level
                if m == 5:
                    pairs = [("S", "E"), ("W", "N")] if avg_below \
                        else [("S", "W"), ("E", "N")]
                else:
                    pairs = [("S", "W"), ("E", "N")] if avg_below \
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
        # probe one direction first so open chains start at their dead end
        probe = walk(sid, segs[sid][0], list(visited))
        if probe[0] == probe[-1]:
            keys = walk(sid, segs[sid][0], visited)
        else:
            end_key = probe[-1]
            end_sid = incident[end_key][0]
            keys = walk(end_sid, end_key, visited)
        polylines.append(np.array([vertex(k) for k in keys]))
    return polylines


# --- region comparison -------------------------------------------------------

def _directed_cells(src, dst):
    if not src.any():
        return 0.0
    if not dst.any():
        return math.inf
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
    _write_csv(path, _grid_header(grid) + ["%.17g" % mask.epsilon],
               [*np.indices(tuple(grid.counts)).reshape(grid.n_axes, -1),
                mask.inside.reshape(-1)], ["%d"] * (grid.n_axes + 1))


def load_mask(path):
    grid, tail, rows = _read_grid_csv(path, "mask", lambda n: n + 1)
    try:
        (epsilon,) = [float(token) for token in tail]
    except ValueError as err:
        raise ConfigError("malformed mask header: %s" % err) from None
    inside = (rows[:, -1] == 1.0).reshape(tuple(grid.counts))
    touches = bool(np.any(inside & ~grid.interior()))
    return DoaMask(grid, inside, epsilon, touches)


def save_contours(polylines, path):
    rows = [(pid, k, x, y) for pid, line in enumerate(polylines)
            for k, (x, y) in enumerate(line)]
    _write_csv(path, ["polyline_id", "vertex_index", "x", "y"],
               np.reshape(rows, (-1, 4)).T, ["%d", "%d", "%.17g", "%.17g"])
