#!/usr/bin/env python3
"""Walk through the 2-D benchmark: solve, compare, extract the region.

The benchmark problem has a known value function, so every stage of the
pipeline can be checked against exact numbers: the solved grid field
against the transformed closed form, and the extracted sublevel region
against the true domain of attraction (-1, 1) x (-1, 1).

Run `python3 demos/attraction_region_2d.py`; pass --out DIR to keep the
field, mask, and contour CSVs.
"""

import argparse
import time

import numpy as np

from zubov import (
    Grid,
    SolverSettings,
    builtin,
    closed_form_value,
    contour2d,
    extract_doa,
    save_contours,
    save_field,
    save_mask,
    solve_zubov,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=201)
    ap.add_argument("--out", help="directory for field/mask/contour CSVs")
    args = ap.parse_args()

    system = builtin("lift2d")
    grid = Grid([-1.2, -1.2], [1.2, 1.2], [args.nodes, args.nodes])
    print("solving on %dx%d nodes over [-1.2, 1.2]^2 ..." % (args.nodes,
                                                             args.nodes))
    t0 = time.time()
    field = solve_zubov(system, grid, SolverSettings(dt=0.05, tol=1e-6))
    print("  converged=%s after %d sweeps (%.1fs)"
          % (field.metadata["converged"], field.metadata["iterations"],
             time.time() - t0))

    # The closed form is exact, so the sup gap on the interior sub-box is
    # pure discretization error.
    coords = grid.node_coords().reshape(-1, 2)
    inner = np.max(np.abs(coords), axis=1) <= 0.8
    exact = 1.0 - np.exp(-closed_form_value("lift2d", coords[inner]))
    gap = float(np.max(np.abs(field.values.reshape(-1)[inner] - exact)))
    print("  sup |field - closed form| on [-0.8, 0.8]^2: %.5f" % gap)

    mask = extract_doa(field, epsilon=0.01)
    print("region estimate at level 0.99: %d of %d nodes (%.1f%%), "
          "touches box edge: %s"
          % (mask.node_count, mask.inside.size,
             100.0 * mask.node_count / mask.inside.size,
             mask.touches_boundary))

    polys = contour2d(field, 0.99)
    ring = polys[0]
    print("level-set contour: %d polyline(s); the first spans "
          "x1 in [%.3f, %.3f], x2 in [%.3f, %.3f] (true region is "
          "(-1, 1)^2 up to discretization)"
          % (len(polys), ring[:, 0].min(), ring[:, 0].max(),
             ring[:, 1].min(), ring[:, 1].max()))

    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        save_field(field, os.path.join(args.out, "field.csv"))
        save_mask(mask, os.path.join(args.out, "mask.csv"))
        save_contours(polys, os.path.join(args.out, "contour.csv"))
        print("wrote field.csv (and its twin field.npz), mask.csv, "
              "contour.csv to %s" % args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
