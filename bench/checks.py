"""Output checks for the benchmark, written apart from the program.

Closed forms, artifact readers and pass/fail tests live here and import
nothing from ``zubov``: a check that shared code with the solver could not
catch the solver's mistakes.  Every check returns a list of problems; an
empty list means the output passed.
"""

import math

import numpy as np
from scipy import ndimage
from scipy.special import sici

# --- closed forms ------------------------------------------------------------


def lift2d_value(x):
    """Worst-case cost of the lift system on (-1,1)^2; inf outside."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    out = np.full(x1.shape, np.inf)
    inside = (np.abs(x1) < 1.0) & (np.abs(x2) < 1.0)
    a, b = x1[inside], x2[inside]
    # the adversary pushes outward along the diagonal half that x points to
    up = -np.log1p(-a) - np.log1p(-b) - a - b
    down = -np.log1p(a) - np.log1p(b) + a + b
    out[inside] = np.where(a >= -b, up, down)
    return out


def ex1_value(x):
    """int_0^|x| sin(pi u)/(u(1-u)) du, saturating at 2 Si(pi) for |x| >= 1."""
    y = np.minimum(np.abs(np.asarray(x, dtype=float)), 1.0)
    return sici(np.pi * y)[0] + sici(np.pi)[0] - sici(np.pi * (1.0 - y))[0]


def ex1_f(x, a):
    """ex1's drift: -x + a x^2 on [-1, 1], a/x - 1 above, 1 - a/x below."""
    if x >= 1.0:
        return a / x - 1.0
    if x <= -1.0:
        return 1.0 - a / x
    return -x + a * x * x


def ex1_g(x):
    """ex1's cost |sin(pi x)| on [-1, 1], zero outside."""
    return abs(math.sin(math.pi * x)) if abs(x) <= 1.0 else 0.0


def arctan_value(x):
    return np.arctan(np.abs(np.asarray(x, dtype=float)))


def hav1d_value(x):
    """Integral of the hav1d cost profile from 0 to |x|, for |x| < 0.9.

    The profile is 0.9^6 y^6 on [0, 0.45] and a linear ramp from
    0.405^6 down to 0 on [0.45, 0.9]; the spikes start at |x| = 1.
    """
    y = np.abs(np.asarray(x, dtype=float))
    if np.any(y >= 0.9):
        raise ValueError("hav1d closed form is written out for |x| < 0.9")
    core = np.minimum(y, 0.45) ** 7 * 0.9 ** 6 / 7.0
    t = np.clip(y - 0.45, 0.0, None)
    return core + 0.405 ** 6 * (t - t * t / 0.9)


CLOSED_FORMS = {"lift2d": lift2d_value, "ex1": ex1_value,
                "arctan1d": arctan_value, "hav1d": hav1d_value}


def kruzhkov(w):
    """v = 1 - exp(-w), with v = 1 where w is infinite."""
    return -np.expm1(-np.asarray(w, dtype=float))


# --- artifact readers --------------------------------------------------------


def _grid_header(line):
    head = line.strip().split(",")
    n = int(head[0])
    return n, tuple(int(c) for c in head[1:1 + n])


def read_field(path):
    """(coords, values) of a field CSV; coords has shape counts + (n,).

    Rows must name every node exactly once; a file that does not is a
    wrong output, not a reader error.
    """
    with open(path) as fh:
        n, counts = _grid_header(fh.readline())
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (int(np.prod(counts)), 2 * n + 1):
        raise ValueError("field rows shaped %s for %s nodes"
                         % (rows.shape, counts))
    idx = rows[:, :n].astype(np.int64)
    flat = np.ravel_multi_index(tuple(idx.T), counts)
    if np.unique(flat).size != flat.size:
        raise ValueError("field rows repeat a node")
    coords = np.empty((flat.size, n))
    values = np.empty(flat.size)
    coords[flat] = rows[:, n:2 * n]
    values[flat] = rows[:, 2 * n]
    return coords.reshape(counts + (n,)), values.reshape(counts)


def read_mask(path):
    with open(path) as fh:
        n, counts = _grid_header(fh.readline())
        rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    inside = np.zeros(counts, dtype=bool)
    inside[tuple(rows[:, :n].T)] = rows[:, n] == 1
    return inside


def read_contours(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ids = rows[:, 0].astype(int)
    return [rows[ids == k, 2:4] for k in np.unique(ids)]


# --- checks ------------------------------------------------------------------


def closed_form_gap(coords, values, name, half=0.8):
    """Sup |v - (1 - exp(-W))| over nodes with |x|_inf <= half."""
    keep = np.max(np.abs(coords), axis=-1) <= half + 1e-12
    pts = coords[keep]
    exact = CLOSED_FORMS[name](pts if pts.shape[-1] > 1 else pts[:, 0])
    return float(np.max(np.abs(values[keep] - kruzhkov(exact))))


def field_problems(coords, values, name, bound=0.02):
    """A Kruzhkov field in [0, 1], zero at the origin, near its closed form."""
    problems = []
    if not np.all(np.isfinite(values)):
        return ["field holds non-finite values"]
    if values.min() < 0.0 or values.max() > 1.0:
        problems.append("field leaves [0, 1]: min %.3g, max %.3g"
                        % (values.min(), values.max()))
    origin = np.all(coords == 0.0, axis=-1)
    if origin.sum() != 1 or values[origin][0] != 0.0:
        problems.append("field is not exactly 0 at a single origin node")
    gap = closed_form_gap(coords, values, name)
    if not gap <= bound:
        problems.append("%s closed-form gap %.5f exceeds %.3g"
                        % (name, gap, bound))
    return problems


def hausdorff_cells(a, b):
    """Chessboard Hausdorff distance between two node sets, in cells."""
    if not a.any() or not b.any():
        return math.inf
    to_b = ndimage.distance_transform_cdt(~b, metric="chessboard")
    to_a = ndimage.distance_transform_cdt(~a, metric="chessboard")
    return float(max(to_b[a].max(), to_a[b].max()))


def lift2d_sublevel(coords, level=0.99):
    """Nodes of the exact sublevel set {1 - exp(-W) < level}."""
    return kruzhkov(lift2d_value(coords)) < level


def mask_problems(inside, reference, bound=3.0):
    dist = hausdorff_cells(inside, reference)
    if not dist <= bound:
        return ["mask is %.1f cells from the exact sublevel set (> %.1f)"
                % (dist, bound)]
    return []


def contour_problems(polylines):
    if len(polylines) != 1:
        return ["%d contour polylines, want one" % len(polylines)]
    line = polylines[0]
    if len(line) < 4 or not np.array_equal(line[0], line[-1]):
        return ["the contour polyline is not closed"]
    return []


def bracket_slack(lower, upper, exact):
    """How far the exact value lies outside [lower, upper] (0 inside)."""
    return max(lower - exact, exact - upper, 0.0)


def bracket_problems(lower, upper, exact, slack_bound, where):
    if not lower <= upper:
        return ["%s: bracket lower %.6g above upper %.6g"
                % (where, lower, upper)]
    slack = bracket_slack(lower, upper, exact)
    if not slack <= slack_bound:
        return ["%s: exact %.6f lies %.5f outside [%.6f, %.6f] (> %.3g)"
                % (where, exact, slack, lower, upper, slack_bound)]
    return []


def defect_allowances(eps, m):
    """eps (e^{-(j-1)} - e^{-j}) for j = 1..m."""
    return [eps * (math.exp(-(j - 1)) - math.exp(-j)) for j in range(1, m + 1)]


def synthesis_problems(residual, defects, eps, m):
    problems = []
    if not residual >= -eps:
        problems.append("synthesis residual %.6g below -eps %.3g"
                        % (residual, eps))
    if len(defects) != m:
        problems.append("synthesis reports %d defects for %d intervals"
                        % (len(defects), m))
    for j, (d, a) in enumerate(zip(defects, defect_allowances(eps, m)), 1):
        if not d <= a:
            problems.append("synthesis interval %d defect %.6g above its "
                            "allowance %.6g" % (j, d, a))
    return problems
