"""Problem definitions: control spaces, dynamics/costs, grids, value fields.

A system is the tuple (N, A, f, g, ell, h, mode) plus optional stability
constants.  Dynamics and costs are plain vectorized callables

    f(x, a) -> array        x: (..., N), a: (..., M), result (..., N)
    g(x, a) -> array        result (...,)

so the same object serves pointwise evaluation, whole-grid sweeps, and
batched trajectory integration.  Systems loaded from JSON configs compile
their expression strings to such callables; the builtin registry constructs
its callables directly (two of the reference problems are piecewise and a
third needs a smooth cutoff, none of which the expression grammar covers).
"""

from __future__ import annotations

import itertools
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import expressions as ex

_BUILTIN_NAMES = ("lift2d", "lift2d-psi-sqrt", "lift2d-psi-abs",
                  "ex1", "arctan1d", "hav1d", "fuller")


class ConfigError(ValueError):
    """Bad configuration document or constructor arguments."""


class ValidationError(ValueError):
    """One or more system invariants failed at load time."""

    def __init__(self, problems):
        super().__init__("system validation failed:\n  - "
                         + "\n  - ".join(problems))
        self.problems = list(problems)


class OutsideDomainError(ValueError):
    """Queried a closed form outside the robust domain of attraction."""


@dataclass(frozen=True)
class Ules:
    """Exponential envelope constants: ||phi(t)|| <= C ||x|| e^{-sigma t} on B_r."""
    c: float
    sigma: float   # > 0
    r: float       # > 0

    def __post_init__(self):
        if not (self.c > 0 and self.sigma > 0 and self.r > 0):
            raise ConfigError("ULES constants must be positive")


@dataclass(frozen=True)
class Growth:
    """Local cost growth: g(x,a) <= c_tilde ||x||^lam on the ULES ball."""
    c_tilde: float
    lam: float     # > 0

    def __post_init__(self):
        if not (self.c_tilde > 0 and self.lam > 0):
            raise ConfigError("growth constants must be positive")


# --- control space ----------------------------------------------------------

class ControlSpace:
    """A compact control set given by finitely many sample points.

    Either an explicit list of points in R^M or a box with per-axis sample
    counts (the discretization always contains the box corners).  M = 0 is
    allowed and means "no control": a single empty point, so code can loop
    over `points` uniformly.
    """

    def __init__(self, points, box_lo, box_hi):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.points = points
        self.box_lo = np.asarray(box_lo, dtype=float).reshape(-1)
        self.box_hi = np.asarray(box_hi, dtype=float).reshape(-1)
        if points.shape[0] == 0:
            raise ConfigError("control space must be nonempty")
        if points.shape[1] != self.box_lo.size:
            raise ConfigError("control points and box dimension mismatch")
        if np.any(self.box_lo > self.box_hi):
            raise ConfigError("control box has lo > hi")
        eps = 1e-12
        if points.size and (np.any(points < self.box_lo - eps)
                            or np.any(points > self.box_hi + eps)):
            raise ConfigError("control point outside the declared box")

    @classmethod
    def from_points(cls, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[0] == 0:
            raise ConfigError("control space must be nonempty")
        if pts.shape[1] == 0:
            return cls.none()
        return cls(pts, pts.min(axis=0), pts.max(axis=0))

    @classmethod
    def from_box(cls, lo, hi, counts):
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        counts = _whole_counts(counts, "control sample counts")
        if not (lo.size == hi.size == counts.size):
            raise ConfigError("control box lo/hi/counts length mismatch")
        axes = []
        for j in range(lo.size):
            if counts[j] < 1:
                raise ConfigError("control sample count must be >= 1")
            if counts[j] == 1:
                if lo[j] != hi[j]:
                    raise ConfigError(
                        "one sample on axis %d needs a degenerate box" % j)
                axes.append(np.array([lo[j]]))
            else:
                axes.append(np.linspace(lo[j], hi[j], counts[j]))
        pts = np.array(list(itertools.product(*axes)), dtype=float)
        return cls(pts, lo, hi)

    @classmethod
    def none(cls):
        """The no-control space: one empty point in R^0."""
        return cls(np.zeros((1, 0)), np.zeros(0), np.zeros(0))

    @property
    def m(self):
        return self.points.shape[1]

    @property
    def size(self):
        return self.points.shape[0]


# --- grid -------------------------------------------------------------------

class Grid:
    """Uniform rectangular node grid whose nodes include the exact origin.

    Axes are rebuilt as (index - origin_index) * dx so that the origin node
    is floating-point zero exactly; the stored lo/hi may therefore differ
    from the requested bounds by one ulp.
    """

    def __init__(self, lo, hi, counts):
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        counts = _whole_counts(counts, "grid counts")
        if not (lo.size == hi.size == counts.size) or lo.size == 0:
            raise ConfigError("grid lo/hi/counts length mismatch")
        if np.any(counts < 3):
            raise ConfigError("grid needs at least 3 nodes per axis")
        if np.any(lo >= hi):
            raise ConfigError("grid box has lo >= hi")
        dx = (hi - lo) / (counts - 1)
        frac = -lo / dx
        i0 = np.rint(frac).astype(int)
        if np.any(np.abs(frac - i0) > 1e-6) or np.any(i0 < 0) \
                or np.any(i0 > counts - 1):
            raise ConfigError("grid missing origin: 0 must be a node")
        self.counts = counts
        self.dx = dx
        self.origin_index = tuple(int(v) for v in i0)
        self.axes = [(np.arange(counts[k]) - i0[k]) * dx[k]
                     for k in range(lo.size)]
        self.lo = np.array([ax[0] for ax in self.axes])
        self.hi = np.array([ax[-1] for ax in self.axes])

    @property
    def n_axes(self):
        return len(self.axes)

    @property
    def n_nodes(self):
        return int(np.prod(self.counts))

    def node_coords(self):
        """All node coordinates, shape counts + (n_axes,)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def interior(self, cells=1):
        """Mask of the nodes at least `cells` nodes from every box face."""
        keep = np.zeros(tuple(self.counts), dtype=bool)
        keep[tuple(slice(cells, c - cells) for c in self.counts)] = True
        return keep

    def same_layout(self, other):
        return (self.n_axes == other.n_axes
                and np.array_equal(self.counts, other.counts)
                and np.allclose(self.lo, other.lo, atol=1e-12)
                and np.allclose(self.hi, other.hi, atol=1e-12))


# --- value field ------------------------------------------------------------

class ValueField:
    """Grid samples of a candidate value function.

    transform 'kruzhkov' marks fields living in [0, 1] (v = 1 - e^{-W});
    'raw' marks untransformed values.  Solver output must satisfy the
    kruzhkov invariants (range and zero at the origin node); deliberately
    perturbed candidates used by the verifier need not, so the invariants
    are a method rather than a constructor hard-failure.
    """

    def __init__(self, grid, values, transform, metadata=None):
        values = np.asarray(values, dtype=float)
        if values.shape != tuple(grid.counts):
            raise ConfigError("field values shaped %s but grid wants %s"
                              % (values.shape, tuple(grid.counts)))
        if transform not in ("kruzhkov", "raw"):
            raise ConfigError("transform must be 'kruzhkov' or 'raw'")
        self.grid = grid
        self.values = values
        self.transform = transform
        self.metadata = dict(metadata or {})

    def origin_value(self):
        return float(self.values[self.grid.origin_index])

    def check_invariants(self):
        """Return a list of violated kruzhkov-field invariants (empty = ok)."""
        problems = []
        if self.transform == "kruzhkov":
            if self.values.min() < 0.0 or self.values.max() > 1.0:
                problems.append("kruzhkov values leave [0, 1]: min=%.3g max=%.3g"
                                % (self.values.min(), self.values.max()))
            if abs(self.origin_value()) > 1e-12:
                problems.append("origin node value is %.3g, not 0"
                                % self.origin_value())
        if not np.all(np.isfinite(self.values)):
            problems.append("field contains non-finite values")
        return problems

    def with_values(self, values, transform=None):
        return ValueField(self.grid, values, transform or self.transform,
                          self.metadata)


def _grid_header(grid):
    """Header tokens n, counts, lo, hi shared by the field and mask CSVs."""
    return ([str(grid.n_axes)] + [str(int(c)) for c in grid.counts]
            + ["%.17g" % v for v in grid.lo] + ["%.17g" % v for v in grid.hi])


def _write_csv(path, head, columns, formats):
    """Write the header tokens, then row i of the columns, the k-th entry in
    %-format formats[k], a bounded chunk of rows at a time: the body never
    exists as one string or as one Python float per value."""
    row, chunk = ",".join(formats) + "\n", 4096
    with open(path, "w") as fh:
        fh.write(",".join(head) + "\n")
        for start in range(0, len(columns[0]), chunk):
            part = np.column_stack([c[start:start + chunk] for c in columns])
            fh.write((row * len(part)) % tuple(part.ravel().tolist()))


def _read_grid_csv(path, what, width):
    """Parse a grid CSV: the grid, the header tokens after it and the body
    rows in flat node order.  Every row must have ``width(n)`` columns and
    every node must appear exactly once, or ConfigError says what is off."""
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        try:
            n = int(head[0])
            grid = Grid([float(v) for v in head[1 + n:1 + 2 * n]],
                        [float(v) for v in head[1 + 2 * n:1 + 3 * n]],
                        [int(c) for c in head[1:1 + n]])
        except (IndexError, ValueError) as err:
            raise ConfigError("malformed %s header: %s" % (what, err)) from None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body warns
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ConfigError("malformed %s row: %s" % (what, err)) from None
    if rows.shape[0] != grid.n_nodes:
        raise ConfigError("%s file has %d rows for %d nodes"
                          % (what, rows.shape[0], grid.n_nodes))
    if rows.shape[1] != width(n):
        raise ConfigError("%s rows have %d columns, %d axes want %d"
                          % (what, rows.shape[1], n, width(n)))
    ijk = rows[:, :n]
    if np.any(ijk != np.rint(ijk)) or np.any(ijk < 0) \
            or np.any(ijk >= grid.counts):
        raise ConfigError("%s file names a node index that is not an "
                          "integer inside the grid's counts" % what)
    flat = np.ravel_multi_index(tuple(ijk.T.astype(np.intp)),
                                tuple(grid.counts))
    seen = np.bincount(flat, minlength=grid.n_nodes)
    if np.any(seen != 1):
        raise ConfigError("%s file has %d node(s) duplicated and as many "
                          "missing" % (what, np.count_nonzero(seen == 0)))
    ordered = np.empty_like(rows)
    ordered[flat] = rows
    return grid, head[1 + 3 * n:], ordered


# the run record a field CSV header carries, key -> parser: a solve's dt,
# tol and convergence, a transform's exterior_value and older files'
# rk4_feet; flags are written 0/1, floats like the grid tokens
_FLAG = {"0": False, "1": True}.__getitem__
_RECORD = {"dt": float, "tol": float, "rk4_feet": _FLAG,
           "exterior_value": float, "converged": _FLAG}


def save_field(field, path):
    """CSV: header (n_axes, counts, lo, hi, transform, then key=value for the
    _RECORD keys the metadata holds), then one node row i1..iN, x1..xN, value
    with 17 significant digits (bit-exact reload)."""
    grid = field.grid
    n = grid.n_axes
    record = ["%s=%s" % (key, ("%d" if kind is _FLAG else "%.17g")
                         % field.metadata[key])
              for key, kind in _RECORD.items() if key in field.metadata]
    _write_csv(path, _grid_header(grid) + [field.transform] + record,
               [*np.indices(tuple(grid.counts)).reshape(n, -1),
                *grid.node_coords().reshape(-1, n).T,
                field.values.reshape(-1)], ["%d"] * n + ["%.17g"] * (n + 1))


def load_field(path):
    """Read a save_field CSV, its run record into the metadata; a row whose
    coordinates are off the node its index names is rejected like a missing
    or duplicated one."""
    grid, tail, rows = _read_grid_csv(path, "field", lambda n: 2 * n + 1)
    try:
        transform, *record = tail
        metadata = {key: _RECORD[key](value) for key, value in
                    (token.split("=", 1) for token in record)}
        if len(metadata) != len(record):
            raise ValueError("a key repeats")
    except (KeyError, ValueError) as err:
        raise ConfigError("malformed field header %s: %s"
                          % (",".join(tail), err)) from None
    n = grid.n_axes
    nodes = grid.node_coords().reshape(-1, n)
    if np.any(np.abs(rows[:, n:2 * n] - nodes) > 1e-3 * grid.dx):
        raise ConfigError("field file has coordinates off the grid node "
                          "their index names")
    return ValueField(grid, rows[:, 2 * n].reshape(tuple(grid.counts)),
                      transform, metadata)


# --- system definition ------------------------------------------------------

class SystemDef:
    """One problem instance; immutable after construction."""

    def __init__(self, name, n_state, control, f, g, ell=None, h=None,
                 mode="maximize", ules=None, growth=None, guard=None):
        if mode not in ("maximize", "minimize"):
            raise ConfigError("mode must be 'maximize' or 'minimize'")
        if guard not in (None, "nonneg_ell", "nonpos_ell", "case_a", "case_b"):
            raise ConfigError("unknown convergence guard %r" % (guard,))
        if mode == "minimize" and guard is None:
            raise ConfigError(
                "minimize mode needs a convergence guard: one of "
                "nonneg_ell / nonpos_ell / case_a / case_b")
        if mode == "minimize" and ell is None:
            raise ConfigError("minimize mode needs a running cost 'ell'")
        self.name = name
        self.n_state = int(n_state)
        self.control = control
        self.f = f
        self.g = g
        self.ell = ell
        self.h = h
        self.mode = mode
        self.ules = ules
        self.growth = growth
        self.guard = guard
        problems = self._validate()
        if problems:
            raise ValidationError(problems)

    # numeric load-time checks; every failure is collected, not just the first
    def _validate(self):
        problems = []
        origin = np.zeros(self.n_state)
        a_pts = self.control.points
        fnorms = np.array([float(np.linalg.norm(self.f(origin, a)))
                           for a in a_pts])
        if self.mode == "maximize":
            for a, fn in zip(a_pts, fnorms):
                if fn > 1e-9:
                    problems.append("f(0,a) != 0 at control point a=%s "
                                    "(|f| = %.3g)" % (a.tolist(), fn))
        elif fnorms.min() > 1e-9:
            # least-cost route only needs some control fixing the origin
            problems.append("no discretized control keeps the origin fixed "
                            "(min |f(0,a)| = %.3g)" % fnorms.min())
        for a in a_pts:
            gv = float(self.g(origin, a))
            if abs(gv) > 1e-9:
                problems.append("g(0,a) = %.6g != 0 at control point a=%s"
                                % (gv, a.tolist()))
            if self.ell is not None:
                lv = float(self.ell(origin, a))
                if abs(lv) > 1e-9:
                    problems.append("ell(0,a) = %.6g != 0 at control point "
                                    "a=%s" % (lv, a.tolist()))
            if self.h is not None:
                hv = float(self.h(origin, a))
                if hv < -1e-12:
                    problems.append("h(0,a) = %.6g < 0 at control point a=%s"
                                    % (hv, a.tolist()))
        if self.growth is not None and self.ules is not None:
            problems += self._spot_check_growth()
        return problems

    def _spot_check_growth(self):
        # deterministic samples in the ULES ball; cost must respect the
        # declared growth envelope there (and be nonnegative)
        rng = np.random.default_rng(20260814)
        z = rng.standard_normal((128, self.n_state))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        radii = self.ules.r * rng.random(128) ** (1.0 / self.n_state)
        xs = z * radii[:, None]
        cap = self.growth.c_tilde * np.linalg.norm(xs, axis=1) ** self.growth.lam
        problems = []
        for a in self.control.points:
            gv = self.g(xs, np.broadcast_to(a, (xs.shape[0], a.size)))
            if np.any(gv < -1e-12):
                problems.append("g < 0 inside the ULES ball at a=%s"
                                % a.tolist())
            bad = gv > cap * (1 + 1e-9) + 1e-12
            if np.any(bad):
                i = int(np.argmax(gv - cap))
                problems.append(
                    "growth bound violated: g(%s, %s) = %.6g > %.6g"
                    % (xs[i].tolist(), a.tolist(), gv[i], cap[i]))
        return problems


# --- JSON config loading ----------------------------------------------------

def _compile_components(trees, n, m):
    """fn(x, a) stacking the trees' values along a last axis, on the batch
    shape of x (..., n) and a (..., m), constants included.

    Each tree compiles once, here.  The trees evaluate in order under one
    error state, each checked (`expressions._finite`) before the next runs.
    """
    runs = [ex._compile(tree) for tree in trees]

    def fn(x, a):
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        state = tuple(x[..., i] for i in range(n))
        control = tuple(a[..., j] for j in range(m))
        shape = x.shape[:-1]
        if a.shape[:-1] != shape:
            shape = np.broadcast_shapes(shape, a.shape[:-1])
        out = np.empty(shape + (len(runs),))
        with np.errstate(all="ignore"):
            for k, run in enumerate(runs):
                out[..., k] = ex._finite(run(state, control))
        return out

    return fn


def _compile_component(tree, n, m):
    """One tree as fn(x, a) of batch shape; a float for a single point."""
    stacked = _compile_components([tree], n, m)

    def fn(x, a):
        out = stacked(x, a)[..., 0]
        return float(out) if out.ndim == 0 else out

    return fn


def _is_whole(value):
    """A whole number: an integer or an integral float, never a bool."""
    return not isinstance(value, (bool, np.bool_)) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, float) and value.is_integer())


def _whole_counts(counts, what):
    """Per-axis counts as a flat int array; ConfigError naming `what` when
    one is a bool or fractional, which an int conversion would truncate."""
    items = np.asarray(counts, dtype=object).reshape(-1)
    if not all(map(_is_whole, items)):
        raise ConfigError("%s must be whole numbers, got %r" % (what, counts))
    return items.astype(int)


def _control_from_config(doc, problems):
    if doc is None:
        return ControlSpace.none()
    if not isinstance(doc, dict):
        problems.append("control must be an object")
        return ControlSpace.none()
    if "points" in doc:
        pts = doc["points"]
        if not isinstance(pts, list) or not pts:
            problems.append("control.points must be a nonempty list")
            return ControlSpace.none()
        try:
            return ControlSpace.from_points(pts)
        except ConfigError as err:
            problems.append(str(err))
            return ControlSpace.none()
    if "box" in doc:
        box = doc["box"]
        try:
            return ControlSpace.from_box(box["lo"], box["hi"], box["counts"])
        except (KeyError, TypeError) as err:
            problems.append("control.box needs lo/hi/counts (%s)" % err)
        except ConfigError as err:
            problems.append(str(err))
        return ControlSpace.none()
    problems.append("control needs either 'points' or 'box'")
    return ControlSpace.none()


def load_system(config):
    """Build a SystemDef from a parsed JSON document.

    Schema errors and invariant violations are aggregated so a bad config
    reports everything wrong with it in one exception.
    """
    if not isinstance(config, dict):
        raise ConfigError("system config must be a JSON object")
    problems = []
    n = config.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError("system config needs a positive integer 'n'")
    control = _control_from_config(config.get("control"), problems)
    m = control.m

    f_src = config.get("f")
    if not isinstance(f_src, list) or len(f_src) != n:
        problems.append("'f' must be a list of %d expression strings" % n)
        f_src = ["0.0"] * n
    g_src = config.get("g")
    if not isinstance(g_src, str):
        problems.append("'g' must be an expression string")
        g_src = "0.0"

    def parsed(src, what):
        try:
            return ex.parse(src, n, m)
        except ex.ParseError as err:
            problems.append("%s: %s" % (what, err))
            return ex.Num(0.0)

    f_trees = []
    for i, src in enumerate(f_src):
        if not isinstance(src, str):
            problems.append("f[%d] must be a string" % i)
            src = "0.0"
        f_trees.append(parsed(src, "f[%d]" % i))
    f = _compile_components(f_trees, n, m)

    def compiled(key):
        if key not in config:
            return None
        return _compile_component(parsed(config[key], key), n, m)

    g = _compile_component(parsed(g_src, "g"), n, m)
    ell, h = compiled("ell"), compiled("h")

    blocks = {}
    for key, cls, names in (("ules", Ules, ("C", "sigma", "r")),
                            ("growth", Growth, ("C_tilde", "lambda"))):
        if key not in config:
            continue
        try:
            values = [config[key][name] for name in names]
            for name, value in zip(names, values):
                if isinstance(value, bool):
                    raise ConfigError("%s must be a number, got %r"
                                      % (name, value))
            blocks[key] = cls(*values)
        except (KeyError, TypeError, ConfigError) as err:
            problems.append("%s block: %s" % (key, err))
    ules, growth = blocks.get("ules"), blocks.get("growth")

    mode = config.get("mode", "maximize")
    guard = config.get("guard")
    if problems:
        raise ValidationError(problems)
    try:
        return SystemDef(config.get("name", "config"), n, control, f, g,
                         ell=ell, h=h, mode=mode, ules=ules, growth=growth,
                         guard=guard)
    except ConfigError as err:
        raise ValidationError([str(err)]) from None


# --- builtin registry -------------------------------------------------------

def _smooth_cut(u):
    # 1 on |u|<=1.5, 0 on |u|>=2, C^1 cubic ramp between
    r = np.abs(u)
    if np.all(r <= 1.5):  # the ramp's t is 0 throughout: exactly 1
        return np.ones(np.shape(u))
    t = np.clip((r - 1.5) / 0.5, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _lift_f(x, a):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    av = a[..., 0]
    # taper bounds the dynamics without touching trajectories in [-1.5,1.5]^2
    cut = _smooth_cut(x1) * _smooth_cut(x2)
    return np.stack([(-x1 + av * x1 ** 2) * cut,
                     (-x2 + av * x2 ** 2) * cut], axis=-1)


def _norm2_cost(x, a):
    x = np.asarray(x, dtype=float)
    return x[..., 0] ** 2 + x[..., 1] ** 2


def _psi_sqrt(x, a):
    x = np.asarray(x, dtype=float)
    psi = (np.sqrt(np.abs(x[..., 0] - 0.75))
           + np.sqrt(np.abs(x[..., 1] - 0.75)))
    return _norm2_cost(x, a) * psi


def _psi_abs(x, a):
    x = np.asarray(x, dtype=float)
    psi = np.abs(x[..., 0] - 0.75) + np.abs(x[..., 1] - 0.75)
    return _norm2_cost(x, a) * psi


def _ex1_f(x, a):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    xv = x[..., 0]
    av = a[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        outer = av / xv  # only consumed where |x| >= 1
    inner = -xv + av * xv ** 2
    val = np.where(xv >= 1.0, outer - 1.0,
                   np.where(xv <= -1.0, 1.0 - outer, inner))
    return val[..., None]


def _ex1_g(x, a):
    xv = np.asarray(x, dtype=float)[..., 0]
    return np.where(np.abs(xv) <= 1.0, np.abs(np.sin(np.pi * xv)), 0.0)


def _arctan_f(x, a):
    return -np.asarray(x, dtype=float)


def _arctan_g(x, a):
    xv = np.asarray(x, dtype=float)[..., 0]
    return np.abs(xv) / (1.0 + xv ** 2)


_HAV_SLOPE = (10.0 / 9.0) ** 6          # linear decay rate inside [-0.9, 0.9]
_HAV_Q45 = 0.405 ** 6                   # hav_q value at |x| = 0.45
_FULLER_GAMMA = 2.0                     # fuller's running cost |x1|^gamma


def _hav_kmax(ymax):
    if not np.isfinite(ymax) or ymax < 1.0:
        return 0
    return int(np.ceil(np.log10(ymax))) + 1


def hav_q(x):
    """The spiky cost profile: polynomial core, triangular spikes of height
    10^k at |x| = 10^k (half-width 10^-(2k+1)), and low triangular bumps of
    height 10^-(2k+2) between consecutive spikes (keeps the total integral
    finite while the zero set stays exactly {0} U {spike feet}).  Odd."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.abs(arr)
    out = np.zeros_like(y)
    core = y <= 0.45
    out[core] = 0.9 ** 6 * y[core] ** 6
    ramp = (y > 0.45) & (y < 0.9)
    out[ramp] = _HAV_Q45 * (0.9 - y[ramp]) / 0.45
    for k in range(_hav_kmax(y.max() if y.size else 0.0) + 1):
        c, w = 10.0 ** k, 10.0 ** -(2 * k + 1)
        spike = (y >= c - w) & (y <= c + w)
        # peak-relative form keeps the peak value exactly 10^k
        out[spike] = 10.0 ** k * np.maximum(
            0.0, 1.0 - np.abs(y[spike] - c) / w)
        lo, hi = c + w, 10.0 ** (k + 1) - 10.0 ** -(2 * k + 3)
        mid, hgt = 0.5 * (lo + hi), 10.0 ** -(2 * k + 2)
        bump = (y > lo) & (y < hi)
        out[bump] = hgt * (1.0 - np.abs(y[bump] - mid) / (mid - lo))
    signed = np.sign(arr) * out
    return float(signed[0]) if np.isscalar(x) or np.ndim(x) == 0 else signed


def hav_q_integral(x):
    """Exact piecewise integral of hav_q from 0 to |x| (even in x)."""
    y = np.abs(np.asarray(x, dtype=float))
    out = np.minimum(y, 0.45) ** 7 * (0.9 ** 6 / 7.0)
    t = np.clip(y - 0.45, 0.0, 0.45)
    out += _HAV_Q45 * (t - t ** 2 / 0.9)
    for k in range(_hav_kmax(y.max() if y.size else 0.0) + 1):
        c, w = 10.0 ** k, 10.0 ** -(2 * k + 1)
        s = 10.0 ** (3 * k + 1)
        # spike k: two triangle halves of area s w^2 / 2 each
        t = np.clip(y - (c - w), 0.0, w)
        out += s * t ** 2 / 2.0
        t = np.clip(y - c, 0.0, w)
        out += s * (w * t - t ** 2 / 2.0)
        # bump between spike k and spike k+1
        lo, hi = c + w, 10.0 ** (k + 1) - 10.0 ** -(2 * k + 3)
        half, hgt = 0.5 * (hi - lo), 10.0 ** -(2 * k + 2)
        slope = hgt / half
        t = np.clip(y - lo, 0.0, half)
        out += slope * t ** 2 / 2.0
        t = np.clip(y - (lo + half), 0.0, half)
        out += hgt * t - slope * t ** 2 / 2.0
    return out if out.ndim else float(out)


def _hav_f(x, a):
    x = np.asarray(x, dtype=float)
    xv = x[..., 0]
    with np.errstate(divide="ignore"):
        outer = -1.0 / xv ** 5
    val = np.where(np.abs(xv) <= 0.9, -_HAV_SLOPE * xv, outer)
    return val[..., None]


def _hav_g(x, a):
    xv = np.asarray(x, dtype=float)[..., 0]
    return -hav_q(xv) * _hav_f(x, a)[..., 0]


def _fuller_f(x, a):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    return np.stack([x[..., 1], np.broadcast_to(a[..., 0], x[..., 1].shape)],
                    axis=-1)


def _fuller_ell(x, a):
    return np.abs(np.asarray(x, dtype=float)[..., 0]) ** _FULLER_GAMMA


def builtin(name, **overrides):
    """Construct one of the registered reference problems.

    The one override is controls=K, the sample count on the control box
    axis of the systems that have one.
    """
    if name not in _BUILTIN_NAMES:
        raise ConfigError("unknown builtin %r (have: %s)"
                          % (name, ", ".join(_BUILTIN_NAMES)))
    bad = set(overrides) - {"controls"}
    if bad:
        raise ConfigError("unsupported overrides for %s: %s"
                          % (name, ", ".join(sorted(bad))))
    if name in ("arctan1d", "hav1d") and "controls" in overrides:
        raise ConfigError("%s has no control to discretize" % name)
    k = _whole_counts(overrides.get("controls", 3 if name == "fuller"
                                    else 21), "controls")

    if name.startswith("lift2d"):
        g = {"lift2d": _norm2_cost, "lift2d-psi-sqrt": _psi_sqrt,
             "lift2d-psi-abs": _psi_abs}[name]
        c_tilde = 1.0 if name == "lift2d" else 2.5
        return SystemDef(
            name, 2, ControlSpace.from_box([-1.0], [1.0], k),
            _lift_f, g, mode="maximize",
            ules=Ules(1.0, 0.5, 0.5), growth=Growth(c_tilde, 2.0))

    if name == "ex1":
        return SystemDef(
            name, 1, ControlSpace.from_box([-1.0], [1.0], k),
            _ex1_f, _ex1_g, mode="maximize",
            ules=Ules(1.0, 0.5, 0.5), growth=Growth(np.pi, 1.0))

    if name == "arctan1d":
        return SystemDef(
            name, 1, ControlSpace.none(), _arctan_f, _arctan_g,
            mode="maximize", ules=Ules(1.0, 1.0, 1.0),
            growth=Growth(1.0, 1.0))

    if name == "hav1d":
        return SystemDef(
            name, 1, ControlSpace.none(), _hav_f, _hav_g,
            mode="maximize", ules=Ules(1.0, _HAV_SLOPE, 0.9),
            growth=Growth(1.0, 7.0))

    return SystemDef(
        "fuller", 2, ControlSpace.from_box([-1.0], [1.0], k),
        _fuller_f, _fuller_ell, ell=_fuller_ell, mode="minimize",
        guard="nonneg_ell")


# --- closed forms -----------------------------------------------------------

def closed_form_value(name, x):
    """Exact value of the maximal-cost function for the registered problems.

    Accepts a single state or an array of states (last axis = state dim for
    lift2d).  lift2d raises OutsideDomainError when any |x_i| >= 1.
    """
    if name == "lift2d":
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 2:
            raise ConfigError("lift2d closed form wants 2-vectors")
        x1, x2 = x[..., 0], x[..., 1]
        if np.any(np.abs(x1) >= 1.0) or np.any(np.abs(x2) >= 1.0):
            raise OutsideDomainError(
                "state outside the robust domain of attraction (-1,1)^2")
        upper = -np.log1p(-x1) - np.log1p(-x2) - x1 - x2
        lower = -np.log1p(x1) - np.log1p(x2) + x1 + x2
        out = np.where(x1 >= -x2, upper, lower)
        return out if out.ndim else float(out)
    if name == "arctan1d":
        out = np.arctan(np.abs(np.asarray(x, dtype=float)))
        return out if out.ndim else float(out)
    if name == "hav1d":
        return hav_q_integral(x)
    if name == "ex1":
        from scipy.special import sici
        y = np.minimum(np.abs(np.asarray(x, dtype=float)), 1.0)
        # int_0^y sin(pi u)/(u(1-u)) du via partial fractions; the cost
        # vanishes beyond |x| = 1, so the value saturates at 2 Si(pi)
        out = sici(np.pi * y)[0] + sici(np.pi)[0] - sici(np.pi * (1.0 - y))[0]
        return out if out.ndim else float(out)
    raise ConfigError("no closed form registered for %r" % name)
