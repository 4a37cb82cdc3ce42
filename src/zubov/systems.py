"""Problem definitions: control spaces, dynamics/costs, grids, value fields.

A system is the tuple (N, A, f, g, ell, h, mode) plus optional stability
constants.  Its dynamics f and its cost g come as one vectorized callable

    rates(x, a, out)        x: (..., N), a: (..., M), out: (..., N+1)

that writes f into out[..., :N] and g into out[..., N], computing what the
two share once.  The same function serves pointwise evaluation, whole-grid
sweeps and batched trajectory integration, one call per RK4 stage; f and g
alone are read back from its columns.  Systems loaded from JSON configs
compile their expression strings to such a function; the builtin registry
writes its own (two of the reference problems are piecewise and a third
needs a smooth cutoff, none of which the expression grammar covers).
`BUILTINS` holds each reference problem in one row: its dynamics, control
menu, envelope, default grid and closed form.

Every number a caller passes follows one rule (`_positive`, `_whole`).
A constant, step, horizon, tolerance or radius (the envelope's C, sigma,
r, C_tilde and lambda; dt, tol, switch_dt, rho, t, cap, eps, delta,
kruzhkov_scale, a schedule's durations, the chatter period) is a finite
real above 0.  A count, depth or seed (depth, budget, samples, m, seed,
max_iters, threads, a system's state dimension, grid and control counts)
is a whole number, an integer or an integral float kept as the int it
names, no smaller than its least value: 0 for budget and seed, 3 for
grid counts and 1 for the rest; grid and control counts also fit in
int64.  A bool is never a number.  Anything else raises ConfigError
naming the argument, and the command line exits 1.  A few ranges are
narrower: epsilon lies in (0, 1), and maximal_cost's rho in (0, r/C].
"""

from __future__ import annotations

import io
import itertools
import math
import numbers
import os
import sys
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from . import expressions as ex

MAX_CONTROLS = 2 ** 20  # samples a box lattice may hold; lift2d samples 21


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
        _positive(self.c, "C")
        _positive(self.sigma, "sigma")
        _positive(self.r, "r")


@dataclass(frozen=True)
class Growth:
    """Local cost growth: g(x,a) <= c_tilde ||x||^lam on the ULES ball."""
    c_tilde: float
    lam: float     # > 0

    def __post_init__(self):
        _positive(self.c_tilde, "C_tilde")
        _positive(self.lam, "lambda")


# --- control space ----------------------------------------------------------

class ControlSpace:
    """A compact control set given by finitely many sample points in R^M.

    The points are the set: `box_lo` and `box_hi` are their hull, which
    `from_box` samples with per-axis counts (its lattice contains the
    box corners).  M = 0 is allowed and means "no control": a single
    empty point, so code can loop over `points` uniformly.
    """

    def __init__(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 0:
            raise ConfigError("control space must be nonempty")
        if not np.all(np.isfinite(points)):
            raise ConfigError("control points must be finite")
        self.points = points[:1] if points.shape[1] == 0 else points
        self.box_lo, self.box_hi = self.points.min(0), self.points.max(0)

    @classmethod
    def from_box(cls, lo, hi, counts):
        """The lattice of counts[j] even samples on axis j of [lo, hi]; past
        MAX_CONTROLS samples it is refused before any of it is built."""
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        counts = _whole_counts(counts, "control sample counts")
        if not (lo.size == hi.size == counts.size):
            raise ConfigError("control box lo/hi/counts length mismatch")
        if not np.isfinite([lo, hi]).all():
            raise ConfigError("control box lo/hi must be finite")
        for j in range(lo.size):
            if counts[j] < 1:
                raise ConfigError("control sample count must be >= 1")
            if counts[j] == 1 and lo[j] != hi[j]:
                raise ConfigError(
                    "one sample on axis %d needs a degenerate box" % j)
        if np.any(lo > hi):
            raise ConfigError("control box has lo > hi")
        size = math.prod(counts.tolist())
        if size > MAX_CONTROLS:
            raise ConfigError("control box lattice has %d samples; at most %d"
                              % (size, MAX_CONTROLS))
        axes = [np.linspace(*bounds) for bounds in zip(lo, hi, counts)]
        return cls(list(itertools.product(*axes)))

    @classmethod
    def none(cls):
        """The no-control space: one empty point in R^0."""
        return cls(np.zeros((1, 0)))

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
        if not np.isfinite([lo, hi]).all():
            raise ConfigError("grid box lo/hi must be finite")
        if np.any(counts < 3):
            raise ConfigError("grid needs at least 3 nodes per axis")
        if np.any(lo >= hi):
            raise ConfigError("grid box has lo >= hi")
        n_nodes = math.prod(counts.tolist())  # a Python int: no overflow
        if n_nodes > np.iinfo(np.int64).max:
            raise ConfigError("grid has %d nodes; at most %d (int64)"
                              % (n_nodes, np.iinfo(np.int64).max))
        dx = (hi - lo) / (counts - 1)
        frac = -lo / dx
        i0 = np.rint(frac).astype(int)
        if np.any(np.abs(frac - i0) > 1e-6) or np.any(i0 < 0) \
                or np.any(i0 > counts - 1):
            raise ConfigError("grid missing origin: 0 must be a node")
        self.counts, self.n_nodes = counts, n_nodes
        self.dx = dx
        self.origin_index = tuple(int(v) for v in i0)
        self.axes = [(np.arange(counts[k]) - i0[k]) * dx[k]
                     for k in range(lo.size)]
        self.lo = np.array([ax[0] for ax in self.axes])
        self.hi = np.array([ax[-1] for ax in self.axes])

    @property
    def n_axes(self):
        return len(self.axes)

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
        self.sha256 = None  # load_field's digest of the CSV it read

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
    exists as one string.  Returns the sha256 hex digest of the bytes
    written, hashed as they are written."""
    import hashlib  # lazily: ``import zubov`` does not need it

    row, chunk = ",".join(formats) + "\n", 4096
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def write(text):
            data = text.encode()
            digest.update(data)
            fh.write(data)

        write(",".join(head) + "\n")
        for start in range(0, len(columns[0]), chunk):
            part = np.column_stack([c[start:start + chunk] for c in columns])
            write((row * len(part)) % tuple(part.ravel().tolist()))
    return digest.hexdigest()


def _node_columns(grid, coords=True):
    """The node columns i1..iN, then x1..xN with ``coords``, of a grid CSV
    in flat node order, for "%s" formats: each axis's indices (%d) and
    coordinates (%.17g) are formatted once, and a column points at them."""
    at = np.unravel_index(np.arange(grid.n_nodes), tuple(grid.counts))
    tokens = [["%d" % i for i in range(count)] for count in grid.counts]
    if coords:
        tokens += [["%.17g" % x for x in ax] for ax in grid.axes]
    return [np.array(t, dtype=object)[at[k % grid.n_axes]]
            for k, t in enumerate(tokens)]


def _decoded(data, what):
    """A text stream over `data`, the bytes of a `what`, decoded as the
    UTF-8 the writers write, with the newline handling of text-mode
    `open`; ConfigError when they do not decode."""
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as err:
        raise ConfigError("%s is not UTF-8 text: %s" % (what, err)) from None


def _read_grid_csv(data, what, width):
    """Parse a grid CSV's bytes as text: the grid, the header tokens after
    it and the body rows in flat node order.  Every row must have
    ``width(n)`` columns and every node must appear exactly once, or
    ConfigError says what is off.  The row count is checked before the
    grid is built, so a header's absurd counts never size an allocation."""
    with _decoded(data, what + " file") as fh:
        counts, lo, hi, tail = _grid_head(fh.readline(), what)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body warns
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ConfigError("malformed %s row: %s" % (what, err)) from None
    n_nodes = math.prod(counts)  # a Python int: no overflow
    if rows.shape[0] != n_nodes:
        raise ConfigError("%s file has %d rows for %d nodes"
                          % (what, rows.shape[0], n_nodes))
    grid = Grid(lo, hi, counts)
    n = grid.n_axes
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
    return grid, tail, ordered


def _grid_head(line, what):
    """The counts, lo, hi and the tokens after them of a grid CSV's header
    line; only the numbers are parsed, so nothing is sized by them yet."""
    head = line.strip().split(",")
    try:
        n = int(head[0])
        lo = [float(v) for v in head[1 + n:1 + 2 * n]]
        hi = [float(v) for v in head[1 + 2 * n:1 + 3 * n]]
        counts = [int(c) for c in head[1:1 + n]]
    except ValueError as err:
        raise ConfigError("malformed %s header: %s" % (what, err)) from None
    return counts, lo, hi, head[1 + 3 * n:]


def _finite_float(token):
    value = float(token)
    if not np.isfinite(value):
        raise ValueError("%s is not finite" % token)
    return value


# the run record a field CSV header carries, key -> parser: a solve's dt,
# tol and convergence, a transform's exterior_value and older files'
# rk4_feet; flags are written 0/1, floats like the grid tokens
_FLAG = {"0": False, "1": True}.__getitem__
_RECORD = {"dt": lambda token: _positive(float(token), "dt"),
           "tol": lambda token: _positive(float(token), "tol"),
           "rk4_feet": _FLAG, "exterior_value": _finite_float,
           "converged": _FLAG}


def save_field(field, path):
    """CSV: header (n_axes, counts, lo, hi, transform, then key=value for the
    _RECORD keys the metadata holds), then one node row i1..iN, x1..xN, value
    with 17 significant digits (bit-exact reload).  Returns the sha256 hex
    digest of the bytes written.

    The header's run record is a solve's dt, tol and converged (0/1),
    and a transformed field's exterior_value; files written before Euler
    feet were removed also hold rk4_feet (0/1).  `verify` re-applies the
    operator with the recorded dt and tol, and `synthesize` refuses a
    field whose record does not say converged=1.

    A binary twin beside it (`_twin_path`: field.csv gets field.npz, which
    np.load opens) holds the values (``values``) and the CSV's digest
    (``sha256``).  It is a cache that saves load_field the text parse,
    trusted only while the CSV's bytes still hash to it; the CSV stays the
    exchange format, and the twin is safe to delete.  Its members carry
    zipfile's fixed timestamp, so the same field writes the same bytes."""
    grid = field.grid
    n = grid.n_axes
    record = ["%s=%s" % (key, ("%d" if kind is _FLAG else "%.17g")
                         % field.metadata[key])
              for key, kind in _RECORD.items() if key in field.metadata]
    digest = _write_csv(path, _grid_header(grid) + [field.transform] + record,
                        [*_node_columns(grid), field.values.reshape(-1)],
                        ["%s"] * (2 * n) + ["%.17g"])
    twin = _twin_path(path)
    if twin is not None:
        np.savez(twin, values=field.values, sha256=np.array(digest))
    return digest


def _twin_path(path):
    """field.csv's binary twin, field.npz; None for a CSV named *.npz."""
    root, ext = os.path.splitext(os.fspath(path))
    return None if ext.lower() == ".npz" else root + ".npz"


def _read_twin(path, data, digest):
    """The grid, header tail and values of the CSV at ``path``, whose bytes
    are ``data``, taken from its twin; None when the twin is missing or
    unreadable, records another digest, or does not fit the header."""
    twin = _twin_path(path)
    if twin is None:
        return None
    try:
        with np.load(twin) as arrays:
            if arrays["sha256"].item() != digest:
                return None
            values = arrays["values"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    # the digest matches, so the bytes are save_field's: a well-formed header
    counts, lo, hi, tail = _grid_head(data[:data.index(b"\n")].decode(),
                                      "field")
    if values.dtype != np.float64 or values.shape != tuple(counts):
        return None
    return Grid(lo, hi, counts), tail, values


def load_field(path):
    """Read a save_field CSV, its run record into the metadata and the
    sha256 of its bytes into ``sha256``; a row whose coordinates are off
    the node its index names, or whose value is not finite, is rejected
    like a missing or duplicated one.  The values come from the CSV's twin
    when the twin records the digest of the bytes read and fits the
    header; otherwise (no twin, a stale, truncated or unreadable one)
    those bytes are parsed, so an edited CSV reads as edited, and its
    digest and values come from the one read.

    A header token that is not one of the record's key=value pairs, a
    repeated key, a dt or tol that is not positive and finite, an
    exterior_value that is not finite, or a non-finite box bound is a
    malformed header: ConfigError.  With dt=0 the feet would be the
    nodes, and any field would pass the fixed-point check.  A CSV without
    a record (older, or written by hand) loads with empty metadata."""
    import hashlib  # lazily: ``import zubov`` does not need it

    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    twin = _read_twin(path, data, digest)
    if twin is None:
        grid, tail, rows = _read_grid_csv(data, "field", lambda n: 2 * n + 1)
    else:
        grid, tail, values = twin
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
    if twin is None:
        nodes = grid.node_coords().reshape(-1, n)
        if not np.all(np.abs(rows[:, n:2 * n] - nodes) <= 1e-3 * grid.dx):
            raise ConfigError("field file has coordinates off the grid node "
                              "their index names")
        values = rows[:, 2 * n]
    values = values.reshape(-1)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        node = np.unravel_index(bad[0], tuple(grid.counts))
        raise ConfigError("field file has the non-finite value %s at node %s"
                          % (values[bad[0]], ",".join(map(str, node))))
    field = ValueField(grid, values.reshape(tuple(grid.counts)), transform,
                       metadata)
    field.sha256 = digest
    return field


# --- system definition ------------------------------------------------------

# the sign of ell each sign guard promises (SystemDef's docstring)
_GUARD_SIGN = {"nonneg_ell": 1.0, "nonpos_ell": -1.0}


class SystemDef:
    """One problem instance; immutable after construction.

    f and g come only as ``rates(x, a, out)`` (module docstring), which
    `fg`, `f` and `g` evaluate on a fresh out.  The arguments after it are
    keyword-only: ell and h, callables fn(x, a) on the batch shape, then
    the mode, the envelope constants and the convergence guard.  Without
    ell the running cost ℓ is g, and without h the discount rate is 0.

    The guard names what ℓ promises, and each is defined by what the code
    relies on it for:

    - `nonneg_ell`: ℓ ≥ 0.  `solve_hjbe` refuses a grid node where ℓ < 0,
      and `min_value` closes its bracket on one side, [J(T), J(T) + tail],
      because J only grows after the horizon.
    - `nonpos_ell`: ℓ ≤ 0.  `solve_hjbe` refuses a grid node where ℓ > 0,
      and `min_value` closes its bracket on the other side,
      [J(T) − tail, J(T)], because J only falls after the horizon.
    - `case_a`: ℓ of either sign.  `solve_hjbe` checks no sign, and
      `min_value` closes its bracket on both sides, J(T) ± tail.
    - `case_b`: the same as `case_a`; the code treats the two alike.

    A system that declares a guard and an envelope (`ules` and `growth`)
    is sampled when it is built, at the 128 points of the envelope ball
    where g is checked.  It is refused (`ValidationError`) where ℓ has the
    wrong sign for its guard, where |ℓ| exceeds the growth bound
    c̃‖x‖^λ, or where h < 0: every tail assumes |ℓ| ≤ c̃‖x‖^λ and
    e^{−∫h} ≤ 1.  A g, ℓ or h undefined at a sample (`EvalDomainError`)
    is refused the same way, with the cost, the point and the control
    named.  A sample is not a proof.  A system without a guard is not
    sampled for ℓ and h, and the Kružkov route never evaluates them.
    """

    def __init__(self, name, n_state, control, rates, *, ell=None, h=None,
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
        self.n_state = _whole(n_state, "n_state", 1)
        self.control = control
        self.rates = rates
        self.ell = ell
        self.h = h
        self.mode = mode
        self.ules = ules
        self.growth = growth
        self.guard = guard
        problems = self._validate()
        if problems:
            raise ValidationError(problems)

    def fg(self, x, a):
        """f and g at x under a from one `rates` call: (..., N+1), f's N
        columns then g, on the batch shape of x (..., N) and a (..., M)."""
        return _evaluate(self.rates, x, a, self.n_state + 1)

    def f(self, x, a):
        """f at x under a: the first N columns of `fg`."""
        return self.fg(x, a)[..., :self.n_state]

    def g(self, x, a):
        """g at x under a: the last column of `fg`; a float for a point."""
        return _column(self.fg(x, a), self.n_state)

    # numeric load-time checks; every failure is collected, not just the first
    def _validate(self):
        problems = []
        n = self.n_state
        origin = np.zeros(n)
        a_pts = self.control.points
        at_origin = [self.fg(origin, a) for a in a_pts]
        fnorms = np.array([float(np.linalg.norm(v[:n])) for v in at_origin])
        if self.mode == "maximize":
            for a, fn in zip(a_pts, fnorms):
                if fn > 1e-9:
                    problems.append("f(0,a) != 0 at control point a=%s "
                                    "(|f| = %.3g)" % (a.tolist(), fn))
        elif fnorms.min() > 1e-9:
            # least-cost route only needs some control fixing the origin
            problems.append("no discretized control keeps the origin fixed "
                            "(min |f(0,a)| = %.3g)" % fnorms.min())
        for a, v in zip(a_pts, at_origin):
            gv = float(v[n])
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
            problems += self._spot_check_envelope()
        return problems

    def _spot_check_envelope(self):
        # deterministic samples in the ULES ball: g must be nonnegative and
        # within the growth envelope there, and a guarded system's ell and
        # h must keep what its guard promises (class docstring)
        rng = np.random.default_rng(20260814)
        z = rng.standard_normal((128, self.n_state))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        radii = self.ules.r * rng.random(128) ** (1.0 / self.n_state)
        xs = z * radii[:, None]
        cap = self.growth.c_tilde * np.linalg.norm(xs, axis=1) ** self.growth.lam
        over = cap * (1 + 1e-9) + 1e-12
        sign = _GUARD_SIGN.get(self.guard)
        problems = []

        def sample(name, fn, a, at):
            # fn at every sample; None, and a problem naming the first
            # sample where it is undefined, when the batch raises
            try:
                return np.broadcast_to(fn(xs, at), xs.shape[:1])
            except ex.EvalDomainError:
                for x in xs:
                    try:
                        fn(x, a)
                    except ex.EvalDomainError as exc:
                        problems.append("%s(%s, %s) is undefined inside the "
                                        "ULES ball: %s"
                                        % (name, x.tolist(), a.tolist(), exc))
                        return None
                raise  # only the batch raised

        for a in self.control.points:
            at = np.broadcast_to(a, (xs.shape[0], a.size))
            gv = sample("g", self.g, a, at)
            if gv is None:
                continue
            if np.any(gv < -1e-12):
                problems.append("g < 0 inside the ULES ball at a=%s"
                                % a.tolist())
            if np.any(gv > over):
                i = int(np.argmax(gv - cap))
                problems.append(
                    "growth bound violated: g(%s, %s) = %.6g > %.6g"
                    % (xs[i].tolist(), a.tolist(), gv[i], cap[i]))
            if self.guard is None:
                continue
            lv = gv if self.ell is None else sample("ell", self.ell, a, at)
            if lv is not None and sign is not None \
                    and np.any(sign * lv < -1e-12):
                i = int(np.argmin(sign * lv))
                problems.append(
                    "ell(%s, %s) = %.6g inside the ULES ball has the wrong "
                    "sign for the %s guard"
                    % (xs[i].tolist(), a.tolist(), lv[i], self.guard))
            if lv is not None and np.any(np.abs(lv) > over):
                i = int(np.argmax(np.abs(lv) - cap))
                problems.append(
                    "growth bound violated: |ell(%s, %s)| = %.6g > %.6g"
                    % (xs[i].tolist(), a.tolist(), abs(lv[i]), cap[i]))
            hv = None if self.h is None else sample("h", self.h, a, at)
            if hv is not None and np.any(hv < -1e-12):
                i = int(np.argmin(hv))
                problems.append("h(%s, %s) = %.6g < 0 inside the ULES ball"
                                % (xs[i].tolist(), a.tolist(), hv[i]))
        return problems


def _evaluate(rates, x, a, width):
    """A fresh out, (..., width) on the batch shape of x (..., n) and
    a (..., m), with ``rates(x, a, out)`` written into it.  It is
    column-major, so each column a rate writes is contiguous."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    shape = x.shape[:-1]
    if a.shape[:-1] != shape:
        shape = np.broadcast_shapes(shape, a.shape[:-1])
    out = np.empty(shape + (width,), order="F")
    rates(x, a, out)
    return out


def _column(stacked, k):
    """Column k of stacked values; a float for a single point."""
    out = stacked[..., k]
    return float(out) if out.ndim == 0 else out


# --- JSON config loading ----------------------------------------------------

def _one_column(rates):
    """A one-column rates as fn(x, a) of batch shape, a float for a single
    point."""
    return lambda x, a: _column(_evaluate(rates, x, a, 1), 0)


def _is_whole(value):
    """A whole number: an integer or an integral float, never a bool."""
    return not isinstance(value, (bool, np.bool_)) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, float) and value.is_integer())


def _positive(value, what):
    """`value` as a float when it is a finite real > 0 and not a bool, else
    ConfigError naming `what`."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real) \
            and 0.0 < value <= sys.float_info.max:  # NaN fails it too
        return float(value)
    raise ConfigError("%s must be positive and finite, got %r"
                      % (what, value))


def _whole(value, what, least):
    """`value` as an int when it is a whole number >= `least`, else
    ConfigError naming `what`."""
    if _is_whole(value) and value >= least:
        return int(value)
    raise ConfigError("%s must be a whole number, at least %d, got %r"
                      % (what, least, value))


def _whole_counts(counts, what):
    """Per-axis counts as a flat int64 array; ConfigError naming `what` when
    one is a bool or fractional, which an int conversion would truncate, or
    too large for int64, which it would overflow."""
    items = np.asarray(counts, dtype=object).reshape(-1)
    top = np.iinfo(np.int64).max
    if not all(_is_whole(c) and abs(c) <= top for c in items):
        raise ConfigError("%s must be 64-bit whole numbers, got %r"
                          % (what, counts))
    return items.astype(np.int64)


def _reals(value):
    """Whether `value` is a list of real numbers, none of them a bool."""
    return isinstance(value, list) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in value)


def _control_from_config(doc):
    """The control table's menu; ConfigError when the table is malformed."""
    if doc is None:
        return ControlSpace.none()
    if not isinstance(doc, dict):
        raise ConfigError("control must be an object")
    if "points" in doc:
        pts = doc["points"]
        if not isinstance(pts, list) or not pts or not all(
                _reals(p) and len(p) == len(pts[0]) for p in pts):
            raise ConfigError("control.points must be a nonempty list of "
                              "equal-length lists of numbers")
        return ControlSpace(pts)
    if "box" in doc:
        box = doc["box"]
        try:
            lo, hi, counts = box["lo"], box["hi"], box["counts"]
        except (KeyError, TypeError) as err:
            raise ConfigError("control.box needs lo/hi/counts (%s)"
                              % err) from None
        if not (_reals(lo) and _reals(hi)):
            raise ConfigError("control.box lo and hi must be lists of numbers")
        return ControlSpace.from_box(lo, hi, counts)
    raise ConfigError("control needs either 'points' or 'box'")


def load_system(config):
    """Build a SystemDef from a parsed JSON document.

    The document holds ``n``, the state dimension; ``f``, one expression
    string per state component; ``g``, the cost; and optionally ``name``,
    ``control``, ``ell``, ``h``, ``mode``, ``guard``, ``ules`` ({"C",
    "sigma", "r"}) and ``growth`` ({"C_tilde", "lambda"}).  Expressions
    follow `expressions`' grammar, in x1..xN and a1..aM.  ``control`` is
    {"box": {"lo": [...], "hi": [...], "counts": [...]}}, a lattice of
    counts[j] even samples on axis j (at most MAX_CONTROLS, refused before
    any is built), or {"points": [[...], ...]}; either way the menu is its
    points and its box their hull.  No control means none.  Control
    values and envelope constants must be finite, so JSON's Infinity is
    refused: an infinite sigma would zero the oracle's tail and certify a
    false bracket.  f and g compile together into one rates function, and
    ell and h into one function each (`expressions.compile_trees`), once,
    at load.

    Schema errors and invariant violations are aggregated so a bad config
    reports everything wrong with it in one exception.
    """
    if not isinstance(config, dict):
        raise ConfigError("system config must be a JSON object")
    problems = []
    n = _whole(config.get("n"), "system config 'n'", 1)
    try:
        control = _control_from_config(config.get("control"))
    except ConfigError as err:
        problems.append(str(err))
        control = ControlSpace.none()
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
    # one compile for the system: f and g into rates, ell and h into
    # one-column rates read back as fn(x, a) of batch shape
    groups = [f_trees + [parsed(g_src, "g")]]
    costs = [key for key in ("ell", "h") if key in config]
    groups += [[parsed(config[key], key)] for key in costs]
    rates, *runs = ex.compile_trees(groups)
    costs = dict(zip(costs, map(_one_column, runs)))

    blocks = {}
    for key, cls, names in (("ules", Ules, ("C", "sigma", "r")),
                            ("growth", Growth, ("C_tilde", "lambda"))):
        if key not in config:
            continue
        try:
            blocks[key] = cls(*[config[key][name] for name in names])
        except (KeyError, TypeError, ConfigError) as err:
            problems.append("%s block: %s" % (key, err))
    ules, growth = blocks.get("ules"), blocks.get("growth")

    mode = config.get("mode", "maximize")
    guard = config.get("guard")
    if problems:
        raise ValidationError(problems)
    try:
        return SystemDef(config.get("name", "config"), n, control, rates,
                         ell=costs.get("ell"), h=costs.get("h"), mode=mode,
                         ules=ules, growth=growth, guard=guard)
    except ConfigError as err:
        raise ValidationError([str(err)]) from None


# --- builtin dynamics -------------------------------------------------------

def _smooth_cut(u):
    # 1 on |u|<=1.5, 0 on |u|>=2, C^1 cubic ramp between
    t = np.clip((np.abs(u) - 1.5) / 0.5, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _top(sq):
    """The largest of a batch of squares u ** 2: 0 when it is empty, NaN
    when it holds a NaN.  It decides |u| <= t as _top <= t ** 2, and
    |u| < t as _top < t ** 2, for t = 1 and 1.5: rounding the square
    keeps both sides of each test, since the doubles next to t square to
    more than half a spacing away from t ** 2."""
    return np.maximum.reduce(sq, axis=None, initial=0.0)


def _lift_rates(psi=None):
    """lift2d's fused rates, its cost |x|^2 times psi(x1, x2) when given.

    It works per 1-D column: 2-D ops on the strided x of the solver's feet
    are slower.  Each x_i ** 2 is computed once, for f and for g, and the
    exactly rounded operations write straight into their columns.
    """

    def rates(x, a, out):
        x1, x2 = x[..., 0], x[..., 1]
        f1, f2, g = out[..., 0], out[..., 1], out[..., 2]
        av = a[..., 0]
        sq1, sq2 = x1 ** 2, x2 ** 2
        np.multiply(av, sq1, out=f1)  # the bits of -x1 + av * x1 ** 2
        f1 -= x1
        np.multiply(av, sq2, out=f2)
        f2 -= x2
        # taper bounds the dynamics without touching trajectories in
        # [-1.5,1.5]^2, where it is exactly 1 and multiplying by it changes
        # no bit
        if not (_top(sq1) <= 2.25 and _top(sq2) <= 2.25):
            cut = _smooth_cut(x1) * _smooth_cut(x2)
            f1 *= cut
            f2 *= cut
        np.add(sq1, sq2, out=g)
        if psi is not None:
            g *= psi(x1, x2)

    return rates


def _ex1_rates(x, a, out):
    """ex1's fused rates: the outer branches of f and g are evaluated only
    when some |x| reaches 1, and one top of x ** 2 decides both."""
    xv = x[..., 0]
    av = a[..., 0]
    sq = xv ** 2
    top = _top(sq)
    if top < 1.0:  # no row takes an outer branch
        f = out[..., 0]
        np.multiply(av, sq, out=f)  # the bits of -xv + av * xv ** 2
        f -= xv
    else:
        inner = av * sq - xv
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = av / xv  # only consumed where |x| >= 1
        out[..., 0] = np.where(xv >= 1.0, outer - 1.0,
                               np.where(xv <= -1.0, 1.0 - outer, inner))
    hump = np.abs(np.sin(np.pi * xv))
    out[..., 1] = hump if top <= 1.0 else np.where(np.abs(xv) <= 1.0,
                                                   hump, 0.0)


def _arctan_rates(x, a, out):
    xv = x[..., 0]
    out[..., 0] = -xv
    out[..., 1] = np.abs(xv) / (1.0 + xv ** 2)


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


def _hav_rates(x, a, out):
    """hav1d's fused rates: g = -hav_q(x) f reads the f column it wrote."""
    xv = x[..., 0]
    with np.errstate(divide="ignore"):
        outer = -1.0 / xv ** 5
    out[..., 0] = np.where(np.abs(xv) <= 0.9, -_HAV_SLOPE * xv, outer)
    out[..., 1] = -hav_q(xv) * out[..., 0]


def _fuller_ell(x, a):
    return np.abs(np.asarray(x, dtype=float)[..., 0]) ** _FULLER_GAMMA


def _fuller_rates(x, a, out):
    out[..., 0] = x[..., 1]
    out[..., 1] = a[..., 0]
    out[..., 2] = _fuller_ell(x, a)


# --- builtin registry -------------------------------------------------------

def _lift2d_value(x):
    """lift2d's W on states (..., 2); OutsideDomainError when any |x_i| >= 1."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ConfigError("lift2d closed form wants 2-vectors")
    x1, x2 = x[..., 0], x[..., 1]
    if np.any(np.abs(x1) >= 1.0) or np.any(np.abs(x2) >= 1.0):
        raise OutsideDomainError(
            "state outside the robust domain of attraction (-1,1)^2")
    upper = -np.log1p(-x1) - np.log1p(-x2) - x1 - x2
    lower = -np.log1p(x1) - np.log1p(x2) + x1 + x2
    return np.where(x1 >= -x2, upper, lower)


def _ex1_value(x):
    from scipy.special import sici
    y = np.minimum(np.abs(np.asarray(x, dtype=float)), 1.0)
    # int_0^y sin(pi u)/(u(1-u)) du via partial fractions; the cost
    # vanishes beyond |x| = 1, so the value saturates at 2 Si(pi)
    return sici(np.pi * y)[0] + sici(np.pi)[0] - sici(np.pi * (1.0 - y))[0]


@dataclass(frozen=True)
class _Builtin:
    """One reference problem, as `builtin`, `closed_form_value` and the
    command line's default grid read it."""
    n_state: int
    controls: int        # default samples on [-1, 1]; 0: no control
    rates: object        # the fused rates(x, a, out)
    keywords: dict       # SystemDef's ell, mode, guard, ules, growth
    grid: tuple          # default grid: (box half-width, nodes per axis)
    closed_form: object  # W(x) on a state or a batch of states, or None


BUILTINS = {
    "lift2d": _Builtin(
        2, 21, _lift_rates(),
        dict(ules=Ules(1.0, 0.5, 0.5), growth=Growth(1.0, 2.0)),
        (1.2, 201), _lift2d_value),
    "lift2d-psi-sqrt": _Builtin(
        2, 21, _lift_rates(lambda x1, x2: np.sqrt(np.abs(x1 - 0.75))
                           + np.sqrt(np.abs(x2 - 0.75))),
        dict(ules=Ules(1.0, 0.5, 0.5), growth=Growth(2.5, 2.0)),
        (1.2, 201), None),
    "lift2d-psi-abs": _Builtin(
        2, 21, _lift_rates(lambda x1, x2: np.abs(x1 - 0.75)
                           + np.abs(x2 - 0.75)),
        dict(ules=Ules(1.0, 0.5, 0.5), growth=Growth(2.5, 2.0)),
        (1.2, 201), None),
    "ex1": _Builtin(
        1, 21, _ex1_rates,
        dict(ules=Ules(1.0, 0.5, 0.5), growth=Growth(np.pi, 1.0)),
        (2.0, 801), _ex1_value),
    "arctan1d": _Builtin(
        1, 0, _arctan_rates,
        dict(ules=Ules(1.0, 1.0, 1.0), growth=Growth(1.0, 1.0)),
        (3.0, 601), lambda x: np.arctan(np.abs(np.asarray(x, dtype=float)))),
    "hav1d": _Builtin(
        1, 0, _hav_rates,
        dict(ules=Ules(1.0, _HAV_SLOPE, 0.9), growth=Growth(1.0, 7.0)),
        (1.0, 401), hav_q_integral),
    "fuller": _Builtin(
        2, 3, _fuller_rates,
        dict(ell=_fuller_ell, mode="minimize", guard="nonneg_ell"),
        (1.0, 101), None),
}


def builtin(name, **overrides):
    """The reference problem ``name`` as a SystemDef, from its row of
    BUILTINS.  The one override is controls=K, the sample count on
    [-1, 1] of the problems whose row has a control."""
    if not isinstance(name, str) or name not in BUILTINS:
        raise ConfigError("unknown builtin %r (have: %s)"
                          % (name, ", ".join(BUILTINS)))
    row = BUILTINS[name]
    bad = set(overrides) - {"controls"}
    if bad:
        raise ConfigError("unsupported overrides for %s: %s"
                          % (name, ", ".join(sorted(bad))))
    if not row.controls and "controls" in overrides:
        raise ConfigError("%s has no control to discretize" % name)
    control = ControlSpace.none()
    if row.controls:
        control = ControlSpace.from_box([-1.0], [1.0], _whole_counts(
            overrides.get("controls", row.controls), "controls"))
    return SystemDef(name, row.n_state, control, row.rates, **row.keywords)


def closed_form_value(name, x):
    """The exact maximal cost W(x) of the builtin ``name`` at a state or a
    batch of states (last axis the state's for lift2d): its row's closed
    form in BUILTINS, a float for a single state.  ConfigError when the
    row has none; lift2d raises OutsideDomainError when any |x_i| >= 1."""
    row = BUILTINS.get(name) if isinstance(name, str) else None
    if row is None or row.closed_form is None:
        raise ConfigError("no closed form registered for %r" % (name,))
    out = row.closed_form(x)
    return out if np.ndim(out) else float(out)
