"""Semi-Lagrangian value and policy iteration for the grid dynamic-programming
fixed point.

For each fixed control the Bellman operator is linear in the field, so it is
built once per solve as a BellmanOperator: K matrices C_k of shape N x N (K
controls, N nodes) plus an offset c_k each.  Row i of C_k is control k's
multilinear stencil at the foot of node i, scaled by that row's discount.
Its 2**n column indices are its cell's first node plus fixed corner
offsets, so the operator stores them corner-major: ``first[k, i]``, the
cell's first node, and ``weights[k, j, i]``, corner j's weight, with one
shared row pointer.  A product C_k x is then 2**n calls of the CSR kernel,
one entry per row each, on x shifted by the corner's offset; the calls add
the corners in the order of a row-major row, so the sums are bitwise those
of one SpMV.  A foot outside the box gives a zero row (its foot moved to
its node, its discount 0), which reads exactly +0 for a finite iterate,
and the offset carries the step cost.  A non-finite iterate turns a zero
row into NaN.  A full sweep computes opt_k(c_k + C_k x), one control at a
time.

The Kružkov solve runs modified policy iteration (Puterman & Shin, 1978).
A full sweep there also returns, per node, the lowest control index
attaining the minimum.  Those N rows (row i of C_pi(i), one per node)
are gathered into a row-major CSR matrix of their own, and policy sweeps
x <- C_pi x (no offset), one kernel call each at about 1/K of a full sweep's
cost, run until one moves less than tol/10; then the next full sweep
picks a new policy.  Capped nodes (min >= 1) and the pinned origin keep
their value through the policy sweeps: each sweep copies it back from x
after the kernel call.  The iterates on u = 1 - v still only fall: C_pi
has nonnegative weights and a fixed summation order, so a policy sweep is
monotone in floating point, and its first application reproduces the
full sweep bit for bit.  Only a full sweep can converge (move less than
tol); iterations, max_iters and the sweep history count sweeps of both
kinds.  A one-control system has no policy to pick, and solve_hjbe keeps
plain full sweeps too: its minimize-mode systems start below their fixed
point, where a greedy policy's sweeps can overshoot it, or diverge on an
undiscounted system.

The build (`_assemble`) computes the feet and stencils of 2**14 nodes at
a time, for every control in turn (`_chunk_rows`), so its temporaries
stay a few MB at any grid size and each chunk's nodes are decoded once.
The nodes, and so a chunk's augmented state, are column-major, so every
column its RK4 step reads and writes is contiguous.  Each chunk's
stencils go straight into the operator's arrays.  The offset is
allocated by the first chunk with a nonzero entry, so an all-zero offset
(every Kružkov row) is a zero-stride view that takes no memory, and a
sweep skips adding it.  The fixed-point check's `apply_zubov` gives T u
without an operator, one chunk at a time: the same chunk loop writes
each control's stencils into chunk-sized buffers, which the kernel
applies to the chunk's rows at once.  None of this changes a bit of any
field.

Both solves take y_a, the foot of node x_i under control a, and the step
integrals by integrating `trajectories.start`'s state at the nodes over
dt: (x, ∫g) for solve_zubov, (x, ∫g, J, ∫h) for solve_hjbe.  The
integration is `trajectories._substeps(dt, _FOOT_DT)` equal RK4 sub-steps,
the rule every other RK4 integration in the package follows, and the
field's metadata records the count as ``foot_substeps``; a dt past
MAX_SUBSTEPS of them is refused (ConfigError) before any grid-sized
allocation.  The semi-Lagrangian error is O(dt^p + dx^2/dt) (Falcone &
Ferretti, 2013) only while the feet are accurate: with one RK4 step of
the whole dt the foot error dominates past dt ≈ 0.2 (lift2d 401² reads
1.49e-2 at dt 0.8, against 5.19e-5 with sub-stepped feet).  _FOOT_DT is
0.1: every dt up to 0.1 is one sub-step, bitwise a single RK4 step of dt,
and at 401² and dt 0.8 a sub-step of 0.05 gains nothing (5.18e-5) for
twice the build time.  A foot outside the box reads the exterior value: 1 ("outside
the robust domain") for the Kružkov field and 0 for the raw one, so it
adds nothing to its row.

  * solve_zubov — Kružkov-transformed maximal cost.  The update
        v <- max_a 1 - beta * (1 - I[v](y_a))
    is iterated on the complement u = 1 - v, starting from u ≡ 1:
        u <- min(1, min_a beta * I[u](y_a)),
    with beta = exp(-int g) along the step.  Values live in [0, 1]
    exactly: every term of u is nonnegative, and the cap at 1 absorbs the
    ulp by which the multilinear weights can sum above 1.

  * solve_hjbe — raw running cost with discount rate h:
        v <- opt_a int ell*exp(-int h) + exp(-int h) * I[v](y_a),
    both integrals over the step, opt = min or max per the system's mode.

Sweeps of both kinds are Jacobi (double-buffered): every node reads the
previous buffer, so results are bitwise reproducible.  Iteration starts
from v ≡ 0 and, in Kružkov mode, increases monotonically.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .systems import (_GUARD_SIGN, ConfigError, ValueField, _positive,
                      _whole)
from .trajectories import _aug_rhs, _substeps, rk4_step, start


@dataclass(frozen=True)
class SolverSettings:
    dt: float = 0.05
    tol: float = 1e-6
    max_iters: int = 2000  # full and policy sweeps together
    # ignored: every sweep runs on the calling thread.  The CLI drops a
    # config's threads key before it builds settings; the benchmark's
    # small-solves workload still passes the field
    threads: int | None = None

    def __post_init__(self):
        _positive(self.dt, "solver dt")
        _positive(self.tol, "solver tol")
        # the counts are stored as the ints they name
        object.__setattr__(self, "max_iters",
                           _whole(self.max_iters, "max_iters", 1))
        if self.threads is not None:
            object.__setattr__(self, "threads",
                               _whole(self.threads, "threads", 1))


_FEET_CHUNK = 2 ** 14  # nodes whose feet and stencils a build holds at once
_FOOT_DT = 0.1  # the longest RK4 sub-step of a foot (module docstring)


def _chunk_nodes(grid, lo, hi):
    """Coordinates of the flat nodes lo..hi-1, column-major like the feet."""
    nodes = np.empty((hi - lo, grid.n_axes), order="F")
    at = np.unravel_index(np.arange(lo, hi), tuple(grid.counts))
    for k, ax in enumerate(grid.axes):
        np.take(ax, at[k], out=nodes[:, k])
    return nodes


def _inside(grid, pts):
    """Flags the points inside the grid's box."""
    inside = np.ones(len(pts), dtype=bool)
    for k in range(grid.n_axes):
        ax = pts[:, k]
        inside &= (ax >= grid.lo[k]) & (ax <= grid.hi[k])
    return inside


def _corners(grid):
    """Flat offset of each corner of a cell from the cell's first node, in
    ``itertools.product`` order."""
    strides = np.cumprod([1, *grid.counts[:0:-1]])[::-1]
    return [int(np.dot(corner, strides))
            for corner in itertools.product((0, 1), repeat=grid.n_axes)]


def _stencil(grid, pts, scale=None, first=None, w=None):
    """Multilinear stencil of each point: ``(first, w)``.

    ``first[i]`` is the flat index of the first node of point i's cell,
    clipped into the box; corner j of that cell is node first[i] +
    ``_corners(grid)[j]``, and ``w[j, i]`` is its weight, times ``scale[i]``
    when given.  The stencils are written into ``first`` and ``w`` (shape
    (2**n, len(pts))) when given (the operator's arrays), else into new
    arrays.
    """
    n = grid.n_axes
    if first is None:
        first = np.empty(len(pts), dtype=np.int64)
        w = np.empty((2 ** n, len(pts)))
    strides = np.cumprod([1, *grid.counts[:0:-1]])[::-1]
    flat, near, far = 0, [], []
    for k in range(n):
        u = (pts[:, k] - grid.lo[k]) / grid.dx[k]
        cell = np.clip(np.floor(u).astype(np.int64), 0, grid.counts[k] - 2)
        flat = flat + cell * strides[k]
        frac = np.clip(u - cell, 0.0, 1.0)
        near.append(1.0 - frac)
        far.append(frac)
    first[:] = flat
    product = np.empty(len(pts))
    for j, corner in enumerate(itertools.product((0, 1), repeat=n)):
        # the weight is the product of its axes' factors in axis order, then
        # the scale: computed contiguous, stored once
        factors = [far[k] if bit else near[k] for k, bit in enumerate(corner)]
        weight = factors[0]
        for factor in factors[1:]:
            weight = np.multiply(weight, factor, out=product)
        np.multiply(weight, 1.0 if scale is None else scale, out=w[j])
    return first, w


def _csr_matvec():
    """SciPy's CSR kernel behind A @ x.  It is imported here, when an
    operator is built or applied, so a command that never sweeps does not
    load scipy.sparse; callers resolve it once and keep it."""
    from scipy.sparse import _sparsetools

    return _sparsetools.csr_matvec


def _corner_sums(matvec, indptr, first, weights, corners, x, out):
    """Writes to ``out`` the stencil rows times x: row i is the sum over
    corners j of ``weights[j][i] * x[first[i] + corners[j]]``.

    One call of the CSR kernel ``matvec`` (`_csr_matvec`) per corner adds
    its term to every row, one entry per row on x shifted by the corner's
    offset, with ``indptr`` counting 0, 1, 2, ...  Each row sums up from
    +0 in corner order, the order of a row-major row's entries, so the
    sums are bitwise those of one SpMV.
    """
    out.fill(0.0)  # as A @ x does: each row sums up from +0
    for corner, w in zip(corners, weights):
        matvec(len(out), len(x) - corner, indptr, first, w, x[corner:], out)


class BellmanOperator:
    """x -> opt_k(c_k + C_k x), optionally capped, for K controls.

    Each C_k is stored corner-major (module docstring): row i of C_k reads
    the cell whose first node is ``first[k, i]``, its corner j being node
    first[k, i] + ``corners[j]`` with weight ``weights[k, j, i]`` (the
    corner's multilinear weight times the row's discount).  The row of a
    foot outside the box has all its weights +0: it reads +0 for a finite
    x, but NaN where the x it indexes holds an inf or a NaN.  ``offset``
    is the K x N array c; ``opt`` is np.minimum or np.maximum.
    """

    def __init__(self, first, weights, corners, offset, opt, cap=None):
        self.first = first
        self.weights = weights
        self.corners = corners
        self.offset = offset
        # an all-zero offset is never added: rows sum up from +0, so adding
        # 0 changes no bit
        self._add_offset = bool(offset.any())
        self.opt = opt
        self._better = np.less if opt is np.minimum else np.greater
        self.cap = cap
        self.n_controls, self.n_nodes = n_controls, n = first.shape
        # one entry per row: each corner's weights of one control are a CSR
        # matrix with the column indices first[k], read on x[corners[j]:]
        self.indptr = np.arange(n + 1, dtype=first.dtype)
        self._matvec = _csr_matvec()
        # control 0 writes the output, each later one this buffer
        self._row = np.empty(n) if n_controls > 1 else None

    def __call__(self, x, choice=False):
        """The swept values; with ``choice``, also each node's lowest
        control index attaining them (before the cap)."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (self.n_nodes,):  # the kernel does not check
            raise ValueError("operator wants %d node values, got shape %s"
                             % (self.n_nodes, x.shape))
        n = self.n_nodes
        out = np.empty(n)
        if choice:
            picked = np.zeros(n, np.min_scalar_type(self.n_controls - 1))
            wins = np.empty(n, dtype=bool)
        for k in range(self.n_controls):
            row = out if k == 0 else self._row
            _corner_sums(self._matvec, self.indptr, self.first[k],
                         self.weights[k], self.corners, x, row)
            if self._add_offset:
                row += self.offset[k]
            if k == 0:
                continue
            if choice:  # strictly better: ties keep the lower control
                self._better(row, out, out=wins)
                np.copyto(picked, k, where=wins)
            self.opt(out, row, out=out)
        if self.cap is not None:
            np.minimum(out, self.cap, out=out)
        return (out, picked) if choice else out

    def policy(self, choice, fixed):
        """The sweep (x, out) -> C_choice x, written to out, of
        the policy ``choice``, as a function.

        Row i of its N x N CSR matrix is row i of C_choice[i], its 2**n
        entries in corner order; after the kernel call the nodes of the
        boolean mask ``fixed`` get back their value in x.  The rows are
        gathered a sixteenth of the nodes (at least 2**10) at a time, so
        the gather's temporaries take a few bytes per node, and swept by
        one call of the kernel behind A @ x.  Only the Kružkov solve runs
        policy sweeps, and its rows have no offset: an operator with one
        raises ValueError.
        """
        if self._add_offset:
            raise ValueError("policy sweeps take an operator without an "
                             "offset")
        n, width = self.n_nodes, len(self.corners)
        indptr = self.indptr * width
        indices = np.empty((n, width), dtype=indptr.dtype)
        data = np.empty((n, width))
        step = max(2 ** 10, -(-n // 16))
        for lo in range(0, n, step):
            at, node = slice(lo, lo + step), np.arange(lo, min(lo + step, n))
            k = choice[at].astype(np.intp)
            first = self.first[k, node]
            for j, corner in enumerate(self.corners):
                np.add(first, corner, out=indices[at, j])
                data[at, j] = self.weights[k, j, node]
        indices, data = indices.reshape(-1), data.reshape(-1)

        def sweep(x, out):
            out.fill(0.0)  # as A @ x does: each row sums up from +0
            self._matvec(n, n, indptr, indices, data, x, out)
            np.copyto(out, x, where=fixed)
            return out

        return sweep

    @property
    def nbytes(self):
        """Bytes the operator keeps resident: ``first``, ``weights`` and the
        shared ``indptr``, plus c when a sweep reads it."""
        return (self.first.nbytes + self.weights.nbytes + self.indptr.nbytes
                + (self.offset.nbytes if self._add_offset else 0))


def _index_type(system, grid, n_controls):
    """The index dtype of the grid's operator of ``n_controls`` controls.

    Before any grid- or corner-sized work it refuses a grid whose dimension
    is not the system's, and an operator whose weights no array could hold.
    """
    if grid.n_axes != system.n_state:
        raise ConfigError("grid dimension %d, system wants %d"
                          % (grid.n_axes, system.n_state))
    n_nodes, width, top = grid.n_nodes, 2 ** grid.n_axes, np.iinfo(np.intp).max
    need = 8 * n_controls * width * n_nodes  # Python ints: no overflow
    if need > top:
        raise ConfigError("the operator's weights would need %d bytes (%d "
                          "controls x %d corners x %d nodes x 8); an array "
                          "holds at most %d" % (need, n_controls, width,
                                                n_nodes, top))
    return np.int32 if n_nodes * width < 2 ** 31 else np.int64


def _chunk_rows(grid, rows, controls, into):
    """Every control's stencils, ``_FEET_CHUNK`` nodes at a time.

    ``rows(a, nodes)`` returns ``(feet, scale, cost)`` for control a: row i
    reads ``cost[i] + scale[i] * I[x](feet[i])``, where I[x] is 0 at a foot
    outside the box (module docstring).  Such a row becomes a zero row: its
    foot moves to its node and its scale to 0.  For each chunk of nodes
    lo..hi-1, decoded once, and each control k in turn, the rows' stencils,
    the weights times the row's scale, are written into the ``(first, w)``
    buffers that ``into(k, lo, hi)`` returns; then ``(k, lo, hi, cost)`` is
    yielded.  Node coordinates exist for one chunk and feet for one control
    at a time, so the temporaries grow with neither the grid nor the
    control count.
    """
    for lo in range(0, grid.n_nodes, _FEET_CHUNK):
        hi = min(lo + _FEET_CHUNK, grid.n_nodes)
        nodes = _chunk_nodes(grid, lo, hi)
        for k, a in enumerate(controls):
            feet, scale, cost = rows(a, nodes)
            outside = ~_inside(grid, feet)
            feet[outside], scale[outside] = nodes[outside], 0.0
            _stencil(grid, feet, scale, *into(k, lo, hi))
            del feet, scale, outside  # before the next control's feet
            yield k, lo, hi, cost
            del cost


def _assemble(system, grid, rows, opt, cap, controls):
    """The BellmanOperator of ``controls`` (``rows`` as in `_chunk_rows`).

    Each chunk's stencils go straight into the operator's arrays, so the
    build's temporaries die before the operator's sweep buffers exist.
    """
    itype = _index_type(system, grid, len(controls))
    first = np.empty((len(controls), grid.n_nodes), dtype=itype)
    weights = np.empty((len(controls), 2 ** grid.n_axes, grid.n_nodes))
    corners = _corners(grid)  # after them: a grid too big fails first
    # allocated by the first nonzero chunk: calloc can hand back pages an
    # earlier solve freed, which it must then zero, and so make resident
    offset = None
    for k, lo, hi, cost in _chunk_rows(
            grid, rows, controls,
            lambda k, lo, hi: (first[k, lo:hi], weights[k, :, lo:hi])):
        if np.any(cost):
            if offset is None:
                offset = np.zeros(first.shape)
            offset[k, lo:hi] = cost
    if offset is None:
        offset = np.broadcast_to(0.0, first.shape)
    return BellmanOperator(first, weights, corners, offset, opt, cap)


def _foot(system, z, a, dt, steps, k1):
    """The augmented state z after ``steps`` equal RK4 sub-steps that fill
    dt under a, the first from the rates k1 at z.  A rows factory takes
    ``steps = _substeps(dt, _FOOT_DT)`` once (module docstring)."""
    h = dt / steps
    z = rk4_step(system, z, a, h, k1)
    for _ in range(steps - 1):
        z = rk4_step(system, z, a, h)
    return z


def _zubov_rows(system, dt):
    """``rows`` of the Kružkov operator on u = 1 - v (module docstring).

    g >= 0 is checked on the nodes' g, the first RK4 stage's g column,
    before the sub-steps run on."""
    n = system.n_state
    steps = _substeps(dt, _FOOT_DT)  # refuses a dt past MAX_SUBSTEPS

    def rows(a, nodes):
        z = start(nodes)
        k1 = _aug_rhs(system, z, a)
        gv = k1[:, n]
        if gv.min() < -1e-9:
            raise ConfigError("g < 0 on the grid (min %.3g); the maximal-cost "
                              "route needs g >= 0" % gv.min())
        z1 = _foot(system, z, a, dt, steps, k1)
        return z1[:, :n], np.exp(-np.maximum(z1[:, n], 0.0)), 0.0

    return rows


def zubov_operator(system, grid, dt):
    """The Kružkov operator on the complement u = 1 - v (module docstring)."""
    return _assemble(system, grid, _zubov_rows(system, dt), np.minimum, 1.0,
                     system.control.points)


def apply_zubov(system, grid, dt, u):
    """``zubov_operator(system, grid, dt)(u)``, bit for bit, one chunk at a
    time.

    Each control's stencils of a chunk (`_chunk_rows`) go into chunk-sized
    buffers and are applied at once to the chunk's rows (`_corner_sums`);
    the running minimum over the controls and the cap at 1 are the
    operator's, and a Kružkov row has no offset.  No operator is built:
    besides u and T u, one chunk's buffers are alive.  Like the build of
    one control's operator, it refuses a grid too big before it reads u.
    """
    rows = _zubov_rows(system, dt)
    itype = _index_type(system, grid, 1)
    n, m = grid.n_nodes, min(_FEET_CHUNK, grid.n_nodes)
    first, w = np.empty(m, dtype=itype), np.empty((2 ** grid.n_axes, m))
    indptr, row = np.arange(m + 1, dtype=itype), np.empty(m)
    corners = _corners(grid)  # after them: a grid too big fails first
    u = np.ascontiguousarray(u, dtype=float)
    if u.shape != (n,):  # the kernel does not check
        raise ValueError("operator wants %d node values, got shape %s"
                         % (n, u.shape))
    out, matvec = np.empty(n), _csr_matvec()
    for k, lo, hi, _ in _chunk_rows(
            grid, rows, system.control.points,
            lambda k, lo, hi: (first[:hi - lo], w[:, :hi - lo])):
        chunk = out[lo:hi]
        # control 0 writes the chunk's output, each later one the buffer
        dst = chunk if k == 0 else row[:hi - lo]
        _corner_sums(matvec, indptr, first, w[:, :hi - lo], corners, u, dst)
        if k:
            np.minimum(chunk, dst, out=chunk)
    return np.minimum(out, 1.0, out=out)


def hjbe_operator(system, grid, dt):
    """The raw discounted-cost operator on v; opt follows system.mode.

    Under the nonneg_ell and nonpos_ell guards, ell's sign is checked on
    the nodes' ell before the sub-steps run on: the first RK4 stage's J
    column, whose weight exp(-∫h) is exactly 1 at the start."""
    n = system.n_state
    sign = _GUARD_SIGN.get(system.guard)
    steps = _substeps(dt, _FOOT_DT)  # refuses a dt past MAX_SUBSTEPS

    def rows(a, nodes):
        z = start(nodes, wide=True)
        k1 = _aug_rhs(system, z, a)
        lv = k1[:, n + 1]
        if sign is not None and (sign * lv).min() < -1e-9:
            raise ConfigError("ell = %.3g on the grid has the wrong sign for "
                              "the %s guard" % (lv[np.argmin(sign * lv)],
                                                system.guard))
        z1 = _foot(system, z, a, dt, steps, k1)
        return z1[:, :n], np.exp(-z1[:, n + 2]), z1[:, n + 1]

    pick = np.minimum if system.mode == "minimize" else np.maximum
    return _assemble(system, grid, rows, pick, None, system.control.points)


def _iterate(build, grid, settings, start, policy=False):
    """Build the operator and sweep it from x ≡ start (the origin pinned
    there) to tolerance; returns x and the field metadata, which records
    every sweep's sup-change and the Bellman residual sup |T x - x| of the
    returned x (one more full sweep, the origin pinned as in a sweep).

    With ``policy`` and more than one control, every full sweep that does
    not converge is followed by policy sweeps (module docstring) until one
    moves less than tol/10.  Converged means a full sweep moved less than
    tol; max_iters bounds the sweeps of both kinds together.
    """
    started = time.perf_counter()
    op = build()  # first: an operator refused for its size allocates nothing
    built = time.perf_counter()
    x = np.full(grid.n_nodes, start)
    origin = int(np.ravel_multi_index(grid.origin_index, tuple(grid.counts)))
    changes = []

    def step(x, nxt):
        """Pin the origin in nxt, a sweep's output from x; returns the
        sweep's sup-change, computed in x's buffer."""
        nxt[origin] = start
        np.subtract(nxt, x, out=x)
        return float(np.abs(x, out=x).max())

    converged, policy_sweeps, policy_seconds = False, 0, 0.0
    policy = policy and op.n_controls > 1
    spare = np.empty_like(x) if policy else None
    while len(changes) < settings.max_iters:
        nxt, picked = op(x, choice=True) if policy else (op(x), None)
        changes.append(step(x, nxt))
        x = nxt
        if changes[-1] < settings.tol:
            converged = True
            break
        if not policy:
            continue
        tic = time.perf_counter()
        fixed = x >= op.cap  # capped nodes stay at the cap
        fixed[origin] = True
        greedy = op.policy(picked, fixed)
        while len(changes) < settings.max_iters:
            nxt = greedy(x, spare)
            changes.append(step(x, nxt))
            x, spare = nxt, x
            policy_sweeps += 1
            if changes[-1] < settings.tol / 10:
                break
        del greedy  # its rows, before the next full sweep
        policy_seconds += time.perf_counter() - tic
    residual = step(x.copy(), op(x))
    change = changes[-1]
    if not converged:
        warnings.warn("value iteration hit max_iters=%d with sup-change "
                      "%.3e >= tol %.3e" % (settings.max_iters, change,
                                            settings.tol))
    meta = asdict(settings)
    del meta["threads"]  # never read
    meta.update(foot_substeps=_substeps(settings.dt, _FOOT_DT),
                iterations=len(changes), policy_sweeps=policy_sweeps,
                final_change=change, converged=converged,
                sweep_changes=np.array(changes), bellman_residual=residual,
                operator_nnz=int(op.weights.size), operator_bytes=op.nbytes,
                phase_seconds={"build": built - started,
                               "sweeps": time.perf_counter() - built
                               - policy_seconds,
                               "policy": policy_seconds})
    return x, meta


def solve_zubov(system, grid, settings=None):
    """Kružkov-transformed maximal-cost field on the grid (values in [0,1])."""
    settings = settings or SolverSettings()
    if system.mode != "maximize":
        raise ConfigError("solve_zubov wants a maximize-mode system; "
                          "use solve_hjbe for least-cost problems")
    build = functools.partial(zubov_operator, system, grid, settings.dt)
    u, meta = _iterate(build, grid, settings, 1.0, policy=True)
    return ValueField(grid, (1.0 - u).reshape(tuple(grid.counts)),
                      "kruzhkov", meta)


def solve_hjbe(system, grid, settings=None):
    """Raw optimal-cost field for J[ell,h]; direction follows system.mode."""
    settings = settings or SolverSettings()
    if system.guard is None:
        raise ConfigError("solve_hjbe needs a declared convergence guard "
                          "(nonneg_ell / nonpos_ell / case_a / case_b)")
    build = functools.partial(hjbe_operator, system, grid, settings.dt)
    v, meta = _iterate(build, grid, settings, 0.0)
    return ValueField(grid, v.reshape(tuple(grid.counts)), "raw", meta)


def kruzhkov_transform(field):
    """Nodewise v = 1 - exp(-w); turns a raw field into a [0,1)-valued one."""
    if field.transform != "raw":
        raise ConfigError("field is already Kružkov-transformed")
    meta = dict(field.metadata)
    meta["exterior_value"] = 1.0 - math.exp(-meta.get("exterior_value", 0.0))
    return ValueField(field.grid, 1.0 - np.exp(-field.values), "kruzhkov",
                      meta)


def inverse_transform(field, cap):
    """Nodewise w = -ln(1 - v), clamped at `cap` as v approaches 1."""
    if field.transform != "kruzhkov":
        raise ConfigError("inverse transform wants a Kružkov field")
    _positive(cap, "cap")
    floor = math.exp(-cap)
    w = -np.log(np.maximum(1.0 - field.values, floor))
    meta = dict(field.metadata)
    meta["exterior_value"] = min(
        cap, -math.log(max(1.0 - meta.get("exterior_value", 1.0), floor)))
    return ValueField(field.grid, w, "raw", meta)


def interpolate(field, x):
    """Multilinear interpolation of the field; exterior points get the
    field's exterior value (metadata, else 1 for Kružkov / 0 for raw)."""
    exterior = field.metadata.get(
        "exterior_value", 1.0 if field.transform == "kruzhkov" else 0.0)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != field.grid.n_axes:
        raise ConfigError("point dimension %d, grid wants %d"
                          % (pts.shape[-1], field.grid.n_axes))
    first, w = _stencil(field.grid, pts)
    idx = first[:, None] + np.array(_corners(field.grid))
    # row-major weights: einsum's sums depend on the operands' layout
    vals = np.einsum("ij,ij->i", field.values.reshape(-1)[idx],
                     np.ascontiguousarray(w.T))
    out = np.where(_inside(field.grid, pts), vals, exterior)
    return float(out[0]) if np.ndim(x) == 1 else out
