"""Trajectory integration under switching controls, with cost accumulation.

The cost integrals ride along as extra components of the integrated
state, so trajectory and costs share the integrator's order of accuracy.
Controls are piecewise constant and frozen across each RK4 sub-step, which
makes the switching structure exact.

The augmented state is x[0..N-1], then the integrals.  `start` builds it
at either width, told apart by its last axis:

  * N+1, (x, ∫g): what a Kružkov consumer reads.  The maximal-cost
    oracle, the falsifier, the Kružkov operator's RK4 feet, `dpp_defect`,
    the sampled decrease check and synthesis against a Kružkov field use
    it.  Only f and g are evaluated, so ell and h (and the exp(-∫h)
    weight) cost nothing there, and neither can retire a row.
  * N+3, (x, ∫g, J, ∫h), J = ∫ ell·exp(-∫h) the running cost: the full
    record.  `integrate` and its TrajectoryRecord, the minimize-mode
    oracle `min_value`, the raw operator's RK4 feet and synthesis against
    a raw field use it.

So the narrow state is the wide one's first N+1 columns, column N is ∫g
at either width, and those columns come out bit for bit the same at
either width: every RK4 stage combines the columns elementwise.  For the
same reason the memory layout does not matter: `start` and `_aug_rhs`
keep x's, so the solver's column-major feet step with contiguous columns
and the oracle's row-major batches as before.

The hot path is lean but rounds as written.  Each RK4 stage gets f and
g from one call of the system's fused `rates`, which writes them into the
stage buffer; a JSON system evaluates its compiled f and g trees there in
one pass, under one error state, with one finiteness check.  `rk4_step`
reuses its stage buffers and keeps the textbook operation order.
`advance` steps an all-live batch whole, with no per-row bookkeeping, and
falls back to per-group steps only when a row raises or comes out
non-finite.  The builtin vector fields skip work that changes no bit:
lift2d squares each x_i once for f and g, its taper only multiplies where
some |x_i| > 1.5 (inside, it is exactly 1), and ex1's outer branches are
evaluated only when some |x| reaches 1.
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import EvalDomainError
from .systems import ConfigError, _positive

MAX_SUBSTEPS = 10 ** 7  # RK4 sub-steps one segment may take


class TrajectoryError(RuntimeError):
    """Integration aborted (state blew up / left the representable range)."""


class ControlSchedule:
    """Piecewise-constant control: a list of (duration, control vector)."""

    def __init__(self, segments):
        segs = []
        for duration, control in segments:
            segs.append((_positive(duration, "schedule duration"),
                         np.asarray(control, dtype=float).reshape(-1)))
        if not segs:
            raise ConfigError("schedule needs at least one segment")
        m = segs[0][1].size
        if any(c.size != m for _, c in segs):
            raise ConfigError("schedule controls have mixed dimensions")
        self.segments = segs
        self.m = m

    @property
    def total_duration(self):
        return sum(d for d, _ in self.segments)


class RelaxedSchedule:
    """Piecewise-constant relaxed control over a finite control list.

    Each segment holds a probability vector over `controls`; chattering
    realizes it as an ordinary schedule with proportional dwell times.
    """

    def __init__(self, controls, segments):
        self.controls = np.atleast_2d(np.asarray(controls, dtype=float))
        segs = []
        for duration, weights in segments:
            duration = _positive(duration, "schedule duration")
            w = np.asarray(weights, dtype=float).reshape(-1)
            if w.size != self.controls.shape[0]:
                raise ConfigError("weight vector length must match the "
                                  "control list")
            if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
                raise ConfigError("weights must be nonnegative and sum to 1")
            segs.append((duration, w))
        if not segs:
            raise ConfigError("schedule needs at least one segment")
        self.segments = segs


def chatter(relaxed, period):
    """Realize a relaxed schedule by cycling through its support controls.

    Within each segment, every period is split into dwell times proportional
    to the weights; a trailing partial period is scaled down so the total
    duration is preserved.  Consecutive equal controls merge.
    """
    _positive(period, "chatter period")
    shortest = min(d for d, _ in relaxed.segments)
    if period > shortest + 1e-12:
        raise ConfigError("chatter period exceeds the shortest segment")
    pieces = []
    for duration, weights in relaxed.segments:
        support = [(w, relaxed.controls[k])
                   for k, w in enumerate(weights) if w > 1e-12]
        remaining = duration
        while remaining > 1e-12:
            cycle = min(period, remaining)
            for w, control in support:
                pieces.append((w * cycle, control))
            remaining -= cycle
    merged = [pieces[0]]
    for duration, control in pieces[1:]:
        if np.array_equal(control, merged[-1][1]):
            merged[-1] = (merged[-1][0] + duration, control)
        else:
            merged.append((duration, control))
    return ControlSchedule(merged)


class TrajectoryRecord:
    """Sampled trajectory with running costs.

    times (T,), states (T, N), running_cost (T,) = J, running_g_integral
    (T,) = ∫g, running_h_integral (T,) = ∫h.
    """

    def __init__(self, times, states, running_cost, running_g_integral,
                 running_h_integral):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.running_cost = np.asarray(running_cost, dtype=float)
        self.running_g_integral = np.asarray(running_g_integral, dtype=float)
        self.running_h_integral = np.asarray(running_h_integral, dtype=float)
        if np.any(np.diff(self.times) <= 0.0):
            raise TrajectoryError("sample times must increase strictly")
        if np.any(np.diff(self.running_g_integral) < -1e-12):
            raise TrajectoryError("the g-integral must be nondecreasing")

    @property
    def total_duration(self):
        return float(self.times[-1])

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def total_cost(self):
        return float(self.running_cost[-1])


def start(x, wide=False):
    """The augmented state at the points x (..., N): x, then ∫g or with
    ``wide`` (∫g, J, ∫h), all +0, in x's memory layout, read off the
    strides: one-axis column-major nodes, C-contiguous too, stay so."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (n + (3 if wide else 1),),
                 order="F" if x.strides[0] < x.strides[-1] else "C")
    z[..., :n] = x
    return z


def _aug_rhs(system, z, a):
    """Right-hand side of the augmented dynamics at either width (module
    docstring).  f and g come from one `system.rates` call into the first
    N+1 columns, the J and ∫h rates follow on the wide state.  The rates
    come back in z's memory layout."""
    n = system.n_state
    width = z.shape[-1]
    if width not in (n + 1, n + 3):
        raise ValueError("augmented state has %d columns; a system with %d "
                         "states wants %d or %d" % (width, n, n + 1, n + 3))
    x = z[..., :n]
    out = np.empty_like(z, dtype=float)  # each rate is cast as it is stored
    system.rates(x, a, out[..., :n + 1])  # f, then g in column n
    if width == n + 1:
        return out
    lv = out[..., n] if system.ell is None else system.ell(x, a)
    out[..., n + 1] = lv * np.exp(-z[..., n + 2])
    out[..., n + 2] = 0.0 if system.h is None else system.h(x, a)
    return out


def rk4_step(system, z, a, h, k1=None):
    """One classical RK4 step of the augmented dynamics, control frozen.

    z is an augmented state of either width (module docstring).  k1, the
    rates `_aug_rhs` gives at z, may come from a caller that has read them
    already.  The stage inputs share one buffer and the combination
    accumulates in k2's, in the textbook operation order: z + (0.5 h) k,
    then z + (h/6) (((k1 + 2 k2) + 2 k3) + k4), so the step rounds as the
    formula reads."""
    if k1 is None:
        k1 = _aug_rhs(system, z, a)
    stage = np.multiply(k1, 0.5 * h)
    stage += z
    k2 = _aug_rhs(system, stage, a)
    np.multiply(k2, 0.5 * h, out=stage)
    stage += z
    k3 = _aug_rhs(system, stage, a)
    np.multiply(k3, h, out=stage)
    stage += z
    k4 = _aug_rhs(system, stage, a)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += z
    return k2


def _substeps(duration, dt):
    """RK4 sub-steps of at most dt that fill `duration`; ConfigError past
    MAX_SUBSTEPS (the tests, demos and benchmark take at most 2,000)."""
    steps = duration / dt
    if not steps <= MAX_SUBSTEPS:  # NaN and inf fail it too
        raise ConfigError("a segment of %r at dt=%r takes %.3g RK4 sub-steps;"
                          " at most %d" % (duration, dt, steps, MAX_SUBSTEPS))
    return max(1, int(math.ceil(steps - 1e-9)))


def _check_point(system, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != system.n_state:
        raise ConfigError("point has dimension %d, system wants %d"
                          % (x.size, system.n_state))
    return x


def advance(system, z, a, duration, dt, live=None, watch=None):
    """Advance a batch z (B, N+1) or (B, N+3) of augmented states (module
    docstring) through one segment.

    `a` is one control (m,) or one per row (B, m), frozen for the segment,
    which runs in _substeps(duration, dt) equal RK4 sub-steps.  While every
    row is live, a sub-step advances the whole batch at once.  A row whose
    sub-step comes out non-finite, or whose evaluation raises
    EvalDomainError, retires: it stays at its last finite state, its `live`
    flag drops and the other rows carry on.  A group of rows that raises is
    halved until the rows that raise stand alone; once a row has retired,
    sub-steps run on the live rows only.  Rows retired on entry stay put.
    `watch(z, live)` sees the batch after every sub-step and may clear a
    row's flag to stop it there.  Returns (z, live).
    """
    steps = _substeps(duration, dt)
    h = duration / steps
    z = np.array(z, dtype=float)
    live = np.ones(len(z), bool) if live is None else np.array(live, bool)
    # a fresh C-contiguous copy, as a[rows] would be: NumPy's SIMD loops
    # may round differently on strided or zero-stride inputs
    a = np.array(np.broadcast_to(np.asarray(a, dtype=float),
                                 (len(z), system.control.m)), order="C")
    with np.errstate(all="ignore"):  # overflow shows as a non-finite row
        for _ in range(steps):
            new = _step_whole(system, z, a, h) if live.all() else None
            if new is not None:
                z = new
            elif live.any():
                _step_live_rows(system, z, a, h, live)
            else:
                break
            if watch is not None:
                watch(z, live)
    return z, live


def _step_whole(system, z, a, h):
    """One sub-step of the whole batch; None when a row raises
    EvalDomainError or comes out non-finite."""
    try:
        new = rk4_step(system, z, a, h)
    except EvalDomainError:
        return None
    return new if np.isfinite(new).all() else None


def _step_live_rows(system, z, a, h, live):
    """One sub-step of the live rows, in place: a group of rows that raises
    EvalDomainError is halved until the rows that raise stand alone, and
    a row that raises or comes out non-finite retires."""
    groups = [np.flatnonzero(live)]
    while groups:
        rows = groups.pop()
        try:
            new = rk4_step(system, z[rows], a[rows], h)
        except EvalDomainError:
            if rows.size == 1:
                live[rows] = False
            else:
                groups += np.array_split(rows, 2)
            continue
        ok = np.isfinite(new).all(axis=1)
        z[rows[ok]], live[rows[~ok]] = new[ok], False


def rollout(system, x0, picks, horizon, dt):
    """Advance starts x0 (B, N) over the narrow (x, ∫g) through
    picks.shape[1] equal segments of `horizon`, row i's segment j under
    menu control picks[i, j]; a row that escapes retires (see `advance`).
    Returns (z, live, schedule), schedule(i) row i's ControlSchedule."""
    pts, seg = system.control.points, horizon / picks.shape[1]
    z, live = start(x0), None
    for j in range(picks.shape[1]):
        z, live = advance(system, z, pts[picks[:, j]], seg, dt, live)
    return z, live, lambda i: ControlSchedule([(seg, pts[p])
                                               for p in picks[i]])


def integrate(system, x0, schedule, dt):
    """Integrate from x0 under a piecewise-constant schedule.

    Sub-steps never exceed dt (segments round up to whole sub-steps).  A
    state that leaves the representable range raises TrajectoryError.
    """
    _positive(dt, "dt")
    x0 = _check_point(system, x0)
    if schedule.m != system.control.m:
        raise ConfigError("schedule control dimension %d, system wants %d"
                          % (schedule.m, system.control.m))
    ctl = system.control
    for _, a in schedule.segments:
        if ctl.m and (np.any(a < ctl.box_lo - 1e-9)
                      or np.any(a > ctl.box_hi + 1e-9)):
            raise ConfigError("schedule control %s outside the control box"
                              % a.tolist())

    n = system.n_state
    z, live = start(x0[None], wide=True), np.ones(1, bool)
    times, rows = [0.0], [z[0]]

    def record(zb, lv):  # h: the current segment's sub-step
        if lv[0]:
            times.append(times[-1] + h)
            rows.append(zb[0].copy())

    for duration, a in schedule.segments:
        h = duration / _substeps(duration, dt)
        z, live = advance(system, z, a, duration, dt, live, record)
    if not live[0]:
        raise TrajectoryError(
            "state left the representable range near t=%.6g "
            "(last finite state %s)" % (times[-1], rows[-1][:n].tolist()))
    rows = np.array(rows)
    return TrajectoryRecord(times, rows[:, :n], rows[:, n + 1], rows[:, n],
                            rows[:, n + 2])
