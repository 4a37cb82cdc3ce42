"""Trajectory integration under switching controls, with cost accumulation.

The running cost J = ∫ ell·exp(-∫h) and the discount exponent ∫g ride along
as extra components of the integrated state, so trajectory and costs share
the integrator's order of accuracy.  Controls are piecewise constant and
frozen across each RK4 sub-step, which makes the switching structure exact.

The augmented state comes in two widths, told apart by its last axis:

  * N+3, (x[0..N-1], J, ∫g, ∫h): the full record.  `integrate` and its
    TrajectoryRecord, the minimize-mode oracle `min_value`, the raw
    operator's RK4 feet and synthesis against a raw field use it.
  * N+1, (x[0..N-1], ∫g): what a Kružkov consumer reads.  The maximal-cost
    oracle, the falsifier, the Kružkov operator's RK4 feet, `dpp_defect`,
    the sampled decrease check and synthesis against a Kružkov field use
    it.  Only f and g are evaluated, so ell and h (and the exp(-∫h)
    weight) cost nothing there, and neither can retire a row.

The x and ∫g columns come out bit for bit the same at either width: every
RK4 stage combines the columns elementwise.
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import EvalDomainError
from .systems import ConfigError


class TrajectoryError(RuntimeError):
    """Integration aborted (state blew up / left the representable range)."""


class ControlSchedule:
    """Piecewise-constant control: a list of (duration, control vector)."""

    def __init__(self, segments):
        segs = []
        for duration, control in segments:
            duration = float(duration)
            if not duration > 0.0:
                raise ConfigError("schedule durations must be positive")
            segs.append((duration, np.asarray(control, dtype=float).reshape(-1)))
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
            duration = float(duration)
            if not duration > 0.0:
                raise ConfigError("schedule durations must be positive")
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
    if not period > 0.0:
        raise ConfigError("chatter period must be positive")
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
                 running_h_integral, exit_flag):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.running_cost = np.asarray(running_cost, dtype=float)
        self.running_g_integral = np.asarray(running_g_integral, dtype=float)
        self.running_h_integral = np.asarray(running_h_integral, dtype=float)
        self.exit_flag = bool(exit_flag)
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


def _aug_rhs(system, z, a):
    """Right-hand side of the augmented dynamics; z is (..., N+1) holding
    (x, ∫g) or (..., N+3) holding (x, J, ∫g, ∫h)."""
    n = system.n_state
    width = z.shape[-1]
    if width not in (n + 1, n + 3):
        raise ValueError("augmented state has %d columns; a system with %d "
                         "states wants %d or %d" % (width, n, n + 1, n + 3))
    x = z[..., :n]
    out = np.empty(z.shape)  # each rate is cast to float as it is stored
    out[..., :n] = system.f(x, a)
    gv = system.g(x, a)
    if width == n + 1:
        out[..., n] = gv
        return out
    lv = gv if system.ell is None else system.ell(x, a)
    out[..., n] = lv * np.exp(-z[..., n + 2])
    out[..., n + 1] = gv
    out[..., n + 2] = 0.0 if system.h is None else system.h(x, a)
    return out


def rk4_step(system, z, a, h):
    """One classical RK4 step of the augmented dynamics, control frozen.

    z is (..., N+1) or (..., N+3), see the module docstring; the narrow
    state evaluates f and g only."""
    k1 = _aug_rhs(system, z, a)
    k2 = _aug_rhs(system, z + 0.5 * h * k1, a)
    k3 = _aug_rhs(system, z + 0.5 * h * k2, a)
    k4 = _aug_rhs(system, z + h * k3, a)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _substeps(duration, dt):
    return max(1, int(math.ceil(duration / dt - 1e-9)))


def _check_point(system, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != system.n_state:
        raise ConfigError("point has dimension %d, system wants %d"
                          % (x.size, system.n_state))
    return x


def advance(system, z, a, duration, dt, live=None, watch=None):
    """Advance a batch of augmented states z through one segment.

    z is (B, N+1) holding (x, ∫g) or (B, N+3) holding (x, J, ∫g, ∫h); the
    narrow one evaluates f and g only (module docstring).

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
    z = np.array(z, dtype=float)
    live = np.ones(len(z), bool) if live is None else np.array(live, bool)
    # a fresh C-contiguous copy, as a[rows] would be: NumPy's SIMD loops
    # may round differently on strided or zero-stride inputs
    a = np.array(np.broadcast_to(np.asarray(a, dtype=float),
                                 (len(z), system.control.m)), order="C")
    for _ in range(steps):
        if not live.any():
            break
        groups = [np.flatnonzero(live)]
        while groups:
            rows = groups.pop()
            whole = rows.size == len(z)
            try:
                with np.errstate(all="ignore"):  # overflow: non-finite rows
                    new = rk4_step(system, z if whole else z[rows],
                                   a if whole else a[rows], duration / steps)
            except EvalDomainError:
                if rows.size == 1:
                    live[rows] = False
                else:
                    groups += np.array_split(rows, 2)
                continue
            ok = np.isfinite(new).all(axis=1)
            if whole and ok.all():
                z = new
            else:
                z[rows[ok]], live[rows[~ok]] = new[ok], False
        if watch is not None:
            watch(z, live)
    return z, live


def rollout(system, x0, picks, horizon, dt):
    """Advance starts x0 (B, N) over (x, ∫g) through picks.shape[1] equal
    segments of `horizon`, row i's segment j under menu control picks[i, j];
    a row that escapes retires (see `advance`).  Returns (z, live,
    schedule), where schedule(i) is row i's ControlSchedule."""
    pts, seg = system.control.points, horizon / picks.shape[1]
    z, live = np.hstack([x0, np.zeros((len(x0), 1))]), None
    for j in range(picks.shape[1]):
        z, live = advance(system, z, pts[picks[:, j]], seg, dt, live)
    return z, live, lambda i: ControlSchedule([(seg, pts[p])
                                               for p in picks[i]])


def integrate(system, x0, schedule, dt, box=None):
    """Integrate from x0 under a piecewise-constant schedule.

    Sub-steps never exceed dt (segments round up to whole sub-steps).  When
    `box` (a Grid) is given, integration stops at the first sample outside
    it: the record ends at the last inside sample and sets exit_flag.
    """
    if not dt > 0.0:
        raise ConfigError("dt must be positive")
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

    def outside(x):
        return box is not None and bool(np.any(x < box.lo)
                                        or np.any(x > box.hi))

    n = system.n_state
    z = np.concatenate([x0, np.zeros(3)])[None]
    live = np.array([not outside(x0)])  # a start outside the box exits at 0
    times, rows = [0.0], [z[0]]

    def record(zb, lv):  # h: the current segment's sub-step
        if lv[0] and outside(zb[0, :n]):
            lv[0] = False  # the first sample outside the box ends the run
        elif lv[0]:
            times.append(times[-1] + h)
            rows.append(zb[0].copy())

    for duration, a in schedule.segments:
        h = duration / _substeps(duration, dt)
        z, live = advance(system, z, a, duration, dt, live, record)
    exit_flag = outside(z[0, :n])
    if not live[0] and not exit_flag:
        raise TrajectoryError(
            "state left the representable range near t=%.6g "
            "(last finite state %s)" % (times[-1], rows[-1][:n].tolist()))
    rows = np.array(rows)
    return TrajectoryRecord(times, rows[:, :n], rows[:, n], rows[:, n + 1],
                            rows[:, n + 2], exit_flag)
