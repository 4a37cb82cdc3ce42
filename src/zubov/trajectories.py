"""Trajectory integration under switching controls, with cost accumulation.

The running cost J = ∫ ell·exp(-∫h) and the discount exponent ∫g ride along
as extra components of the integrated state, so trajectory and costs share
the integrator's order of accuracy.  Controls are piecewise constant and
frozen across each RK4 sub-step, which makes the switching structure exact.

Augmented state layout: (x[0..N-1], J, ∫g, ∫h).
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import EvalDomainError
from .systems import ConfigError, _write_csv


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

    @classmethod
    def constant(cls, control, duration):
        return cls([(duration, control)])

    @property
    def total_duration(self):
        return sum(d for d, _ in self.segments)

    def control_at(self, t):
        """Control in effect at time t (the last segment clamps)."""
        acc = 0.0
        for duration, control in self.segments:
            acc += duration
            if t < acc:
                return control
        return self.segments[-1][1]


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

    @property
    def total_duration(self):
        return sum(d for d, _ in self.segments)


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
    (T,), running_h_integral (T,); `discount` is exp(-∫g) per sample.
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
    def discount(self):
        return np.exp(-self.running_g_integral)

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
    """Right-hand side of the augmented dynamics; z is (..., N+3)."""
    n = system.n_state
    x = z[..., :n]
    p = z[..., n + 2]
    batch = x.shape[:-1]

    def rate(fn):
        return np.broadcast_to(np.asarray(fn(x, a), dtype=float), batch)

    fx = np.asarray(system.f(x, a), dtype=float)
    gv = rate(system.g)
    lv = gv if system.ell is None else rate(system.ell)
    hv = np.zeros(batch) if system.h is None else rate(system.h)
    dj = lv * np.exp(-p)
    return np.concatenate([fx, np.stack([dj, gv, hv], axis=-1)], axis=-1)


def rk4_step(system, z, a, h):
    """One classical RK4 step of the augmented dynamics, control frozen."""
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
    """Advance a batch of augmented states z (B, N+3) through one segment.

    `a` is one control (m,) or one per row (B, m), frozen for the segment,
    which runs in _substeps(duration, dt) equal RK4 sub-steps.  A row whose
    sub-step comes out non-finite, or whose evaluation raises
    EvalDomainError, retires: it stays at its last finite state, its `live`
    flag drops and the other rows carry on.  A group of rows that raises is
    halved until the rows that raise stand alone.  Rows retired on entry
    stay put.  `watch(z, live)` sees the batch after every sub-step and may
    clear a row's flag to stop it there.  Returns (z, live).
    """
    steps = _substeps(duration, dt)
    z = np.array(z, dtype=float)
    live = np.ones(len(z), bool) if live is None else np.array(live, bool)
    a = np.broadcast_to(np.asarray(a, dtype=float), (len(z), system.control.m))
    for _ in range(steps):
        if not live.any():
            break
        groups = [np.flatnonzero(live)]
        while groups:
            rows = groups.pop()
            try:
                with np.errstate(all="ignore"):  # overflow: non-finite rows
                    new = rk4_step(system, z[rows], a[rows], duration / steps)
            except EvalDomainError:
                if rows.size == 1:
                    live[rows] = False
                else:
                    groups += np.array_split(rows, 2)
                continue
            ok = np.all(np.isfinite(new), axis=1)
            z[rows[ok]], live[rows[~ok]] = new[ok], False
        if watch is not None:
            watch(z, live)
    return z, live


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


def discount_factor(record, t):
    """exp(-∫_0^t g); the g-integral interpolates linearly between samples."""
    if t < 0.0 or t > record.times[-1] + 1e-12:
        raise ConfigError("t=%.6g beyond the recorded duration %.6g"
                          % (t, record.times[-1]))
    q = np.interp(t, record.times, record.running_g_integral)
    return float(np.exp(-q))


def time_to_ball(record, rho):
    """First sample time with ||state|| <= rho, or None if never reached."""
    if not rho > 0.0:
        raise ConfigError("rho must be positive")
    norms = np.linalg.norm(record.states, axis=1)
    inside = np.flatnonzero(norms <= rho)
    if inside.size == 0:
        return None
    return float(record.times[inside[0]])


def save_trajectory(record, path):
    """CSV export: columns t, x1..xN, J, G."""
    n = record.states.shape[1]
    _write_csv(path, ["t"] + ["x%d" % (i + 1) for i in range(n)] + ["J", "G"],
               [record.times, *record.states.T, record.running_cost,
                record.discount], ["%.17g"] * (n + 3))
