"""Brute-force value estimation, independent of the grid solver.

Everything here works at a single point: enumerate every piecewise-constant
schedule built from `depth` segments of length `switch_dt` over the system's
control menu, advance them all at once through the batched RK4 engine
`trajectories.advance` (which also serves `integrate`, and through
`rollout` the falsifier below and the sampled decrease check), and turn
the best accumulated cost into a bracket.  From a state x with C ||x|| <= r
the declared exponential envelope caps everything a trajectory can still
collect, under any disturbance:

    tail(||x||) = c_tilde * (c * ||x||)**lam / (lam * sigma)

(integrate the growth bound ``cost <= c_tilde ||x||**lam`` along
``||x(t)|| <= c ||x|| exp(-sigma t)``).  The maximal-cost bracket adds that
tail to each enumerated row, which makes it a branch and bound: between
segments it drops every row whose cost plus tail cannot reach the best cost
already held, and at the horizon `upper` is the largest cost plus tail of a
remaining row.  It is certified when every remaining row ends inside the
envelope ball.  The bracket deliberately shares no code with the solver's
update rule: a bug would have to show up in two unrelated discretizations
to slip through the cross-checks.

Also here: the quasi-stability falsifier (cheap-trajectory search for
finite-cost escapes) and the greedy eps-optimal schedule construction with
its per-step defect ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import interpolate
from .systems import _GUARD_SIGN, ConfigError, _positive, _whole
from .trajectories import (ControlSchedule, TrajectoryError, _check_point,
                           advance, rollout, start)

_DEFAULT_BUDGET = 2_000_000  # segment integrations an enumeration may run
_INT_DT = 0.01  # RK4 sub-step of the brackets, synthesis and the checks
_MIN_FINAL_NORM = 1e-3  # a "witness" that ends at the origin is no witness
# the falsifier's random schedules: 16 segments over 40, RK4 sub-step 0.05
_FALSIFY_HORIZON, _FALSIFY_SEGMENTS, _FALSIFY_DT = 40.0, 16, 0.05


class BudgetError(RuntimeError):
    """Schedule enumeration would exceed the configured work budget."""


class SynthesisError(RuntimeError):
    """A greedy synthesis step blew its defect allowance."""

    def __init__(self, step, defect, allowance):
        super().__init__("synthesis step %d defect %.6g exceeds its "
                         "allowance %.6g" % (step, defect, allowance))
        self.step = step
        self.defect = defect
        self.allowance = allowance


@dataclass(frozen=True)
class ValueBounds:
    """Bracket for a value at one point.

    `lower` is the best cost any enumerated schedule accumulates by the
    horizon.  For the maximal cost, a certified `upper` bounds every
    schedule that is piecewise constant over the menu up to the horizon and
    arbitrary after it: each enumerated row's cost plus the envelope tail
    from its final state.  `tail_bound` is ``upper - lower``.  When
    `truncated` is set the tail is not certified (the declared envelope does
    not cover every enumerated row, or the system declares none), so the
    pair is a point estimate of the enumerated family rather than a closed
    bracket.  `segments` counts the segment integrations the enumeration
    ran.
    """

    lower: float
    upper: float
    horizon: float
    depth: int
    tail_bound: float
    truncated: bool
    segments: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("value bounds must be finite")
        if self.lower > self.upper:
            raise ValueError("lower bound %g exceeds upper %g"
                             % (self.lower, self.upper))
        if self.tail_bound < 0.0:
            raise ValueError("tail bound must be nonnegative")
        if not self.truncated and abs(
                self.upper - (self.lower + self.tail_bound)) > 1e-9:
            raise ValueError("untruncated bounds must satisfy "
                             "upper = lower + tail_bound")


@dataclass(frozen=True)
class Counterexample:
    """A finite-cost trajectory that does not approach the origin."""

    x0: np.ndarray
    schedule: ControlSchedule
    total_cost: float  # ∫g along it, the cost the Kružkov solve reads
    final_norm: float
    kind: str  # "stationary" (fixed point scan) or "searched" (random)

    def __post_init__(self):
        object.__setattr__(self, "x0",
                           np.asarray(self.x0, dtype=float).reshape(-1))
        if self.kind not in ("stationary", "searched"):
            raise ValueError("kind must be 'stationary' or 'searched'")
        if not math.isfinite(self.total_cost):
            raise ValueError("witness cost must be finite")
        if not self.final_norm >= _MIN_FINAL_NORM:
            raise ValueError("witness final norm %g is not bounded away "
                             "from zero" % self.final_norm)


def _tail_bound(system, norm):
    """Envelope tail c_tilde (C ||x||)^lam / (lam sigma) per state norm:
    the most a trajectory can still collect from ||x|| when C ||x|| <= r,
    and +inf outside that ball, where the envelope promises nothing."""
    if system.ules is None or system.growth is None:
        raise ConfigError("tail bound needs declared ules and growth "
                          "constants on system %r" % system.name)
    u, gr = system.ules, system.growth
    reach = u.c * np.asarray(norm, dtype=float)
    with np.errstate(over="ignore"):
        tail = gr.c_tilde * reach ** gr.lam / (gr.lam * u.sigma)
    return np.where(reach <= u.r, tail, np.inf)


def _check_enumeration(what, system, mode, x, switch_dt, depth):
    """Checks every enumeration runs first (mode, switch_dt, depth, the
    point); returns (x, depth) as a float vector and an int."""
    if system.mode != mode:
        raise ConfigError("%s wants a %s-mode system, not %r"
                          % (what, mode, system.mode))
    _positive(switch_dt, "switch_dt")
    depth = _whole(depth, "depth", 1)
    return _check_point(system, x), depth


def _enumerate(system, x, switch_dt, depth, rho, budget, wide=False,
               keep=None):
    """Advance all |A_d|^depth schedules; returns (aug_states, entered,
    segments), the last the segment integrations it ran.  The augmented
    states are `trajectories.start`'s, wide with ``wide``.

    The batch grows one control choice per segment (prefixes are shared),
    so row r encodes the schedule whose j-th segment uses control index
    ``(r // |A_d|**(depth-1-j)) % |A_d|``.  `entered` marks rows whose
    trajectory touched B_rho at some sub-step sample; rho None skips that
    test and leaves every flag False.  `keep(z)`, when given, sees the batch
    after every segment but the last and returns the mask of rows to carry
    on (the pruning of `maximal_cost`; the row encoding above then no longer
    holds).  BudgetError when the full enumeration, which `keep` can only
    shorten, would exceed `budget` segment integrations.
    """
    pts = system.control.points
    k = pts.shape[0]
    # the unpruned tree to depth s, grown until it passes the budget
    full, s = (depth, depth) if k == 1 else (0, 0)
    while s < depth and full <= budget:
        s += 1
        full += k ** s
    if full > budget:
        raise BudgetError("enumerating %d controls to depth %d runs up to %d "
                          "segment integrations%s; budget is %d"
                          % (k, depth, full,
                             " by depth %d" % s if s < depth else "", budget))
    n, segments = system.n_state, 0
    z = start(x[None], wide)
    entered = np.array([rho is not None and np.linalg.norm(x) <= rho])

    def touch(zb, live):
        entered[:] |= np.linalg.norm(zb[:, :n], axis=1) <= rho

    for seg in range(depth):
        if seg and keep is not None:
            rows = keep(z)
            z, entered = z[rows], entered[rows]
        z = np.repeat(z, k, axis=0)
        entered = np.repeat(entered, k)
        z, live = advance(system, z, np.tile(pts, (z.shape[0] // k, 1)),
                          switch_dt, _INT_DT,
                          watch=None if rho is None else touch)
        segments += len(z)
        if not live.all():
            raise TrajectoryError("a schedule reached a non-finite state "
                                  "during segment %d" % (seg + 1))
    return z, entered, segments


def maximal_cost(system, x, switch_dt=0.25, depth=8, rho=0.05, *,
                 budget=_DEFAULT_BUDGET):
    """Bracket the worst-case accumulated cost sup over schedules of
    the undiscounted integral of g, by enumeration with envelope pruning.

    Between segments a row is dropped when its cost plus the envelope tail
    from its state, plus a margin for RK4 error, stays below the best cost
    a row already holds: with g >= 0 none of its continuations can beat
    that row's, so `lower` is the enumeration's maximum.  `upper` is the
    largest cost plus tail over the rows left at the horizon and the rows
    dropped (which keeps it sound for any sign of g); it is certified when
    every row left ends with C ||x_T|| <= r.  A truncated result is the
    estimate ``lower + tail(rho)``; rho must satisfy C rho <= r.
    """
    x, depth = _check_enumeration("maximal_cost", system, "maximize", x,
                                  switch_dt, depth)
    _positive(rho, "rho")
    tail = float(_tail_bound(system, rho))
    if not math.isfinite(tail):
        raise ConfigError("rho must lie in (0, %g], the envelope ball r/C"
                          % (system.ules.r / system.ules.c))
    horizon = depth * switch_dt
    if not np.any(x):
        # stationary at the origin, zero cost
        return ValueBounds(0.0, 0.0, horizon, depth, 0.0, False)
    n = system.n_state
    dropped = -math.inf

    def reach(z):  # no continuation of a row collects more
        return z[:, n] + _tail_bound(system, np.linalg.norm(z[:, :n], axis=1))

    def keep(z):
        nonlocal dropped
        best = float(np.max(z[:, n]))
        bound = reach(z)
        rows = bound + 1e-6 * max(1.0, best) >= best
        if not rows.all():
            dropped = max(dropped, float(np.max(bound[~rows])))
        return rows

    z, _, segments = _enumerate(system, x, switch_dt, depth, None, budget,
                                keep=keep)
    lower = float(np.max(z[:, n]))
    upper = max(dropped, float(np.max(reach(z))))
    if math.isinf(upper):
        return ValueBounds(lower, lower + tail, horizon, depth, tail, True,
                           segments)
    return ValueBounds(lower, upper, horizon, depth, upper - lower, False,
                       segments)


def kruzhkov_value(system, x, switch_dt=0.25, depth=8, rho=0.05):
    """maximal_cost pushed through v = 1 - exp(-w), bound for bound."""
    vb = maximal_cost(system, x, switch_dt, depth, rho)
    lower = 1.0 - math.exp(-vb.lower)
    upper = 1.0 - math.exp(-vb.upper)
    return ValueBounds(lower, upper, vb.horizon, vb.depth, upper - lower,
                       vb.truncated, vb.segments)


def min_value(system, x, switch_dt=0.25, depth=8, rho=0.05, *,
              budget=_DEFAULT_BUDGET):
    """Estimate the least discounted cost inf over schedules of J[ell, h].

    The enumerated best is an over-estimate of the true infimum (the menu
    is finite), so the bracket is honest only about the enumerated family:
    with a declared envelope whose ball holds B_rho (C rho <= r) and every
    enumerated trajectory entering B_rho within the horizon, the tail
    closes that family's horizon gap —
    one-sided for the sign guards, [J(T), J(T) + tail] under nonneg_ell and
    [J(T) - tail, J(T)] under nonpos_ell, and J(T) ± tail under case_a.
    Without an envelope, or with a trajectory that never reached B_rho, the
    result is the bare horizon cost, flagged `truncated`.  A minimize-mode
    system always declares a guard.
    """
    x, depth = _check_enumeration("min_value", system, "minimize", x,
                                  switch_dt, depth)
    _positive(rho, "rho")
    horizon = depth * switch_dt
    if not np.any(x):
        return ValueBounds(0.0, 0.0, horizon, depth, 0.0, False)
    z, entered, segments = _enumerate(system, x, switch_dt, depth, rho,
                                      budget, wide=True)
    est = float(np.min(z[:, system.n_state + 1]))  # J
    tail = (math.inf if system.ules is None or system.growth is None
            else float(_tail_bound(system, rho)))
    if not (math.isfinite(tail) and bool(entered.all())):
        return ValueBounds(est, est, horizon, depth, 0.0, True, segments)
    sign = _GUARD_SIGN.get(system.guard)
    if sign is None:
        return ValueBounds(est - tail, est + tail, horizon, depth,
                           2.0 * tail, False, segments)
    # J only grows after the horizon under ell >= 0, only falls under ell <= 0
    lower, upper = (est, est + tail) if sign > 0 else (est - tail, est)
    return ValueBounds(lower, upper, horizon, depth, tail, False, segments)


def falsify_quasistability(system, region, budget=256, *, seed=7):
    """Search for a finite-cost trajectory that stays away from the origin.

    The cost is ∫g, the one the Kružkov solve reads; both phases integrate
    the narrow state and never evaluate ell or h.  Phase one scans region
    nodes x control menu for exact stationary freebies (||f|| <= 1e-9,
    g <= 1e-9, ||x|| >= 1e-3), keeping the lexicographically largest
    (state, control) hit so reruns agree.  Phase two integrates `budget`
    random schedules of 16 equal segments over a horizon of 40 (RK4
    sub-step 0.05) and accepts any with ∫g < 1e-3 ending at norm >= 1e-2.
    Returns None when both phases come up empty — which proves nothing.
    """
    if region.n_axes != system.n_state:
        raise ConfigError("region dimension %d, system wants %d"
                          % (region.n_axes, system.n_state))
    budget, seed = _whole(budget, "budget", 0), _whole(seed, "seed", 0)
    nodes = region.node_coords().reshape(-1, region.n_axes)
    node_norms = np.linalg.norm(nodes, axis=1)
    hits = []
    for j, a in enumerate(system.control.points):
        fg = system.fg(nodes, a)
        fv, gv = fg[:, :-1], fg[:, -1]
        ok = ((np.linalg.norm(fv, axis=-1) <= 1e-9) & (gv <= 1e-9)
              & (node_norms >= 1e-3))
        hits.extend((tuple(nodes[i]), tuple(a), j)
                    for i in np.flatnonzero(ok))
    n = system.n_state
    if hits:  # one segment over the whole horizon under the hit's control
        xs, _, j = max(hits)
        z, _, schedule = rollout(system, np.array([xs]), np.array([[j]]),
                                 _FALSIFY_HORIZON, _FALSIFY_DT)
        return Counterexample(xs, schedule(0), float(z[0, n]),
                              float(np.linalg.norm(z[0, :n])), "stationary")

    rng = np.random.default_rng(seed)
    x0s = np.empty((budget, n))
    picks = np.empty((budget, _FALSIFY_SEGMENTS), int)
    for i in range(budget):  # draws interleaved as one schedule at a time
        x0s[i] = rng.uniform(region.lo, region.hi)
        picks[i] = rng.integers(0, system.control.size,
                                size=_FALSIFY_SEGMENTS)
    z, live, schedule = rollout(system, x0s, picks, _FALSIFY_HORIZON,
                                _FALSIFY_DT)
    for i in np.flatnonzero(live & (z[:, n] < 1e-3)):
        final = float(np.linalg.norm(z[i, :n]))
        if final >= 1e-2:
            return Counterexample(x0s[i], schedule(i), float(z[i, n]), final,
                                  "searched")
    return None


def defect_allowances(eps, m):
    """Per-step defect allowances eps*(e^{-(j-1)} - e^{-j}), j = 1..m.

    They sum to eps*(1 - e^{-m}) < eps, so a schedule passing every step
    is eps-optimal relative to the field end to end.
    """
    _positive(eps, "eps")
    return [eps * (math.exp(-j) - math.exp(-(j + 1.0)))
            for j in range(_whole(m, "m", 1))]


def synthesize_epsilon_optimal(system, field, x0, eps, m, *,
                               switch_dt=0.25):
    """Greedy schedule over m unit intervals, checked against the field.

    Each unit interval is filled one switch_dt-slice at a time with the
    control whose accumulated cost plus interpolated continuation value is
    best.  The interval's defect — how far the assembled slice falls short
    of the field's own one-interval optimality claim — must fit inside its
    allowance, else SynthesisError.  The report's `residual` is signed so
    that `residual >= -eps` certifies eps-optimality of the whole schedule
    relative to the field.
    """
    if not field.metadata.get("converged", False):
        raise ConfigError("synthesis needs a converged field (its run "
                          "record does not say converged)")
    if field.grid.n_axes != system.n_state:
        raise ConfigError("field dimension %d, system wants %d"
                          % (field.grid.n_axes, system.n_state))
    if field.transform == "kruzhkov" and system.mode != "maximize":
        raise ConfigError("a kruzhkov field synthesizes worst-case "
                          "schedules; system mode is %r" % system.mode)
    x0 = _check_point(system, x0)
    if np.any(x0 < field.grid.lo) or np.any(x0 > field.grid.hi):
        raise ConfigError("x0 %s lies outside the value grid"
                          % x0.tolist())
    n_sub = int(round(1.0 / switch_dt)) if switch_dt > 0.0 else 0
    if n_sub < 1 or abs(n_sub * switch_dt - 1.0) > 1e-9:
        raise ConfigError("switch_dt must divide the unit interval")
    allowances = defect_allowances(eps, m)

    pts = system.control.points
    k = pts.shape[0]
    n = system.n_state
    kruzhkov = field.transform == "kruzhkov"
    maximizing = kruzhkov or system.mode == "maximize"

    def continuation(z):  # z is narrow for a Kružkov field, else wide
        w = interpolate(field, z[:, :n])
        if kruzhkov:
            disc = np.exp(-z[:, n])
            return (1.0 - disc) + disc * w
        return z[:, n + 1] + np.exp(-z[:, n + 2]) * w

    x_cur = x0
    segs = []
    defects = []
    total_q = 0.0  # integral of g along the whole schedule
    total_j = 0.0  # discounted cost, compounded across intervals
    total_p = 0.0  # integral of h
    w0 = interpolate(field, x0)
    for i in range(m):
        w_start = interpolate(field, x_cur)
        z = start(x_cur[None], wide=not kruzhkov)
        for _ in range(n_sub):
            cand, live = advance(system, np.repeat(z, k, axis=0), pts,
                                 switch_dt, _INT_DT)
            if not live.all():
                raise TrajectoryError("a candidate control reached a "
                                      "non-finite state")
            scores = continuation(cand)
            best = int(np.argmax(scores) if maximizing
                       else np.argmin(scores))
            z = cand[best:best + 1]
            segs.append((switch_dt, pts[best]))
        achieved = float(continuation(z)[0])
        defect = (w_start - achieved) if maximizing else (achieved - w_start)
        defects.append(defect)
        if defect > allowances[i]:
            raise SynthesisError(i + 1, defect, allowances[i])
        if kruzhkov:
            total_q += float(z[0, n])
        else:
            total_j += math.exp(-total_p) * float(z[0, n + 1])
            total_p += float(z[0, n + 2])
        x_cur = z[0, :n].copy()

    w_end = interpolate(field, x_cur)
    if kruzhkov:
        disc = math.exp(-total_q)
        achieved_total = (1.0 - disc) + disc * w_end
    else:
        achieved_total = total_j + math.exp(-total_p) * w_end
    residual = (achieved_total - w0) if maximizing else (w0 - achieved_total)
    report = {
        "defects": defects,
        "allowances": allowances,
        "residual": residual,
        "start_value": w0,
        "final_value": w_end,
        "final_state": x_cur,
    }
    return ControlSchedule(segs), report
