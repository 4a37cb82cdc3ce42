"""Brute-force value estimation, independent of the grid solver.

Everything here works at a single point: enumerate every piecewise-constant
schedule built from `depth` segments of length `switch_dt` over the system's
control menu, advance them all at once through the batched RK4 engine
`trajectories.advance` (which also serves `integrate`, the falsifier below
and the sampled decrease check), and turn the best accumulated cost into a
bracket.  Once the best trajectory sits inside the ball B_rho, the declared
exponential envelope caps everything it can still collect:

    tail = c_tilde * (c * rho)**lam / (lam * sigma)

(integrate the growth bound ``cost <= c_tilde ||x||**lam`` along
``||x(t)|| <= c rho exp(-sigma t)``).  The bracket deliberately shares no
code with the solver's update rule: a bug would have to show up in two
unrelated discretizations to slip through the cross-checks.

Also here: the quasi-stability falsifier (cheap-trajectory search for
finite-cost escapes) and the greedy eps-optimal schedule construction with
its per-step defect ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import interpolate
from .systems import ConfigError
from .trajectories import (ControlSchedule, TrajectoryError, _check_point,
                           advance, integrate)

_DEFAULT_BUDGET = 2_000_000
_MIN_FINAL_NORM = 1e-3  # a "witness" that ends at the origin is no witness


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
    horizon; `upper` adds the envelope tail.  When `truncated` is set the
    best trajectory never certified the tail (it stayed outside B_rho, or
    the system declares no envelope), so the pair is a point estimate of
    the enumerated family rather than a closed bracket.
    """

    lower: float
    upper: float
    horizon: float
    depth: int
    tail_bound: float
    truncated: bool

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
    total_cost: float
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


def _tail_bound(system, rho):
    if system.ules is None or system.growth is None:
        raise ConfigError("tail bound needs declared ules and growth "
                          "constants on system %r" % system.name)
    if not 0.0 < rho <= system.ules.r:
        raise ConfigError("rho must lie in (0, %g], the envelope ball"
                          % system.ules.r)
    u, gr = system.ules, system.growth
    return gr.c_tilde * (u.c * rho) ** gr.lam / (gr.lam * u.sigma)


def _enumerate(system, x, switch_dt, depth, rho, int_dt, budget):
    """Advance all |A_d|^depth schedules; returns (aug_states, entered).

    The batch grows one control choice per segment (prefixes are shared),
    so row r encodes the schedule whose j-th segment uses control index
    ``(r // |A_d|**(depth-1-j)) % |A_d|``.  `entered` marks rows whose
    trajectory touched B_rho at some sub-step sample.  BudgetError when the
    enumeration would exceed `budget` segment integrations.
    """
    pts = system.control.points
    k = pts.shape[0]
    if depth * k ** depth > budget:
        raise BudgetError("enumerating %d controls to depth %d needs %d "
                          "segment integrations; budget is %d"
                          % (k, depth, depth * k ** depth, budget))
    n = system.n_state
    z = np.concatenate([x, np.zeros(3)])[None]
    entered = np.array([np.linalg.norm(x) <= rho])

    def touch(zb, live):
        entered[:] |= np.linalg.norm(zb[:, :n], axis=1) <= rho

    for seg in range(depth):
        z = np.repeat(z, k, axis=0)
        entered = np.repeat(entered, k)
        z, live = advance(system, z, np.tile(pts, (z.shape[0] // k, 1)),
                          switch_dt, int_dt, watch=touch)
        if not live.all():
            raise TrajectoryError("a schedule reached a non-finite state "
                                  "during segment %d" % (seg + 1))
    return z, entered


def maximal_cost(system, x, switch_dt=0.25, depth=8, rho=0.05, *,
                 int_dt=0.01, budget=_DEFAULT_BUDGET):
    """Bracket the worst-case accumulated cost sup over schedules of
    the undiscounted integral of g, by exhaustive enumeration."""
    if system.mode != "maximize":
        raise ConfigError("maximal_cost wants a maximize-mode system")
    if not switch_dt > 0.0:
        raise ConfigError("switch_dt must be positive")
    if depth < 1:
        raise ConfigError("depth must be at least 1")
    x = _check_point(system, x)
    tail = _tail_bound(system, rho)
    horizon = depth * switch_dt
    if not np.any(x):
        # stationary at the origin, zero cost
        return ValueBounds(0.0, 0.0, horizon, depth, 0.0, False)
    z, entered = _enumerate(system, x, switch_dt, depth, rho, int_dt, budget)
    best = int(np.argmax(z[:, system.n_state + 1]))
    lower = float(z[best, system.n_state + 1])
    return ValueBounds(lower, lower + tail, horizon, depth, tail,
                       not bool(entered[best]))


def kruzhkov_value(system, x, switch_dt=0.25, depth=8, rho=0.05, *,
                   int_dt=0.01, budget=_DEFAULT_BUDGET):
    """maximal_cost pushed through v = 1 - exp(-w), bound for bound."""
    vb = maximal_cost(system, x, switch_dt, depth, rho,
                      int_dt=int_dt, budget=budget)
    lower = 1.0 - math.exp(-vb.lower)
    upper = 1.0 - math.exp(-vb.upper)
    return ValueBounds(lower, upper, vb.horizon, vb.depth, upper - lower,
                       vb.truncated)


def min_value(system, x, switch_dt=0.25, depth=8, rho=0.05, *,
              int_dt=0.01, budget=_DEFAULT_BUDGET):
    """Estimate the least discounted cost inf over schedules of J[ell, h].

    The enumerated best is an over-estimate of the true infimum (the menu
    is finite), so the bracket is honest only about the enumerated family:
    with a declared envelope and a trajectory that reaches B_rho, the tail
    closes that family's horizon gap — one-sided for ell >= 0, symmetric
    for the signed-ell guards.  Without an envelope the result is the bare
    horizon cost, flagged `truncated`.
    """
    if system.mode != "minimize":
        raise ConfigError("min_value wants a minimize-mode system")
    if system.guard not in ("nonneg_ell", "case_a", "case_b"):
        raise ConfigError("neither convergence guard declared: min_value "
                          "needs nonneg_ell, case_a, or case_b")
    if not switch_dt > 0.0:
        raise ConfigError("switch_dt must be positive")
    if depth < 1:
        raise ConfigError("depth must be at least 1")
    x = _check_point(system, x)
    horizon = depth * switch_dt
    if not np.any(x):
        return ValueBounds(0.0, 0.0, horizon, depth, 0.0, False)
    z, entered = _enumerate(system, x, switch_dt, depth, rho, int_dt, budget)
    best = int(np.argmin(z[:, system.n_state]))
    est = float(z[best, system.n_state])
    certifiable = (system.ules is not None and system.growth is not None
                   and rho <= system.ules.r and bool(entered[best]))
    if not certifiable:
        return ValueBounds(est, est, horizon, depth, 0.0, True)
    tail = _tail_bound(system, rho)
    if system.guard == "nonneg_ell":
        # J only grows after the horizon
        return ValueBounds(est, est + tail, horizon, depth, tail, False)
    return ValueBounds(est - tail, est + tail, horizon, depth,
                       2.0 * tail, False)


def falsify_quasistability(system, region, budget=256, *, seed=7,
                           horizon=40.0, dt=0.05, segments=16):
    """Search for a finite-cost trajectory that stays away from the origin.

    Phase one scans region nodes x control menu for exact stationary
    freebies (||f|| <= 1e-9, cost rate <= 1e-9, ||x|| >= 1e-3), keeping the
    lexicographically largest (state, control) hit so reruns agree.  Phase
    two integrates `budget` random piecewise-constant schedules and accepts
    any with total cost < 1e-3 ending at norm >= 1e-2.  Returns None when
    both phases come up empty — which proves nothing.
    """
    if region.n_axes != system.n_state:
        raise ConfigError("region dimension %d, system wants %d"
                          % (region.n_axes, system.n_state))
    if budget < 0:
        raise ConfigError("budget must be nonnegative")
    nodes = region.node_coords().reshape(-1, region.n_axes)
    node_norms = np.linalg.norm(nodes, axis=1)
    hits = []
    for a in system.control.points:
        fv = np.asarray(system.f(nodes, a), dtype=float)
        gv = np.broadcast_to(np.asarray(system.g(nodes, a), dtype=float),
                             (nodes.shape[0],))
        ok = ((np.linalg.norm(fv, axis=-1) <= 1e-9) & (gv <= 1e-9)
              & (node_norms >= 1e-3))
        hits.extend((tuple(nodes[i]), tuple(a)) for i in np.flatnonzero(ok))
    if hits:
        xs, ac = max(hits)
        x0 = np.array(xs)
        sched = ControlSchedule.constant(np.array(ac), horizon)
        rec = integrate(system, x0, sched, dt)
        return Counterexample(x0, sched, rec.total_cost,
                              float(np.linalg.norm(rec.final_state)),
                              "stationary")

    rng = np.random.default_rng(seed)
    pts = system.control.points
    n = system.n_state
    x0s, picks = np.empty((budget, n)), np.empty((budget, segments), int)
    for i in range(budget):  # draws interleaved as one schedule at a time
        x0s[i] = rng.uniform(region.lo, region.hi)
        picks[i] = rng.integers(0, pts.shape[0], size=segments)
    z, live = np.hstack([x0s, np.zeros((budget, 3))]), np.ones(budget, bool)
    for j in range(segments):  # a row that escapes retires
        z, live = advance(system, z, pts[picks[:, j]], horizon / segments,
                          dt, live)
    for i in np.flatnonzero(live & (z[:, n] < 1e-3)):
        final = float(np.linalg.norm(z[i, :n]))
        if final >= 1e-2:
            sched = ControlSchedule([(horizon / segments, pts[p])
                                     for p in picks[i]])
            return Counterexample(x0s[i], sched, float(z[i, n]), final,
                                  "searched")
    return None


def defect_allowances(eps, m):
    """Per-step defect allowances eps*(e^{-(j-1)} - e^{-j}), j = 1..m.

    They sum to eps*(1 - e^{-m}) < eps, so a schedule passing every step
    is eps-optimal relative to the field end to end.
    """
    if not eps > 0.0:
        raise ConfigError("eps must be positive")
    if m < 1:
        raise ConfigError("m must be at least 1")
    return [eps * (math.exp(-j) - math.exp(-(j + 1.0))) for j in range(m)]


def synthesize_epsilon_optimal(system, field, x0, eps, m, *,
                               switch_dt=0.25, int_dt=0.01):
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
    n_sub = int(round(1.0 / switch_dt))
    if abs(n_sub * switch_dt - 1.0) > 1e-9 or n_sub < 1:
        raise ConfigError("switch_dt must divide the unit interval")
    allowances = defect_allowances(eps, m)

    pts = system.control.points
    k = pts.shape[0]
    n = system.n_state
    maximizing = field.transform == "kruzhkov" or system.mode == "maximize"

    def continuation(z):
        w = interpolate(field, z[:, :n])
        if field.transform == "kruzhkov":
            disc = np.exp(-z[:, n + 1])  # accumulated g-integral
            return (1.0 - disc) + disc * w
        return z[:, n] + np.exp(-z[:, n + 2]) * w

    x_cur = x0
    segs = []
    defects = []
    total_q = 0.0  # integral of g along the whole schedule
    total_j = 0.0  # discounted cost, compounded across intervals
    total_p = 0.0  # integral of h
    w0 = interpolate(field, x0)
    for i in range(m):
        w_start = interpolate(field, x_cur)
        z = np.concatenate([x_cur, np.zeros(3)])[None]
        for _ in range(n_sub):
            cand, live = advance(system, np.repeat(z, k, axis=0), pts,
                                 switch_dt, int_dt)
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
        total_j += math.exp(-total_p) * float(z[0, n])
        total_q += float(z[0, n + 1])
        total_p += float(z[0, n + 2])
        x_cur = z[0, :n].copy()

    w_end = interpolate(field, x_cur)
    if field.transform == "kruzhkov":
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
