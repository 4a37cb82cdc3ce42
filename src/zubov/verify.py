"""Post-hoc checks on solved fields.

A field that iterated to numerical convergence can still be wrong — wrong
dynamics, wrong cost, a solver bug.  The checks here test the behaviour
that the unique bounded solution must actually exhibit, each through a
route the solver itself never uses: PDE residuals by central differences
where the field is smooth (told from f, g and the field, never a system's
name), one-shot DPP consistency against RK4 trajectories, monotone decrease
along random integrated schedules, one-sided comparison against constructed
sub/super candidates, growth toward the domain boundary, and slope probes.
The fixed-point re-check is the one exception: it applies the solver's own
Bellman operator once, one chunk of nodes at a time rather than as the
full operator, so it measures the distance to the discrete fixed point.

Every check returns a VerificationReport; failures carry replayable
witnesses (node indices, sample points and the exact schedule used), never
just a count.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .oracle import _DEFAULT_BUDGET, _INT_DT, _check_enumeration, _enumerate
from .solver import apply_zubov, interpolate, inverse_transform
from .systems import ConfigError, _positive, _whole, closed_form_value
from .trajectories import TrajectoryError, rollout

_KINK_CELLS = 2  # exclusion margin around level-set / clamp kinks
_TIE_SPREAD = 1e-9  # control tie margin: np.gradient of a flat field is ~1e-16
_EPS = 0.01  # the 1 - eps level set bounds the residual and decrease checks
_MEDIAN_TOL, _P95_TOL = 0.02, 0.05  # residual_stats' pass bounds
# decrease check: 4 random segments over 0.5, an absolute increase floor
_DECREASE_T, _DECREASE_SEGMENTS, _DECREASE_SLACK = 0.5, 4, 1e-4
_BLOWUP_CAP = 10.0  # -ln(1 - v) is clamped here as v approaches 1


@dataclass(frozen=True)
class VerificationReport:
    name: str
    passed: bool
    stats: dict
    witnesses: tuple = ()
    note: str = ""

    def __post_init__(self):
        if self.witnesses and self.passed:
            raise ValueError("a report holding failure witnesses cannot "
                             "have passed=True")


def _as_mask(mask, grid):
    arr = np.asarray(getattr(mask, "inside", mask), dtype=bool)
    if arr.shape != tuple(grid.counts):
        raise ConfigError("mask shaped %s but grid wants %s"
                          % (arr.shape, tuple(grid.counts)))
    return arr


def _check_kruzhkov(system, field, what):
    if field.transform != "kruzhkov":
        raise ConfigError("%s wants a kruzhkov field" % what)
    if field.grid.n_axes != system.n_state:
        raise ConfigError("field dimension %d, system wants %d"
                          % (field.grid.n_axes, system.n_state))


def check_fixed_point(system, field, dt=0.05, tol=1e-6):
    """Apply the field's own Bellman operator once; fail where |T v - v|
    exceeds 10 tol.  An edited or swapped node sticks out by about the size
    of the edit, which residual statistics and sampled trajectories miss.
    T v is computed one chunk of nodes at a time (`solver.apply_zubov`),
    bit for bit the full operator's, which is never built.
    dt and tol come from the field's run record (load_field reads it from
    the CSV header); the arguments stand in for what it does not record.
    Each argument and each recorded value must be positive and finite, as
    a solve's are, even where the record overrides it: ConfigError.
    A record of Euler feet or of an exterior value other than 1 (a
    transformed raw field keeps its 0) is refused: ConfigError naming it.
    """
    _check_kruzhkov(system, field, "fixed-point check")
    meta, grid = field.metadata, field.grid
    if not meta.get("rk4_feet", True):
        raise ConfigError("the field's record holds rk4_feet=0: Euler feet, "
                          "which the solver no longer builds")
    if meta.get("exterior_value", 1) != 1:
        raise ConfigError("the field's record holds exterior_value=%r, but "
                          "the Kružkov operator reads 1 outside the box (a "
                          "transformed raw field keeps its exterior)"
                          % meta["exterior_value"])
    dt, tol = _positive(dt, "dt"), _positive(tol, "tol")
    dt = _positive(meta.get("dt", dt), "dt")
    threshold = 10.0 * _positive(meta.get("tol", tol), "tol")
    u = 1.0 - field.values.reshape(-1)  # the operator acts on 1 - v
    moved = apply_zubov(system, grid, dt, u)
    moved[np.ravel_multi_index(grid.origin_index, grid.counts)] = 1.0
    defect = np.abs(moved - u)
    worst = int(np.argmax(defect))
    stats = {"max_defect": float(defect[worst]), "threshold": threshold,
             "dt": dt}
    passed = defect[worst] <= threshold
    witnesses = ()
    if not passed:
        node = np.unravel_index(worst, grid.counts)
        witnesses = ({"node": tuple(int(i) for i in node),
                      "x": grid.node_coords()[node],
                      "value": float(field.values[node]),
                      "defect": float(defect[worst])},)
    return VerificationReport("fixed_point", bool(passed), stats, witnesses)


def _inf_residual(system, field):
    """inf over controls of  -Dv.f - g (1 - v)  at every node, with the
    index of the control that attains it and the spread up to the worst one.

    Dv comes from np.gradient (central differences inside, one-sided on the
    faces — callers mask the faces off).  Zero for the exact solution at
    smooth points; v identically 1 annihilates it everywhere.
    """
    grid = field.grid
    v = field.values
    grads = np.gradient(v, *grid.axes, edge_order=2)
    if grid.n_axes == 1:
        grads = [grads]
    flat_grads = [gr.reshape(-1) for gr in grads]
    nodes = grid.node_coords().reshape(-1, grid.n_axes)
    one_minus_v = 1.0 - v.reshape(-1)
    best, choice = np.full(len(nodes), np.inf), np.zeros(len(nodes), int)
    worst = -best
    for j, a in enumerate(system.control.points):
        fg = system.fg(nodes, a)
        fv, gv = fg[:, :-1], fg[:, -1]
        drift = sum(flat_grads[k] * fv[:, k] for k in range(grid.n_axes))
        cand = -drift - gv * one_minus_v
        choice[cand < best] = j
        np.minimum(best, cand, out=best)
        np.maximum(worst, cand, out=worst)
    return tuple(r.reshape(grid.counts) for r in (best, choice, worst - best))


def _level_band(values, level, cells):
    """Nodes within `cells` of the {values < level} boundary contour."""
    from scipy import ndimage  # loaded on first use, not on import

    sub = values < level
    if sub.all() or not sub.any():
        return np.zeros(values.shape, dtype=bool)
    grown = ndimage.binary_dilation(sub, iterations=cells)
    shrunk = ndimage.binary_erosion(sub, iterations=cells)
    return grown & ~shrunk


def residual_stats(system, field, mask=None):
    """|PDE residual| statistics over the smooth part of the field.

    Passes when the median is at most _MEDIAN_TOL and the 95th percentile
    at most _P95_TOL.  Carved out: the grid faces, nodes within _KINK_CELLS
    of the 1 - _EPS level set, the mask's rim (eroded by _KINK_CELLS), and
    nodes within _KINK_CELLS of nodes whose minimizing controls differ.  A
    node's control counts only where the best and worst controls differ by
    > _TIE_SPREAD.
    """
    from scipy import ndimage

    _check_kruzhkov(system, field, "residual_stats")
    grid = field.grid
    residual, choice, spread = _inf_residual(system, field)
    keep = grid.interior()
    keep &= ~_level_band(field.values, 1.0 - _EPS, _KINK_CELLS)
    if mask is not None:
        keep &= ndimage.binary_erosion(_as_mask(mask, grid),
                                       iterations=_KINK_CELLS)
    # the value folds where the optimal control switches
    decided = spread > _TIE_SPREAD
    near = [ndimage.binary_dilation(decided & (choice == k),
                                    iterations=_KINK_CELLS)
            for k in np.unique(choice[decided])]
    keep &= np.sum(near, axis=0) < 2
    picked = np.abs(residual[keep])
    if picked.size == 0:
        return VerificationReport("residual_stats", False,
                                  {"count": 0}, (),
                                  note="no nodes survive the carve-outs")
    stats = {
        "count": int(picked.size),
        "max": float(picked.max()),
        "median": float(np.median(picked)),
        "p95": float(np.percentile(picked, 95.0)),
    }
    passed = stats["median"] <= _MEDIAN_TOL and stats["p95"] <= _P95_TOL
    witnesses = ()
    if not passed:
        flat = np.where(keep, np.abs(residual), -np.inf).reshape(-1)
        worst = np.argsort(flat)[-5:][::-1]
        witnesses = tuple(
            {"node": tuple(int(i) for i in
                           np.unravel_index(w, tuple(grid.counts))),
             "residual": float(residual.reshape(-1)[w])}
            for w in worst if np.isfinite(flat[w]))
    return VerificationReport("residual_stats", passed, stats, witnesses)


def dpp_defect(system, field, x, t, switch_dt):
    """v(x) minus the best enumerated one-shot continuation at horizon t.

    Positive and negative values of a few grid-cells' worth are
    discretization error; large positive ones mean the field claims more
    than any schedule achieves.
    """
    _check_kruzhkov(system, field, "dpp_defect")
    _positive(t, "t")
    # the preamble refuses a switch_dt that is not positive and finite
    steps = t / switch_dt if switch_dt > 0.0 else 1.0
    if not math.isfinite(steps):  # round() would raise OverflowError
        raise ConfigError("t / switch_dt overflows: t=%r, switch_dt=%r"
                          % (t, switch_dt))
    depth = max(1, round(steps))
    x, depth = _check_enumeration("dpp_defect", system, "maximize", x,
                                  switch_dt, depth)
    if abs(depth * switch_dt - t) > 1e-9:
        raise ConfigError("t must be a positive multiple of switch_dt")
    if np.any(x < field.grid.lo) or np.any(x > field.grid.hi):
        raise ConfigError("x must be a grid-interior point")
    z, _, _ = _enumerate(system, x, switch_dt, depth, None, _DEFAULT_BUDGET)
    disc = np.exp(-z[:, system.n_state])
    cont = (1.0 - disc) + disc * interpolate(field, z[:, :system.n_state])
    return float(interpolate(field, x) - np.max(cont))


def _draw_sublevel(field, samples, rng):
    """``samples`` uniform points of the box, each farther than the
    carve-out (10 cells) from the origin and below the 1 - _EPS level set,
    and how many points were drawn for them.

    They are the points, and rng ends in the state, of drawing one point
    at a time and keeping those that pass, with at most 1000 draws per
    sample (else ConfigError).  The draws come in batches, each one
    ``rng.uniform`` call and one `interpolate` call: a batch is as large
    as all the draws before it, and at least the count still missing.
    When a batch holds the last sample, rng goes back to its state before
    the batch and draws again only up to that point.
    """
    grid = field.grid
    carve = 10.0 * float(np.max(grid.dx))
    kept, found, draws, limit = [], 0, 0, 1000 * samples
    while found < samples:
        if draws == limit:
            raise ConfigError("cannot draw enough samples from the "
                              "sublevel region")
        size = min(limit - draws, max(samples - found, draws))
        state = rng.bit_generator.state
        pts = rng.uniform(grid.lo, grid.hi, size=(size, grid.n_axes))
        # a 1-D norm per row, as for a point drawn alone
        far = np.array([np.linalg.norm(x) for x in pts]) > carve
        hit = np.flatnonzero(far & (interpolate(field, pts) < 1.0 - _EPS))
        hit = hit[:samples - found]
        found += len(hit)
        if found == samples:
            size = int(hit[-1]) + 1
            rng.bit_generator.state = state
            rng.uniform(grid.lo, grid.hi, size=(size, grid.n_axes))
        kept.append(pts[hit])
        draws += size
    return np.concatenate(kept), draws


def check_lyapunov_decrease(system, field, samples=200, seed=0):
    """Random points, random schedules: the field must not increase.

    Each sample starts below the 1 - _EPS level set, away from the origin,
    and runs _DECREASE_SEGMENTS random segments over _DECREASE_T.  The
    starts are drawn uniformly from the box in batches (`_draw_sublevel`),
    which keep the points and RNG state of drawing one point at a time;
    the stats record the ``draws`` it took.  The allowed increase is twice
    the local interpolation error estimate (cell diameter times the
    finite-difference gradient) plus an absolute floor, _DECREASE_SLACK: on
    stretches where the exact value is constant the gradient estimate
    vanishes, yet the discrete field still wobbles a few 1e-6 along
    trajectories because solver feet and the RK4 replay sample it at
    different points.  Strict decrease is demanded only when the
    accumulated running cost clearly exceeds the combined floor —
    zero-cost trajectories (they exist; that is the point of the
    quasi-stability examples) legitimately hold the value flat.
    """
    _check_kruzhkov(system, field, "decrease check")
    samples = _whole(samples, "samples", 1)
    grid = field.grid
    rng = np.random.default_rng(_whole(seed, "seed", 0))
    cell = float(np.linalg.norm(grid.dx))
    x0, draws = _draw_sublevel(field, samples, rng)

    n = grid.n_axes
    picks = np.array([rng.integers(0, system.control.size,
                                   size=_DECREASE_SEGMENTS) for _ in x0])
    z, live, schedule = rollout(system, x0, picks, _DECREASE_T, _INT_DT)
    if not live.all():
        raise TrajectoryError("a sampled schedule reached a non-finite state")
    v0, v1 = interpolate(field, x0), interpolate(field, z[:, :n])
    cost = z[:, n]
    grad = np.stack([interpolate(field, x0 + step)
                     - interpolate(field, x0 - step)
                     for step in np.diag(grid.dx)], axis=1) / (2.0 * grid.dx)
    # a 1-D norm per row: norm(grad, axis=1) rounds differently
    tol = _DECREASE_SLACK + 2.0 * cell * np.array([np.linalg.norm(g)
                                                   for g in grad])
    bad = (v1 >= v0 + tol) | ((cost > 4.0 * tol) & (v1 >= v0))
    witnesses = [{"x": x0[i], "schedule": schedule(i),
                  "v_before": float(v0[i]), "v_after": float(v1[i]),
                  "cost": float(cost[i]), "tol": float(tol[i])}
                 for i in np.flatnonzero(bad)]
    dec = v0 - v1
    stats = {"samples": len(x0), "draws": draws,
             "min_decrease": float(dec.min()),
             "median_decrease": float(np.median(dec)),
             "violations": len(witnesses)}
    return VerificationReport("lyapunov_decrease", not witnesses, stats,
                              tuple(witnesses))


def sandwich_check(system, reference, candidate, role, tol):
    """One-sided comparison of a candidate against a reference field.

    role='sub': candidate must sit below reference (+tol) at interior
    nodes and must hold the boundary at exactly 1; role='sup' mirrors it.
    A second, differential probe compares the two fields' PDE residuals
    away from the faces and away from saturated (0/1-clamped) nodes: a
    genuine one-sided perturbation shifts the residual one way only.
    Identical fields pass both probes with tol=0 because every difference
    is computed, not bounded.
    """
    if role not in ("sub", "sup"):
        raise ConfigError("role must be 'sub' or 'sup'")
    if not reference.grid.same_layout(candidate.grid):
        raise ConfigError("reference and candidate grids differ")
    if reference.transform != "kruzhkov" or candidate.transform != "kruzhkov":
        raise ConfigError("sandwich_check wants kruzhkov fields")
    grid = reference.grid
    inner = grid.interior()
    edge = candidate.values[~inner]
    if role == "sub":
        if np.max(np.abs(edge - 1.0)) > 1e-9:
            raise ConfigError("sub candidate must equal 1 on the boundary")
    elif np.min(edge) < 1.0 - 1e-9:
        raise ConfigError("sup candidate must be >= 1 on the boundary")

    from scipy import ndimage

    diff = candidate.values - reference.values
    value_bad = (diff > tol) if role == "sub" else (diff < -tol)
    value_bad &= inner

    saturated = np.isin(candidate.values, (0.0, 1.0)) \
        | np.isin(reference.values, (0.0, 1.0))
    zone = grid.interior(2) & ~ndimage.binary_dilation(
        saturated, iterations=_KINK_CELLS)
    delta_res = (_inf_residual(system, candidate)[0]
                 - _inf_residual(system, reference)[0])
    res_bad = (delta_res > tol) if role == "sub" else (delta_res < -tol)
    res_bad &= zone

    stats = {
        "max_diff": float(diff[inner].max()),
        "min_diff": float(diff[inner].min()),
        "value_violations": int(value_bad.sum()),
        "residual_violations": int(res_bad.sum()),
    }
    witnesses = []
    for bad, kind, val in ((value_bad, "value", diff),
                           (res_bad, "residual", delta_res)):
        idx = np.argwhere(bad)
        for node in idx[:3]:
            witnesses.append({"kind": kind,
                              "node": tuple(int(i) for i in node),
                              "delta": float(val[tuple(node)])})
    passed = not witnesses
    return VerificationReport("sandwich_%s" % role, passed, stats,
                              tuple(witnesses))


def check_boundary_blowup(system, field, mask):
    """March rays from the origin: -ln(1-v) must climb toward the rim.

    Skipped (with a note) when the mask leaks onto the grid faces — then
    the box shows no domain boundary to blow up at.
    """
    _check_kruzhkov(system, field, "blow-up check")
    w = inverse_transform(field, _BLOWUP_CAP).values
    grid = field.grid
    inside = _as_mask(mask, grid)
    if not inside[grid.origin_index]:
        raise ConfigError("mask must contain the origin")
    if np.any(inside & ~grid.interior()):
        note = ("mask touches the grid box; the box does not contain the "
                "domain boundary, check skipped")
        warnings.warn(note)
        return VerificationReport("boundary_blowup", True, {"rays": 0}, (),
                                  note=note)
    counts = tuple(grid.counts)
    origin = grid.origin_index
    ratios = []
    witnesses = []
    rays = 0
    for step in itertools.product((-1, 0, 1), repeat=grid.n_axes):
        if not any(step):
            continue
        idx = np.array(origin)
        profile = []
        while np.all(idx >= 0) and np.all(idx < counts) \
                and inside[tuple(idx)]:
            profile.append(float(w[tuple(idx)]))
            idx = idx + step
        if len(profile) < 4:
            continue
        rays += 1
        last3 = profile[-3:]
        monotone = (last3[0] <= last3[1] + 1e-12
                    and last3[1] <= last3[2] + 1e-12)
        quart = profile[len(profile) // 4]
        ratio = math.inf if quart <= 0.0 else profile[-1] / quart
        ratios.append(ratio)
        if not monotone or ratio < 2.0:
            witnesses.append({"direction": step, "last3": last3,
                              "quartile": quart, "ratio": ratio})
    if rays == 0:
        return VerificationReport("boundary_blowup", False,
                                  {"rays": 0}, (),
                                  note="every ray is too short to judge")
    stats = {"rays": rays, "min_ratio": float(min(ratios)),
             "failing": len(witnesses)}
    return VerificationReport("boundary_blowup", not witnesses, stats,
                              tuple(witnesses))


def lipschitz_probe(evaluator, points, delta=1e-6, kruzhkov_scale=1.0):
    """Symmetric difference quotients of 1 - exp(-scale * W) at points.

    `evaluator` is a closed-form name or a ValueField.  Steep cost spikes
    show up as large quotients; a constant field gives exactly 0.
    """
    _positive(delta, "delta")
    _positive(kruzhkov_scale, "kruzhkov_scale")

    if isinstance(evaluator, str):
        def w_of(x):
            return float(closed_form_value(
                evaluator, float(x[0]) if x.size == 1 else x))
    else:
        def w_of(x):
            v = interpolate(evaluator, x)
            if evaluator.transform == "kruzhkov":
                return -math.log(max(1.0 - v, math.exp(-50.0)))
            return v

    def probe(x):
        return 1.0 - math.exp(-kruzhkov_scale * w_of(x))

    out = []
    for point in points:
        x = np.asarray(point, dtype=float).reshape(-1)
        sq = 0.0
        for k in range(x.size):
            step = np.zeros(x.size)
            step[k] = delta
            sq += ((probe(x + step) - probe(x - step)) / (2.0 * delta)) ** 2
        out.append(math.sqrt(sq))
    return out
