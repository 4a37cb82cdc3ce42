"""Brute-force oracle: brackets, falsifier, greedy synthesis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zubov import oracle
from zubov import (ConfigError, ControlSpace, Grid, Growth, SystemDef, Ules,
                   ValidationError, builtin, closed_form_value, load_system)
from zubov.oracle import (BudgetError, Counterexample, SynthesisError,
                          ValueBounds, _enumerate, _tail_bound,
                          defect_allowances,
                          falsify_quasistability, kruzhkov_value,
                          maximal_cost, min_value,
                          synthesize_epsilon_optimal)
from zubov.solver import SolverSettings, interpolate, solve_hjbe, solve_zubov
from zubov.trajectories import ControlSchedule, advance, integrate, rk4_step


def decay_rates(x, a, out):
    """x' = -x with cost x^2."""
    out[..., 0] = -x[..., 0]
    out[..., 1] = x[..., 0] ** 2


def decay_1d(ules=Ules(1.0, 1.0, 1.0), growth=Growth(1.0, 2.0)):
    """x' = -x with quadratic cost; value is x0^2 / 2."""
    return SystemDef("decay", 1, ControlSpace.none(), decay_rates,
                     mode="maximize", ules=ules, growth=growth)


def case_b_1d(c=1.0):
    rate = "abs(x1)/(1 + x1^2)"
    return load_system({
        "name": "cb", "n": 1, "control": None, "f": ["-x1"],
        "g": rate, "ell": rate, "h": rate,
        "mode": "minimize", "guard": "case_b",
        "ules": {"C": c, "sigma": 1.0, "r": 1.0},
        "growth": {"C_tilde": 1.0, "lambda": 1.0}})


# --- reference enumeration ---------------------------------------------------
# The strided loop _enumerate ran before trajectories.advance batched it: the
# batch is cut into one slice per control, and each slice is stepped with
# rk4_step on its own.  It shares only rk4_step with advance.

def reference_enumerate(system, x, switch_dt, depth, rho, int_dt):
    pts = system.control.points
    k = pts.shape[0]
    n = system.n_state
    steps = max(1, int(math.ceil(switch_dt / int_dt - 1e-9)))
    h = switch_dt / steps
    z = np.concatenate([x.reshape(1, n), np.zeros((1, 3))], axis=1)
    entered = np.array([np.linalg.norm(x) <= rho])
    for _ in range(depth):
        z = np.repeat(z, k, axis=0)
        entered = np.repeat(entered, k)
        for c in range(k):
            zc = z[c::k]
            hit = entered[c::k]
            for _ in range(steps):
                zc = rk4_step(system, zc, pts[c], h)
                hit |= np.linalg.norm(zc[:, :n], axis=1) <= rho
            z[c::k] = zc
            entered[c::k] = hit
    return z, entered


def stay_or_decay(mode):
    """x' = -a x for a in {0, 1}: a = 1 decays into every ball, a = 0 stays.

    The best schedule decays throughout and enters B_rho, while the
    all-stay row never does: maximizing, only decaying accrues cost
    (10 a x^2); minimizing, staying costs ten times more ((10 - 9a) x^2).
    """
    def cost(x, a):
        x2 = np.asarray(x, dtype=float)[..., 0] ** 2
        return (10.0 * a[..., 0] if mode == "maximize"
                else 10.0 - 9.0 * a[..., 0]) * x2

    def rates(x, a, out):
        out[..., 0] = -a[..., 0] * x[..., 0]
        out[..., 1] = cost(x, a)

    return SystemDef("stay-or-decay", 1,
                     ControlSpace([[0.0], [1.0]]), rates,
                     ell=cost if mode == "minimize" else None, mode=mode,
                     guard="nonneg_ell" if mode == "minimize" else None,
                     ules=Ules(1.0, 1.0, 1.0), growth=Growth(10.0, 2.0))


LIFT2D_JSON = {
    "name": "lift2d-json", "n": 2,
    "f": ["-x1 + a1*x1^2", "-x2 + a1*x2^2"], "g": "x1^2 + x2^2",
    "control": {"box": {"lo": [-1.0], "hi": [1.0], "counts": [3]}}}


@pytest.mark.parametrize("system, x, switch_dt, rho", [
    (builtin("lift2d", controls=3), [0.5, 0.5], 0.25, 0.15),
    (load_system(LIFT2D_JSON), [-0.3, 0.55], 0.25, 0.15),
    (builtin("ex1", controls=3), [0.9], 0.25, 0.2),
], ids=["lift2d", "lift2d-json", "ex1"])
def test_enumeration_matches_the_strided_reference(system, x, switch_dt, rho):
    x = np.array(x)
    z, entered, _ = _enumerate(system, x, switch_dt, 6, rho, 10**6, wide=True)
    z_ref, entered_ref = reference_enumerate(system, x, switch_dt, 6, rho,
                                             0.01)
    assert np.array_equal(z, z_ref)
    assert np.array_equal(entered, entered_ref)
    assert entered.any() and not entered.all()


LIFT2D_JSON_ENVELOPE = dict(LIFT2D_JSON,
                            ules={"C": 1.0, "sigma": 0.5, "r": 0.5},
                            growth={"C_tilde": 1.0, "lambda": 2.0})

# criterion 3's ten lift2d points, bracketed by the oracle-search bench
LIFT2D_POINTS = [[0.5, 0.5], [-0.5, -0.5], [0.5, -0.5], [-0.3, 0.55],
                 [0.55, 0.0], [0.0, -0.55], [0.25, 0.25], [-0.4, 0.1],
                 [0.1, 0.4], [-0.55, -0.25]]


@pytest.mark.parametrize("system, points, switch_dt, rho", [
    (builtin("lift2d", controls=3), [[0.5, 0.5], [-0.55, -0.25]], 0.25, 0.05),
    (load_system(LIFT2D_JSON_ENVELOPE), [[0.5, 0.5], [-0.3, 0.55]], 0.25,
     0.05),
    (builtin("ex1", controls=3), [[-0.75], [0.25]], 0.5, 0.06),
], ids=["lift2d", "lift2d-json", "ex1"])
def test_brackets_equal_the_wide_enumeration(system, points, switch_dt, rho):
    # the brackets enumerate (x, int g) only and prune; the full unpruned
    # (x, int g, J, int h) enumeration, read with the per-row rule (cost
    # plus the envelope tail from the final state), gives the same numbers
    n = system.n_state
    for x in map(np.array, points):
        z, _, _ = _enumerate(system, x, switch_dt, 8, rho, 10**6, wide=True)
        lower = float(np.max(z[:, n]))  # int g, column n at either width
        reach = z[:, n] + _tail_bound(system,
                                      np.linalg.norm(z[:, :n], axis=1))
        vb = maximal_cost(system, x, switch_dt, 8, rho)
        assert vb.lower == lower
        assert vb.truncated == (not np.isfinite(reach).all())
        assert vb.upper == float(np.max(reach))
        kv = kruzhkov_value(system, x, switch_dt, 8, rho)
        assert (kv.lower, kv.upper, kv.truncated) == (
            1.0 - math.exp(-lower), 1.0 - math.exp(-vb.upper), vb.truncated)


def test_builtin_and_json_lift2d_brackets_agree_bit_for_bit():
    # lift2d's taper is 1 on [-1.5, 1.5]^2, where both systems run the
    # same operations on the same columns
    builtin_lift, inline = (builtin("lift2d", controls=3),
                            load_system(LIFT2D_JSON_ENVELOPE))
    for x in map(np.array, LIFT2D_POINTS):
        want, got = (kruzhkov_value(system, x, 0.25, 8, 0.05)
                     for system in (builtin_lift, inline))
        assert (got.lower.hex(), got.upper.hex(), got.tail_bound.hex(),
                got.segments, got.truncated) == (
            want.lower.hex(), want.upper.hex(), want.tail_bound.hex(),
            want.segments, want.truncated)


@pytest.mark.parametrize("system, points, switch_dt, rho", [
    (builtin("lift2d", controls=3), LIFT2D_POINTS, 0.25, 0.05),
    (load_system(LIFT2D_JSON_ENVELOPE), LIFT2D_POINTS, 0.25, 0.05),
    (builtin("ex1", controls=3), [[-0.75], [-0.5], [-0.25], [0.25], [0.5],
                                  [0.75]], 0.5, 0.06),
    (stay_or_decay("maximize"), [[0.5], [-0.3]], 0.5, 0.05),
], ids=["lift2d", "lift2d-json", "ex1", "stay-or-decay"])
def test_pruning_never_changes_lower(system, points, switch_dt, rho):
    for x in map(np.array, points):
        z, _, _ = _enumerate(system, x, switch_dt, 8, None, 10**6)
        vb = maximal_cost(system, x, switch_dt, 8, rho)
        assert vb.lower == float(np.max(z[:, system.n_state]))


def test_pruning_cuts_segment_integrations():
    # unpruned, 3 controls to depth 8 run 3 + 9 + ... + 3^8 = 9840 segments
    vb = maximal_cost(builtin("lift2d", controls=3), [0.5, 0.5], 0.25, 8)
    assert 0 < vb.segments < 9840
    assert not vb.truncated


@pytest.mark.parametrize("bracket,expected", [
    # pruned: the rows each segment integrates, summed
    (lambda: maximal_cost(builtin("lift2d", controls=3), [0.5, 0.5], 0.25,
                          8), 711),
    # unpruned: 3 + 9 + ... + 3^6
    (lambda: min_value(builtin("fuller"), [0.0, 0.5], switch_dt=0.2,
                       depth=6), 1092),
], ids=["lift2d-pruned", "fuller-min"])
def test_segments_count_the_rows_advanced(monkeypatch, bracket, expected):
    rows = []

    def counting(system, z, *args, **kwargs):
        rows.append(len(z))
        return advance(system, z, *args, **kwargs)

    monkeypatch.setattr(oracle, "advance", counting)
    assert bracket().segments == sum(rows) == expected


class TestValueBoundsType:
    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            ValueBounds(1.0, 0.5, 2.0, 8, 0.0, True)

    def test_negative_tail_rejected(self):
        with pytest.raises(ValueError, match="tail"):
            ValueBounds(0.0, 0.0, 2.0, 8, -0.1, True)

    def test_untruncated_needs_consistent_tail(self):
        with pytest.raises(ValueError, match="upper = lower"):
            ValueBounds(0.1, 0.3, 2.0, 8, 0.1, False)
        ValueBounds(0.1, 0.3, 2.0, 8, 0.2, False)  # consistent: fine

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ValueBounds(0.0, math.inf, 2.0, 8, 0.0, True)


class TestCounterexampleType:
    def test_kind_vocabulary(self):
        from zubov.trajectories import ControlSchedule
        sched = ControlSchedule([(1.0, np.zeros(0))])
        with pytest.raises(ValueError, match="kind"):
            Counterexample([1.0], sched, 0.0, 1.0, "guessed")

    def test_final_norm_floor(self):
        from zubov.trajectories import ControlSchedule
        sched = ControlSchedule([(1.0, np.zeros(0))])
        with pytest.raises(ValueError, match="bounded away"):
            Counterexample([1.0], sched, 0.0, 1e-9, "searched")


class TestMaximalCost:
    def test_origin_is_free(self):
        vb = maximal_cost(builtin("lift2d", controls=3), [0.0, 0.0])
        assert vb.lower == vb.upper == 0.0
        assert vb.tail_bound == 0.0 and not vb.truncated
        assert vb.horizon == pytest.approx(2.0)

    def test_tail_formula(self):
        # c_tilde (C |x|)^lam / (lam sigma) inside C |x| <= r, +inf past it
        assert _tail_bound(decay_1d(), 0.1) == pytest.approx(0.005,
                                                             rel=1e-12)
        wide = decay_1d(ules=Ules(2.0, 1.0, 1.0))
        tails = _tail_bound(wide, np.array([0.1, 0.5, 0.6]))
        assert tails[:2] == pytest.approx([0.02, 0.5], rel=1e-12)
        assert tails[2] == math.inf

    def test_decay_value_bracketed(self):
        # V(x0) = int x0^2 e^{-2t} = x0^2/2; single schedule, long horizon
        vb = maximal_cost(decay_1d(), [0.5], switch_dt=1.0, depth=12,
                          rho=0.05)
        assert not vb.truncated
        assert vb.lower == pytest.approx(0.125, abs=1e-9)  # RK4 drift only
        assert 0.125 <= vb.upper
        assert vb.upper - vb.lower == pytest.approx(vb.tail_bound)

    def test_single_control_tracks_running_integral(self):
        # ex1 frozen at a = 0: int_0^T sin(pi x e^{-t}) dt climbs to
        # Si(pi/2) = 1.3707621682 as T grows
        b = builtin("ex1")
        single = SystemDef("ex1-a0", 1, ControlSpace([[0.0]]),
                           b.rates, mode="maximize",
                           ules=b.ules, growth=b.growth)
        vb = maximal_cost(single, [0.5], switch_dt=1.0, depth=8)
        assert not vb.truncated
        assert 1.36 <= vb.lower <= 1.3707621682

    def test_lift2d_brackets_closed_form(self):
        sys3 = builtin("lift2d", controls=3)
        for pt in ([0.5, 0.5], [0.5, -0.5], [-0.3, 0.55]):
            vb = maximal_cost(sys3, pt, 0.25, 8, 0.05)
            truth = closed_form_value("lift2d", pt)
            assert vb.lower - 0.03 <= truth <= vb.upper + 0.03
            assert vb.lower <= truth + 1e-6  # schedules never beat the sup

    def test_unentered_row_truncates(self):
        # the all-stay row sits at 0.5 and never enters B_{r/C} = B_0.4, so
        # the envelope caps nothing after its horizon
        system = stay_or_decay("maximize")
        system = SystemDef("stay-or-decay", 1, system.control, system.rates,
                           mode="maximize", ules=Ules(1.0, 1.0, 0.4),
                           growth=system.growth)
        z, _, _ = _enumerate(system, np.array([0.5]), 0.5, 6, None, 10 ** 6)
        assert np.linalg.norm(z[:, :1], axis=1).max() == 0.5
        vb = maximal_cost(system, [0.5], switch_dt=0.5, depth=6, rho=0.05)
        assert vb.lower == float(np.max(z[:, 1]))
        assert vb.truncated
        tail = float(_tail_bound(system, 0.05))
        assert (vb.tail_bound, vb.upper) == (tail, vb.lower + tail)
        # with only the decaying control every row ends inside: certified
        decay = SystemDef("decay", 1, ControlSpace([[1.0]]),
                          system.rates, mode="maximize",
                          ules=system.ules, growth=system.growth)
        assert not maximal_cost(decay, [0.5], 0.5, 6, 0.05).truncated

    def test_depth_monotonicity(self):
        sys3 = builtin("lift2d", controls=3)
        lowers = [maximal_cost(sys3, [0.5, 0.5], 0.25, d, 0.05).lower
                  for d in (2, 4, 6)]
        assert lowers[0] <= lowers[1] + 1e-12
        assert lowers[1] <= lowers[2] + 1e-12

    def test_budget_guard(self):
        with pytest.raises(BudgetError, match="budget"):
            maximal_cost(builtin("lift2d"), [0.5, 0.5], 0.25, 8)

    def test_budget_charges_the_full_enumeration(self):
        # 3 + 9 + ... + 3^8 = 9840 segment integrations, what min_value
        # reports as `segments`; pruning only runs fewer
        lift = builtin("lift2d", controls=3)
        vb = maximal_cost(lift, [0.5, 0.5], 0.25, 8, budget=9840)
        assert vb.segments <= 9840
        with pytest.raises(BudgetError, match="up to 9840 segment"):
            maximal_cost(lift, [0.5, 0.5], 0.25, 8, budget=9839)

    def test_budget_preflight_stops_once_past_the_budget(self):
        # summing 3 + 9 + ... + 3^depth at depth 10^12 would never finish;
        # the count stops at depth 9, the first past 9840, and a one-control
        # system's tree is its depth
        lift = builtin("lift2d", controls=3)
        with pytest.raises(BudgetError, match="up to 29523 segment "
                           "integrations by depth 9; budget is 9840"):
            maximal_cost(lift, [0.5, 0.5], 0.25, 10 ** 12, budget=9840)
        with pytest.raises(BudgetError, match="up to 1000000000000 segment "
                           "integrations; budget is 9840"):
            maximal_cost(decay_1d(), [0.5], 0.25, 10 ** 12, budget=9840)

    def test_mode_and_constants_required(self):
        with pytest.raises(ConfigError, match="maximize"):
            maximal_cost(builtin("fuller"), [0.1, 0.0])
        bare = SystemDef("bare", 1, ControlSpace.none(), decay_rates,
                         mode="maximize")
        with pytest.raises(ConfigError, match="ules and growth"):
            maximal_cost(bare, [0.5])

    def test_rho_must_fit_envelope_ball(self):
        with pytest.raises(ConfigError, match="envelope ball"):
            maximal_cost(decay_1d(), [0.5], rho=2.0)
        # C = 2: rho = 0.6 lies inside B_r (r = 1) but C rho = 1.2 does not
        with pytest.raises(ConfigError, match="envelope ball"):
            maximal_cost(decay_1d(ules=Ules(2.0, 1.0, 1.0)), [0.5], rho=0.6)
        assert not maximal_cost(decay_1d(), [0.5], rho=0.6).truncated

    def test_shape_and_parameter_validation(self):
        # min_value runs the same preamble as maximal_cost
        for bracket, system, x in ((maximal_cost, decay_1d(), [0.5]),
                                   (min_value, builtin("fuller"), [0.5, 0.0])):
            with pytest.raises(ConfigError, match="dimension"):
                bracket(system, x + [0.5])
            for depth in (0, 2.5, True):
                with pytest.raises(ConfigError, match="depth"):
                    bracket(system, x, depth=depth)
            for switch_dt in (0.0, math.inf, math.nan):
                with pytest.raises(ConfigError, match="switch_dt"):
                    bracket(system, x, switch_dt=switch_dt)


class TestKruzhkovValue:
    def test_transform_matches_bound_for_bound(self):
        sys3 = builtin("lift2d", controls=3)
        vb = maximal_cost(sys3, [0.5, 0.5], 0.25, 6, 0.05)
        kv = kruzhkov_value(sys3, [0.5, 0.5], 0.25, 6, 0.05)
        assert kv.lower == pytest.approx(1 - math.exp(-vb.lower), abs=1e-12)
        assert kv.upper == pytest.approx(1 - math.exp(-vb.upper), abs=1e-12)
        assert kv.truncated == vb.truncated

    def test_origin(self):
        kv = kruzhkov_value(builtin("lift2d", controls=3), [0.0, 0.0])
        assert kv.lower == kv.upper == 0.0

    def test_lift2d_point_value(self):
        kv = kruzhkov_value(builtin("lift2d", controls=3), [0.5, 0.5],
                            0.25, 8, 0.05)
        assert kv.lower - 0.02 <= 0.3204295428852386 <= kv.upper + 0.02


# acceptance criterion 3's ten points, bracketed deeper than there: the full
# depth-12 tree of 3 controls is 797,160 segments, inside the default budget
GRADE_POINTS = [(0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.3, 0.55),
                (0.55, 0.0), (0.0, -0.55), (0.25, 0.25), (-0.4, 0.1),
                (0.1, 0.4), (-0.55, -0.25)]


@pytest.mark.parametrize("name", ["lift2d", "lift2d-psi-sqrt",
                                  "lift2d-psi-abs"])
def test_builtin_fields_are_graded_by_depth_12_brackets(name, lift2d_field):
    # the default 201^2 solve's W = -ln(1 - v) lies within 0.005 of every
    # certified bracket; lift2d, whose closed form criterion 3 grades, is
    # the control row (measured: 0.0024, 0.0023 and 0.0016 in W)
    field = lift2d_field if name == "lift2d" else solve_zubov(
        builtin(name), Grid([-1.2, -1.2], [1.2, 1.2], [201, 201]),
        SolverSettings(dt=0.05, tol=1e-6))
    system = builtin(name, controls=3)
    for point in GRADE_POINTS:
        x = np.array(point)
        vb = maximal_cost(system, x, switch_dt=0.25, depth=12)
        w = -math.log(1.0 - interpolate(field, x))
        assert not vb.truncated
        assert vb.lower - 0.005 <= w <= vb.upper + 0.005, (point, vb, w)


class TestMinValue:
    def test_origin(self):
        vb = min_value(builtin("fuller"), [0.0, 0.0])
        assert vb.lower == vb.upper == 0.0 and not vb.truncated

    def test_case_b_discounted_identity(self):
        # single control, so the enumerated cost IS the trajectory cost:
        # J(T) = 1 - exp(-[arctan(x0) - arctan(x0 e^{-T})])
        vb = min_value(case_b_1d(), [1.0], switch_dt=0.5, depth=8, rho=0.05)
        horizon_cost = 1 - math.exp(-(math.atan(1.0)
                                      - math.atan(math.exp(-4.0))))
        est = (vb.lower + vb.upper) / 2  # signed guard: symmetric bracket
        assert est == pytest.approx(horizon_cost, abs=1e-9)
        assert vb.lower <= 0.5440618722 <= vb.upper
        assert not vb.truncated

    def test_fuller_estimate_positive_and_symmetric(self):
        fu = builtin("fuller")
        plus = min_value(fu, [0.0, 0.5], switch_dt=0.2, depth=10)
        minus = min_value(fu, [0.0, -0.5], switch_dt=0.2, depth=10)
        assert plus.truncated  # no envelope declared: bare horizon cost
        assert 0.0 < plus.upper < math.inf
        # mirrored control menu => mirrored trajectories, identical costs
        assert plus.upper == pytest.approx(minus.upper, rel=1e-12)
        assert abs(plus.upper - minus.upper) <= 0.02 * plus.upper

    def test_nonneg_ell_bracket_adds_the_tail_above(self):
        # x' = -x with ell = x^2 costs x0^2 / 2 from x0.  ell >= 0, so J
        # only grows past the horizon, by at most the tail at rho: the
        # certified bracket is [J(T), J(T) + tail]
        system = SystemDef("decay-min", 1, ControlSpace.none(), decay_rates,
                           ell=lambda x, a: np.asarray(x)[..., 0] ** 2,
                           mode="minimize", guard="nonneg_ell",
                           ules=Ules(1.0, 1.0, 1.0), growth=Growth(1.0, 2.0))
        vb = min_value(system, [0.5], switch_dt=0.5, depth=8, rho=0.05)
        assert not vb.truncated and vb.horizon == 4.0
        assert vb.tail_bound == pytest.approx(0.05 ** 2 / 2.0, rel=1e-12)
        assert vb.upper - vb.lower == pytest.approx(vb.tail_bound, abs=1e-15)
        assert vb.lower == pytest.approx(0.125 * (1.0 - math.exp(-8.0)),
                                         abs=1e-9)
        assert vb.lower < 0.125 < vb.upper

    def test_unentered_row_truncates(self):
        system = stay_or_decay("minimize")
        z, entered, _ = _enumerate(system, np.array([0.5]), 0.5, 6, 0.05,
                                   10 ** 6, wide=True)
        best = int(np.argmin(z[:, 2]))  # J follows x and int g
        assert entered[best] and not entered.all()
        vb = min_value(system, [0.5], switch_dt=0.5, depth=6, rho=0.05)
        assert vb.lower == vb.upper == pytest.approx(float(z[best, 2]))
        assert vb.truncated and vb.tail_bound == 0.0

    def test_certifies_only_inside_the_ball_r_over_c(self):
        # every row enters B_0.6, but with C = 2 the envelope reaches only
        # B_0.5: the tail is not certified there
        kwargs = dict(switch_dt=0.5, depth=8, rho=0.6)
        assert not min_value(case_b_1d(), [1.0], **kwargs).truncated
        vb = min_value(case_b_1d(c=2.0), [1.0], **kwargs)
        assert vb.truncated and vb.lower == vb.upper

    @pytest.mark.parametrize("depth, lower, upper", [
        (8, -0.501082, -0.499832), (12, -0.501247, -0.499997)])
    def test_nonpos_ell_bracket_adds_the_tail_below(self, depth, lower,
                                                    upper):
        # ell = -x1^2 <= 0 on x' = -x1: J only falls past the horizon, by
        # at most the tail at rho, so the certified bracket is
        # [J(T) - tail, J(T)].  From x0 = 1 the exact J is -0.5
        system = load_system(dict(guarded_decay("-x1^2"),
                                  guard="nonpos_ell"))
        vb = min_value(system, [1.0], switch_dt=0.5, depth=depth, rho=0.05)
        assert not vb.truncated
        assert vb.tail_bound == pytest.approx(0.05 ** 2 / 2.0, rel=1e-12)
        assert vb.upper - vb.lower == pytest.approx(vb.tail_bound,
                                                    abs=1e-15)
        assert (vb.lower, vb.upper) == pytest.approx((lower, upper),
                                                     abs=1e-6)
        assert vb.lower < -0.5 < vb.upper

    def test_mode_check(self):
        with pytest.raises(ConfigError, match="minimize"):
            min_value(builtin("lift2d", controls=3), [0.5, 0.5])


# f = -x1 and g = x1^2 under one envelope, C = sigma = r = 1, C_tilde = 1,
# lambda = 2, which holds g.  From x0 = 1 the exact J is the integral of
# ell(e^{-t}) over t: 0.5 for ell = x1^2, 5.0 for 10 x1^2 and -0.5 for
# -x1^2.  Under nonneg_ell the last two were once certified at depth 8 as
# [4.998323, 4.999573] and [-0.499832, -0.498582], excluding their exact
# values; |ell| past the envelope and ell < 0 now refuse them at load.
GUARD_TABLE = [("x1^2", 0.5), ("10*x1^2", None), ("-x1^2", None)]


def guarded_decay(ell):
    return {"name": "guarded-decay", "n": 1, "f": ["-x1"], "g": "x1^2",
            "ell": ell, "mode": "minimize", "guard": "nonneg_ell",
            "ules": {"C": 1.0, "sigma": 1.0, "r": 1.0},
            "growth": {"C_tilde": 1.0, "lambda": 2.0}}


@pytest.mark.parametrize("ell, exact", GUARD_TABLE,
                         ids=["inside", "outside-envelope", "negative-ell"])
def test_guarded_brackets_hold_or_the_system_is_refused(ell, exact):
    if exact is None:
        with pytest.raises(ValidationError, match="ell"):
            load_system(guarded_decay(ell))
        return
    system = load_system(guarded_decay(ell))
    brackets = [min_value(system, [1.0], switch_dt=0.5, depth=depth,
                          rho=0.05) for depth in (8, 12)]
    for vb in brackets:
        assert not vb.truncated and vb.lower <= exact <= vb.upper
    assert (round(brackets[0].lower, 6),
            round(brackets[0].upper, 6)) == (0.499832, 0.501082)


class TestFalsifier:
    def test_ex1_stationary_point(self):
        ce = falsify_quasistability(builtin("ex1"), Grid([-2], [2], [401]),
                                    budget=16)
        assert ce is not None and ce.kind == "stationary"
        assert ce.x0[0] == pytest.approx(1.0, abs=1e-12)
        assert ce.schedule.segments[0][1][0] == pytest.approx(1.0)
        assert ce.total_cost < 1e-3 and ce.final_norm == pytest.approx(1.0)

    def test_witness_replays(self):
        ce = falsify_quasistability(builtin("ex1"), Grid([-2], [2], [401]),
                                    budget=16)
        rec = integrate(builtin("ex1"), ce.x0, ce.schedule, 0.05)
        assert rec.total_cost == pytest.approx(ce.total_cost, abs=1e-6)
        assert np.linalg.norm(rec.final_state) == pytest.approx(
            ce.final_norm, abs=1e-6)

    def test_lift2d_clean_inside_unit_box(self):
        region = Grid([-0.9, -0.9], [0.9, 0.9], [61, 61])
        assert falsify_quasistability(builtin("lift2d"), region,
                                      budget=64) is None

    def test_arctan_clean(self):
        assert falsify_quasistability(builtin("arctan1d"),
                                      Grid([-3], [3], [121]),
                                      budget=64) is None

    def test_searched_witness_off_grid(self):
        # flat dynamics, cost vanishing at +-pi: no node is stationary
        # (pi is irrational), so only the random phase can catch it
        flat = load_system({"name": "flat", "n": 1, "control": None,
                            "f": ["0.0"], "g": "(sin(x1))^2"})
        ce = falsify_quasistability(flat, Grid([-4], [4], [81]),
                                    budget=160, seed=8)
        assert ce is not None and ce.kind == "searched"
        assert abs(abs(ce.x0[0]) - math.pi) < 0.02
        rec = integrate(flat, ce.x0, ce.schedule, 0.05)
        assert rec.total_cost == pytest.approx(ce.total_cost, abs=1e-6)

    @pytest.mark.parametrize("ell", [None, "x1^2 + x2^2"])
    def test_cost_is_the_g_integral_whatever_ell_says(self, ell):
        # a rotation with g = 0 never approaches the origin at no cost: the
        # Kružkov solve never reads ell, so neither may the falsifier
        doc = {"n": 2, "f": ["x2", "-x1"], "g": "0"}
        if ell is not None:
            doc["ell"] = ell
        ce = falsify_quasistability(load_system(doc),
                                    Grid([-1, -1], [1, 1], [11, 11]),
                                    budget=4)
        assert ce is not None and ce.kind == "searched"
        assert ce.total_cost == 0.0 and ce.final_norm >= 1e-2

    def test_stationary_witness_never_evaluates_ell(self):
        # x = 1 is stationary at no cost; ell is undefined there, and the
        # falsifier, which reads only the g-integral, must not care
        doc = {"n": 1, "f": ["x1*(1 - x1^2)"], "g": "(x1*(1 - x1^2))^2"}
        ce = falsify_quasistability(load_system(dict(doc, ell="sqrt(-x1)")),
                                    Grid([-2], [2], [41]), budget=4)
        assert ce.kind == "stationary" and ce.x0.tolist() == [1.0]
        assert ce.total_cost == 0.0 and ce.final_norm == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_json_system_escape_is_skipped(self):
        # outside (-1,1)^2 a schedule can blow up; the compiled expressions
        # raise EvalDomainError before the state turns non-finite, and the
        # batch step retires the row without letting the overflow warn
        lift = load_system({
            "name": "lift2d-json", "n": 2,
            "f": ["-x1 + a1*x1^2", "-x2 + a1*x2^2"], "g": "x1^2 + x2^2",
            "control": {"box": {"lo": [-1.0], "hi": [1.0], "counts": [3]}}})
        region = Grid([-1.2, -1.2], [1.2, 1.2], [41, 41])
        assert falsify_quasistability(lift, region, budget=256) is None

    def test_region_dimension_check(self):
        with pytest.raises(ConfigError, match="dimension"):
            falsify_quasistability(builtin("ex1"),
                                   Grid([-1, -1], [1, 1], [11, 11]), 4)

    @pytest.mark.parametrize("budget", [2.5, True])
    def test_budget_must_be_a_whole_count(self, budget):
        # lift2d has no zero-cost rest point, so the stationary phase finds
        # nothing and the budget sizes the random phase
        region = Grid([-1.2, -1.2], [1.2, 1.2], [11, 11])
        with pytest.raises(ConfigError, match="budget"):
            falsify_quasistability(builtin("lift2d", controls=3), region,
                                   budget=budget)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_seed_must_be_a_whole_count(self, seed):
        region = Grid([-1.2, -1.2], [1.2, 1.2], [11, 11])
        with pytest.raises(ConfigError, match="seed"):
            falsify_quasistability(builtin("lift2d", controls=3), region,
                                   budget=4, seed=seed)


class TestDefectAllowances:
    def test_first_step_value(self):
        assert defect_allowances(0.1, 1)[0] == pytest.approx(0.0632121,
                                                             abs=1e-7)

    def test_three_step_sum(self):
        assert sum(defect_allowances(0.1, 3)) == pytest.approx(
            0.09502129316321362, rel=1e-12)

    def test_frozen_schedule(self):
        assert defect_allowances(0.05, 4) == pytest.approx(
            [0.03160602794142788, 0.011627207896741482,
             0.004277410743437438, 0.0015735714739564884], rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(eps=st.floats(1e-3, 10.0), m=st.integers(1, 20))
    def test_sum_is_strictly_under_eps(self, eps, m):
        total = sum(defect_allowances(eps, m))
        assert total == pytest.approx(eps * (1 - math.exp(-m)), rel=1e-9)
        assert total < eps


class TestSynthesis:
    def test_lift2d_meets_every_allowance(self, lift2d_system, lift2d_field):
        sched, rep = synthesize_epsilon_optimal(
            lift2d_system, lift2d_field, [0.5, 0.5], 0.05, 4)
        assert sched.total_duration == pytest.approx(4.0)
        assert len(rep["defects"]) == 4
        for defect, cap in zip(rep["defects"], rep["allowances"]):
            assert defect <= cap
        assert rep["residual"] >= -0.05

    def test_schedule_replays_to_reported_state(self, lift2d_system,
                                                lift2d_field):
        sched, rep = synthesize_epsilon_optimal(
            lift2d_system, lift2d_field, [0.5, 0.5], 0.05, 4)
        rec = integrate(lift2d_system, [0.5, 0.5], sched, 0.01)
        assert np.abs(rec.final_state - rep["final_state"]).max() < 1e-6

    def test_impossible_budget_reports_step(self, lift2d_system,
                                            lift2d_field):
        with pytest.raises(SynthesisError, match="step 1") as info:
            synthesize_epsilon_optimal(lift2d_system, lift2d_field,
                                       [0.5, 0.5], 1e-6, 4)
        assert info.value.step == 1
        assert info.value.defect > info.value.allowance

    def test_min_mode_raw_field(self):
        cb = case_b_1d()
        field = solve_hjbe(cb, Grid([-3], [3], [301]),
                           SolverSettings(dt=0.05, tol=1e-8))
        assert field.metadata["converged"]
        sched, rep = synthesize_epsilon_optimal(cb, field, [1.0], 0.2, 3,
                                                switch_dt=0.5)
        assert sched.total_duration == pytest.approx(3.0)
        assert rep["residual"] >= -0.2

    def test_raw_defects_replay_through_integrate(self):
        # ell != g and h != 0, so J, int g and int h all differ: each
        # interval's defect is J + exp(-int h) v(x_end) - v(x_start) along
        # that interval's schedule, integrated on its own
        system = load_system({
            "n": 1, "f": ["-x1*(1 + a1)"], "g": "abs(x1)", "ell": "x1^2",
            "h": "0.5 + abs(x1)", "mode": "minimize", "guard": "nonneg_ell",
            "control": {"points": [[0.0], [1.0]]}})
        field = solve_hjbe(system, Grid([-2.0], [2.0], [401]),
                           SolverSettings(dt=0.05, tol=1e-8))
        sched, rep = synthesize_epsilon_optimal(system, field, [1.0], 1.0, 2,
                                                switch_dt=0.5)
        x = np.array([1.0])
        for i, defect in enumerate(rep["defects"]):
            rec = integrate(system, x, ControlSchedule(
                sched.segments[2 * i:2 * i + 2]), 0.01)
            achieved = rec.total_cost + math.exp(
                -rec.running_h_integral[-1]) * interpolate(field,
                                                           rec.final_state)
            assert defect == pytest.approx(achieved - interpolate(field, x),
                                           abs=1e-12)
            x = rec.final_state
        assert np.array_equal(x, rep["final_state"])

    def test_unconverged_field_rejected(self, lift2d_system):
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [41, 41])
        with pytest.warns(UserWarning):
            stub = solve_zubov(lift2d_system, grid,
                               SolverSettings(dt=0.1, max_iters=2))
        with pytest.raises(ConfigError, match="converged"):
            synthesize_epsilon_optimal(lift2d_system, stub, [0.5, 0.5],
                                       0.1, 2)

    def test_start_point_must_be_on_grid(self, lift2d_system, lift2d_field):
        with pytest.raises(ConfigError, match="outside"):
            synthesize_epsilon_optimal(lift2d_system, lift2d_field,
                                       [5.0, 5.0], 0.1, 2)

    def test_switch_dt_must_tile_unit_interval(self, lift2d_system,
                                               lift2d_field):
        for switch_dt in (0.3, 0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ConfigError, match="unit interval"):
                synthesize_epsilon_optimal(lift2d_system, lift2d_field,
                                           [0.5, 0.5], 0.1, 2,
                                           switch_dt=switch_dt)

    def test_field_mode_mismatch(self, lift2d_field):
        with pytest.raises(ConfigError, match="worst-case"):
            synthesize_epsilon_optimal(builtin("fuller"), lift2d_field,
                                       [0.5, 0.5], 0.1, 2)
