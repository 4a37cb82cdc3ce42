import math

import numpy as np
import pytest
from scipy.integrate import simpson

from zubov.expressions import EvalDomainError
from zubov.oracle import maximal_cost
from zubov.systems import ConfigError, ControlSpace, SystemDef, builtin, load_system
from zubov.trajectories import (
    MAX_SUBSTEPS,
    ControlSchedule,
    RelaxedSchedule,
    TrajectoryError,
    TrajectoryRecord,
    _substeps,
    advance,
    chatter,
    integrate,
    rk4_step,
    start,
)

NO_CONTROL = np.zeros(0)


def constant_run(system, x0, a, T, dt):
    return integrate(system, x0, ControlSchedule([(T, a)]), dt)


# --- schedules ---------------------------------------------------------------

class TestSchedules:
    def test_durations_must_be_positive(self):
        with pytest.raises(ConfigError):
            ControlSchedule([(0.0, [1.0])])
        with pytest.raises(ConfigError):
            ControlSchedule([])

    def test_mixed_control_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            ControlSchedule([(1.0, [1.0]), (1.0, [1.0, 2.0])])

    def test_total_duration_sums_segments(self):
        sched = ControlSchedule([(1.0, [-1.0]), (0.5, [1.0])])
        assert sched.total_duration == pytest.approx(1.5)

    def test_relaxed_weights_validated(self):
        ctl = [[-1.0], [1.0]]
        with pytest.raises(ConfigError):
            RelaxedSchedule(ctl, [(1.0, [0.5, 0.6])])
        with pytest.raises(ConfigError):
            RelaxedSchedule(ctl, [(1.0, [-0.1, 1.1])])
        with pytest.raises(ConfigError):
            RelaxedSchedule(ctl, [(1.0, [1.0])])
        RelaxedSchedule(ctl, [(1.0, [0.5, 0.5])])  # fine


# --- integration basics ------------------------------------------------------

class TestIntegrate:
    def test_linear_decay_final_state(self):
        sys = builtin("arctan1d")
        rec = constant_run(sys, [1.0], NO_CONTROL, 1.0, 0.1)
        assert rec.final_state[0] == pytest.approx(math.exp(-1.0), abs=5e-7)
        assert rec.times.size == 11

    def test_origin_is_invariant(self):
        sys = builtin("lift2d")
        sched = ControlSchedule([(0.5, [-1.0]), (0.5, [1.0]), (1.0, [0.3])])
        rec = integrate(sys, [0.0, 0.0], sched, 0.05)
        assert np.all(rec.states == 0.0)
        assert np.all(rec.running_cost == 0.0)
        assert np.all(rec.running_g_integral == 0.0)

    def test_arctan_cost_converges_to_quarter_pi(self):
        sys = builtin("arctan1d")
        rec = constant_run(sys, [1.0], NO_CONTROL, 20.0, 0.01)
        assert rec.total_cost == pytest.approx(math.pi / 4.0, abs=1e-4)

    def test_rk4_order(self):
        sys = builtin("arctan1d")
        errs = []
        for dt in (0.1, 0.05):
            rec = constant_run(sys, [1.0], NO_CONTROL, 1.0, dt)
            errs.append(abs(rec.final_state[0] - math.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_segments_round_up_to_whole_substeps(self):
        sys = builtin("arctan1d")
        rec = constant_run(sys, [1.0], NO_CONTROL, 0.25, 0.1)
        # 0.25 / 0.1 rounds up to 3 sub-steps
        assert rec.times.size == 4
        assert rec.times[-1] == pytest.approx(0.25, rel=1e-12)

    def test_sample_monotonicity_invariants(self):
        sys = builtin("lift2d")
        sched = ControlSchedule([(1.0, [1.0]), (1.0, [-1.0])])
        rec = integrate(sys, [0.6, -0.4], sched, 0.05)
        assert np.all(np.diff(rec.times) > 0.0)
        assert np.all(np.diff(rec.running_g_integral) >= 0.0)

    def test_control_outside_box_rejected(self):
        sys = builtin("lift2d")
        with pytest.raises(ConfigError, match="control box"):
            constant_run(sys, [0.1, 0.1], [3.0], 1.0, 0.1)

    def test_dimension_mismatches_rejected(self):
        sys = builtin("lift2d")
        with pytest.raises(ConfigError):
            constant_run(sys, [0.1], [0.0], 1.0, 0.1)
        with pytest.raises(ConfigError):
            constant_run(sys, [0.1, 0.1], NO_CONTROL, 1.0, 0.1)
        with pytest.raises(ConfigError):
            constant_run(sys, [0.1, 0.1], [0.0], 1.0, -0.1)

    def test_cost_matches_simpson_quadrature(self):
        sys = builtin("lift2d")
        a = np.array([0.0])
        rec = constant_run(sys, [0.5, 0.5], a, 1.0, 0.01)
        gs = sys.g(rec.states, np.broadcast_to(a, (rec.states.shape[0], 1)))
        ref = simpson(gs, x=rec.times)
        assert rec.total_cost == pytest.approx(ref, abs=1e-6)

    def test_exponential_discount_weight_enters_cost(self):
        # with h = g the running cost is 1 - exp(-∫g), directly checkable
        doc = {
            "name": "case-b", "n": 1, "control": {"points": [[0.0]]},
            "f": ["-x1"], "g": "abs(x1)", "ell": "abs(x1)", "h": "abs(x1)",
        }
        sys = load_system(doc)
        rec = constant_run(sys, [1.0], [0.0], 12.0, 0.01)
        expect = 1.0 - math.exp(-rec.running_g_integral[-1])
        assert rec.total_cost == pytest.approx(expect, abs=1e-9)


# --- box exit and blow-up ----------------------------------------------------

class TestBoxAndBlowUp:
    def quadratic(self):
        def rates(x, a, out):
            with np.errstate(over="ignore"):
                out[..., 0] = out[..., 1] = x[..., 0] ** 2

        return SystemDef("quad", 1, ControlSpace.none(), rates)

    def test_blow_up_without_box_aborts(self):
        with pytest.raises(TrajectoryError, match="t="):
            constant_run(self.quadratic(), [5.0], NO_CONTROL, 1.0, 0.01)

    def test_blow_up_through_expression_guard(self):
        sys = load_system({"name": "q", "n": 1,
                           "control": {"points": [[0.0]]},
                           "f": ["x1^2"], "g": "x1^2"})
        with pytest.raises((TrajectoryError, EvalDomainError)):
            constant_run(sys, [5.0], [0.0], 1.0, 0.01)


# --- the sub-step bound -------------------------------------------------------

def test_substeps_stop_at_their_bound():
    assert _substeps(float(MAX_SUBSTEPS), 1.0) == MAX_SUBSTEPS
    for duration, dt in [(MAX_SUBSTEPS + 1.0, 1.0), (1e300, 1e-300)]:
        with pytest.raises(ConfigError, match="at most %d" % MAX_SUBSTEPS):
            _substeps(duration, dt)


def test_astronomic_segment_refused_before_it_steps():
    # 1e302 sub-steps once spun until the process was killed
    lift = builtin("lift2d", controls=3)
    with pytest.raises(ConfigError, match=r"1e\+300 at dt=0\.01 takes "
                       r"1e\+302 RK4 sub-steps"):
        integrate(lift, [0.5, 0.5], ControlSchedule([(1e300, [0.0])]), 0.01)
    with pytest.raises(ConfigError, match=r"1e\+300 at dt=0\.01"):
        maximal_cost(lift, [0.5, 0.5], switch_dt=1e300, depth=2)


# --- batched stepping (advance) ----------------------------------------------
# The per-row loop integrate ran before it became advance's single-row
# view: plain rk4_step sub-steps on one 1-D state, stopping at the first
# non-finite state or expression domain error.  It shares only rk4_step with
# advance.

def reference_final_state(system, x0, schedule, dt):
    """(final augmented state, escaped); an escaped trajectory ends at its
    last finite state."""
    z = np.concatenate([np.asarray(x0, dtype=float), np.zeros(3)])
    for duration, a in schedule.segments:
        steps = max(1, int(math.ceil(duration / dt - 1e-9)))
        for _ in range(steps):
            try:
                with np.errstate(all="ignore"):
                    z_new = rk4_step(system, z, a, duration / steps)
            except EvalDomainError:
                return z, True
            if not np.all(np.isfinite(z_new)):
                return z, True
            z = z_new
    return z, False


def blow_up_1d():
    """x' = x^2, g = x^2: finite-time blow-up to inf, no expression guard."""
    def rates(x, a, out):
        out[..., 0] = out[..., 1] = x[..., 0] ** 2

    return SystemDef("quad", 1, ControlSpace.none(), rates)


JSON_LIFT2D = {
    "name": "lift2d-json", "n": 2,
    "f": ["-x1 + a1*x1^2", "-x2 + a1*x2^2"], "g": "x1^2 + x2^2",
    "control": {"box": {"lo": [-1.0], "hi": [1.0], "counts": [3]}}}

JSON_EXP_SIN = {
    "name": "exp-sin", "n": 1, "f": ["x1^2*exp(a1) - sin(x1)"], "g": "x1^2",
    "control": {"box": {"lo": [-1.0], "hi": [1.0], "counts": [3]}}}

# (system, starts, rows that escape); an escaping row runs the last control
BATCH_CASES = {
    "lift2d": (lambda: builtin("lift2d", controls=3),
               [[0.5, 0.5], [-0.9, 0.3], [1.4, -1.1], [0.0, 0.0]], []),
    "ex1": (lambda: builtin("ex1", controls=3),
            [[0.5], [-1.5], [1.2], [0.05]], []),
    # from (1.5, 1.5) under a = 1 the state reaches inf near t = ln 3 and
    # the compiled expressions raise first
    "lift2d-json": (lambda: load_system(JSON_LIFT2D),
                    [[0.5, 0.5], [-0.9, 0.3], [1.5, 1.5], [1.1, -0.2]], [2]),
    # from 5 the state reaches inf at t = 0.2 with no expression to say so
    "blow-up": (blow_up_1d, [[0.1], [5.0], [-0.5]], [1]),
    # exp and sin through compiled expressions: from 2 the state escapes
    # after 11 whole-batch sub-steps of the first segment, from 0.9 in the
    # second segment, once the batch already runs on its live rows only
    "exp-sin-json": (lambda: load_system(JSON_EXP_SIN),
                     [[0.5], [2.0], [-0.4], [0.9], [0.1]], [1, 3]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # overflow is contained
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_rows_match_per_row_integration(case):
    make, starts, escaping = BATCH_CASES[case]
    system = make()
    n, pts = system.n_state, system.control.points
    durations = (0.3, 0.25, 0.71, 0.45, 0.3)  # some are not whole sub-steps
    picks = np.random.default_rng(5).integers(0, len(pts),
                                              size=(len(starts), 5))
    picks[escaping] = len(pts) - 1
    z = np.hstack([np.array(starts, dtype=float),
                   np.zeros((len(starts), 3))])
    live = np.ones(len(starts), dtype=bool)
    for j, duration in enumerate(durations):
        z, live = advance(system, z, pts[picks[:, j]], duration, 0.02, live)
    assert np.flatnonzero(~live).tolist() == escaping
    for i, x0 in enumerate(starts):
        sched = ControlSchedule([(d, pts[p])
                                 for d, p in zip(durations, picks[i])])
        ref, escaped = reference_final_state(system, x0, sched, 0.02)
        assert np.array_equal(z[i], ref)
        assert live[i] != escaped
        if escaped:
            with pytest.raises(TrajectoryError, match="t="):
                integrate(system, x0, sched, 0.02)
        else:
            rec = integrate(system, x0, sched, 0.02)
            assert np.array_equal(rec.final_state, ref[:n])
            assert rec.running_g_integral[-1] == ref[n]
            assert rec.total_cost == ref[n + 1]


# a maximize system that declares ell and h, which the narrow state skips
JSON_ELL_H = {
    "name": "ell-h", "n": 2,
    "f": ["-x1 + a1*x1^2", "-x2"], "g": "x1^2 + x2^2",
    "ell": "sqrt(x1^2 + x2^2)", "h": "abs(x1) + 0.5",
    "control": {"box": {"lo": [-1.0], "hi": [1.0], "counts": [3]}}}


@pytest.mark.parametrize("make", [
    lambda: builtin("lift2d", controls=3), lambda: builtin("ex1", controls=3),
    lambda: load_system(JSON_LIFT2D), lambda: load_system(JSON_ELL_H)],
    ids=["lift2d", "ex1", "lift2d-json", "ell-h-json"])
def test_narrow_state_is_the_wide_states_x_and_g_columns(make):
    system = make()
    n, pts = system.n_state, system.control.points
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=(12, n))
    a = pts[rng.integers(0, len(pts), size=12)]
    wide = np.hstack([x, np.zeros((12, 3))])
    narrow = np.hstack([x, np.zeros((12, 1))])
    for _ in range(5):
        wide = rk4_step(system, wide, a, 0.05)
        narrow = rk4_step(system, narrow, a, 0.05)
        assert narrow.tobytes() == wide[:, :n + 1].tobytes()
    assert np.all(wide[:, n + 1] > 0.0)  # J moved: ell and h were evaluated
    wide, _ = advance(system, wide, a, 0.3, 0.02)
    narrow, _ = advance(system, narrow, a, 0.3, 0.02)
    assert narrow.tobytes() == wide[:, :n + 1].tobytes()


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("n", [1, 2])
def test_start_keeps_the_layout_and_zeros_the_integrals(n, order, wide):
    # column-major nodes, the solver's feet, give a column-major state even
    # with one axis, where the nodes are C-contiguous too
    x = np.empty((9, n), order=order)  # strides (8, 72) for "F" at n = 1
    x[:] = np.random.default_rng(4).uniform(-1.0, 1.0, (9, n))
    z = start(x, wide)
    assert z.shape == (9, n + (3 if wide else 1))
    assert z.flags.f_contiguous if order == "F" else z.flags.c_contiguous
    assert z.strides[0] < z.strides[1] if order == "F" \
        else z.strides[0] > z.strides[1]
    assert np.array_equal(z[:, :n], x)
    assert np.all(z[:, n:] == 0.0) and not np.signbit(z[:, n:]).any()
    point = start(x[0], wide)  # one point
    assert point.shape == (n + (3 if wide else 1),)
    assert np.array_equal(point[:n], x[0]) and not point[n:].any()


def textbook_rates(system, z, a):
    """The augmented rates at z from system.f and system.g, one call each,
    never through the fused system.rates; ell and h on the wide state."""
    n = system.n_state
    x = z[..., :n]
    out = np.empty_like(z)
    out[..., :n] = system.f(x, a)
    gv = out[..., n] = system.g(x, a)
    if z.shape[-1] == n + 1:
        return out
    lv = gv if system.ell is None else system.ell(x, a)
    out[..., n + 1] = lv * np.exp(-z[..., n + 2])
    out[..., n + 2] = 0.0 if system.h is None else system.h(x, a)
    return out


def rk4_textbook(system, z, a, h):
    k1 = textbook_rates(system, z, a)
    k2 = textbook_rates(system, z + 0.5 * h * k1, a)
    k3 = textbook_rates(system, z + 0.5 * h * k2, a)
    k4 = textbook_rates(system, z + h * k3, a)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("slots", [1, 3])
@pytest.mark.parametrize("make", [
    lambda: builtin("lift2d", controls=3), lambda: builtin("ex1", controls=3),
    lambda: load_system(JSON_ELL_H)], ids=["lift2d", "ex1", "ell-h-json"])
def test_rk4_step_rounds_as_the_textbook_formula(make, slots, strided):
    system = make()
    n, pts = system.n_state, system.control.points
    rng = np.random.default_rng(6)
    # past lift2d's taper and on both sides of ex1's branch switch
    z = np.hstack([rng.uniform(-2.2, 2.2, size=(40, n)),
                   rng.uniform(0.0, 1.0, size=(40, slots))])
    if strided:  # a view whose rows skip a column, as a slice of a wider state
        z = np.hstack([z, np.zeros((40, 1))])[:, :n + slots]
    # column-major, as the solver's feet: the same bits, and the layout kept
    columns = np.asfortranarray(z)
    for a in (pts[rng.integers(0, len(pts), size=40)], pts[-1]):
        want = rk4_textbook(system, z, a, 0.05)
        assert rk4_step(system, z, a, 0.05).tobytes() == want.tobytes()
        assert rk4_step(system, z[3], a if a.ndim == 1 else a[3],
                        0.05).tobytes() == want[3].tobytes()
        got = rk4_step(system, columns, a, 0.05)
        assert got.flags.f_contiguous and got.tobytes() == want.tobytes()
        assert rk4_textbook(system, columns, a, 0.05).tobytes() \
            == want.tobytes()


@pytest.mark.parametrize("width", [2, 4, 6])
def test_other_state_widths_are_rejected(width):
    system = builtin("lift2d", controls=3)  # n = 2: widths 3 and 5 only
    with pytest.raises(ValueError, match="wants 3 or 5"):
        rk4_step(system, np.zeros((2, width)), system.control.points[0], 0.05)


def test_narrow_state_never_evaluates_ell():
    # ell = sqrt(x1) is undefined for x1 < 0: the wide row retires there,
    # the narrow row, which never reads ell, carries on
    system = load_system({"n": 1, "control": None, "f": ["-x1"],
                          "g": "abs(x1)", "ell": "sqrt(x1)"})
    z, live = advance(system, [[-0.5, 0.0, 0.0, 0.0]], NO_CONTROL, 0.5, 0.05)
    assert not live[0] and z[0, 0] == -0.5
    z, live = advance(system, [[-0.5, 0.0]], NO_CONTROL, 0.5, 0.05)
    assert live[0] and -0.5 < z[0, 0] < 0.0 and z[0, 1] > 0.0


def test_advance_leaves_retired_rows_and_watches_every_substep():
    system = builtin("lift2d", controls=3)
    z = np.array([[0.5, 0.5, 0.0, 0.0, 0.0], [0.2, -0.4, 0.1, 0.2, 0.0]])
    seen = []
    out, live = advance(system, z, [1.0], 0.25, 0.02,
                        live=[True, False],
                        watch=lambda zb, lv: seen.append(zb.copy()))
    assert len(seen) == 13 and np.array_equal(seen[-1], out)
    assert np.array_equal(out[1], z[1]) and live.tolist() == [True, False]
    assert not np.array_equal(out[0], z[0])


# --- chattering --------------------------------------------------------------

class TestChatter:
    def controls(self):
        return [[-1.0], [1.0]]

    def test_dirac_collapses_to_constant(self):
        rel = RelaxedSchedule(self.controls(), [(1.0, [0.0, 1.0])])
        sched = chatter(rel, 0.25)
        assert len(sched.segments) == 1
        d, a = sched.segments[0]
        assert d == pytest.approx(1.0) and a[0] == 1.0

    def test_even_split_alternates(self):
        rel = RelaxedSchedule(self.controls(), [(1.0, [0.5, 0.5])])
        sched = chatter(rel, 0.1)
        assert len(sched.segments) == 20
        assert all(d == pytest.approx(0.05) for d, _ in sched.segments)
        signs = [a[0] for _, a in sched.segments]
        assert signs == [-1.0, 1.0] * 10
        assert sched.total_duration == pytest.approx(1.0, abs=1e-9)

    def test_period_longer_than_segment_rejected(self):
        rel = RelaxedSchedule(self.controls(), [(0.2, [0.5, 0.5])])
        with pytest.raises(ConfigError):
            chatter(rel, 0.5)

    def test_chattering_error_halves_with_period(self):
        # the weight-averaged field for even +-1 weights is the a=0 field
        sys = builtin("lift2d")
        dt = 0.0025
        ref = constant_run(sys, [0.5, 0.5], [0.0], 2.0, dt)
        errs = []
        for period in (0.1, 0.05):
            rel = RelaxedSchedule(self.controls(), [(2.0, [0.5, 0.5])])
            rec = integrate(sys, [0.5, 0.5], chatter(rel, period), dt)
            assert rec.times.size == ref.times.size
            errs.append(np.abs(rec.states - ref.states).max())
        ratio = errs[0] / errs[1]
        assert 1.5 <= ratio <= 2.5


# --- record export -----------------------------------------------------------

class TestRecordExport:
    def test_record_rejects_bad_monotonicity(self):
        with pytest.raises(TrajectoryError):
            TrajectoryRecord([0.0, 0.0], np.zeros((2, 1)), [0.0, 0.0],
                             [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(TrajectoryError):
            TrajectoryRecord([0.0, 1.0], np.zeros((2, 1)), [0.0, 0.0],
                             [1.0, 0.0], [0.0, 0.0])


# --- declared decay envelopes -------------------------------------------------

@pytest.mark.parametrize("name", ["lift2d", "ex1", "arctan1d", "hav1d"])
def test_trajectories_respect_declared_envelope(name):
    sys = builtin(name)
    rng = np.random.default_rng(99)
    c, sigma, r = sys.ules.c, sys.ules.sigma, sys.ules.r
    for _ in range(8):
        z = rng.standard_normal(sys.n_state)
        x0 = z / np.linalg.norm(z) * r * rng.uniform(0.2, 0.999)
        segs = [(0.25, sys.control.points[rng.integers(sys.control.size)])
                for _ in range(16)]
        rec = integrate(sys, x0, ControlSchedule(segs), 0.02)
        bound = c * np.linalg.norm(x0) * np.exp(-sigma * rec.times) * 1.05
        norms = np.linalg.norm(rec.states, axis=1)
        assert np.all(norms <= bound + 1e-12)
