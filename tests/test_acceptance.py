"""End-to-end acceptance gate.

One test per criterion.  Each prints a single machine-greppable verdict
line with the measured quantities before asserting, so a red run still
shows the whole picture.
"""

import json
import math
import sys
import time
import warnings

import numpy as np
import pytest

from zubov.cli import main as cli_main
from zubov.oracle import falsify_quasistability, kruzhkov_value
from zubov.regions import contour2d, extract_doa, region_distance
from zubov.solver import (
    SolverSettings,
    interpolate,
    inverse_transform,
    kruzhkov_transform,
    solve_hjbe,
    solve_zubov,
)
from zubov.systems import Grid, builtin, closed_form_value, load_system, save_field
from zubov.trajectories import ControlSchedule, RelaxedSchedule, chatter, integrate
from zubov.verify import check_lyapunov_decrease, lipschitz_probe, sandwich_check


VERDICTS = []


def verdict(tag, ok, detail):
    line = "ACCEPTANCE %s: %s -- %s" % (tag, "PASS" if ok else "FAIL", detail)
    print(line)
    VERDICTS.append(line)
    assert ok, "criterion %s: %s" % (tag, detail)


@pytest.fixture(scope="session", autouse=True)
def _verdict_echo(request):
    """Replay every verdict past capture once the session ends, so a plain
    `pytest -v` still shows one line per criterion."""
    yield
    if not VERDICTS:
        return
    cap = request.config.pluginmanager.getplugin("capturemanager")
    with cap.global_and_fixture_disabled():
        sys.stdout.write("\n" + "\n".join(VERDICTS) + "\n")
        sys.stdout.flush()


def lift2d_gap(field, half=0.8):
    """Sup gap to the transformed closed form on the half-width sub-box."""
    coords = field.grid.node_coords()
    keep = np.all(np.abs(coords) <= half + 1e-12, axis=-1)
    exact = 1.0 - np.exp(-closed_form_value("lift2d", coords[keep]))
    return float(np.abs(field.values[keep] - exact).max())


def bracket_gap(bounds, value):
    return max(bounds.lower - value, value - bounds.upper, 0.0)


def unit_box(points):
    return np.max(np.abs(points), axis=-1) < 1.0


def ex1_exact_sublevel(points, level=0.99):
    return 1.0 - np.exp(-closed_form_value("ex1", points[:, 0])) < level


class TestCriterion1:
    def test_lift2d_closed_form_benchmark(self, lift2d_system):
        started = time.perf_counter()
        coarse = solve_zubov(lift2d_system,
                             Grid([-1.2, -1.2], [1.2, 1.2], [201, 201]),
                             SolverSettings(dt=0.05, tol=1e-6,
                                            max_iters=2000))
        seconds = time.perf_counter() - started
        sweeps = coarse.metadata["iterations"]
        err = lift2d_gap(coarse)
        fine = solve_zubov(lift2d_system,
                           Grid([-1.2, -1.2], [1.2, 1.2], [401, 401]),
                           SolverSettings(dt=0.025, tol=1e-6,
                                          max_iters=2000))
        factor = err / lift2d_gap(fine)
        ok = (coarse.metadata["converged"] and sweeps <= 2000
              and seconds <= 60.0 and err <= 0.02 and factor >= 1.5)
        verdict(1, ok,
                "converged in %d sweeps / %.1fs (<=2000, <=60s), sup error "
                "%.5f (<=0.02), refinement factor %.2f (>=1.5)"
                % (sweeps, seconds, err, factor))


class TestCriterion2:
    def test_lift2d_domain_extraction(self, lift2d_field):
        mask = extract_doa(lift2d_field, epsilon=0.01)
        hausdorff, _ = region_distance(mask, unit_box)
        polys = contour2d(lift2d_field, 0.99)
        single_closed = len(polys) == 1 and bool(
            np.all(polys[0][0] == polys[0][-1]))
        verdict(2, hausdorff <= 3.0 and single_closed,
                "mask hausdorff to (-1,1)^2 nodes %.1f cells (<=3), "
                "%d contour polyline(s), closed=%s"
                % (hausdorff, len(polys), single_closed))


class TestCriterion3:
    POINTS = [(0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.3, 0.55),
              (0.55, 0.0), (0.0, -0.55), (0.25, 0.25), (-0.4, 0.1),
              (0.1, 0.4), (-0.55, -0.25)]

    def test_oracle_agreement_in_inner_box(self, lift2d_field):
        # 21^8 schedules would blow the enumeration budget; 3 control
        # samples keep the same bang-bang extremes the adversary uses
        system = builtin("lift2d", controls=3)
        worst_miss = worst_field = 0.0
        truncated = 0
        for point in self.POINTS:
            x = np.array(point)
            vb = kruzhkov_value(system, x, switch_dt=0.25, depth=8, rho=0.05)
            exact = 1.0 - math.exp(-closed_form_value("lift2d", x))
            worst_miss = max(worst_miss, bracket_gap(vb, exact))
            worst_field = max(worst_field,
                              bracket_gap(vb, interpolate(lift2d_field, x)))
            truncated += vb.truncated
        verdict(3, worst_miss <= 0.03 and worst_field <= 0.02
                and truncated == 0,
                "10 points: closed form within bracket slack %.5f (<=0.03), "
                "field within bracket slack %.5f (<=0.02), %d truncated "
                "bracket(s) (0)" % (worst_miss, worst_field, truncated))


class TestCriterion4:
    def test_ex1_field_domain_and_falsifier(self, ex1_field):
        # brackets: 4s horizon so the slow a=1 plateau trajectory certifies
        system = builtin("ex1", controls=3)
        worst = 0.0
        for x in (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75):
            vb = kruzhkov_value(system, np.array([x]), switch_dt=0.5,
                                depth=8, rho=0.06)
            worst = max(worst, bracket_gap(vb, interpolate(ex1_field,
                                                           np.array([x]))))
        # g vanishes for |x| >= 1, so the exact value saturates at
        # 1 - exp(-2 Si(pi)) ~ 0.9754 < 0.99 and the exact 0.99-sublevel
        # set is the whole grid: extraction over-approximates the robust
        # domain (-1,1), and the falsifier is what exposes the excess
        mask = extract_doa(ex1_field, epsilon=0.01)
        grid = ex1_field.grid
        coords = grid.node_coords()
        hausdorff, _ = region_distance(mask, ex1_exact_sublevel)
        covers_robust = bool(mask.inside[unit_box(coords)].all())
        witness = falsify_quasistability(builtin("ex1"),
                                         Grid([-2.0], [2.0], [401]),
                                         budget=16)
        witness_ok = (witness is not None and witness.kind == "stationary"
                      and witness.x0[0] == pytest.approx(1.0, abs=1e-9)
                      and witness.schedule.segments[0][1][0]
                      == pytest.approx(1.0))
        witness_masked = witness_ok and bool(mask.inside[
            int(round((witness.x0[0] - grid.lo[0]) / grid.dx[0]))])
        verdict(4, worst <= 0.02 and hausdorff <= 3.0 and covers_robust
                and witness_masked,
                "field within brackets slack %.5f (<=0.02); extracted mask "
                "hausdorff to the exact closed-form 0.99-sublevel set %.1f "
                "cells (<=3), covers (-1,1)=%s; stationary witness (x=1, "
                "a=1) found=%s, inside mask=%s"
                % (worst, hausdorff, covers_robust, witness_ok,
                   witness_masked))


class TestCriterion5:
    def test_degenerate_cost_limit(self, arctan_field):
        system = load_system({
            "n": 1, "f": ["-x1"], "g": "abs(x1)/(1 + x1^2)",
            "ell": "abs(x1)/(1 + x1^2)",
            "mode": "minimize", "guard": "nonneg_ell"})
        raw = solve_hjbe(system, Grid([-3.0], [3.0], [601]),
                         SolverSettings(dt=0.01, tol=1e-6, max_iters=2000))
        ax = raw.grid.axes[0]
        keep = np.abs(ax) <= 2.5
        gap = float(np.abs(raw.values[keep]
                           - np.arctan(np.abs(ax[keep]))).max())
        ceiling = 1.0 - math.exp(-math.pi / 2.0) + 0.01
        peak = float(arctan_field.values.max())
        verdict(5, gap <= 0.01 and peak < ceiling,
                "raw field vs arctan|x| sup gap %.5f on [-2.5,2.5] (<=0.01); "
                "kruzhkov peak %.5f < %.5f" % (gap, peak, ceiling))


class TestCriterion6:
    def test_lipschitz_blowup_per_decade(self):
        started = time.perf_counter()
        slopes = lipschitz_probe("hav1d", [[1.0], [10.0], [100.0]],
                                 kruzhkov_scale=1.0)
        seconds = time.perf_counter() - started
        r10 = slopes[1] / slopes[0]
        r100 = slopes[2] / slopes[1]
        verdict(6, r10 >= 5.0 and r100 >= 5.0 and seconds < 1.0,
                "difference quotients %.3g / %.3g / %.3g, decade ratios "
                "%.1f and %.1f (>=5), %.3fs (<1s)"
                % (slopes[0], slopes[1], slopes[2], r10, r100, seconds))


class TestCriterion7:
    def test_synthesis_residual_and_defects(self, lift2d_field, tmp_path):
        save_field(lift2d_field, str(tmp_path / "field.csv"))
        out = tmp_path / "out"
        rc = cli_main(["synthesize", "--builtin", "lift2d",
                       "--epsilon", "0.05", "--out", str(out),
                       str(tmp_path / "field.csv"), "0.5,0.5", "4"])
        with open(out / "metadata.json", encoding="utf-8") as fh:
            result = json.load(fh)["result"]
        defects_ok = all(d <= a for d, a in zip(result["defects"],
                                                result["allowances"]))
        verdict(7, rc == 0 and result["residual"] >= -0.05 and defects_ok,
                "exit %d, residual %.5f (>=-0.05), defects %s within "
                "allowances %s"
                % (rc, result["residual"],
                   ["%.4f" % d for d in result["defects"]],
                   ["%.4f" % a for a in result["allowances"]]))


class TestCriterion8:
    def test_sandwich_is_one_sided(self, lift2d_system, lift2d_field):
        values = lift2d_field.values.copy()
        edge = np.zeros(values.shape, dtype=bool)
        for axis in range(values.ndim):
            index = [slice(None)] * values.ndim
            for end in (0, -1):
                index[axis] = end
                edge[tuple(index)] = True
        values[edge] = 1.0
        reference = lift2d_field.with_values(values)

        identity_ok = all(
            sandwich_check(lift2d_system, reference, reference, role,
                           0.0).passed
            for role in ("sub", "sup"))

        lowered_vals = np.clip(values - 0.05, 0.0, 1.0)
        lowered_vals[edge] = 1.0
        lowered = reference.with_values(lowered_vals)
        raised = reference.with_values(np.clip(values + 0.05, 0.0, 1.0))

        low_sub = sandwich_check(lift2d_system, reference, lowered,
                                 "sub", 0.02).passed
        low_sup = sandwich_check(lift2d_system, reference, lowered,
                                 "sup", 0.02).passed
        high_sub = sandwich_check(lift2d_system, reference, raised,
                                  "sub", 0.02).passed
        high_sup = sandwich_check(lift2d_system, reference, raised,
                                  "sup", 0.02).passed
        one_sided = low_sub and not low_sup and high_sup and not high_sub
        verdict(8, identity_ok and one_sided,
                "identity passes both roles at tol 0; -0.05 shift: sub=%s "
                "sup=%s; +0.05 shift: sub=%s sup=%s"
                % (low_sub, low_sup, high_sub, high_sup))


class TestCriterion9:
    @pytest.mark.filterwarnings("ignore:value iteration")
    def test_property_suite(self, lift2d_system, lift2d_field):
        results = {}
        small = Grid([-1.2, -1.2], [1.2, 1.2], [41, 41])

        # iterates from v_0 = 0 only ever grow
        previous, monotone = None, True
        for sweeps in (1, 2, 4, 8, 16):
            field = solve_zubov(lift2d_system, small,
                                SolverSettings(dt=0.1, max_iters=sweeps))
            if previous is not None:
                monotone &= bool(np.all(field.values >= previous - 1e-12))
            previous = field.values
        results["monotone_iteration"] = monotone

        results["kruzhkov_range"] = bool(
            lift2d_field.values.min() >= 0.0
            and lift2d_field.values.max() <= 1.0)

        back = kruzhkov_transform(inverse_transform(lift2d_field, cap=50.0))
        keep = lift2d_field.values < 0.99
        results["transform_round_trip"] = bool(
            np.abs(back.values - lift2d_field.values)[keep].max() <= 1e-9)

        decay = builtin("arctan1d")
        errs = []
        for dt in (0.1, 0.05):
            rec = integrate(decay, [1.0],
                            ControlSchedule.constant(np.zeros(0), 1.0), dt)
            errs.append(abs(rec.final_state[0] - math.exp(-1.0)))
        results["rk4_order"] = bool(12.0 <= errs[0] / errs[1] <= 20.0)

        # even +-1 chattering approaches the a=0 flow as the period shrinks
        dt = 0.0025
        ref = integrate(lift2d_system, [0.5, 0.5],
                        ControlSchedule.constant([0.0], 2.0), dt)
        chat_errs = []
        for period in (0.1, 0.05):
            relaxed = RelaxedSchedule([[-1.0], [1.0]], [(2.0, [0.5, 0.5])])
            rec = integrate(lift2d_system, [0.5, 0.5],
                            chatter(relaxed, period), dt)
            chat_errs.append(np.abs(rec.states - ref.states).max())
        results["chattering_halves"] = bool(
            1.5 <= chat_errs[0] / chat_errs[1] <= 2.5)

        fields = [solve_zubov(lift2d_system, small,
                              SolverSettings(dt=0.1, tol=1e-6,
                                             threads=threads)).values
                  for threads in (1, 4)]
        results["thread_determinism"] = bool(
            np.array_equal(fields[0], fields[1]))

        decrease = check_lyapunov_decrease(lift2d_system, lift2d_field,
                                           samples=500, seed=0)
        results["lyapunov_500"] = bool(
            decrease.passed and decrease.stats["violations"] == 0)

        verdict(9, all(results.values()),
                ", ".join("%s=%s" % kv for kv in sorted(results.items())))
