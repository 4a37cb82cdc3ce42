"""Checks on the post-hoc verifier.

The verifier must (a) accept the solved fields it was built for, (b) flag
deliberately corrupted fields with replayable witnesses, and (c) report
exact zeros where algebra says the answer is zero (identical fields in the
sandwich check, constant fields in the slope probe).
"""

import math
import time

import numpy as np
import pytest

from zubov.solver import (SolverSettings, interpolate, kruzhkov_transform,
                          solve_hjbe, solve_zubov, zubov_operator)
from zubov.systems import (ConfigError, Grid, ValueField, builtin,
                           closed_form_value, load_system)
from zubov.trajectories import integrate
from zubov.verify import (VerificationReport, check_boundary_blowup,
                          check_fixed_point, check_lyapunov_decrease,
                          lipschitz_probe, residual_stats, sandwich_check)
from zubov import verify


def boundary_ring(counts):
    ring = np.zeros(counts, dtype=bool)
    for k in range(len(counts)):
        sl = [slice(None)] * len(counts)
        sl[k] = 0
        ring[tuple(sl)] = True
        sl[k] = -1
        ring[tuple(sl)] = True
    return ring


@pytest.fixture(scope="module")
def ref_field(lift2d_field):
    # boundary pinned to exactly 1 so the field qualifies for sandwich roles
    vals = lift2d_field.values.copy()
    vals[boundary_ring(vals.shape)] = 1.0
    return lift2d_field.with_values(vals)


@pytest.fixture(scope="module")
def coarse_ref(lift2d_field_coarse):
    vals = lift2d_field_coarse.values.copy()
    vals[boundary_ring(vals.shape)] = 1.0
    return lift2d_field_coarse.with_values(vals)


@pytest.fixture(scope="module")
def lift2d_exact(lift2d_field):
    """The transformed closed form sampled on the solver grid."""
    grid = lift2d_field.grid
    coords = grid.node_coords()
    inside = np.all(np.abs(coords) < 1.0, axis=-1)
    vals = np.ones(tuple(grid.counts))
    vals[inside] = 1.0 - np.exp(-closed_form_value("lift2d", coords[inside]))
    return lift2d_field.with_values(vals), inside


class TestReportType:

    def test_witnesses_force_failure(self):
        with pytest.raises(ValueError):
            VerificationReport("x", True, {}, ({"node": (0, 0)},))

    def test_note_defaults_empty(self):
        rep = VerificationReport("x", True, {"n": 1})
        assert rep.note == ""
        assert rep.witnesses == ()


class TestFixedPoint:
    def test_converged_field_passes(self, lift2d_system, lift2d_field):
        rep = check_fixed_point(lift2d_system, lift2d_field)
        assert rep.passed and rep.name == "fixed_point"
        assert rep.stats["max_defect"] <= lift2d_field.metadata["tol"]
        assert rep.stats["threshold"] == pytest.approx(1e-5)

    def test_edited_node_is_the_witness(self, lift2d_system, lift2d_field):
        vals = lift2d_field.values.copy()
        vals[120, 80] -= 0.01
        rep = check_fixed_point(lift2d_system,
                                lift2d_field.with_values(vals))
        assert not rep.passed
        assert rep.witnesses[0]["node"] == (120, 80)
        assert rep.stats["max_defect"] == pytest.approx(0.01, rel=0.1)

    def test_defect_and_witness_are_the_operators(self, lift2d_system,
                                                  lift2d_field):
        # the check applies T without building it; the built operator,
        # origin pinned as in a sweep, gives the same defect and witness
        vals = lift2d_field.values.copy()
        vals[30, 170] -= 0.003
        field, grid = lift2d_field.with_values(vals), lift2d_field.grid
        u = 1.0 - vals.reshape(-1)
        moved = zubov_operator(lift2d_system, grid, 0.05)(u)
        moved[np.ravel_multi_index(grid.origin_index, grid.counts)] = 1.0
        defect = np.abs(moved - u)
        rep = check_fixed_point(lift2d_system, field)
        assert rep.stats["max_defect"] == defect.max()
        assert rep.witnesses[0]["node"] == np.unravel_index(
            np.argmax(defect), grid.counts)

    def test_allocates_no_operator(self, lift2d_system, lift2d_field):
        import tracemalloc

        grid = lift2d_field.grid
        op_bytes = zubov_operator(lift2d_system, grid, 0.05).nbytes
        tracemalloc.start()
        try:
            check_fixed_point(lift2d_system, lift2d_field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < op_bytes

    def test_peak_is_a_fraction_of_the_operator(self, lift2d_system,
                                                 lift2d_field):
        # one control's operator at a time: about 1/K of the full one's
        # bytes at 201², plus N-long vectors
        import tracemalloc

        op_bytes = zubov_operator(lift2d_system, lift2d_field.grid,
                                  0.05).nbytes
        check_fixed_point(lift2d_system, lift2d_field)  # warm caches
        tracemalloc.start()
        try:
            check_fixed_point(lift2d_system, lift2d_field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < op_bytes / 4

    @pytest.mark.parametrize("bad", [
        {"dt": 0.0}, {"dt": -0.05}, {"dt": math.nan}, {"dt": math.inf},
        {"tol": math.nan}, {"tol": -1.0}, {"tol": 0.0}])
    def test_out_of_range_arguments_rejected(self, bad, lift2d_system,
                                             lift2d_field):
        # a field with no run record takes dt and tol from the arguments;
        # dt 0 would make T the identity and pass any field
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [21, 21])
        field = ValueField(grid, np.full((21, 21), 0.5), "kruzhkov")
        with pytest.raises(ConfigError, match="positive and finite"):
            check_fixed_point(builtin("lift2d"), field, **bad)
        with pytest.raises(ConfigError, match="positive and finite"):
            check_fixed_point(builtin("lift2d"),
                              ValueField(grid, field.values, "kruzhkov", bad))
        # the record's dt and tol win, but an argument out of range is
        # still refused, not silently ignored
        assert {"dt", "tol"} <= set(lift2d_field.metadata)
        with pytest.raises(ConfigError, match="positive and finite"):
            check_fixed_point(lift2d_system, lift2d_field, **bad)

    def test_metadata_beats_arguments(self, lift2d_system, lift2d_field):
        # the field records dt 0.05; a wrong fallback must not be used
        rep = check_fixed_point(lift2d_system, lift2d_field, dt=0.2)
        assert rep.passed and rep.stats["dt"] == 0.05

    def test_raw_field_rejected(self, lift2d_system, lift2d_field):
        with pytest.raises(ConfigError, match="kruzhkov"):
            check_fixed_point(lift2d_system, lift2d_field.with_values(
                lift2d_field.values, transform="raw"))

    def test_transformed_raw_field_is_refused_by_its_record(self):
        # kruzhkov_transform keeps a raw solve's exterior 0, the value its
        # feet outside the box read, where the Kružkov operator reads 1
        system = builtin("fuller")
        raw = solve_hjbe(system, Grid([-1.0, -1.0], [1.0, 1.0], [21, 21]),
                         SolverSettings(dt=0.1))
        field = kruzhkov_transform(raw)
        assert field.metadata["exterior_value"] == 0.0
        with pytest.raises(ConfigError, match=r"record holds "
                           r"exterior_value=0\.0, but the Kružkov operator "
                           r"reads 1 outside the box"):
            check_fixed_point(system, field)


class TestResidualStats:

    def test_solved_field_passes(self, lift2d_system, lift2d_field):
        rep = residual_stats(lift2d_system, lift2d_field)
        assert rep.passed
        assert rep.stats["median"] <= 0.02
        assert rep.stats["p95"] <= 0.05
        assert rep.witnesses == ()

    def test_masked_region(self, lift2d_system, lift2d_field):
        coords = lift2d_field.grid.node_coords()
        mask = np.max(np.abs(coords), axis=-1) <= 0.8
        rep = residual_stats(lift2d_system, lift2d_field, mask)
        assert rep.passed
        assert rep.stats["count"] < mask.sum()  # erosion trims the rim

    def test_exact_closed_form_is_sharper(self, lift2d_system, lift2d_exact):
        field, inside = lift2d_exact
        rep = residual_stats(lift2d_system, field, inside)
        assert rep.passed
        # central differences of the analytic solution: O(h^2), not O(h)
        assert rep.stats["median"] <= 1e-3
        assert rep.stats["max"] <= 1e-3

    def test_hav1d_spike_error_is_the_time_step(self):
        # one RK4 step crosses the kinks of hav1d's g at |x| = 0.9 and 1
        # and is off there by O(dt^2), a different amount at each node: at
        # dt 0.05 the field is rough at grid scale in the first spike, and
        # the check fails it, while the closed form passes
        system, grid = builtin("hav1d"), Grid([-1.0], [1.0], [401])
        exact = 1.0 - np.exp(-closed_form_value("hav1d", grid.axes[0]))
        rep = residual_stats(system, ValueField(grid, exact, "kruzhkov"))
        assert rep.passed and rep.stats["p95"] <= 1e-3
        errs, p95 = [], []
        for dt in (0.05, 0.025, 0.0125):
            field = solve_zubov(system, grid, SolverSettings(dt=dt))
            errs.append(np.abs(field.values - exact).max())
            p95.append(residual_stats(system, field).stats["p95"])
        assert errs[0] > 1e-3 and errs[0] > 3 * errs[1] > 9 * errs[2]
        assert p95[0] > 0.05 > p95[1] > p95[2]

    def test_constant_one_annihilates(self, lift2d_system, lift2d_field):
        ones = lift2d_field.with_values(np.ones_like(lift2d_field.values))
        rep = residual_stats(lift2d_system, ones)
        assert rep.passed
        assert rep.stats["max"] <= 1e-12
        assert rep.stats["count"] > 30000  # no level set, no carve-out

    def test_constant_zero_fails_with_witnesses(self, lift2d_system,
                                                lift2d_field):
        zeros = lift2d_field.with_values(np.zeros_like(lift2d_field.values))
        rep = residual_stats(lift2d_system, zeros)
        assert not rep.passed
        assert rep.stats["median"] > 0.02
        assert rep.witnesses
        # residual of v=0 is -max_a g: strictly negative off the origin
        for w in rep.witnesses:
            assert w["residual"] < 0.0
            assert len(w["node"]) == 2

    def test_rejects_raw_fields(self, lift2d_system, lift2d_field):
        raw = lift2d_field.with_values(lift2d_field.values, transform="raw")
        with pytest.raises(ConfigError, match="kruzhkov"):
            residual_stats(lift2d_system, raw)

    def test_rejects_dimension_mismatch(self, lift2d_system, ex1_field):
        with pytest.raises(ConfigError, match="dimension"):
            residual_stats(lift2d_system, ex1_field)

    def test_rejects_misshapen_mask(self, lift2d_system, lift2d_field):
        with pytest.raises(ConfigError, match="mask"):
            residual_stats(lift2d_system, lift2d_field,
                           np.ones((3, 3), dtype=bool))

    # lift2d written out as expressions; on |x| <= 1.2 the builtin's taper
    # is exactly 1, so f and g agree bit for bit
    LIFT2D_INLINE = {
        "n": 2, "f": ["-x1 + a1*x1^2", "-x2 + a1*x2^2"], "g": "x1^2 + x2^2",
        "control": {"box": {"lo": [-1.0], "hi": [1.0], "counts": [21]}}}

    def test_inline_system_matches_builtin(self, lift2d_system, lift2d_field):
        inline = load_system(dict(self.LIFT2D_INLINE, name="inline"))
        nodes = lift2d_field.grid.node_coords().reshape(-1, 2)
        for a in lift2d_system.control.points:
            assert np.array_equal(inline.f(nodes, a),
                                  lift2d_system.f(nodes, a))
            assert np.array_equal(inline.g(nodes, a),
                                  lift2d_system.g(nodes, a))
        rep = residual_stats(inline, lift2d_field)
        assert rep.passed
        assert rep.stats == residual_stats(lift2d_system, lift2d_field).stats

    def test_name_does_not_matter(self, lift2d_field):
        reps = [residual_stats(load_system(dict(self.LIFT2D_INLINE,
                                                name=name)), lift2d_field)
                for name in ("lift2d-x", "other")]
        assert reps[0].stats == reps[1].stats
        assert reps[0].passed and reps[1].passed

    def test_psi_abs_control_switch_carved_out(self):
        # the value of lift2d-psi-abs folds where the optimal control flips;
        # away from the fold the residual stays small everywhere
        system = builtin("lift2d-psi-abs")
        field = solve_zubov(system, Grid([-1.2, -1.2], [1.2, 1.2],
                                         [101, 101]),
                            SolverSettings(dt=0.1, tol=1e-6))
        rep = residual_stats(system, field)
        assert rep.passed
        assert rep.stats["max"] <= 0.1


def draw_one_at_a_time(field, samples, rng):
    """The decrease check's sampler as it drew one point per call, the
    reference for the batched `verify._draw_sublevel`."""
    grid = field.grid
    carve = 10.0 * float(np.max(grid.dx))
    kept, tries = [], 0
    while len(kept) < samples:
        tries += 1
        if tries > 1000 * samples:
            raise ConfigError("cannot draw enough samples from the "
                              "sublevel region")
        x = rng.uniform(grid.lo, grid.hi)
        if np.linalg.norm(x) > carve and interpolate(field, x) < 1.0 - 0.01:
            kept.append(x)
    return np.array(kept), tries


def plain(report):
    """A report's stats and witnesses with arrays and schedules as bytes."""
    def bare(value):
        if isinstance(value, np.ndarray):
            return value.tobytes()
        if hasattr(value, "segments"):
            return [(d, c.tobytes()) for d, c in value.segments]
        return value

    return (report.passed, report.stats,
            [{k: bare(v) for k, v in w.items()} for w in report.witnesses])


class TestLyapunovDecrease:

    def test_lift2d_field_never_increases(self, lift2d_system, lift2d_field):
        rep = check_lyapunov_decrease(lift2d_system, lift2d_field,
                                      samples=300)
        assert rep.passed
        assert rep.stats["violations"] == 0
        assert rep.stats["min_decrease"] > -1e-9
        assert rep.stats["samples"] == 300

    def test_ex1_field_never_increases(self, ex1_field):
        rep = check_lyapunov_decrease(builtin("ex1"), ex1_field, samples=150)
        assert rep.passed

    @pytest.mark.parametrize("name", ["lift2d", "ex1"])
    def test_batched_draws_are_the_one_at_a_time_loop(self, request,
                                                      monkeypatch, name):
        field = request.getfixturevalue(name + "_field")
        system = builtin(name)
        for seed in range(10):
            batched, single = (np.random.default_rng(seed) for _ in "ab")
            got = verify._draw_sublevel(field, 200, batched)
            want = draw_one_at_a_time(field, 200, single)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]
            assert batched.bit_generator.state == single.bit_generator.state
            # the schedules come from the state after the draws; a flipped
            # field fails, so the witnesses are compared too
            for checked, samples in ((field, 200), (
                    field.with_values(1.0 - field.values), 50)):
                new = check_lyapunov_decrease(system, checked, samples, seed)
                with monkeypatch.context() as patch:
                    patch.setattr(verify, "_draw_sublevel",
                                  draw_one_at_a_time)
                    old = check_lyapunov_decrease(system, checked, samples,
                                                  seed)
                assert plain(new) == plain(old)
                assert checked is field or old.witnesses

    def test_draws_are_recorded(self, lift2d_system, lift2d_field):
        rep = check_lyapunov_decrease(lift2d_system, lift2d_field, seed=1)
        assert rep.stats["samples"] == 200 and rep.stats["draws"] == 291

    def test_no_room_below_the_level_is_refused(self):
        # below 1 - eps only within 5 cells of the origin, which the
        # 10-cell carve-out excludes
        grid = Grid([-1.0], [1.0], [201])
        field = ValueField(grid, np.where(np.abs(grid.axes[0]) < 0.05, 0.0,
                                          1.0), "kruzhkov")
        with pytest.raises(ConfigError, match="cannot draw enough samples"):
            check_lyapunov_decrease(builtin("ex1"), field, samples=3)
        # after the same 3000 draws as one at a time
        batched, single = np.random.default_rng(0), np.random.default_rng(0)
        for draw, rng in ((verify._draw_sublevel, batched),
                          (draw_one_at_a_time, single)):
            with pytest.raises(ConfigError, match="cannot draw enough"):
                draw(field, 3, rng)
        assert batched.bit_generator.state == single.bit_generator.state

    def test_seed_reproducible(self, lift2d_system, lift2d_field):
        a = check_lyapunov_decrease(lift2d_system, lift2d_field,
                                    samples=40, seed=3)
        b = check_lyapunov_decrease(lift2d_system, lift2d_field,
                                    samples=40, seed=3)
        assert a.stats == b.stats

    def test_flipped_field_caught_and_replayable(self, lift2d_system,
                                                 lift2d_field):
        flipped = lift2d_field.with_values(1.0 - lift2d_field.values)
        rep = check_lyapunov_decrease(lift2d_system, flipped, samples=50)
        assert not rep.passed
        assert rep.stats["violations"] >= 10
        w = rep.witnesses[0]
        rec = integrate(lift2d_system, w["x"], w["schedule"], 0.01)
        assert interpolate(flipped, rec.final_state) == pytest.approx(
            w["v_after"], rel=1e-12)
        assert rec.running_g_integral[-1] == pytest.approx(w["cost"],
                                                           rel=1e-12)

    def test_rejects_raw_fields(self, lift2d_system, lift2d_field):
        raw = lift2d_field.with_values(lift2d_field.values, transform="raw")
        with pytest.raises(ConfigError, match="kruzhkov"):
            check_lyapunov_decrease(lift2d_system, raw, samples=5)

    @pytest.mark.parametrize("samples", [0, 2.5, True])
    def test_samples_must_be_a_whole_count(self, lift2d_system,
                                           lift2d_field, samples):
        with pytest.raises(ConfigError, match="samples"):
            check_lyapunov_decrease(lift2d_system, lift2d_field,
                                    samples=samples)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_seed_must_be_a_whole_count(self, lift2d_system, lift2d_field,
                                        seed):
        with pytest.raises(ConfigError, match="seed"):
            check_lyapunov_decrease(lift2d_system, lift2d_field, samples=5,
                                    seed=seed)


class TestSandwich:

    def test_identity_passes_at_zero_tolerance(self, lift2d_system,
                                               ref_field):
        for role in ("sub", "sup"):
            rep = sandwich_check(lift2d_system, ref_field, ref_field,
                                 role, 0.0)
            assert rep.passed
            assert rep.stats["value_violations"] == 0
            assert rep.stats["residual_violations"] == 0

    def test_lowered_candidate_is_one_sided(self, lift2d_system, ref_field):
        vals = np.clip(ref_field.values - 0.05, 0.0, 1.0)
        vals[boundary_ring(vals.shape)] = 1.0
        low = ref_field.with_values(vals)
        assert sandwich_check(lift2d_system, ref_field, low,
                              "sub", 0.02).passed
        rep = sandwich_check(lift2d_system, ref_field, low, "sup", 0.02)
        assert not rep.passed
        assert rep.stats["value_violations"] > 1000
        assert rep.witnesses[0]["kind"] == "value"

    def test_raised_candidate_is_one_sided(self, lift2d_system, ref_field):
        vals = np.clip(ref_field.values + 0.05, 0.0, 1.0)
        high = ref_field.with_values(vals)
        assert sandwich_check(lift2d_system, ref_field, high,
                              "sup", 0.02).passed
        assert not sandwich_check(lift2d_system, ref_field, high,
                                  "sub", 0.02).passed

    def test_random_magnitudes_stay_one_sided(self, lift2d_system,
                                              coarse_ref):
        # any uniform lowering is a sub-solution and never a super-solution,
        # whatever its size; mirrored for raising
        rng = np.random.default_rng(0)
        ring = boundary_ring(coarse_ref.values.shape)
        for c in rng.uniform(0.03, 0.4, size=20):
            vals = np.clip(coarse_ref.values - c, 0.0, 1.0)
            vals[ring] = 1.0
            low = coarse_ref.with_values(vals)
            assert sandwich_check(lift2d_system, coarse_ref, low,
                                  "sub", 0.02).passed
            assert not sandwich_check(lift2d_system, coarse_ref, low,
                                      "sup", 0.02).passed
            high = coarse_ref.with_values(
                np.clip(coarse_ref.values + c, 0.0, 1.0))
            assert sandwich_check(lift2d_system, coarse_ref, high,
                                  "sup", 0.02).passed
            assert not sandwich_check(lift2d_system, coarse_ref, high,
                                      "sub", 0.02).passed

    def test_boundary_precondition(self, lift2d_system, ref_field):
        bad = ref_field.with_values(
            np.clip(ref_field.values - 0.05, 0.0, 1.0))  # boundary at 0.95
        with pytest.raises(ConfigError, match="boundary"):
            sandwich_check(lift2d_system, ref_field, bad, "sub", 0.02)
        with pytest.raises(ConfigError, match="boundary"):
            sandwich_check(lift2d_system, ref_field, bad, "sup", 0.02)

    def test_grid_mismatch(self, lift2d_system, ref_field, coarse_ref):
        with pytest.raises(ConfigError, match="grid"):
            sandwich_check(lift2d_system, ref_field, coarse_ref, "sub", 0.0)

    def test_role_vocabulary(self, lift2d_system, ref_field):
        with pytest.raises(ConfigError, match="role"):
            sandwich_check(lift2d_system, ref_field, ref_field, "above", 0.0)


class TestBoundaryBlowup:

    def test_solved_field_climbs(self, lift2d_system, lift2d_field):
        mask = lift2d_field.values < 0.99
        rep = check_boundary_blowup(lift2d_system, lift2d_field, mask)
        assert rep.passed
        assert rep.stats["rays"] == 8
        assert rep.stats["min_ratio"] >= 2.0

    def test_transformed_values_match_closed_form_scale(self, lift2d_field):
        w_far = -math.log(1.0 - interpolate(lift2d_field,
                                            np.array([0.9, 0.9])))
        w_near = -math.log(1.0 - interpolate(lift2d_field,
                                             np.array([0.3, 0.3])))
        assert 15.0 <= w_far / w_near <= 40.0  # exact ratio is about 24.7

    def test_flat_field_fails(self, lift2d_system, lift2d_field):
        coords = lift2d_field.grid.node_coords()
        mask = np.max(np.abs(coords), axis=-1) <= 0.8
        flat = lift2d_field.with_values(
            np.full_like(lift2d_field.values, 0.5))
        rep = check_boundary_blowup(lift2d_system, flat, mask)
        assert not rep.passed
        assert rep.stats["failing"] == 8
        assert rep.witnesses[0]["ratio"] == pytest.approx(1.0)

    def test_mask_on_box_means_skip(self, arctan_field):
        # the arctan value saturates below 1: no level set fits inside the
        # box, so there is no boundary for the field to blow up at
        mask = arctan_field.values < 0.99
        assert mask.all()
        with pytest.warns(UserWarning, match="box"):
            rep = check_boundary_blowup(builtin("arctan1d"), arctan_field,
                                        mask)
        assert rep.passed
        assert "skipped" in rep.note
        assert rep.stats["rays"] == 0

    def test_origin_must_be_inside(self, lift2d_system, lift2d_field):
        mask = np.zeros_like(lift2d_field.values, dtype=bool)
        mask[5, 5] = True
        with pytest.raises(ConfigError, match="origin"):
            check_boundary_blowup(lift2d_system, lift2d_field, mask)


class TestLipschitzProbe:

    def test_arctan_slope_pin(self):
        # d/dx (1 - e^{-arctan x}) at 1 is e^{-pi/4} / 2
        got = lipschitz_probe("arctan1d", [[1.0]])[0]
        assert got == pytest.approx(0.22796906388299812, abs=1e-9)

    def test_spike_heights_survive_the_transform(self):
        # slope at the spike peaks: 10^k e^{-V(10^k)}; the quotient sees the
        # triangle average, biased by delta/(2 width), so delta must shrink
        # well below the narrowest width probed
        got = lipschitz_probe("hav1d", [[1.0], [10.0], [100.0]], delta=1e-8)
        assert got[0] == pytest.approx(0.9500158534, rel=1e-6)
        assert got[1] == pytest.approx(8.6004410452, rel=1e-5)
        assert got[2] == pytest.approx(85.1486565699, rel=1e-3)

    def test_decade_ratios_fast(self):
        t0 = time.time()
        got = lipschitz_probe("hav1d", [[1.0], [10.0], [100.0]])
        assert time.time() - t0 < 1.0
        assert got[1] / got[0] >= 5.0
        assert got[2] / got[1] >= 5.0

    def test_constant_field_gives_exact_zero(self, lift2d_field):
        flat = lift2d_field.with_values(
            np.full_like(lift2d_field.values, 0.5))
        assert lipschitz_probe(flat, [[0.2, 0.1], [0.0, 0.0]]) == [0.0, 0.0]

    def test_field_agrees_with_closed_form(self, lift2d_field):
        pt = [0.513, 0.497]  # off-node, off the fold line
        from_field = lipschitz_probe(lift2d_field, [pt])[0]
        from_form = lipschitz_probe("lift2d", [pt])[0]
        assert abs(from_field - from_form) <= 0.05

    def test_unknown_closed_form(self):
        with pytest.raises(ConfigError, match="closed form"):
            lipschitz_probe("no_such", [[0.5]])

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="delta"):
            lipschitz_probe("arctan1d", [[1.0]], delta=0.0)
