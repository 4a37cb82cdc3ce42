import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from zubov.expressions import EvalDomainError
from zubov.solver import SolverSettings, interpolate, solve_zubov
from zubov.systems import (
    ConfigError,
    ControlSpace,
    Grid,
    Growth,
    OutsideDomainError,
    SystemDef,
    Ules,
    ValidationError,
    ValueField,
    builtin,
    closed_form_value,
    hav_q,
    hav_q_integral,
    load_field,
    load_system,
    save_field,
)


# --- control spaces ---------------------------------------------------------

class TestControlSpace:
    def test_box_discretization_contains_corners(self):
        cs = ControlSpace.from_box([-1.0, 0.0], [1.0, 2.0], [3, 2])
        assert cs.size == 6 and cs.m == 2
        pts = {tuple(p) for p in cs.points}
        for corner in [(-1, 0), (-1, 2), (1, 0), (1, 2)]:
            assert corner in pts

    def test_single_sample_axis_needs_degenerate_box(self):
        cs = ControlSpace.from_box([0.5], [0.5], [1])
        assert cs.points.tolist() == [[0.5]]
        with pytest.raises(ConfigError):
            ControlSpace.from_box([0.0], [1.0], [1])

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigError):
            ControlSpace.from_points(np.zeros((0, 2)))

    def test_point_outside_declared_box_rejected(self):
        with pytest.raises(ConfigError):
            ControlSpace([[0.0], [2.0]], [0.0], [1.0])

    @pytest.mark.parametrize("count", [2.7, True])
    def test_bool_or_fractional_count_rejected(self, count):
        # an int conversion would build 2 (or 1) controls without a word
        with pytest.raises(ConfigError, match="control sample counts"):
            ControlSpace.from_box([-1.0], [1.0], [count])

    def test_no_control_space(self):
        cs = ControlSpace.none()
        assert cs.size == 1 and cs.m == 0
        # iterating still yields one (empty) point
        assert [a.shape for a in cs.points] == [(0,)]


# --- grids ------------------------------------------------------------------

class TestGrid:
    def test_origin_is_exact_node(self):
        g = Grid([-1.2, -1.2], [1.2, 1.2], [201, 201])
        i, j = g.origin_index
        assert (i, j) == (100, 100)
        assert g.axes[0][i] == 0.0 and g.axes[1][j] == 0.0

    def test_asymmetric_box_still_centers_origin(self):
        g = Grid([-0.5], [1.0], [7])
        assert g.axes[0][g.origin_index[0]] == 0.0
        assert g.dx[0] == pytest.approx(0.25)

    def test_grid_missing_origin_rejected(self):
        with pytest.raises(ConfigError, match="missing origin"):
            Grid([-1.0], [1.3], [5])

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigError, match="at least 3"):
            Grid([-1.0], [1.0], [2])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ConfigError):
            Grid([1.0], [1.0], [3])

    def test_counts_must_be_whole(self):
        with pytest.raises(ConfigError, match="grid counts"):
            Grid([-1.0], [1.0], [41.5])
        with pytest.raises(ConfigError, match="grid counts"):
            Grid([-1.0, -1.0], [1.0, 1.0], [5, True])
        # integral floats and NumPy integers are whole numbers
        g = Grid([-1.0, -1.0], [1.0, 1.0], [5.0, np.int64(7)])
        assert g.counts.tolist() == [5, 7]

    def test_node_coords_shape(self):
        g = Grid([-1.0, -2.0], [1.0, 2.0], [5, 9])
        xs = g.node_coords()
        assert xs.shape == (5, 9, 2)
        assert xs[2, 4].tolist() == [0.0, 0.0]
        assert xs[0, 0] == pytest.approx([-1.0, -2.0])


# --- value fields and CSV round trip ----------------------------------------

class TestValueField:
    def grid(self):
        return Grid([-1.0], [1.0], [5])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            ValueField(self.grid(), np.zeros(4), "kruzhkov")

    def test_bad_transform(self):
        with pytest.raises(ConfigError):
            ValueField(self.grid(), np.zeros(5), "log")

    def test_invariants_flag_range_and_origin(self):
        f = ValueField(self.grid(), np.array([0.0, 0.1, 0.2, 0.3, 1.5]),
                       "kruzhkov")
        probs = f.check_invariants()
        assert any("[0, 1]" in p for p in probs)
        f2 = ValueField(self.grid(), np.array([0.0, 0.1, 0.2, 0.3, 0.4]),
                        "kruzhkov")
        assert any("origin" in p for p in f2.check_invariants())
        ok = ValueField(self.grid(), np.array([0.3, 0.1, 0.0, 0.3, 0.4]),
                        "kruzhkov")
        assert ok.check_invariants() == []

    def test_csv_roundtrip_is_bitwise(self, tmp_path):
        g = Grid([-1.2, -0.6], [1.2, 0.6], [5, 3])
        rng = np.random.default_rng(7)
        vals = rng.random((5, 3))
        vals[0, 0] = 1.0 / 3.0
        vals[1, 1] = 1e-17
        f = ValueField(g, vals, "raw")
        path = tmp_path / "field.csv"
        save_field(f, path)
        back = load_field(path)
        assert back.transform == "raw"
        assert back.grid.same_layout(g)
        assert np.array_equal(back.values, vals)

    def test_csv_header_layout(self, tmp_path):
        f = ValueField(Grid([-1.0], [1.0], [3]), np.zeros(3), "kruzhkov")
        path = tmp_path / "f.csv"
        save_field(f, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == ["1", "3", "-1", "1", "kruzhkov"]
        assert len(lines) == 1 + 3
        # row: index, coordinate, value
        assert lines[1].split(",") == ["0", "-1", "0"]

    def test_resave_is_byte_identical(self, tmp_path):
        g = Grid([-1.2, -0.6], [1.2, 0.6], [5, 3])
        f = ValueField(g, np.random.default_rng(3).random((5, 3)), "kruzhkov")
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_field(f, first)
        save_field(load_field(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("edit,match", [
        # a row cut short
        (lambda rows: rows.__setitem__(4, "1,1,0"), "row"),
        # every row one column too wide
        (lambda rows: rows.__setitem__(
            slice(1, None), [r + ",0" for r in rows[1:]]), "columns"),
        # an index past the grid's counts
        (lambda rows: rows.__setitem__(9, "3,2,1,1,0.5"), "index"),
        # an index that is not an integer
        (lambda rows: rows.__setitem__(9, "2,1.5,1,1,0.5"), "index"),
        # node (1,2) written over node (1,1): one duplicate, one missing
        (lambda rows: rows.__setitem__(5, rows[6]), "1 node.*duplicated"),
        # coordinates that do not belong to the index
        (lambda rows: rows.__setitem__(5, "1,1,0.5,0,0.5"), "off the grid"),
        # no rows at all
        (lambda rows: rows.__delitem__(slice(1, None)), "0 rows"),
        # run-record tokens: a value that does not parse, no value, an
        # unknown key, a flag other than 0/1, a repeated key
        (lambda rows: rows.__setitem__(0, rows[0] + ",dt=abc"), "header"),
        (lambda rows: rows.__setitem__(0, rows[0] + ",dt"), "header"),
        (lambda rows: rows.__setitem__(0, rows[0] + ",bogus=1"), "header"),
        (lambda rows: rows.__setitem__(0, rows[0] + ",converged=2"),
         "header"),
        (lambda rows: rows.__setitem__(0, rows[0] + ",tol=1,tol=1"),
         "header"),
    ])
    def test_malformed_rows_rejected(self, tmp_path, edit, match):
        g = Grid([-1.0, -1.0], [1.0, 1.0], [3, 3])
        path = tmp_path / "f.csv"
        save_field(ValueField(g, np.full((3, 3), 0.5), "kruzhkov"), path)
        rows = path.read_text().splitlines()
        edit(rows)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match=match):
            load_field(path)

    def test_run_record_round_trips(self, tmp_path):
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [21, 21])
        field = solve_zubov(builtin("lift2d"), grid, SolverSettings(dt=0.1))
        path = tmp_path / "f.csv"
        save_field(field, path)
        back = load_field(path)
        record = ("dt", "tol", "converged")
        assert back.metadata == {k: field.metadata[k] for k in record}
        assert back.metadata["converged"] is True
        assert interpolate(back, [2.0, 2.0]) == 1.0
        # the header holds the record and nothing else of the metadata
        lines = path.read_text().splitlines()
        head = lines[0].split(",")
        assert head[head.index("kruzhkov") + 1:] == [
            "dt=0.10000000000000001", "tol=9.9999999999999995e-07",
            "converged=1"]
        # files written before Euler feet were removed still load
        lines[0] = lines[0].replace(",dt=",
                                    ",rk4_feet=0,exterior_value=0.3,dt=")
        path.write_text("\n".join(lines) + "\n")
        old = load_field(path).metadata
        assert old["rk4_feet"] is False and old["exterior_value"] == 0.3

    def test_header_without_record_loads_empty_metadata(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,3,-1,1,kruzhkov\n0,-1,1\n1,0,0\n2,1,1\n")
        back = load_field(path)
        assert back.metadata == {}
        assert back.values.tolist() == [1.0, 0.0, 1.0]

    def test_truncated_file_rejected(self, tmp_path):
        f = ValueField(Grid([-1.0], [1.0], [3]), np.zeros(3), "raw")
        path = tmp_path / "f.csv"
        save_field(f, path)
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ConfigError):
            load_field(path)


# --- config loading ---------------------------------------------------------

def _config(**patch):
    doc = {
        "name": "scalar-decay",
        "n": 1,
        "control": {"points": [[0.0]]},
        "f": ["-x1"],
        "g": "x1^2",
    }
    doc.update(patch)
    return doc


class TestLoadSystem:
    def test_minimal_config_loads_and_evaluates(self):
        sys = load_system(_config())
        a = sys.control.points[0]
        assert sys.f(np.array([2.0]), a) == pytest.approx([-2.0])
        assert sys.g(np.array([3.0]), a) == pytest.approx(9.0)
        batch = sys.f(np.array([[1.0], [2.0]]), np.zeros((2, 1)))
        assert batch.shape == (2, 1)

    def test_survives_json_round_trip(self):
        sys = load_system(json.loads(json.dumps(_config())))
        assert sys.n_state == 1

    def test_nonvanishing_cost_at_origin_rejected(self):
        with pytest.raises(ValidationError) as err:
            load_system(_config(g="x1^2 + 1"))
        assert any("g(0,a)" in p for p in err.value.problems)

    def test_empty_control_list_rejected(self):
        with pytest.raises(ValidationError) as err:
            load_system(_config(control={"points": []}))
        assert any("control" in p for p in err.value.problems)

    def test_problems_are_aggregated(self):
        with pytest.raises(ValidationError) as err:
            load_system(_config(f=["x1 +"], g="sin(x1"))
        probs = err.value.problems
        assert len(probs) >= 2
        assert any("f[0]" in p for p in probs)
        assert any(p.startswith("g") for p in probs)

    def test_constant_component_keeps_batch_shape(self):
        sys = load_system(_config(n=2, f=["-x1", "0.0"], g="x1^2 + x2^2"))
        out = sys.f(np.zeros((4, 2)), np.zeros((4, 1)))
        assert out.shape == (4, 2)
        constant = load_system(_config(g="0.0"))
        assert constant.g(np.zeros((4, 1)), np.zeros(1)).shape == (4,)
        assert isinstance(constant.g(np.zeros(1), np.zeros(1)), float)

    def test_trees_compile_once_per_load(self, monkeypatch):
        from zubov import expressions

        calls = []
        compile_tree = expressions._compile
        monkeypatch.setattr(expressions, "_compile",
                            lambda node: calls.append(node)
                            or compile_tree(node))
        sys = load_system(_config(n=2, f=["-x1 + a1*x1^2", "-x2 + a1*x2^2"],
                                  g="x1^2 + x2^2",
                                  control={"points": [[-1.0], [1.0]]}))
        loaded = len(calls)
        assert loaded > 0
        x, a = np.full((50, 2), 0.25), np.ones((50, 1))
        for _ in range(100):
            sys.f(x, a)
            sys.g(x, a)
        assert len(calls) == loaded

    def test_components_raise_in_order(self):
        sys = load_system(_config(n=2, f=["-x1 + 0*ln(x1 + 1)",
                                         "-x2 + 0/(x2 + 1)"],
                                  g="x1^2 + x2^2"))
        a = np.zeros(1)
        with pytest.raises(EvalDomainError, match="ln"):
            sys.f(np.array([-1.0, -1.0]), a)  # both fail; f[0] reports
        with pytest.raises(EvalDomainError, match="division"):
            sys.f(np.array([[0.5, 0.5], [0.5, -1.0]]), a)

    def test_missing_dimension(self):
        with pytest.raises(ConfigError):
            load_system({"f": ["-x1"], "g": "x1^2"})

    def test_boolean_dimension_rejected(self):
        with pytest.raises(ConfigError, match="'n'"):
            load_system(_config(n=True))

    def test_fractional_control_count_rejected(self):
        box = {"lo": [-1.0], "hi": [1.0], "counts": [2.7]}
        with pytest.raises(ValidationError) as err:
            load_system(_config(control={"box": box}))
        assert any("counts" in p and "2.7" in p for p in err.value.problems)

    def test_boolean_envelope_constants_rejected(self):
        with pytest.raises(ValidationError) as err:
            load_system(_config(ules={"C": True, "sigma": 1.0, "r": 0.5},
                                growth={"C_tilde": 1.0, "lambda": False}))
        probs = err.value.problems
        assert any(p.startswith("ules") and "C must" in p for p in probs)
        assert any(p.startswith("growth") and "lambda must" in p
                   for p in probs)

    def test_control_variable_needs_control_space(self):
        with pytest.raises(ValidationError) as err:
            load_system(_config(control=None, f=["-x1 + a1"]))
        assert any("a1" in p for p in err.value.problems)

    def test_minimize_mode_needs_guard(self):
        with pytest.raises(ValidationError) as err:
            load_system(_config(mode="minimize", ell="x1^2"))
        assert any("guard" in p for p in err.value.problems)

    def test_ules_growth_blocks(self):
        sys = load_system(_config(
            ules={"C": 1.0, "sigma": 1.0, "r": 0.5},
            growth={"C_tilde": 1.0, "lambda": 2.0}))
        assert sys.ules.sigma == 1.0 and sys.growth.lam == 2.0
        with pytest.raises(ValidationError):
            load_system(_config(ules={"C": 1.0, "sigma": -1.0, "r": 0.5}))


# --- invariant checks on direct construction --------------------------------

def test_drifting_origin_rejected_in_maximize_mode():
    def f(x, a):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 1],
                         np.broadcast_to(np.asarray(a)[..., 0],
                                         x[..., 1].shape)], axis=-1)

    def g(x, a):
        return np.asarray(x, dtype=float)[..., 0] ** 2

    with pytest.raises(ValidationError) as err:
        SystemDef("drift", 2, ControlSpace.from_box([-1], [1], [3]), f, g)
    assert any("f(0,a)" in p for p in err.value.problems)


def test_declared_growth_is_spot_checked():
    def f(x, a):
        return -np.asarray(x, dtype=float)

    def g(x, a):
        return np.abs(np.asarray(x, dtype=float)[..., 0])

    with pytest.raises(ValidationError) as err:
        SystemDef("too-steep", 1, ControlSpace.none(), f, g,
                  ules=Ules(1.0, 1.0, 0.5), growth=Growth(1.0, 2.0))
    assert any("growth" in p for p in err.value.problems)


# --- builtin systems ---------------------------------------------------------

class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            builtin("lorenz")

    def test_all_names_construct(self):
        for name in ("lift2d", "lift2d-psi-sqrt", "lift2d-psi-abs",
                     "ex1", "arctan1d", "hav1d", "fuller"):
            builtin(name)

    def test_lift2d_control_grid(self):
        sys = builtin("lift2d")
        assert sys.control.size == 21
        assert sys.control.points[0, 0] == -1.0
        assert sys.control.points[-1, 0] == 1.0
        assert builtin("lift2d", controls=3).control.size == 3

    @pytest.mark.parametrize("name", ["lift2d", "ex1", "fuller"])
    @pytest.mark.parametrize("controls", [2.7, True])
    def test_controls_override_must_be_whole(self, name, controls):
        with pytest.raises(ConfigError, match="controls"):
            builtin(name, controls=controls)

    @pytest.mark.parametrize("u", [
        np.linspace(-1.5, 1.5, 13),            # all inside: the shortcut
        np.linspace(-1.7, 1.9, 37),            # straddles 1.5
        np.array([1.0, -1.51]),                # just past it
        np.array([[-2.5, 3.0], [2.0, -7.0]]),  # beyond 2
        0.3, -1.5, 1.75, 2.4,                  # scalars
    ])
    def test_smooth_cut_is_the_ramp_bit_for_bit(self, u):
        from zubov.systems import _smooth_cut
        t = np.clip((np.abs(u) - 1.5) / 0.5, 0.0, 1.0)
        ramp = 1.0 - t * t * (3.0 - 2.0 * t)
        cut = _smooth_cut(u)
        assert np.shape(cut) == np.shape(u)
        assert np.asarray(cut, dtype=float).tobytes() == np.asarray(
            ramp, dtype=float).tobytes()

    def test_lift2d_dynamics_inside_working_box(self):
        sys = builtin("lift2d")
        a = np.array([1.0])
        x = np.array([1.4, -0.2])
        # taper is identically 1 on [-1.5, 1.5]^2
        exact = [-1.4 + 1.96, 0.2 + 0.04]
        assert sys.f(x, a) == pytest.approx(exact, rel=1e-12)

    def test_lift2d_dynamics_frozen_far_out(self):
        sys = builtin("lift2d")
        a = np.array([-1.0])
        assert sys.f(np.array([2.5, 0.3]), a) == pytest.approx([0.0, 0.0])
        mid = sys.f(np.array([1.7, 0.0]), a)
        assert 0.0 < abs(mid[0]) < 1.7 + 1.7 ** 2  # between off and raw

    def test_psi_costs_differ_from_plain(self):
        x = np.array([0.25, 0.0])
        a = np.array([0.0])
        assert builtin("lift2d").g(x, a) == pytest.approx(0.0625)
        assert builtin("lift2d-psi-abs").g(x, a) == pytest.approx(
            0.0625 * (0.5 + 0.75))
        assert builtin("lift2d-psi-sqrt").g(x, a) == pytest.approx(
            0.0625 * (math.sqrt(0.5) + math.sqrt(0.75)))

    def test_ex1_piecewise_dynamics(self):
        sys = builtin("ex1")
        a = np.array([0.5])
        assert sys.f(np.array([1.0]), a)[0] == pytest.approx(-0.5)
        assert sys.f(np.array([-1.0]), a)[0] == pytest.approx(1.5)
        assert sys.f(np.array([0.5]), a)[0] == pytest.approx(-0.5 + 0.125)
        # continuity across the matching points
        for x0, sgn in ((1.0, 1.0), (-1.0, -1.0)):
            lo = sys.f(np.array([x0 - sgn * 1e-12]), a)[0]
            hi = sys.f(np.array([x0 + sgn * 1e-12]), a)[0]
            assert lo == pytest.approx(hi, abs=1e-9)

    def test_ex1_cost_support(self):
        sys = builtin("ex1")
        a = np.array([0.0])
        assert sys.g(np.array([0.5]), a) == pytest.approx(1.0)
        assert sys.g(np.array([1.5]), a) == 0.0
        assert sys.g(np.array([-0.25]), a) == pytest.approx(
            math.sin(0.25 * math.pi))

    def test_arctan_profile(self):
        sys = builtin("arctan1d")
        assert sys.control.m == 0
        a = sys.control.points[0]
        assert sys.f(np.array([2.0]), a)[0] == -2.0
        assert sys.g(np.array([1.0]), a) == pytest.approx(0.5)
        with pytest.raises(ConfigError):
            builtin("arctan1d", controls=5)

    def test_hav_dynamics_continuous_at_matching_radius(self):
        sys = builtin("hav1d")
        a = sys.control.points[0]
        lo = sys.f(np.array([0.9 - 1e-13]), a)[0]
        hi = sys.f(np.array([0.9 + 1e-13]), a)[0]
        assert lo == pytest.approx(hi, abs=1e-9)
        assert lo == pytest.approx(-1.0 / 0.9 ** 5, rel=1e-9)

    def test_hav_cost_is_seventh_power_in_core(self):
        sys = builtin("hav1d")
        a = sys.control.points[0]
        for x in (0.1, 0.3, 0.45):
            assert sys.g(np.array([x]), a) == pytest.approx(x ** 7, rel=1e-12)

    def test_fuller_minimize_mode(self):
        sys = builtin("fuller")
        assert sys.mode == "minimize" and sys.guard == "nonneg_ell"
        assert sys.control.size == 3
        a0 = np.array([0.0])
        assert sys.f(np.zeros(2), a0) == pytest.approx([0.0, 0.0])
        # drift under a != 0 is fine in minimize mode
        assert sys.f(np.zeros(2), np.array([1.0]))[1] == 1.0
        assert sys.ell(np.array([0.5, 3.0]), a0) == pytest.approx(0.25)
        with pytest.raises(ConfigError, match="overrides"):
            builtin("fuller", gamma=1.0)

    def test_unsupported_override(self):
        with pytest.raises(ConfigError, match="overrides"):
            builtin("lift2d", gamma=2.0)


# --- the spiky 1-d cost profile ----------------------------------------------

def _spike_area(k):
    # full triangle: height 10^k over half-width 10^-(2k+1) on both sides
    return 10.0 ** (3 * k + 1) * (10.0 ** -(2 * k + 1)) ** 2


def _bump_area(k):
    base = (10.0 ** (k + 1) - 10.0 ** -(2 * k + 3)) - (
        10.0 ** k + 10.0 ** -(2 * k + 1))
    return 0.5 * base * 10.0 ** -(2 * k + 2)


class TestHavProfile:
    def test_spike_peaks_exact(self):
        for k in (0, 1, 2):
            assert hav_q(10.0 ** k) == 10.0 ** k

    def test_zero_set(self):
        assert hav_q(0.0) == 0.0
        # spike feet vanish up to one ulp of the local (steep) slope
        for x in (0.9, 1.1, 9.999, 10.001):
            assert hav_q(x) == pytest.approx(0.0, abs=1e-9)

    def test_core_matches_polynomial(self):
        for x in (0.1, 0.25, 0.45):
            assert hav_q(x) == pytest.approx(0.9 ** 6 * x ** 6, rel=1e-13)

    @given(st.floats(min_value=-50.0, max_value=50.0,
                     allow_nan=False, allow_infinity=False))
    def test_odd(self, x):
        assert hav_q(-x) == -hav_q(x)

    def test_slopes_away_from_spikes_below_one(self):
        for lo, hi in ((0.0, 0.89), (1.11, 9.98), (10.02, 99.9)):
            ys = np.linspace(lo, hi, 2001)
            q = hav_q(ys)
            slopes = np.abs(np.diff(q) / np.diff(ys))
            assert slopes.max() <= 1.0

    def test_integral_matches_triangle_arithmetic(self):
        core = 0.9 ** 6 * 0.45 ** 7 / 7.0
        ramp = 0.5 * 0.45 * 0.405 ** 6
        v09 = core + ramp
        v1 = v09 + _spike_area(0) / 2.0
        v10 = v1 + _spike_area(0) / 2.0 + _bump_area(0) + _spike_area(1) / 2.0
        v100 = v10 + _spike_area(1) / 2.0 + _bump_area(1) + _spike_area(2) / 2.0
        assert hav_q_integral(0.45) == pytest.approx(core, rel=1e-12)
        assert hav_q_integral(0.9) == pytest.approx(v09, rel=1e-12)
        assert hav_q_integral(1.0) == pytest.approx(v1, rel=1e-12)
        assert hav_q_integral(10.0) == pytest.approx(v10, rel=1e-12)
        assert hav_q_integral(100.0) == pytest.approx(v100, rel=1e-12)
        # and the decimal everyone downstream relies on
        assert hav_q_integral(1.0) == pytest.approx(0.051276606722, abs=1e-9)

    def test_integral_matches_quadrature(self):
        for x in (0.3, 0.7, 1.05, 2.0, 4.0):
            kinks = [p for p in (0.45, 0.9, 1.0, 1.1) if p < x] or None
            ref, err = quad(hav_q, 0.0, x, points=kinks, limit=200)
            assert err < 1e-9
            assert hav_q_integral(x) == pytest.approx(ref, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=200.0),
           st.floats(min_value=0.0, max_value=200.0))
    def test_integral_even_and_monotone(self, a, b):
        assert hav_q_integral(-a) == hav_q_integral(a)
        lo, hi = sorted((a, b))
        assert hav_q_integral(lo) <= hav_q_integral(hi) + 1e-15


# --- closed forms ------------------------------------------------------------

class TestClosedForms:
    def test_lift2d_pinned_values(self):
        assert closed_form_value("lift2d", (0.5, 0.5)) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, rel=1e-12)
        assert closed_form_value("lift2d", (0.5, -0.5)) == pytest.approx(
            math.log(4.0 / 3.0), rel=1e-12)
        assert closed_form_value("lift2d", (0.0, 0.0)) == 0.0

    def test_lift2d_branches_agree_on_seam(self):
        for t in np.linspace(-0.99, 0.99, 100):
            x1, x2 = t, -t
            up = -math.log1p(-x1) - math.log1p(-x2) - x1 - x2
            dn = -math.log1p(x1) - math.log1p(x2) + x1 + x2
            assert abs(up - dn) <= 1e-12
            v = closed_form_value("lift2d", (x1, x2))
            assert abs(v - up) <= 1e-12

    def test_lift2d_vectorized(self):
        pts = np.array([[0.5, 0.5], [0.5, -0.5], [0.0, 0.0]])
        out = closed_form_value("lift2d", pts)
        assert out.shape == (3,)
        assert out[2] == 0.0

    def test_lift2d_outside_domain(self):
        with pytest.raises(OutsideDomainError):
            closed_form_value("lift2d", (1.0, 0.0))
        with pytest.raises(OutsideDomainError):
            closed_form_value("lift2d", (0.0, -1.5))

    def test_arctan_closed_form(self):
        assert closed_form_value("arctan1d", 1.0) == pytest.approx(
            math.pi / 4.0, rel=1e-12)
        for x in (10.0, 100.0, 1000.0):
            gap = math.pi / 2.0 - closed_form_value("arctan1d", x)
            assert 0.0 < gap <= 1.0 / x

    def test_hav_closed_form_is_the_profile_integral(self):
        assert closed_form_value("hav1d", 2.0) == hav_q_integral(2.0)

    def test_ex1_closed_form_against_quadrature(self):
        def integrand(u):
            return math.sin(math.pi * u) / (u * (1.0 - u))

        for x in (0.25, 0.5, 0.75, 0.999):
            ref, err = quad(integrand, 0.0, x)
            assert err < 1e-9
            assert closed_form_value("ex1", x) == pytest.approx(ref, abs=1e-9)

    def test_ex1_saturates_and_is_even(self):
        plateau = closed_form_value("ex1", 1.0)
        assert closed_form_value("ex1", 2.0) == pytest.approx(plateau)
        assert closed_form_value("ex1", 57.0) == pytest.approx(plateau)
        assert closed_form_value("ex1", -0.25) == pytest.approx(
            closed_form_value("ex1", 0.25), rel=1e-12)
        assert plateau == pytest.approx(3.7038741040, abs=1e-9)

    def test_ex1_pinned_values(self):
        assert closed_form_value("ex1", 0.25) == pytest.approx(
            0.8711644719, abs=1e-9)
        assert closed_form_value("ex1", 0.5) == pytest.approx(
            1.8519370520, abs=1e-9)
        assert closed_form_value("ex1", 0.75) == pytest.approx(
            2.8327096321, abs=1e-9)

    def test_unregistered_closed_form(self):
        with pytest.raises(ConfigError):
            closed_form_value("fuller", (0.0, 0.0))
