import hashlib
import itertools
import json
import math
import os
import pathlib
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from zubov.expressions import EvalDomainError
from zubov.oracle import (defect_allowances, falsify_quasistability,
                          maximal_cost, min_value)
from zubov import systems
from zubov.regions import DoaMask, load_mask, save_mask
from zubov.solver import (SolverSettings, interpolate, inverse_transform,
                          solve_hjbe, solve_zubov)
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
    _positive,
    _whole,
)
from zubov.trajectories import (ControlSchedule, RelaxedSchedule, chatter,
                                integrate)
from zubov.verify import check_lyapunov_decrease, lipschitz_probe


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
            ControlSpace(np.zeros((0, 2)))

    @pytest.mark.parametrize("count", [2.7, True])
    def test_bool_or_fractional_count_rejected(self, count):
        # an int conversion would build 2 (or 1) controls without a word
        with pytest.raises(ConfigError, match="control sample counts"):
            ControlSpace.from_box([-1.0], [1.0], [count])

    @pytest.mark.parametrize("lo,hi", [([-math.inf], [1.0]),
                                       ([-1.0], [math.nan])])
    def test_non_finite_box_rejected(self, lo, hi):
        # linspace would warn and sample NaN controls first
        with pytest.raises(ConfigError, match="finite"):
            ControlSpace.from_box(lo, hi, [3])

    def test_non_finite_point_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            ControlSpace([[0.0], [math.nan]])

    def test_no_control_space(self):
        cs = ControlSpace.none()
        assert cs.size == 1 and cs.m == 0
        # iterating still yields one (empty) point
        assert [a.shape for a in cs.points] == [(0,)]

    @pytest.mark.parametrize("lo,hi,counts", [
        ([], [], []),
        ([-1.0], [1.0], [21]),
        ([0.5], [0.5], [1]),
        ([-1.0, 0.0], [1.0, 2.0], [3, 2]),
        ([-1.0, 0.25, -3.0], [1.0, 0.25, 0.1], [5, 1, 7]),
        ([0.0, -2.0], [0.0, 2.0], [4, 3]),
    ])
    def test_box_lattice_is_the_product_of_linspace_axes(self, lo, hi,
                                                         counts):
        cs = ControlSpace.from_box(lo, hi, counts)
        axes = [np.linspace(a, b, k) for a, b, k in zip(lo, hi, counts)]
        want = np.array(list(itertools.product(*axes)), dtype=float)
        assert cs.points.shape == want.shape
        assert cs.points.tobytes() == want.tobytes()
        # the box is the points' hull, which holds the declared corners
        assert cs.box_lo.tobytes() == np.array(lo, dtype=float).tobytes()
        assert cs.box_hi.tobytes() == np.array(hi, dtype=float).tobytes()

    def test_points_without_coordinates_are_the_empty_point(self):
        cs = ControlSpace([[], []])
        assert cs.points.shape == (1, 0) and cs.size == 1 and cs.m == 0
        assert cs.box_lo.shape == cs.box_hi.shape == (0,)

    def test_box_is_the_hull_of_the_points(self):
        cs = ControlSpace([[0.5, -2.0], [-1.0, 3.0], [0.0, 0.0]])
        assert cs.box_lo.tolist() == [-1.0, -2.0]
        assert cs.box_hi.tolist() == [0.5, 3.0]

    # past the bound but small enough that a lattice built before the
    # check would fail the peak assertion, not exhaust the memory
    @pytest.mark.parametrize("counts,size", [([2 ** 21], 2 ** 21),
                                             ([2] * 21, 2 ** 21),
                                             ([1025, 1024], 1025 * 1024)])
    def test_oversized_lattice_refused_before_it_is_built(self, counts,
                                                          size):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="lattice has %d samples; "
                               "at most %d" % (size, systems.MAX_CONTROLS)):
                ControlSpace.from_box([-1.0] * len(counts),
                                      [1.0] * len(counts), counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # bytes: no lattice was built

    def test_largest_lattice_is_built(self):
        cs = ControlSpace.from_box([-1.0, -1.0], [1.0, 1.0], [1024, 1024])
        assert cs.size == systems.MAX_CONTROLS

    @pytest.mark.parametrize("lo,hi,counts,message", [
        ([1.0], [-1.0], [3], "control box has lo > hi"),
        ([0.0], [1.0], [1], "one sample on axis 0 needs a degenerate box"),
        # the per-axis check comes before lo > hi
        ([1.0], [0.0], [1], "one sample on axis 0 needs a degenerate box"),
        ([0.0], [1.0], [0], "control sample count must be >= 1"),
    ])
    def test_box_refusals(self, lo, hi, counts, message):
        with pytest.raises(ConfigError) as err:
            ControlSpace.from_box(lo, hi, counts)
        assert str(err.value) == message


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

    @pytest.mark.parametrize("lo,hi", [([-1.0], [math.inf]),
                                       ([math.nan], [1.0])])
    def test_non_finite_box_rejected(self, lo, hi):
        # refused before the origin search casts a NaN to an index
        with pytest.raises(ConfigError, match="finite"):
            Grid(lo, hi, [3])

    def test_counts_must_be_whole(self):
        with pytest.raises(ConfigError, match="grid counts"):
            Grid([-1.0], [1.0], [41.5])
        with pytest.raises(ConfigError, match="grid counts"):
            Grid([-1.0, -1.0], [1.0, 1.0], [5, True])
        # integral floats and NumPy integers are whole numbers
        g = Grid([-1.0, -1.0], [1.0, 1.0], [5.0, np.int64(7)])
        assert g.counts.tolist() == [5, 7]

    def test_node_count_past_int64_refused(self):
        # 3^40 once wrapped to a negative int64 node count
        with pytest.raises(ConfigError,
                           match="grid has 12157665459056928801 nodes"):
            Grid([-1.0] * 40, [1.0] * 40, [3] * 40)
        # 3^39 fits, and is counted exactly
        assert Grid([-1.0] * 39, [1.0] * 39, [3] * 39).n_nodes == 3 ** 39

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

    @pytest.mark.parametrize("lo,hi,counts", [
        ([-2.0], [2.0], [4099]),
        ([-1.2, -0.6], [1.2, 0.6], [71, 61]),
        ([-1.0, -0.5, -2.0], [1.0, 1.5, 2.0], [17, 17, 17])],
        ids=["1d", "2d", "3d"])
    def test_rows_are_the_per_value_format(self, tmp_path, lo, hi, counts):
        # every node's row as one %d / %.17g per value, more nodes than one
        # writer chunk holds
        g = Grid(lo, hi, counts)
        vals = np.random.default_rng(9).random(tuple(g.counts))
        path = tmp_path / "f.csv"
        save_field(ValueField(g, vals, "kruzhkov", {"dt": 0.05}), path)
        head = path.read_bytes().split(b"\n", 1)[0].decode()
        rows = [",".join(["%d" % i for i in at]
                         + ["%.17g" % ax[i] for ax, i in zip(g.axes, at)]
                         + ["%.17g" % vals[at]])
                for at in np.ndindex(*g.counts)]
        assert path.read_bytes() == ("\n".join([head, *rows]) + "\n").encode()

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
        # a dt or tol that is not positive and finite, an exterior value
        # that is not finite: with dt=0 the feet are the nodes, and any
        # field would pass the fixed-point check
        *[(lambda rows, token=token: rows.__setitem__(0, rows[0] + ","
                                                      + token), "header")
          for token in ("dt=0", "dt=nan", "dt=-0.05", "dt=inf", "tol=nan",
                        "tol=-1", "tol=0", "exterior_value=nan",
                        "exterior_value=inf")],
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

    @pytest.mark.parametrize("at", ["header", "body"])
    def test_bytes_that_are_not_utf8_rejected(self, tmp_path, at):
        path = tmp_path / "f.csv"
        text = b"1,3,-1,1,kruzhkov\n0,-1,1\n1,0,0\n2,1,1\n"
        path.write_bytes(b"\xff" + text if at == "header"
                         else text.replace(b"1,0,0", b"1,0,\xff"))
        with pytest.raises(ConfigError, match="field file is not UTF-8"):
            load_field(path)

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

    @pytest.mark.parametrize("kind", ["field", "mask"])
    def test_absurd_count_rejected_before_the_grid(self, tmp_path, kind):
        # 10^12 + 1 nodes on one axis: the grid's axis alone would be 7 TiB
        import tracemalloc

        from zubov.regions import load_mask

        load, tail, row = {"field": (load_field, "kruzhkov", "0,0,0.5"),
                           "mask": (load_mask, "0.01", "0,1")}[kind]
        path = tmp_path / "f.csv"
        path.write_text("1,1000000000001,-1,1,%s\n%s\n" % (tail, row))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError,
                               match="1 rows for 1000000000001 nodes"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# --- the field's binary twin ------------------------------------------------

# (name, half-width, nodes per axis, solver): every builtin's own solve on a
# small grid; fuller, a least-cost problem, solves only raw
TWIN_SOLVES = [("lift2d", 1.2, 21, solve_zubov),
               ("lift2d-psi-sqrt", 1.2, 21, solve_zubov),
               ("lift2d-psi-abs", 1.2, 21, solve_zubov),
               ("ex1", 2.0, 81, solve_zubov),
               ("arctan1d", 3.0, 61, solve_zubov),
               ("hav1d", 1.0, 41, solve_zubov),
               ("fuller", 1.0, 21, solve_hjbe)]


def _solved(name, half, nodes, solve):
    system = builtin(name)
    n = system.n_state
    return solve(system, Grid([-half] * n, [half] * n, [nodes] * n),
                 SolverSettings(dt=0.1))


def _parse_only(monkeypatch):
    """Make load_field ignore every twin, as if none were there."""
    monkeypatch.setattr(systems, "_read_twin", lambda *args: None)


def _twin_only(monkeypatch):
    """Make a CSV parse fail, so a load that succeeds read the twin."""
    def parse(*args):
        raise AssertionError("the CSV was parsed")
    monkeypatch.setattr(systems, "_read_grid_csv", parse)


def _count_opens(monkeypatch, path):
    """The modes ``path`` is opened with from here on, one per open."""
    real_open, modes = open, []

    def counting(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) \
                and os.fspath(file) == os.fspath(path):
            modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    return modes


class TestFieldTwin:
    """save_field writes field.npz beside field.csv; load_field takes the
    values from it only while the CSV's bytes hash to the digest it holds."""

    @pytest.fixture
    def saved(self, tmp_path):
        g = Grid([-1.0, -1.0], [1.0, 1.0], [5, 3])
        field = ValueField(g, np.random.default_rng(5).random((5, 3)),
                           "kruzhkov", {"dt": 0.05, "converged": True})
        path = tmp_path / "field.csv"
        save_field(field, path)
        return field, path

    @pytest.mark.parametrize("name, half, nodes, solve", TWIN_SOLVES,
                             ids=["%s-%s" % (row[0], row[3].__name__)
                                  for row in TWIN_SOLVES])
    def test_twin_read_is_the_csv_parse(self, tmp_path, monkeypatch, name,
                                        half, nodes, solve):
        field = _solved(name, half, nodes, solve)
        path = tmp_path / "field.csv"
        save_field(field, path)
        assert (tmp_path / "field.npz").exists()
        with monkeypatch.context() as m:
            _parse_only(m)
            parsed = load_field(path)
        with monkeypatch.context() as m:
            _twin_only(m)
            twin = load_field(path)
        assert twin.values.tobytes() == parsed.values.tobytes()
        assert twin.values.tobytes() == field.values.tobytes()
        assert twin.values.shape == parsed.values.shape
        for attr in ("counts", "lo", "hi", "dx", "origin_index"):
            assert np.array_equal(getattr(twin.grid, attr),
                                  getattr(parsed.grid, attr))
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(twin.grid.axes, parsed.grid.axes))
        assert twin.transform == parsed.transform == field.transform
        assert twin.metadata == parsed.metadata
        assert twin.sha256 == parsed.sha256

    def test_edited_csv_reads_as_edited(self, saved):
        field, path = saved
        lines = path.read_text().splitlines()
        node = 7  # the row after the header holds node 0
        *cells, value = lines[1 + node].split(",")
        last = "1" if value[-1] != "1" else "2"
        edited = value[:-1] + last
        assert float(edited) != float(value)
        lines[1 + node] = ",".join(cells + [edited])
        path.write_text("\n".join(lines) + "\n")
        back = load_field(path)
        want = field.values.reshape(-1).copy()
        want[node] = float(edited)
        assert back.values.reshape(-1).tolist() == want.tolist()
        assert back.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("case", ["missing", "stale", "edited"])
    def test_fallback_reads_the_csv_once(self, saved, monkeypatch, case):
        # the digest and the parsed values come from the same bytes
        field, path = saved
        twin = path.parent / "field.npz"
        if case == "missing":
            twin.unlink()
        elif case == "stale":
            np.savez(twin, values=field.values, sha256=np.array("0" * 64))
        else:  # a blank line more: another digest, the same values
            path.write_bytes(path.read_bytes() + b"\n")
        modes = _count_opens(monkeypatch, path)
        back = load_field(path)
        assert modes == ["rb"]
        assert back.values.tobytes() == field.values.tobytes()
        assert back.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_mask_reads_its_csv_once(self, tmp_path, monkeypatch):
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [5, 3])
        inside = np.zeros((5, 3), dtype=bool)
        inside[1:4] = True  # a block about the origin node (2, 1)
        mask = DoaMask(grid, inside, 0.01)
        path = tmp_path / "mask.csv"
        save_mask(mask, path)
        modes = _count_opens(monkeypatch, path)
        back = load_mask(path)
        assert modes == ["rb"]
        assert np.array_equal(back.inside, mask.inside)

    def test_missing_twin_falls_back(self, saved, monkeypatch):
        field, path = saved
        (path.parent / "field.npz").unlink()
        assert np.array_equal(load_field(path).values, field.values)

    def test_stale_twin_falls_back(self, saved, tmp_path):
        # another solve's twin: well formed, but another CSV's digest
        field, path = saved
        other = tmp_path / "other"
        other.mkdir()
        save_field(field.with_values(field.values / 2), other / "field.csv")
        (other / "field.npz").replace(path.parent / "field.npz")
        assert np.array_equal(load_field(path).values, field.values)

    def test_truncated_twin_falls_back(self, saved):
        field, path = saved
        twin = path.parent / "field.npz"
        whole = twin.read_bytes()
        for size in range(len(whole)):
            # a new file each time: truncating one in place is slow on
            # some file systems, and the bytes read back are the same
            twin.unlink()
            twin.write_bytes(whole[:size])
            assert np.array_equal(load_field(path).values, field.values), size

    @pytest.mark.parametrize("values", [np.zeros(15), np.zeros((3, 5)),
                                        np.zeros((5, 3), dtype=np.float32),
                                        np.zeros((5, 3), dtype=int)],
                             ids=["flat", "transposed", "float32", "int"])
    def test_wrong_shape_or_dtype_twin_falls_back(self, saved, values):
        field, path = saved
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        np.savez(path.parent / "field.npz", values=values,
                 sha256=np.array(digest))
        assert np.array_equal(load_field(path).values, field.values)

    def test_non_finite_twin_value_is_refused_like_the_csv(self, saved):
        field, path = saved
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        values = field.values.copy()
        values[1, 2] = np.nan
        np.savez(path.parent / "field.npz", values=values,
                 sha256=np.array(digest))
        with pytest.raises(ConfigError, match="non-finite value nan at "
                                              "node 1,2"):
            load_field(path)
        # the same field written as CSV is refused with the same message
        nan_csv = path.parent / "nan" / "field.csv"
        nan_csv.parent.mkdir()
        save_field(field.with_values(values), nan_csv)
        (nan_csv.parent / "field.npz").unlink()
        with pytest.raises(ConfigError, match="non-finite value nan at "
                                              "node 1,2"):
            load_field(nan_csv)

    def test_rewrite_is_a_new_file(self, saved, tmp_path):
        # hard links to the old field.csv and field.npz keep their bytes:
        # a second save unlinks both and writes new files
        field, path = saved
        twin = path.parent / "field.npz"
        old = {p: p.read_bytes() for p in (path, twin)}
        links = {p: tmp_path / ("link-" + p.name) for p in old}
        for p, link in links.items():
            os.link(p, link)
        save_field(field.with_values(field.values / 2), path)
        for p, link in links.items():
            assert link.read_bytes() == old[p]
            assert p.read_bytes() != old[p]
            assert not os.path.samefile(p, link)
        assert np.array_equal(load_field(path).values, field.values / 2)

    def test_digest_is_the_sha256_of_the_bytes(self, saved):
        field, path = saved
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        assert save_field(field, path) == want
        assert load_field(path).sha256 == want
        with np.load(path.parent / "field.npz") as twin:
            assert twin["sha256"].item() == want
            assert twin["values"].tobytes() == field.values.tobytes()
        # a field made in memory has no file behind it
        assert field.sha256 is None

    def test_csv_named_npz_has_no_twin(self, tmp_path):
        # the twin would overwrite the CSV it stands beside
        field = ValueField(Grid([-1.0], [1.0], [3]), np.zeros(3), "raw")
        path = tmp_path / "field.npz"
        save_field(field, path)
        assert path.read_text().startswith("1,3,-1,1,raw\n")
        assert np.array_equal(load_field(path).values, field.values)


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

    @pytest.mark.parametrize("control", [
        {"points": [[0.0], [1.0, 2.0]]},    # ragged
        {"points": [["a"]]},
        {"points": [["0.5"]]},              # a string, not a number
        {"points": [[True]]},
        {"points": [0.0, 1.0]},             # once one 2-D point, silently
        {"points": [[[0.0]]]},
        {"box": {"lo": ["a"], "hi": [1.0], "counts": [3]}},
        {"box": {"lo": [-1.0], "hi": 1.0, "counts": [3]}},
    ], ids=["ragged", "text", "numeric-text", "bool", "flat", "3-d",
            "text-lo", "bare-hi"])
    def test_malformed_control_table_is_a_validation_error(self, control):
        with pytest.raises(ValidationError) as err:
            load_system(_config(control=control))
        assert any(p.startswith("control.") for p in err.value.problems)

    @pytest.mark.parametrize("control,problem", [
        (3, "control must be an object"),
        ({"points": []}, "control.points must be a nonempty list of "
         "equal-length lists of numbers"),
        ({"points": [[math.nan]]}, "control points must be finite"),
        ({"box": {"lo": [0.0], "hi": [1.0]}},
         "control.box needs lo/hi/counts ('counts')"),
        ({"box": {"lo": ["a"], "hi": [1.0], "counts": [3]}},
         "control.box lo and hi must be lists of numbers"),
        ({"box": {"lo": [1.0], "hi": [-1.0], "counts": [3]}},
         "control box has lo > hi"),
        ({"box": {"lo": [-1.0], "hi": [1.0], "counts": [2 ** 21]}},
         "control box lattice has 2097152 samples; at most 1048576"),
        ({}, "control needs either 'points' or 'box'"),
    ], ids=["not-object", "no-points", "nan-point", "box-keys", "box-text",
            "lo-above-hi", "lattice-size", "neither"])
    def test_each_control_refusal_is_one_problem(self, control, problem):
        with pytest.raises(ValidationError) as err:
            load_system(_config(control=control))
        assert err.value.problems == [problem]
        assert str(err.value) == "system validation failed:\n  - " + problem

    _TOP = "n, f, g, name, control, ell, h, mode, guard, ules, growth"

    @pytest.mark.parametrize("patch, problems", [
        (dict(gaurd="nonneg_ell", elll="x1"),
         ["system config has unknown key(s) 'gaurd', 'elll' (its keys: "
          + _TOP + ")"]),
        (dict(H="x1^2"),
         ["system config has unknown key(s) 'H' (its keys: " + _TOP + ")"]),
        (dict(ules={"C": 1, "sigma": 1, "r": 1, "extra": 5}),
         ["ules block has unknown key(s) 'extra' (its keys: C, sigma, r)"]),
        (dict(growth={"C_tilde": 1, "lambda": 2, "lam": 2}),
         ["growth block has unknown key(s) 'lam' (its keys: C_tilde, "
          "lambda)"]),
        (dict(ules={"C": 1, "r": 1}),
         ["ules block lacks key(s) 'sigma' (its keys: C, sigma, r)"]),
        (dict(ules=[1, 2, 3]),
         ["ules block must be an object with keys C, sigma, r"]),
        (dict(growth=None),
         ["growth block must be an object with keys C_tilde, lambda"]),
        (dict(control={"pts": [[0.0]]}),
         ["control has unknown key(s) 'pts' (its keys: points, box)"]),
        (dict(control={"points": [[0.0]], "box": {
            "lo": [-1.0], "hi": [1.0], "counts": [3]}}),
         ["control holds both 'points' and 'box'; give one"]),
        (dict(control={"box": {"lo": [-1.0], "hi": [1.0], "counts": [3],
                               "step": 1.0}}),
         ["control.box has unknown key(s) 'step' (its keys: lo, hi, "
          "counts)"]),
        (dict(control={"box": [-1.0, 1.0, 3]}),
         ["control.box must be an object with keys lo, hi, counts"]),
    ], ids=["top-level", "capital-h", "ules-extra", "growth-extra",
            "ules-missing", "ules-list", "growth-null", "control-extra",
            "control-both", "box-extra", "box-list"])
    def test_keys_outside_the_schema_are_named(self, patch, problems):
        # a misspelled key was once dropped in silence: a guard, ell or h
        # that the solve never saw
        with pytest.raises(ValidationError) as err:
            load_system(_config(**patch))
        assert err.value.problems == problems

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
        # one compile per system, for f, g, ell and h together; evaluating
        # compiles nothing more
        from zubov import expressions

        calls = []
        compile_trees = expressions.compile_trees
        monkeypatch.setattr(expressions, "compile_trees",
                            lambda groups, **kw: calls.append(groups)
                            or compile_trees(groups, **kw))
        sys = load_system(_config(n=2, f=["-x1 + a1*x1^2", "-x2 + a1*x2^2"],
                                  g="x1^2 + x2^2", ell="x1^2", h="x2^2",
                                  mode="minimize", guard="nonneg_ell",
                                  control={"points": [[-1.0], [1.0]]}))
        assert [len(group) for group in calls[0]] == [3, 1, 1]
        assert len(calls) == 1
        x, a = np.full((50, 2), 0.25), np.ones((50, 1))
        for _ in range(100):
            sys.f(x, a)
            sys.g(x, a)
            sys.ell(x, a)
            sys.h(x, a)
        assert len(calls) == 1

    def test_components_raise_in_order(self):
        sys = load_system(_config(n=2, f=["-x1 + 0*ln(x1 + 1)",
                                         "-x2 + 0/(x2 + 1)"],
                                  g="x1^2 + x2^2"))
        a = np.zeros(1)
        with pytest.raises(EvalDomainError, match="ln"):
            sys.f(np.array([-1.0, -1.0]), a)  # both fail; f[0] reports
        with pytest.raises(EvalDomainError, match="division"):
            sys.f(np.array([[0.5, 0.5], [0.5, -1.0]]), a)

    def test_non_object_refused(self):
        for doc in ([_config()], "scalar-decay", None):
            with pytest.raises(ConfigError,
                               match="system config must be a JSON object"):
                load_system(doc)

    @pytest.mark.parametrize("patch, problem", [
        (dict(f=["-x1", "-x1"]), "'f' must be a list of 1 expression strings"),
        (dict(f="-x1"), "'f' must be a list of 1 expression strings"),
        (dict(g=2), "'g' must be an expression string"),
        (dict(f=[-1.0]), "f[0] must be a string"),
    ], ids=["f-length", "f-string", "g-number", "f0-number"])
    def test_malformed_f_and_g_are_one_problem(self, patch, problem):
        with pytest.raises(ValidationError) as err:
            load_system(_config(**patch))
        assert err.value.problems == [problem]

    def test_missing_dimension(self):
        with pytest.raises(ConfigError):
            load_system({"f": ["-x1"], "g": "x1^2"})

    @pytest.mark.parametrize("name", [{"a": [1]}, ["cb"], 3, None])
    def test_non_string_name_is_a_problem(self, name):
        with pytest.raises(ValidationError) as err:
            load_system(_config(name=name))
        assert err.value.problems == ["'name' must be a string"]

    def test_bad_dimension_hides_no_other_problem(self):
        # a missing n and an unknown key are reported together
        with pytest.raises(ValidationError) as err:
            load_system({"N": 1, "f": ["-x1"], "g": "x1^2"})
        assert err.value.problems == [
            "system config has unknown key(s) 'N' (its keys: n, f, g, name, "
            "control, ell, h, mode, guard, ules, growth)",
            "system config 'n' must be a whole number, at least 1, got None"]

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
        # json.load reads Infinity; an infinite sigma makes the oracle's
        # tail bound 0, a false certificate
        with pytest.raises(ValidationError, match="finite"):
            load_system(_config(ules={"C": 1.0, "sigma": math.inf, "r": 0.5}))

    @pytest.mark.parametrize("make", [lambda: Ules(1.0, math.inf, 0.5),
                                      lambda: Ules(math.nan, 1.0, 0.5),
                                      lambda: Growth(math.inf, 2.0),
                                      lambda: Growth(1.0, math.inf)],
                             ids=["sigma-inf", "c-nan", "c-tilde-inf",
                                  "lambda-inf"])
    def test_envelope_constants_must_be_finite(self, make):
        with pytest.raises(ConfigError, match="finite"):
            make()


# --- the number rule --------------------------------------------------------
# Every positive constant, step, horizon and tolerance a caller passes is a
# finite real > 0 and never a bool; every count, depth and seed a whole number
# at or above its least value.  A value outside the rule raises ConfigError
# naming the argument, at every entry point that takes one.

def _header(key):
    def load(value):
        path = pathlib.Path("f.csv")  # in the test's tmp_path
        save_field(ValueField(Grid([-1.0], [1.0], [3]), np.full(3, 0.5),
                              "kruzhkov"), path)
        head, rows = path.read_text().split("\n", 1)
        path.write_text("%s,%s=%s\n%s" % (head, key, value, rows))
        load_field(path)
    return load


def _flat_field():
    g = Grid([-1.0, -1.0], [1.0, 1.0], [5, 5])
    return ValueField(g, np.full((5, 5), 0.5), "kruzhkov")


def _relaxed(duration=1.0):
    return RelaxedSchedule([[0.0]], [(duration, [1.0])])


_LIFT3 = builtin("lift2d", controls=3)
_HOLD = ControlSchedule([(1.0, [0.0])])


def _decay_rates(x, a, out):  # x' = -x, cost x^2
    out[..., 0] = -x[..., 0]
    out[..., 1] = x[..., 0] ** 2


# (argument, least whole value or None for a positive real, call)
_NUMBER_RULE = {
    "Ules-C": ("C", None, lambda v: Ules(v, 0.5, 0.5)),
    "Ules-sigma": ("sigma", None, lambda v: Ules(1.0, v, 0.5)),
    "Ules-r": ("r", None, lambda v: Ules(1.0, 0.5, v)),
    "Growth-C_tilde": ("C_tilde", None, lambda v: Growth(v, 2.0)),
    "Growth-lambda": ("lambda", None, lambda v: Growth(1.0, v)),
    "header-dt": ("dt", None, _header("dt")),
    "header-tol": ("tol", None, _header("tol")),
    "SolverSettings-dt": ("dt", None, lambda v: SolverSettings(dt=v)),
    "SolverSettings-tol": ("tol", None, lambda v: SolverSettings(tol=v)),
    "SolverSettings-max_iters": ("max_iters", 1,
                                 lambda v: SolverSettings(max_iters=v)),
    "SolverSettings-threads": ("threads", 1,
                               lambda v: SolverSettings(threads=v)),
    "SystemDef-n_state": ("n_state", 1, lambda v: SystemDef(
        "d", v, ControlSpace.none(), _decay_rates)),
    "load_system-n": ("n", 1, lambda v: load_system(_config(n=v))),
    "inverse_transform-cap": ("cap", None,
                              lambda v: inverse_transform(_flat_field(), v)),
    "maximal_cost-switch_dt": ("switch_dt", None, lambda v: maximal_cost(
        _LIFT3, [0.5, 0.5], switch_dt=v)),
    "maximal_cost-depth": ("depth", 1, lambda v: maximal_cost(
        _LIFT3, [0.5, 0.5], depth=v)),
    "maximal_cost-rho": ("rho", None, lambda v: maximal_cost(
        _LIFT3, [0.5, 0.5], rho=v)),
    "min_value-rho": ("rho", None, lambda v: min_value(
        builtin("fuller"), [0.1, 0.0], rho=v)),
    "falsify-budget": ("budget", 0, lambda v: falsify_quasistability(
        _LIFT3, _flat_field().grid, budget=v)),
    "falsify-seed": ("seed", 0, lambda v: falsify_quasistability(
        _LIFT3, _flat_field().grid, seed=v)),
    "defect_allowances-eps": ("eps", None, lambda v: defect_allowances(v, 3)),
    "defect_allowances-m": ("m", 1, lambda v: defect_allowances(0.1, v)),
    "decrease-samples": ("samples", 1, lambda v: check_lyapunov_decrease(
        _LIFT3, _flat_field(), samples=v)),
    "decrease-seed": ("seed", 0, lambda v: check_lyapunov_decrease(
        _LIFT3, _flat_field(), seed=v)),
    "lipschitz-delta": ("delta", None, lambda v: lipschitz_probe(
        "lift2d", [[0.1, 0.1]], delta=v)),
    "ControlSchedule-duration": ("duration", None, lambda v: ControlSchedule(
        [(v, [0.0])])),
    "RelaxedSchedule-duration": ("duration", None, _relaxed),
    "chatter-period": ("period", None, lambda v: chatter(_relaxed(), v)),
    "integrate-dt": ("dt", None, lambda v: integrate(
        _LIFT3, [0.5, 0.5], _HOLD, v)),
}


def _number_rule_cases():
    for entry, (name, least, _) in _NUMBER_RULE.items():
        bad = [True, math.nan, math.inf, -1]
        if least is None or least >= 1:
            bad.append(0)
        if least is not None:
            bad.append(2.5)
        for value in bad:
            yield pytest.param(entry, value, id="%s-%r" % (entry, value))


@pytest.mark.parametrize("entry, value", _number_rule_cases())
def test_numbers_out_of_rule_name_the_argument(entry, value, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    name, _, call = _NUMBER_RULE[entry]
    with pytest.raises(ConfigError, match=r"\b%s\b" % name):
        call(value)


def test_numbers_in_rule_keep_their_bits():
    # an accepted positive real comes back as the same float, a whole number
    # as the same int, whatever type it came as
    for value in (0.05, 3, np.float64(1e-300), sys.float_info.max):
        assert _positive(value, "x") == float(value)
    for value in (8, 8.0, np.int64(8), 10 ** 30):
        out = _whole(value, "depth", 1)
        assert type(out) is int and out == int(value)
    # the counts an object keeps are those ints too
    for value in (1, 1.0, np.int32(1)):
        assert type(SystemDef("d", value, ControlSpace.none(),
                              _decay_rates).n_state) is int
        assert type(load_system(_config(n=value)).n_state) is int
    for value in (10 ** 400, "0.5", np.array(0.5), 1j):
        with pytest.raises(ConfigError, match="x must be positive"):
            _positive(value, "x")


# --- invariant checks on direct construction --------------------------------

def test_drifting_origin_rejected_in_maximize_mode():
    def rates(x, a, out):
        out[..., 0] = x[..., 1]
        out[..., 1] = a[..., 0]
        out[..., 2] = x[..., 0] ** 2

    with pytest.raises(ValidationError) as err:
        SystemDef("drift", 2, ControlSpace.from_box([-1], [1], [3]), rates)
    assert any("f(0,a)" in p for p in err.value.problems)


@pytest.mark.parametrize("keywords, message", [
    (dict(mode="max"), "mode must be 'maximize' or 'minimize'"),
    (dict(guard="nonneg"), "unknown convergence guard 'nonneg'"),
    (dict(guard=["x"]), "unknown convergence guard ['x']"),
    (dict(guard={}), "unknown convergence guard {}"),
    (dict(guard="case_b"), "unknown convergence guard 'case_b'"),
    (dict(mode="minimize", guard="nonneg_ell"),
     "minimize mode needs a running cost 'ell'"),
    (dict(mode="minimize"), "minimize mode needs a convergence guard: one "
     "of nonneg_ell / nonpos_ell / case_a"),
], ids=["mode", "guard", "guard-list", "guard-dict", "guard-case_b",
        "minimize-without-ell", "minimize-without-guard"])
def test_system_keywords_out_of_range_are_refused(keywords, message):
    with pytest.raises(ConfigError) as err:
        SystemDef("d", 1, ControlSpace.none(), _decay_rates, **keywords)
    assert str(err.value) == message


@pytest.mark.parametrize("guard", ["nonneg", ["x"], {}, "case_b"])
def test_unknown_guard_in_a_config_names_it(guard):
    # a list or a dict cannot be a key of the guard table, and is refused
    # by the same message as an unknown name
    with pytest.raises(ValidationError) as err:
        load_system(_config(guard=guard))
    assert err.value.problems == ["unknown convergence guard %r" % (guard,)]


def test_declared_growth_is_spot_checked():
    def rates(x, a, out):
        out[..., 0] = -x[..., 0]
        out[..., 1] = np.abs(x[..., 0])

    with pytest.raises(ValidationError) as err:
        SystemDef("too-steep", 1, ControlSpace.none(), rates,
                  ules=Ules(1.0, 1.0, 0.5), growth=Growth(1.0, 2.0))
    assert any("growth" in p for p in err.value.problems)


def _guarded(ell=None, h=None, guard="nonneg_ell", envelope=True):
    """x' = -x, g = x^2, minimize mode, under ``guard``; with ``envelope``
    the constants C = sigma = r = 1, C_tilde = 1, lambda = 2, which hold
    g."""
    def rates(x, a, out):
        out[..., 0] = -x[..., 0]
        out[..., 1] = x[..., 0] ** 2

    def cost(scale):
        return lambda x, a: scale * np.asarray(x)[..., 0] ** 2

    keywords = dict(ules=Ules(1.0, 1.0, 1.0), growth=Growth(1.0, 2.0)) \
        if envelope else {}
    return SystemDef("guarded", 1, ControlSpace.none(), rates,
                     ell=cost(1.0 if ell is None else ell),
                     h=None if h is None else cost(h), mode="minimize",
                     guard=guard, **keywords)


@pytest.mark.parametrize("ell, h, guard, message", [
    (10.0, None, "case_a", r"\|ell\(.*\)\| = 9\.7\d* > 0\.97"),
    (1.0, None, "nonpos_ell", "wrong sign for the nonpos_ell guard"),
    (1.0, -1.0, "case_a", r"h\(.*\) = -0\.97\d* < 0"),
], ids=["outside-envelope-signed", "positive-ell", "negative-h"])
def test_guarded_ell_and_h_are_spot_checked(ell, h, guard, message):
    # the tails min_value adds assume |ell| <= C_tilde |x|^lambda, the
    # guard's sign and h >= 0: each sample point must keep them (the
    # nonneg_ell refusals are test_oracle.py's GUARD_TABLE)
    with pytest.raises(ValidationError) as err:
        _guarded(ell, h, guard)
    assert len(err.value.problems) == 1
    assert re.search(message, err.value.problems[0])


def test_guarded_systems_load_where_the_samples_allow():
    # without an envelope nothing is sampled, whatever ell and h do
    for guard in ("nonneg_ell", "case_a"):
        assert _guarded(-1.0, -1.0, guard, envelope=False).guard == guard
    assert _guarded(-1.0, guard="nonpos_ell").guard == "nonpos_ell"
    assert _guarded(-1.0, 5.0, guard="case_a").h is not None


# g = sqrt(x1) under an envelope that holds it for x1 >= 0, and its twin
# with the same expression as ell under a guard: undefined at the samples
# with x1 < 0, which once escaped load_system as a bare EvalDomainError
UNDEFINED_AT_A_SAMPLE = {
    "g": {"n": 1, "f": ["-x1"], "g": "sqrt(x1)",
          "ules": {"C": 1, "sigma": 1, "r": 1},
          "growth": {"C_tilde": 1, "lambda": 0.5}},
    "ell": {"n": 1, "f": ["-x1"], "g": "x1^2", "ell": "sqrt(x1)",
            "mode": "minimize", "guard": "nonneg_ell",
            "ules": {"C": 1, "sigma": 1, "r": 1},
            "growth": {"C_tilde": 1, "lambda": 0.5}},
}


@pytest.mark.parametrize("cost", sorted(UNDEFINED_AT_A_SAMPLE))
def test_cost_undefined_at_a_sample_is_a_validation_problem(cost):
    with pytest.raises(ValidationError) as err:
        load_system(UNDEFINED_AT_A_SAMPLE[cost])
    [problem] = err.value.problems
    # the cost, the point and the control, then the evaluator's reason
    found = re.fullmatch(r"%s\(\[(\S+)\], \[\]\) is undefined inside the "
                         r"ULES ball: sqrt of a negative value" % cost, problem)
    assert found and float(found.group(1)) < 0.0


# --- the fused rate function -------------------------------------------------

RATE_JSON = {
    # lift2d as expressions: the builtin's field inside its taper
    "lift2d-json": _config(n=2, f=["-x1 + a1*x1^2", "-x2 + a1*x2^2"],
                           g="x1^2 + x2^2",
                           control={"box": {"lo": [-1.0], "hi": [1.0],
                                            "counts": [3]}}),
    # declares ell and h, which the rate function never evaluates
    "ell-h-json": _config(n=2, f=["-x1 + a1*x1^2", "-x2"], g="x1^2 + x2^2",
                          ell="sqrt(x1^2 + x2^2)", h="abs(x1) + 0.5",
                          control={"box": {"lo": [-1.0], "hi": [1.0],
                                           "counts": [3]}}),
    "constant-json": _config(n=2, f=["-x1", "0.0"], g="0.0"),
}
RATE_SYSTEMS = {name: (lambda name=name: builtin(name))
                for name in ("lift2d", "lift2d-psi-sqrt", "lift2d-psi-abs",
                             "ex1", "arctan1d", "hav1d", "fuller")}
RATE_SYSTEMS.update({name: (lambda doc=doc: load_system(doc))
                     for name, doc in RATE_JSON.items()})


def rate_inputs(n, layout):
    """(x, out) for one layout: 40 rows reaching past lift2d's taper
    (|x_i| > 1.5) and both sides of ex1's switch at |x| = 1, or all inside
    both, and an out shaped as _aug_rhs hands it over."""
    x = np.random.default_rng(8).uniform(-2.2, 2.2, size=(40, n))
    x[:4, 0] = (-1.0, 1.0, -0.999, 1.001)
    if layout in ("C", "inside"):
        return x * (0.4 if layout == "inside" else 1.0), np.empty((40, n + 1))
    if layout == "F":  # the solver's column-major feet
        return np.asfortranarray(x), np.empty((40, n + 1), order="F")
    if layout == "strided":  # views into wider states, as the oracle's
        wide = np.hstack([x, np.zeros((40, 3))])
        return wide[:, :n], np.empty((40, n + 3))[:, :n + 1]
    return x[5], np.empty(n + 1)  # one point


@pytest.mark.parametrize("layout", ["C", "F", "strided", "point", "inside"])
@pytest.mark.parametrize("name", sorted(RATE_SYSTEMS))
def test_rate_columns_are_f_and_g_bit_for_bit(name, layout):
    system = RATE_SYSTEMS[name]()
    n, pts = system.n_state, system.control.points
    x, out = rate_inputs(n, layout)
    per_row = pts[np.random.default_rng(9).integers(0, len(pts),
                                                    size=x.shape[:-1])]
    for a in (pts[-1], per_row):
        system.rates(x, a, out)
        f, g = np.asarray(system.f(x, a)), np.asarray(system.g(x, a))
        assert f.shape == out[..., :n].shape and g.shape == out[..., n].shape
        assert out[..., :n].tobytes() == f.tobytes()
        assert out[..., n].tobytes() == g.tobytes()


@pytest.mark.parametrize("patch, point", [
    ({"f": ["-x1 + exp(x1) - 1", "-x2"]}, [800.0, 0.0]),
    ({"g": "x1^2 + exp(x2) - 1"}, [0.0, 800.0]),
], ids=["f", "g"])
def test_json_rates_raise_when_f_or_g_alone_goes_non_finite(patch, point):
    system = load_system(dict(RATE_JSON["ell-h-json"], **patch))
    a = system.control.points[0]
    fine = np.array([[0.5, -0.5]])
    system.rates(fine, a, np.empty((1, 3)))
    x = np.array([[0.5, -0.5], point])
    with pytest.raises(EvalDomainError, match="non-finite"):
        system.rates(x, a, np.empty((2, 3)))
    with pytest.raises(EvalDomainError, match="non-finite"):
        system.f(x, a)
    with pytest.raises(EvalDomainError, match="non-finite"):
        system.g(x, a)


def test_arguments_after_rates_are_keyword_only():
    # an old positional (f, g) call fails, and so does any positional
    # argument after rates, which would otherwise bind as ell
    lift = builtin("lift2d", controls=3)
    with pytest.raises(TypeError):
        SystemDef("split", 2, lift.control, lift.f, lift.g)
    with pytest.raises(TypeError):
        SystemDef("split", 2, lift.control, lift.rates, None)


# --- builtin systems ---------------------------------------------------------

class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            builtin("lorenz")

    def test_all_names_construct(self):
        # each row of the table builds its system
        assert list(systems.BUILTINS) == [
            "lift2d", "lift2d-psi-sqrt", "lift2d-psi-abs", "ex1", "arctan1d",
            "hav1d", "fuller"]
        for name, row in systems.BUILTINS.items():
            system = builtin(name)
            assert system.name == name and system.n_state == row.n_state
            # 0 samples: no control, the single empty point
            assert system.control.m == (1 if row.controls else 0)
            assert system.control.size == max(row.controls, 1)
            assert system.rates is row.rates
            if row.closed_form is None:
                with pytest.raises(ConfigError, match="no closed form"):
                    closed_form_value(name, np.zeros(row.n_state))
            else:
                assert closed_form_value(name, np.zeros(row.n_state)) == 0.0

    @pytest.mark.parametrize("name", ["arctan1d", "hav1d"])
    def test_no_control_to_discretize(self, name):
        with pytest.raises(ConfigError, match="%s has no control to "
                                              "discretize" % name):
            builtin(name, controls=3)

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
        np.linspace(-1.5, 1.5, 13),            # all inside: exactly 1
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

    # the builtins' full piecewise formulas: a fast path that skips the
    # identity taper or a dead branch must match them bit for bit
    @staticmethod
    def lift_f_full(x, a):
        x1, x2, av = x[..., 0], x[..., 1], a[..., 0]
        t1, t2 = (np.clip((np.abs(u) - 1.5) / 0.5, 0.0, 1.0) for u in (x1, x2))
        cut = (1.0 - t1 * t1 * (3.0 - 2.0 * t1)) * (
            1.0 - t2 * t2 * (3.0 - 2.0 * t2))
        return np.stack([(-x1 + av * x1 ** 2) * cut,
                         (-x2 + av * x2 ** 2) * cut], axis=-1)

    @staticmethod
    def ex1_f_full(x, a):
        xv, av = x[..., 0], a[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = av / xv
        return np.where(xv >= 1.0, outer - 1.0,
                        np.where(xv <= -1.0, 1.0 - outer,
                                 -xv + av * xv ** 2))[..., None]

    @staticmethod
    def ex1_g_full(x, a):
        xv = x[..., 0]
        return np.where(np.abs(xv) <= 1.0, np.abs(np.sin(np.pi * xv)), 0.0)

    @staticmethod
    def controls(rows):
        """One control (1,) and one per row (B, 1), as advance passes it."""
        per_row = np.random.default_rng(4).choice([-1.0, 0.0, 1.0],
                                                  size=(rows, 1))
        return [np.array([1.0]), np.array([-0.5]), per_row]

    @pytest.mark.parametrize("rows", [
        [[0.3, -1.2], [1.5, -1.5], [0.0, 1.49]],   # inside: the taper is 1
        [[0.3, -1.2], [1.6, 0.2], [-1.4, 1.55]],   # straddles |x_i| = 1.5
        [[0.3, -1.2], [2.0, 0.5], [-2.7, 3.1]],    # reaches and passes 2
        [[1.7, 0.4]],                              # one row, tapered
    ])
    def test_lift2d_fast_path_is_the_full_formula(self, rows):
        lift_f = builtin("lift2d").f
        rows = np.array(rows)
        # a strided (B, 2) view of a (B, 3) state, as the solver's feet pass
        x = np.hstack([rows, np.zeros((len(rows), 1))])[:, :2]
        for a in self.controls(len(rows)):
            got, want = lift_f(x, a), self.lift_f_full(x, a)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("xs", [
        [0.3, -0.99, 0.0, 0.75],        # inside: both fast paths
        [0.3, 1.0, -1.0, -0.2],         # exactly at +-1
        [0.3, 1.5, -2.0, 0.999],        # outside
        [1.0], [-1.0], [1.2], [-0.4],   # one row
    ])
    def test_ex1_fast_paths_are_the_full_formulas(self, xs):
        ex1 = builtin("ex1")
        x = np.hstack([np.array(xs)[:, None], np.zeros((len(xs), 1))])[:, :1]
        for a in self.controls(len(xs)):
            for fast, full in ((ex1.f, self.ex1_f_full),
                               (ex1.g, self.ex1_g_full)):
                got, want = fast(x, a), full(x, a)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == want.tobytes()

    # the textbook f and g of the builtins written as one rate function
    @staticmethod
    def arctan_full(x, a):
        xv = x[..., 0]
        return -xv[..., None], np.abs(xv) / (1.0 + xv ** 2)

    @staticmethod
    def hav_full(x, a):
        xv = x[..., 0]
        with np.errstate(divide="ignore"):
            f = np.where(np.abs(xv) <= 0.9, -(10.0 / 9.0) ** 6 * xv,
                         -1.0 / xv ** 5)
        return f[..., None], -hav_q(xv) * f

    @pytest.mark.parametrize("name, xs", [
        ("arctan1d", [0.3, -1.7, 0.0, 25.0]),
        ("arctan1d", [-0.6]),
        ("hav1d", [0.3, -0.9, 0.9, 0.0, 0.45]),         # inside |x| <= 0.9
        ("hav1d", [0.9000001, -0.95, 1.0, -3.0, 10.0]),  # outside
        ("hav1d", [0.2, -0.9, -0.91, 1.0 + 1e-3]),      # both sides
        ("hav1d", [0.95]), ("hav1d", [-0.9]),           # one row
    ])
    def test_1d_rates_are_the_textbook_formulas(self, name, xs):
        system = builtin(name)
        full = self.arctan_full if name == "arctan1d" else self.hav_full
        x = np.hstack([np.array(xs)[:, None], np.zeros((len(xs), 1))])[:, :1]
        for a in (np.zeros(0), np.zeros((len(xs), 0))):
            want_f, want_g = full(x, a)
            for got, want in ((system.f(x, a), want_f),
                              (system.g(x, a), want_g)):
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [
        [[0.3, -1.2], [0.0, 0.0], [-0.7, 0.4], [1.5, 2.5]],
        [[-0.25, 0.5]],
    ])
    def test_fuller_rates_are_the_textbook_formula(self, rows):
        fuller = builtin("fuller")
        rows = np.array(rows)
        x = np.hstack([rows, np.zeros((len(rows), 1))])[:, :2]
        for a in self.controls(len(rows)):
            want_f = np.stack([x[:, 1], np.broadcast_to(a[..., 0], len(x))],
                              axis=-1)
            want_g = np.abs(x[:, 0]) ** 2.0
            for got, want in ((fuller.f(x, a), want_f),
                              (fuller.g(x, a), want_g),
                              (fuller.ell(x, a), want_g)):
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == want.tobytes()

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
