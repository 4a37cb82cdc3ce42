"""Mask extraction, contouring, and region comparison.

The lift2d closed form gives a genuinely independent yardstick: a mask cut
from the exact transformed value lands within 3 cells of the true unit
square, so anything beyond that measures the upstream field, not the
region code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zubov.regions import (DoaMask, contour2d, extract_doa, load_mask,
                           region_distance, save_contours, save_mask)
from zubov.solver import interpolate
from zubov.systems import (ConfigError, Grid, ValueField, builtin,
                           closed_form_value)
from zubov.verify import check_boundary_blowup

SQUARE = lambda pts: np.max(np.abs(pts), axis=-1) < 1.0


def exact_lift2d_values(grid):
    coords = grid.node_coords()
    inside = np.all(np.abs(coords) < 1.0, axis=-1)
    vals = np.ones(tuple(grid.counts))
    vals[inside] = 1.0 - np.exp(-closed_form_value("lift2d", coords[inside]))
    return vals


class TestDoaMaskType:

    def test_origin_required(self):
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [5, 5])
        inside = np.zeros((5, 5), dtype=bool)
        inside[0, 0] = True
        with pytest.raises(ConfigError, match="origin"):
            DoaMask(grid, inside, 0.01)

    def test_single_component_required(self):
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [5, 5])
        inside = np.zeros((5, 5), dtype=bool)
        inside[2, 2] = True
        inside[0, 0] = True  # corner blob, not face-connected to the origin
        with pytest.raises(ConfigError, match="pieces"):
            DoaMask(grid, inside, 0.01)

    def test_shape_checked(self):
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [5, 5])
        with pytest.raises(ConfigError, match="shaped"):
            DoaMask(grid, np.ones((4, 4), dtype=bool), 0.01)

    def test_node_count(self):
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [5, 5])
        inside = np.zeros((5, 5), dtype=bool)
        inside[1:4, 1:4] = True
        assert DoaMask(grid, inside, 0.1).node_count == 9


class TestExtractDoa:

    def test_zero_field_fills_the_box(self, lift2d_field):
        zeros = lift2d_field.with_values(np.zeros_like(lift2d_field.values))
        mask = extract_doa(zeros)
        assert mask.inside.all()
        assert mask.touches_boundary
        assert mask.epsilon == 0.01

    def test_lift2d_recovers_the_square(self, lift2d_field):
        mask = extract_doa(lift2d_field, 0.01)
        assert not mask.touches_boundary
        assert 26000 <= mask.node_count <= 28500
        coords = lift2d_field.grid.node_coords()
        sym = mask.inside ^ (np.max(np.abs(coords), axis=-1) < 1.0)
        gap = np.abs(np.max(np.abs(coords[sym]), axis=-1) - 1.0)
        # RK4 feet stay within the exact field's 3 cells; first-order Euler
        # feet overestimate the value near the corners and cost a fourth
        assert gap.max() <= 3.0 * lift2d_field.grid.dx[0] + 1e-12

    def test_exact_field_lands_within_three_cells(self, lift2d_field):
        exact = lift2d_field.with_values(
            exact_lift2d_values(lift2d_field.grid))
        mask = extract_doa(exact, 0.01)
        hausdorff, fraction = region_distance(mask, SQUARE)
        # the diagonal node (0.96, 0.96) sits 9e-4 below the 0.99 threshold,
        # so 3 cells is tight with no margin at all
        assert hausdorff == 3.0
        assert fraction <= 0.02

    def test_ex1_saturates_below_the_default_threshold(self, ex1_field):
        mask = extract_doa(ex1_field, 0.01)
        assert mask.inside.all()
        assert mask.touches_boundary

    def test_ex1_interval_at_looser_threshold(self, ex1_field):
        mask = extract_doa(ex1_field, 0.05)
        assert not mask.touches_boundary
        xs = ex1_field.grid.node_coords()[mask.inside, 0]
        assert 0.75 <= xs.max() <= 0.85
        assert abs(xs.min() + xs.max()) <= 0.02
        assert np.all(np.abs(xs) < 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.005, max_value=0.5),
           st.floats(min_value=0.005, max_value=0.5))
    def test_epsilon_monotone(self, lift2d_field, eps_a, eps_b):
        lo, hi = sorted((eps_a, eps_b))
        grown = extract_doa(lift2d_field, lo)
        shrunk = extract_doa(lift2d_field, hi)
        assert np.all(shrunk.inside <= grown.inside)

    def test_degenerate_origin(self, lift2d_field):
        ones = lift2d_field.with_values(np.ones_like(lift2d_field.values))
        with pytest.raises(ConfigError, match="degenerate"):
            extract_doa(ones, 0.01)

    def test_epsilon_domain(self, lift2d_field):
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError, match="epsilon"):
                extract_doa(lift2d_field, eps)

    def test_rejects_raw_fields(self, lift2d_field):
        raw = lift2d_field.with_values(lift2d_field.values, transform="raw")
        with pytest.raises(ConfigError, match="kruzhkov"):
            extract_doa(raw)


@pytest.fixture(scope="module")
def circle_field():
    grid = Grid([-2.0, -2.0], [2.0, 2.0], [81, 81])
    c = grid.node_coords()
    return ValueField(grid, 0.5 * (c[..., 0] ** 2 + c[..., 1] ** 2), "raw")


class TestContour2d:

    def test_circle_level_set(self, circle_field):
        polys = contour2d(circle_field, 0.5)
        assert len(polys) == 1
        ring = polys[0]
        assert np.array_equal(ring[0], ring[-1])
        assert len(ring) > 100
        assert np.abs(np.linalg.norm(ring, axis=1) - 1.0).max() <= 1e-3

    def test_vertices_sit_on_edges_at_the_level(self, circle_field):
        ring = contour2d(circle_field, 0.5)[0]
        grid = circle_field.grid
        for vx in ring:
            on_axis = [np.min(np.abs(grid.axes[k] - vx[k])) < 1e-12
                       for k in range(2)]
            assert any(on_axis)
            assert abs(interpolate(circle_field, vx) - 0.5) <= 1e-9

    def test_constant_field_has_no_contour(self, circle_field):
        flat = circle_field.with_values(
            np.full_like(circle_field.values, 2.0))
        assert contour2d(flat, 0.5) == []

    def test_lift2d_water_line(self, lift2d_field):
        polys = contour2d(lift2d_field, 0.99)
        assert len(polys) == 1
        ring = polys[0]
        assert np.array_equal(ring[0], ring[-1])
        dx = float(lift2d_field.grid.dx[0])
        away = np.minimum(np.abs(ring[:, 0]), np.abs(ring[:, 1])) <= 0.9
        gap = np.abs(np.max(np.abs(ring[away]), axis=-1) - 1.0)
        assert gap.max() <= 3.0 * dx

    def test_saddles_resolved_by_cell_average(self):
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [3, 3])
        vals = (np.indices((3, 3)).sum(axis=0) % 2).astype(float)
        polys = contour2d(ValueField(grid, vals, "raw"), 0.5)
        assert len(polys) == 5
        # center node is below the level: one diamond around it, four
        # corner cuts ending on the box; ordering is row-major by cell
        assert polys[0].tolist() == [[-1.0, -0.5], [-0.5, -1.0]]
        assert polys[1].tolist() == [[0.0, -0.5], [-0.5, 0.0], [0.0, 0.5],
                                     [0.5, 0.0], [0.0, -0.5]]
        for cut in (polys[0], polys[2], polys[3], polys[4]):
            assert len(cut) == 2
            for end in (cut[0], cut[-1]):
                assert np.max(np.abs(end)) == pytest.approx(1.0)

    def test_noisy_field_covers_every_segment_once(self):
        # thousands of polylines, most of them open: each crossing cell
        # gives one segment, each saddle two, and the polylines hold them
        # all; an open one runs from box face to box face
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [61, 61])
        vals = np.random.default_rng(0).random((61, 61))
        polys = contour2d(ValueField(grid, vals, "raw"), 0.5)
        below = (vals < 0.5).astype(int)
        cases = (below[:-1, :-1] | below[1:, :-1] << 1
                 | below[1:, 1:] << 2 | below[:-1, 1:] << 3)
        crossing = np.count_nonzero((cases != 0) & (cases != 15))
        saddles = np.count_nonzero((cases == 5) | (cases == 10))
        assert sum(len(p) - 1 for p in polys) == crossing + saddles
        lo, hi = grid.lo, grid.hi

        def on_face(vx):
            return bool(np.any((vx == lo) | (vx == hi)))

        closed = [np.array_equal(p[0], p[-1]) for p in polys]
        assert 0 < sum(closed) < len(polys)
        for p, ring in zip(polys, closed):
            assert ring or (on_face(p[0]) and on_face(p[-1]))

    def test_deterministic(self, circle_field):
        a = contour2d(circle_field, 0.5)
        b = contour2d(circle_field, 0.5)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_needs_two_dimensions(self, ex1_field):
        with pytest.raises(ConfigError, match="2-D"):
            contour2d(ex1_field, 0.5)


@pytest.fixture(scope="module")
def block_mask():
    grid = Grid([-2.0, -2.0], [2.0, 2.0], [41, 41])
    inside = np.max(np.abs(grid.node_coords()), axis=-1) <= 0.5 + 1e-12
    return DoaMask(grid, inside, 0.5)


class TestRegionDistance:

    def test_self_distance_is_zero(self, block_mask):
        pred = lambda pts: np.max(np.abs(pts), axis=-1) <= 0.5 + 1e-12
        assert region_distance(block_mask, pred) == (0.0, 0.0)

    def test_unit_shift(self, block_mask):
        pred = lambda pts: np.maximum(np.abs(pts[:, 0] - 0.1),
                                      np.abs(pts[:, 1])) <= 0.5 + 1e-12
        hausdorff, fraction = region_distance(block_mask, pred)
        assert hausdorff == 1.0
        assert fraction == pytest.approx(22.0 / 121.0)  # two swapped columns

    def test_empty_reference(self, block_mask):
        h, frac = region_distance(block_mask,
                                  lambda pts: np.zeros(len(pts), dtype=bool))
        assert math.isinf(h)
        assert math.isinf(frac)

    def test_lift2d_against_square(self, lift2d_field):
        mask = extract_doa(lift2d_field, 0.01)
        hausdorff, fraction = region_distance(mask, SQUARE)
        assert 3.0 <= hausdorff <= 4.0
        assert fraction <= 0.04


class TestCsvRoundTrip:

    def test_mask_round_trip(self, lift2d_field, tmp_path):
        mask = extract_doa(lift2d_field, 0.01)
        path = tmp_path / "mask.csv"
        save_mask(mask, path)
        back = load_mask(path)
        assert back.grid.same_layout(mask.grid)
        assert np.array_equal(back.inside, mask.inside)
        assert back.epsilon == mask.epsilon
        assert back.touches_boundary == mask.touches_boundary

    @pytest.mark.parametrize("lo,hi,counts", [
        ([-2.0], [2.0], [4099]),
        ([-1.2, -0.6], [1.2, 0.6], [71, 61]),
        ([-1.0, -0.5, -2.0], [1.0, 1.5, 2.0], [17, 17, 17])],
        ids=["1d", "2d", "3d"])
    def test_rows_are_the_per_value_format(self, tmp_path, lo, hi, counts):
        # every node's row as one %d per value, more nodes than one writer
        # chunk holds
        grid = Grid(lo, hi, counts)
        inside = (grid.node_coords() ** 2).sum(axis=-1) < 0.5
        path = tmp_path / "mask.csv"
        save_mask(DoaMask(grid, inside, 0.01), path)
        head = path.read_bytes().split(b"\n", 1)[0].decode()
        rows = [",".join(["%d" % i for i in at] + ["%d" % inside[at]])
                for at in np.ndindex(*grid.counts)]
        assert path.read_bytes() == ("\n".join([head, *rows]) + "\n").encode()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("not,a,mask\n")
        with pytest.raises(ConfigError, match="header"):
            load_mask(path)

    def test_bytes_that_are_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_bytes(b"1,3,-1,1,0.5\n0,0\n1,\xff\n2,0\n")
        with pytest.raises(ConfigError, match="mask file is not UTF-8"):
            load_mask(path)

    @pytest.mark.parametrize("epsilon, flag, match", [
        ("0.5", "2", "neither 0 nor 1"),
        ("0.5", "0.5", "neither 0 nor 1"),
        ("nan", "1", "epsilon"),
        ("0", "1", "epsilon"),
        ("1", "1", "epsilon"),
        ("-0.1", "1", "epsilon"),
    ])
    def test_bad_flag_or_epsilon(self, tmp_path, epsilon, flag, match):
        # extract_doa never writes these: a flag it cannot have set, or an
        # epsilon it refuses
        path = tmp_path / "bad.csv"
        path.write_text("1,3,-1,1,%s\n0,0\n1,1\n2,%s\n" % (epsilon, flag))
        with pytest.raises(ConfigError, match=match):
            load_mask(path)
        path.write_text("1,3,-1,1,0.5\n0,0\n1,1\n2,0\n")
        assert load_mask(path).node_count == 1

    def test_contour_rows(self, circle_field, tmp_path):
        polys = contour2d(circle_field, 0.5)
        path = tmp_path / "contour.csv"
        save_contours(polys, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "polyline_id,vertex_index,x,y"
        assert len(lines) == 1 + sum(len(p) for p in polys)
        pid, k, x, y = lines[1].split(",")
        assert (int(pid), int(k)) == (0, 0)
        assert [float(x), float(y)] == polys[0][0].tolist()


class TestVerifierHandoff:

    def test_mask_feeds_the_blowup_check(self, lift2d_system, lift2d_field):
        mask = extract_doa(lift2d_field, 0.01)
        rep = check_boundary_blowup(lift2d_system, lift2d_field, mask)
        assert rep.passed
        assert rep.stats["rays"] == 8
