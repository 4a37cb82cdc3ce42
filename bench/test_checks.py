"""Self-tests: each output check rejects a wrong output, accepts a right one.

    python3 -m pytest -q bench/test_checks.py

They build exact outputs from the closed forms, so no solve is needed.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

import checks
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lift2d_grid(nodes=201, half=1.2):
    axis = (np.arange(nodes) - nodes // 2) * (2.0 * half / (nodes - 1))
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)


@pytest.fixture(scope="module")
def exact_field():
    coords = lift2d_grid()
    return coords, checks.kruzhkov(checks.lift2d_value(coords))


def test_exact_field_passes(exact_field):
    coords, values = exact_field
    assert checks.field_problems(coords, values, "lift2d") == []


def test_field_with_one_node_raised_is_rejected(exact_field):
    coords, values = exact_field
    bad = values.copy()
    bad[125, 125] += 0.05  # x = (0.3, 0.3)
    assert checks.field_problems(coords, bad, "lift2d")


@pytest.mark.parametrize("edit", ["above_one", "origin"])
def test_field_invariants_are_checked(exact_field, edit):
    coords, values = exact_field
    bad = values.copy()
    if edit == "above_one":
        bad[0, 0] = 1.0 + 1e-15
    else:
        bad[100, 100] = 1e-9
    assert checks.field_problems(coords, bad, "lift2d")


def test_mask_shifted_by_five_cells_is_rejected(exact_field):
    coords, _ = exact_field
    exact = checks.lift2d_sublevel(coords)
    assert checks.mask_problems(exact, exact) == []
    shifted = np.roll(exact, 5, axis=0)
    assert checks.hausdorff_cells(shifted, exact) == 5.0
    assert checks.mask_problems(shifted, exact)


def test_contour_must_be_one_closed_polyline():
    ring = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                     [1.0, 0.0]])
    assert checks.contour_problems([ring]) == []
    assert checks.contour_problems([ring[:-1]])
    assert checks.contour_problems([ring, ring])


def test_bracket_excluding_the_closed_form_is_rejected():
    exact = float(checks.kruzhkov(checks.lift2d_value(np.array([0.5, 0.5]))))
    assert checks.bracket_problems(exact - 0.01, exact + 0.01, exact, 0.03,
                                   "ok") == []
    assert checks.bracket_problems(exact + 0.05, exact + 0.06, exact, 0.03,
                                   "high")
    assert checks.bracket_problems(exact + 0.01, exact - 0.01, exact, 0.03,
                                   "inverted")


def test_synthesis_defect_above_its_allowance_is_rejected():
    eps, m = 0.05, 4
    allowances = checks.defect_allowances(eps, m)
    assert allowances[0] == pytest.approx(eps * (1.0 - math.exp(-1.0)))
    assert sum(allowances) == pytest.approx(eps * (1.0 - math.exp(-m)))
    fine = [0.5 * a for a in allowances]
    assert checks.synthesis_problems(-0.001, fine, eps, m) == []
    over = list(fine)
    over[2] = 1.01 * allowances[2]
    assert checks.synthesis_problems(-0.001, over, eps, m)
    assert checks.synthesis_problems(-1.01 * eps, fine, eps, m)


def test_field_reader_rejects_a_repeated_node(tmp_path):
    path = tmp_path / "field.csv"
    rows = ["1,3,-1,1,kruzhkov", "0,-1,1", "1,0,0", "1,0,0"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        checks.read_field(str(path))
    rows[3] = "2,1,1"
    path.write_text("\n".join(rows) + "\n")
    coords, values = checks.read_field(str(path))
    assert values.tolist() == [1.0, 0.0, 1.0]
    assert coords[:, 0].tolist() == [-1.0, 0.0, 1.0]


@pytest.mark.parametrize("x", [0.2, 0.45, 0.7, 0.85])
def test_hav1d_closed_form_matches_quadrature(x):
    def profile(y):
        if y <= 0.45:
            return 0.9 ** 6 * y ** 6
        return 0.405 ** 6 * (0.9 - y) / 0.45
    want, _ = quad(profile, 0.0, x, points=[0.45])
    assert checks.hav1d_value(x) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("x", [0.25, 0.5, 0.9, 1.5])
def test_ex1_closed_form_matches_quadrature(x):
    def rate(u):
        return math.sin(math.pi * u) / (u * (1.0 - u))
    want, _ = quad(rate, 0.0, min(x, 1.0))
    assert checks.ex1_value(x) == pytest.approx(want, rel=1e-9)


def test_lift2d_closed_form_is_infinite_outside_the_unit_square():
    pts = np.array([[0.999, 0.0], [1.0, 0.0], [0.0, -1.0], [1.1, 1.1]])
    w = checks.lift2d_value(pts)
    assert np.isfinite(w[0]) and np.all(np.isinf(w[1:]))


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
