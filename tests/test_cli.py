import json
import subprocess
import sys

import numpy as np
import pytest

from zubov import verify
from zubov.cli import main
from zubov.regions import load_mask
from zubov.systems import load_field, save_field

LIFT_CLOSED = 0.3862943611198906  # exact worst-case cost at (0.5, 0.5)


def read_meta(out_dir):
    with open(out_dir / "metadata.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def run_dir(tmp_path_factory):
    """A converged lift2d solve on a quick grid, with its metadata."""
    out = tmp_path_factory.mktemp("run")
    rc = main(["solve", "--builtin", "lift2d", "--nodes", "101",
               "--dt", "0.1", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def points_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pts") / "points.csv"
    path.write_text("0,0\n0.5,0.5\n")
    return path


class TestSolve:
    def test_artifacts_and_metadata(self, run_dir):
        assert (run_dir / "field.csv").exists()
        meta = read_meta(run_dir)
        assert meta["command"] == "solve"
        assert meta["result"]["converged"] is True
        assert meta["result"]["iterations"] > 10
        assert meta["config"]["dt"] == 0.1
        for key in ("python", "numpy", "scipy", "zubov"):
            assert key in meta["versions"]

    @pytest.mark.filterwarnings("ignore:value iteration")
    def test_non_convergence_exits_2(self, tmp_path):
        rc = main(["solve", "--builtin", "lift2d", "--nodes", "41",
                   "--max-iters", "3", "--out", str(tmp_path)])
        assert rc == 2
        assert read_meta(tmp_path)["result"]["converged"] is False

    def test_operator_trace_goes_under_result(self, run_dir):
        meta = read_meta(run_dir)
        assert meta["result"]["operator_nnz"] > 0
        assert sorted(meta["result"]["phase_seconds"]) == ["build", "sweeps"]
        assert "operator_nnz" not in meta["config"]
        assert "phase_seconds" not in meta["config"]

    def test_missing_config_exits_1(self, tmp_path):
        rc = main(["solve", "--config", str(tmp_path / "missing.json")])
        assert rc == 1

    def test_unknown_flag_exits_1(self):
        assert main(["solve", "--builtin", "lift2d", "--frobnicate"]) == 1

    def test_unknown_builtin_exits_1(self, tmp_path):
        assert main(["solve", "--builtin", "nosuch",
                     "--out", str(tmp_path)]) == 1

    def test_metadata_rerun_is_bitwise(self, run_dir, tmp_path):
        rc = main(["solve", "--config", str(run_dir / "metadata.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        first = (run_dir / "field.csv").read_bytes()
        second = (tmp_path / "field.csv").read_bytes()
        assert first == second

    def test_thread_count_does_not_change_bits(self, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / threads
            rc = main(["solve", "--builtin", "lift2d", "--nodes", "41",
                       "--threads", threads, "--out", str(out)])
            assert rc == 0
            outs.append((out / "field.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_split_sweeps_write_the_same_bytes(self, tmp_path, monkeypatch):
        from zubov import solver

        # a 201² lift2d operator has 3.4M nonzeros: two workers given two
        # cores, whatever this machine has
        monkeypatch.setattr(solver, "usable_cores", lambda: 2)
        outs = []
        for threads in (1, 2):
            out = tmp_path / str(threads)
            rc = main(["solve", "--builtin", "lift2d", "--nodes", "201",
                       "--threads", str(threads), "--out", str(out)])
            assert rc == 0
            meta = read_meta(out)
            assert meta["result"]["sweep_workers"] == threads
            assert meta["config"]["threads"] == threads
            outs.append((out / "field.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_workers_goes_under_result(self, run_dir):
        meta = read_meta(run_dir)
        assert meta["result"]["sweep_workers"] == 1  # 101²: 0.9M nonzeros
        assert "sweep_workers" not in meta["config"]

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"builtin": "lift2d", "nodes": [41], "dt": 0.1}))
        out1 = tmp_path / "a"
        assert main(["solve", "--config", str(cfg),
                     "--out", str(out1)]) == 0
        assert read_meta(out1)["config"]["dt"] == 0.1
        out2 = tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--dt", "0.05",
                     "--out", str(out2)]) == 0
        meta = read_meta(out2)
        assert meta["config"]["dt"] == 0.05
        assert meta["config"]["tol"] == 1e-6  # untouched default

    def test_box_broadcast_and_per_axis(self, tmp_path):
        out = tmp_path / "bc"
        assert main(["solve", "--builtin", "lift2d", "--nodes", "21,41",
                     "--box=-1,1,-0.5,0.5", "--dt", "0.1",
                     "--out", str(out)]) == 0
        grid = read_meta(out)["result"]["grid"]
        assert grid["counts"] == [21, 41]
        assert grid["lo"] == [-1.0, -0.5]
        assert grid["hi"] == [1.0, 0.5]

    def test_builtin_plus_inline_system_is_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "builtin": "lift2d",
            "system": {"n": 1, "f": ["-x1"], "g": "x1^2"},
            "nodes": [21],
        }))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1

    def test_unknown_config_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "lift2d", "dtt": 0.1}))
        assert main(["solve", "--config", str(cfg)]) == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zubov.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "zubov" in proc.stdout


class TestHjbe:
    def test_guarded_builtin_solves_raw(self, tmp_path):
        rc = main(["hjbe", "--builtin", "fuller", "--nodes", "41",
                   "--dt", "0.02", "--out", str(tmp_path)])
        assert rc == 0
        field = load_field(str(tmp_path / "field.csv"))
        assert field.transform == "raw"
        assert field.values.min() >= 0.0

    def test_unguarded_builtin_exits_1(self, tmp_path):
        assert main(["hjbe", "--builtin", "lift2d", "--nodes", "41",
                     "--out", str(tmp_path)]) == 1

    def test_inline_config_system(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"n": 1, "f": ["-x1"], "g": "abs(x1)/(1 + x1^2)",
                       "ell": "abs(x1)/(1 + x1^2)",
                       "mode": "minimize", "guard": "nonneg_ell"},
            "nodes": [241], "box": [-3.0, 3.0], "dt": 0.05,
        }))
        out = tmp_path / "out"
        assert main(["hjbe", "--config", str(cfg), "--out", str(out)]) == 0
        field = load_field(str(out / "field.csv"))
        ax = field.grid.axes[0]
        keep = np.abs(ax) <= 2.5
        gap = np.abs(field.values[keep] - np.arctan(np.abs(ax[keep]))).max()
        assert gap <= 0.03  # first-order in dt and dx at this resolution

    def test_inline_system_needs_explicit_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"n": 1, "f": ["-x1"], "g": "x1^2",
                       "mode": "maximize"}}))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1


def parse_bounds(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return rows


class TestOracle:
    def test_brackets_and_origin_row(self, points_file, tmp_path):
        rc = main(["oracle", "--builtin", "lift2d", "--controls", "3",
                   "--depth", "8", "--rho", "0.2",
                   "--out", str(tmp_path), str(points_file)])
        assert rc == 0
        rows = parse_bounds(tmp_path / "bounds.csv")
        assert len(rows) == 2
        origin = rows[0]
        assert float(origin["lower"]) == 0.0
        assert float(origin["upper"]) == 0.0
        assert origin["status"] == "ok"
        mid = rows[1]
        assert mid["truncated"] == "0"
        assert float(mid["lower"]) <= LIFT_CLOSED <= float(mid["upper"])

    def test_budget_refusal_exits_3(self, points_file, tmp_path):
        # 21^8 schedules is far past the default budget
        rc = main(["oracle", "--builtin", "lift2d", "--depth", "8",
                   "--out", str(tmp_path), str(points_file)])
        assert rc == 3
        rows = parse_bounds(tmp_path / "bounds.csv")
        assert rows[0]["status"] == "ok"  # origin short-circuits
        assert rows[1]["status"] == "budget"
        assert read_meta(tmp_path)["result"]["budget_exceeded"] == 1

    def test_runs_are_deterministic(self, points_file, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["oracle", "--builtin", "lift2d", "--controls", "3",
                       "--depth", "6", "--out", str(out), str(points_file)])
            assert rc == 0
            outs.append((out / "bounds.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_expression_error_exits_1(self, tmp_path, capsys):
        # lift2d written as expressions: from (1.5, 1.5) the state escapes
        # to overflow and the compiled f raises before any bracket exists
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": {
            "name": "lift2d-json", "n": 2,
            "f": ["-x1 + a1*x1^2", "-x2 + a1*x2^2"], "g": "x1^2 + x2^2",
            "control": {"box": {"lo": [-1.0], "hi": [1.0], "counts": [3]}},
            "ules": {"C": 1.0, "sigma": 0.5, "r": 0.5},
            "growth": {"C_tilde": 1.0, "lambda": 2.0}}}))
        pts = tmp_path / "pts.csv"
        pts.write_text("1.5,1.5\n")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["oracle", "--config", str(cfg),
                       "--out", str(tmp_path / "out"), str(pts)])
        assert rc == 1
        assert "non-finite" in capsys.readouterr().err

    def test_malformed_points_exit_1(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,abc\n")
        assert main(["oracle", "--builtin", "lift2d",
                     "--out", str(tmp_path), str(pts)]) == 1

    def test_wrong_arity_exits_1(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,0.5,0.5\n")
        assert main(["oracle", "--builtin", "lift2d",
                     "--out", str(tmp_path), str(pts)]) == 1

    def test_empty_points_exit_1(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("# only a comment\n")
        assert main(["oracle", "--builtin", "lift2d",
                     "--out", str(tmp_path), str(pts)]) == 1


class TestVerify:
    def test_clean_field_passes(self, run_dir, tmp_path):
        report = tmp_path / "report.json"
        rc = main(["verify", "--builtin", "lift2d", "--nodes", "101",
                   "--report-json", str(report), "--out", str(tmp_path),
                   str(run_dir / "field.csv")])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        names = [c["name"] for c in doc["checks"]]
        assert names == ["invariants", "fixed_point", "residual_stats",
                         "lyapunov_decrease", "boundary_blowup"]
        assert all(c["passed"] for c in doc["checks"])

    def test_corrupted_node_exits_4_with_witness(self, run_dir, tmp_path):
        field = load_field(str(run_dir / "field.csv"))
        values = field.values.copy()
        values[70, 30] *= 0.5
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        save_field(field.with_values(values), str(bad_dir / "field.csv"))
        # keep the run record so the re-sweep uses the producing dt
        (bad_dir / "metadata.json").write_bytes(
            (run_dir / "metadata.json").read_bytes())
        report = tmp_path / "report.json"
        rc = main(["verify", "--builtin", "lift2d", "--nodes", "101",
                   "--report-json", str(report), "--out", str(tmp_path),
                   str(bad_dir / "field.csv")])
        assert rc == 4
        doc = json.loads(report.read_text())
        fixed = {c["name"]: c for c in doc["checks"]}["fixed_point"]
        assert not fixed["passed"]
        assert fixed["witnesses"][0]["node"] == [70, 30]

    def test_mismatched_grid_exits_1(self, run_dir, tmp_path):
        rc = main(["verify", "--builtin", "lift2d", "--nodes", "51",
                   "--out", str(tmp_path), str(run_dir / "field.csv")])
        assert rc == 1

    def test_raw_field_is_rejected(self, tmp_path):
        out = tmp_path / "raw"
        assert main(["hjbe", "--builtin", "fuller", "--nodes", "41",
                     "--dt", "0.02", "--out", str(out)]) == 0
        rc = main(["verify", "--builtin", "fuller", "--nodes", "41",
                   "--out", str(tmp_path), str(out / "field.csv")])
        assert rc == 1

    def test_checks_are_toggleable(self, run_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"checks": ["invariants", "fixed_point"]}))
        report = tmp_path / "report.json"
        rc = main(["verify", "--config", str(cfg), "--builtin", "lift2d",
                   "--nodes", "101", "--report-json", str(report),
                   "--out", str(tmp_path), str(run_dir / "field.csv")])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert [c["name"] for c in doc["checks"]] == ["invariants",
                                                      "fixed_point"]

    def test_unknown_check_name_exits_1(self, run_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["residual", "vibes"]}))
        rc = main(["verify", "--config", str(cfg), "--builtin", "lift2d",
                   "--nodes", "101", "--out", str(tmp_path),
                   str(run_dir / "field.csv")])
        assert rc == 1


class TestRunRecord:
    """field.csv carries dt, tol, feet mode, exterior value and convergence,
    so a field checks the same wherever it is copied."""

    @staticmethod
    def fixed_point_only(tmp_path):
        cfg = tmp_path / "checks.json"
        cfg.write_text(json.dumps({"checks": ["fixed_point"]}))
        return str(cfg)

    def test_bare_euler_field_passes_fixed_point(self, tmp_path):
        cfg = tmp_path / "euler.json"
        cfg.write_text(json.dumps({"rk4_feet": False}))
        solved, bare = tmp_path / "solve", tmp_path / "bare"
        assert main(["solve", "--config", str(cfg), "--builtin", "lift2d",
                     "--nodes", "101", "--dt", "0.1",
                     "--out", str(solved)]) == 0
        bare.mkdir()
        (bare / "field.csv").write_bytes((solved / "field.csv").read_bytes())
        report = tmp_path / "report.json"
        # neither --dt nor rk4_feet: only the field's record says them
        rc = main(["verify", "--config", self.fixed_point_only(tmp_path),
                   "--builtin", "lift2d", "--nodes", "101",
                   "--report-json", str(report), "--out",
                   str(tmp_path / "check"), str(bare / "field.csv")])
        assert rc == 0
        fixed = json.loads(report.read_text())["checks"][0]
        assert fixed["passed"] and fixed["stats"]["dt"] == 0.1

    def test_bare_field_verifies_and_synthesizes(self, run_dir, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "field.csv").write_bytes((run_dir / "field.csv").read_bytes())
        assert main(["verify", "--builtin", "lift2d", "--nodes", "101",
                     "--out", str(tmp_path / "check"),
                     str(bare / "field.csv")]) == 0
        assert main(["synthesize", "--builtin", "lift2d", "--epsilon", "0.05",
                     "--out", str(tmp_path / "syn"), str(bare / "field.csv"),
                     "0.5,0.5", "4"]) == 0

    @pytest.mark.filterwarnings("ignore:value iteration")
    def test_unconverged_field_stays_unconverged(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["solve", "--builtin", "lift2d", "--nodes", "101",
                     "--dt", "0.1", "--max-iters", "5",
                     "--out", str(run)]) == 2
        # verify writes its own metadata.json over the solve's
        main(["verify", "--config", self.fixed_point_only(tmp_path),
              "--builtin", "lift2d", "--nodes", "101", "--dt", "0.1",
              "--out", str(run), str(run / "field.csv")])
        assert read_meta(run)["command"] == "verify"
        capsys.readouterr()
        rc = main(["synthesize", "--builtin", "lift2d", "--epsilon", "0.05",
                   "--out", str(tmp_path / "syn"), str(run / "field.csv"),
                   "0.5,0.5", "4"])
        assert rc == 1
        assert "converged" in capsys.readouterr().err

    def test_verify_passes_threads_on(self, run_dir, tmp_path, monkeypatch):
        seen = []
        real = verify.zubov_operator
        monkeypatch.setattr(verify, "zubov_operator", lambda *a, threads:
                            seen.append(threads) or real(*a, threads=threads))
        for threads in ("3", "0"):
            assert main(["verify", "--config", self.fixed_point_only(tmp_path),
                         "--builtin", "lift2d", "--nodes", "101",
                         "--threads", threads, "--out", str(tmp_path),
                         str(run_dir / "field.csv")]) == 0
        assert seen == [3, None]  # 0 means the usable cores


class TestDoa:
    def test_mask_and_contour(self, run_dir, tmp_path):
        rc = main(["doa", "--builtin", "lift2d", "--out", str(tmp_path),
                   str(run_dir / "field.csv")])
        assert rc == 0
        mask = load_mask(str(tmp_path / "mask.csv"))
        assert mask.inside[mask.grid.origin_index]
        assert not mask.touches_boundary
        lines = (tmp_path / "contour.csv").read_text().strip().splitlines()
        assert lines[0] == "polyline_id,vertex_index,x,y"
        rows = [ln.split(",") for ln in lines[1:]]
        ids = {int(r[0]) for r in rows}
        assert ids == {0}  # one ring around the origin component
        first = [float(rows[0][2]), float(rows[0][3])]
        last = [float(rows[-1][2]), float(rows[-1][3])]
        assert first == last  # closed
        extent = max(max(abs(float(r[2])), abs(float(r[3]))) for r in rows)
        assert 0.85 <= extent <= 1.1  # hugs the unit square

    def test_corrupted_field_exits_1(self, run_dir, tmp_path, capsys):
        rows = (run_dir / "field.csv").read_text().splitlines()
        rows[4] = rows[3]  # a duplicated node hides a missing one
        bad = tmp_path / "field.csv"
        bad.write_text("\n".join(rows) + "\n")
        rc = main(["doa", "--builtin", "lift2d", "--out",
                   str(tmp_path / "doa"), str(bad)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_epsilon_flag_shrinks_mask(self, run_dir, tmp_path):
        counts = {}
        for eps in ("0.01", "0.05"):
            out = tmp_path / eps
            rc = main(["doa", "--builtin", "lift2d", "--epsilon", eps,
                       "--out", str(out), str(run_dir / "field.csv")])
            assert rc == 0
            counts[eps] = read_meta(out)["result"]["nodes"]
        assert counts["0.05"] < counts["0.01"]


class TestSynthesize:
    def test_schedule_and_residual(self, run_dir, tmp_path):
        rc = main(["synthesize", "--builtin", "lift2d", "--epsilon", "0.05",
                   "--out", str(tmp_path), str(run_dir / "field.csv"),
                   "0.5,0.5", "4"])
        assert rc == 0
        result = read_meta(tmp_path)["result"]
        assert result["residual"] >= -0.05
        assert all(d <= a for d, a in zip(result["defects"],
                                          result["allowances"]))
        lines = (tmp_path / "schedule.csv").read_text().strip().splitlines()
        assert lines[0] == "duration,a1"
        assert len(lines) == 1 + 16  # 4 intervals x 4 switch slots
        assert all(float(ln.split(",")[0]) == 0.25 for ln in lines[1:])

    def test_schedule_without_controls(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"n": 1, "f": ["-x1"], "g": "x1^2",
                       "mode": "maximize", "control": None},
            "nodes": [201], "box": [-2.0, 2.0]}))
        solved = tmp_path / "solve"
        assert main(["solve", "--config", str(cfg),
                     "--out", str(solved)]) == 0
        out = tmp_path / "synth"
        assert main(["synthesize", "--config", str(cfg), "--epsilon", "0.05",
                     "--out", str(out), str(solved / "field.csv"),
                     "0.5", "2"]) == 0
        lines = (out / "schedule.csv").read_text().splitlines()
        assert lines[0] == "duration"
        assert len(lines) == 1 + 8  # 2 intervals x 4 switch slots
        assert all(ln == "0.25" for ln in lines[1:])

    def test_unreachable_tolerance_exits_4(self, run_dir, tmp_path):
        rc = main(["synthesize", "--builtin", "lift2d",
                   "--epsilon", "0.0001", "--out", str(tmp_path),
                   str(run_dir / "field.csv"), "0.5,0.5", "4"])
        assert rc == 4

    def test_start_outside_grid_exits_1(self, run_dir, tmp_path):
        rc = main(["synthesize", "--builtin", "lift2d", "--epsilon", "0.05",
                   "--out", str(tmp_path), str(run_dir / "field.csv"),
                   "2.0,2.0", "4"])
        assert rc == 1


class TestDemo:
    def test_reference_problems_match_closed_forms(self, tmp_path, capsys):
        rc = main(["demo", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("lift2d", "arctan1d", "ex1"):
            assert name in out
        assert "FAIL" not in out
        rows = read_meta(tmp_path)["result"]["rows"]
        assert all(row["sup_error"] <= 0.02 for row in rows)
        table = (tmp_path / "demo.csv").read_text().splitlines()
        assert table[0] == "system,nodes,sweeps,sup_error,bound,status"
        assert len(table) == 4 and all(r.endswith(",ok") for r in table[1:])
