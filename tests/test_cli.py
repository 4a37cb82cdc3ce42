import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from zubov.cli import _build_parser, _make_grid, _resolve, _settings, main
from zubov.oracle import _INT_DT
from zubov.regions import load_mask
from zubov.solver import SolverSettings, interpolate
from zubov.systems import BUILTINS, builtin, load_field, save_field
from zubov.trajectories import ControlSchedule, integrate

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

    def test_non_convergence_exits_2(self, tmp_path):
        rc = main(["solve", "--builtin", "lift2d", "--nodes", "41",
                   "--max-iters", "3", "--out", str(tmp_path)])
        assert rc == 2
        assert read_meta(tmp_path)["result"]["converged"] is False

    def test_non_convergence_prints_no_python_warning(self, tmp_path, capfd):
        # the CLI's own stderr line reports max_iters; the library's
        # UserWarning, with its source line, stays out of the terminal
        rc = subprocess.run(
            [sys.executable, "-m", "zubov.cli", "solve", "--builtin",
             "lift2d", "--nodes", "41", "--max-iters", "3",
             "--out", str(tmp_path)]).returncode
        assert rc == 2
        err = capfd.readouterr().err
        assert "UserWarning" not in err
        assert err == "solver stopped on max_iters=3 without converging\n"

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 74.5 GiB for an array"),
        MemoryError()])
    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch, exc):
        # a stand-in for a grid too big to allocate, such as lift2d at
        # --nodes 100001: a real attempt could succeed on an overcommitting
        # host
        def solve(system, grid, settings):
            raise exc

        monkeypatch.setattr("zubov.cli.solve_zubov", solve)
        assert main(["solve", "--builtin", "lift2d", "--nodes", "41",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        assert str(exc) in err

    def test_operator_trace_goes_under_result(self, run_dir):
        meta = read_meta(run_dir)
        assert meta["result"]["operator_nnz"] > 0
        assert sorted(meta["result"]["phase_seconds"]) == [
            "build", "policy", "save_field", "sweeps"]
        assert "operator_nnz" not in meta["config"]
        assert "phase_seconds" not in meta["config"]

    def test_solver_trace_goes_under_result(self, run_dir):
        meta = read_meta(run_dir)
        result = meta["result"]
        assert len(result["sweep_changes"]) == result["iterations"]
        assert result["sweep_changes"][-1] == result["final_change"]
        assert 0.0 <= result["bellman_residual"] <= result["final_change"]
        # a Kružkov operator has no offset to keep: an 8-byte weight per
        # entry, a 4-byte cell index per row and one shared 4-byte indptr
        rows = builtin("lift2d").control.size * 101 * 101
        assert result["operator_nnz"] == 4 * rows
        assert result["operator_bytes"] == 8 * result["operator_nnz"] \
            + 4 * rows + 4 * (101 * 101 + 1)
        for key in ("sweep_changes", "bellman_residual", "operator_bytes"):
            assert key not in meta["config"]

    def test_foot_sub_steps_go_under_result(self, run_dir, tmp_path):
        # dt 0.1 is one RK4 sub-step per foot, dt 0.8 eight of 0.1
        assert read_meta(run_dir)["result"]["foot_substeps"] == 1
        assert main(["solve", "--builtin", "lift2d", "--nodes", "41",
                     "--dt", "0.8", "--out", str(tmp_path)]) == 0
        meta = read_meta(tmp_path)
        assert meta["result"]["foot_substeps"] == 8
        assert "foot_substeps" not in meta["config"]

    def test_builtin_default_grid_is_its_row(self):
        for name, row in BUILTINS.items():
            half, count = row.grid
            grid = _make_grid({"builtin": name, "nodes": None, "box": None},
                              builtin(name))
            assert grid.counts.tolist() == [count] * row.n_state
            assert np.allclose(grid.lo, -half, rtol=0.0, atol=1e-12)
            assert np.allclose(grid.hi, half, rtol=0.0, atol=1e-12)

    def test_solver_defaults_are_the_settings_defaults(self, tmp_path):
        args = _build_parser().parse_args(
            ["solve", "--builtin", "lift2d", "--out", str(tmp_path)])
        cfg, default = _resolve(args), SolverSettings()
        assert _settings(cfg) == default
        assert (cfg["dt"], cfg["tol"], cfg["max_iters"]) == (
            default.dt, default.tol, default.max_iters)

    def test_missing_config_exits_1(self, tmp_path):
        rc = main(["solve", "--config", str(tmp_path / "missing.json")])
        assert rc == 1

    @pytest.mark.parametrize("cost, command, system", [
        ("g", "solve", {"g": "sqrt(x1)"}),
        ("ell", "hjbe", {"ell": "sqrt(x1)", "mode": "minimize",
                         "guard": "nonneg_ell"})], ids=["g", "ell"])
    def test_cost_undefined_at_a_sample_exits_1(self, tmp_path, capsys, cost,
                                                command, system):
        # undefined at the envelope's samples with x1 < 0: once "expression
        # error: sqrt of a negative value", naming neither cost nor point
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_inline(
            ules={"C": 1, "sigma": 1, "r": 1},
            growth={"C_tilde": 1, "lambda": 0.5}, **system)))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: system validation failed")
        assert "\n  - %s([-" % cost in err
        assert err.endswith("is undefined inside the ULES ball: sqrt of a "
                            "negative value\n")
        assert not out.exists()

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

    def test_field_digest_goes_under_result(self, run_dir):
        meta = read_meta(run_dir)
        digest = hashlib.sha256((run_dir / "field.csv").read_bytes())
        assert meta["result"]["field_sha256"] == digest.hexdigest()
        assert "field_sha256" not in meta["config"]
        assert (run_dir / "field.npz").exists()

    def test_metadata_rerun_writes_the_same_twin(self, run_dir, tmp_path,
                                                 monkeypatch):
        # a day later: nothing in the twin may depend on the clock
        clock = time.time
        monkeypatch.setattr(time, "time", lambda: clock() + 86400.0)
        rc = main(["solve", "--config", str(run_dir / "metadata.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert ((tmp_path / "field.npz").read_bytes()
                == (run_dir / "field.npz").read_bytes())
        assert (read_meta(tmp_path)["result"]["field_sha256"]
                == read_meta(run_dir)["result"]["field_sha256"])

    def test_thread_count_does_not_change_bits(self, tmp_path, capsys):
        # --threads is retired; the count an older metadata.json recorded
        # is dropped on replay
        assert main(["solve", "--builtin", "lift2d", "--nodes", "41",
                     "--threads", "4", "--out", str(tmp_path / "t")]) == 1
        assert "usage error" in capsys.readouterr().err
        fresh = tmp_path / "fresh"
        assert main(["solve", "--builtin", "lift2d", "--nodes", "41",
                     "--out", str(fresh)]) == 0
        assert "threads" not in read_meta(fresh)["config"]
        old = read_meta(fresh)
        cfg = tmp_path / "metadata.json"
        # every count an older run recorded replays, unchecked ones included
        for threads in (0, 4, -5):
            old["config"]["threads"] = threads
            cfg.write_text(json.dumps(old))
            replay = tmp_path / ("replay%d" % threads)
            assert main(["solve", "--config", str(cfg),
                         "--out", str(replay)]) == 0
            assert ((replay / "field.csv").read_bytes()
                    == (fresh / "field.csv").read_bytes())
            assert "threads" not in read_meta(replay)["config"]
        for threads in ("x", 2.5, True):
            old["config"]["threads"] = threads
            cfg.write_text(json.dumps(old))
            capsys.readouterr()
            assert main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "bad")]) == 1
            err = capsys.readouterr().err
            assert "config key 'threads' was removed" in err
            assert "Traceback" not in err

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

    def test_bare_config_nodes_broadcast_like_the_flag(self, tmp_path):
        metas = []
        for nodes in (41, [41]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"builtin": "lift2d", "nodes": nodes,
                                       "box": [-1.0, 1.0], "dt": 0.1}))
            out = tmp_path / str(len(metas))
            assert main(["solve", "--config", str(cfg),
                         "--out", str(out)]) == 0
            metas.append(read_meta(out))
            assert metas[-1]["result"]["grid"]["counts"] == [41, 41]
        assert (metas[0]["result"]["iterations"]
                == metas[1]["result"]["iterations"])
        assert ((tmp_path / "0" / "field.csv").read_bytes()
                == (tmp_path / "1" / "field.csv").read_bytes())

    @pytest.mark.parametrize("key, value", [("nodes", "x"), ("nodes", True),
                                            ("box", "1,y"), ("box", 1.2),
                                            ("nodes", [21.7]),
                                            ("max_iters", 2.9),
                                            ("controls", 3.5),
                                            ("depth", 8.9), ("seed", True),
                                            ("rk4_feet", "false"),
                                            ("exterior", "high"),
                                            ("dt", "abc")])
    def test_bad_config_grid_value_names_the_key(self, tmp_path, capsys,
                                                 key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "lift2d", key: value}))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "--" not in err

    def test_pre_removal_metadata_replays(self, tmp_path, capsys):
        # the config a metadata.json recorded before the feet mode, the
        # exterior value, the report copy and the thread count were
        # removed: its four retired values are dropped
        old = {"box": None, "budget": 2000000, "builtin": "lift2d",
               "checks": ["invariants", "fixed_point", "residual",
                          "decrease", "blowup"], "controls": None,
               "depth": 8, "dt": 0.05, "epsilon": 0.01, "exterior": None,
               "max_iters": 2000, "nodes": [41], "out": "old",
               "report_json": None, "rho": 0.05, "rk4_feet": True,
               "seed": 0, "switch_dt": 0.25, "system": None, "threads": 0,
               "tol": 1e-06}
        cfg = tmp_path / "metadata.json"
        cfg.write_text(json.dumps({"command": "solve", "config": old}))
        fresh, replay = tmp_path / "fresh", tmp_path / "replay"
        assert main(["solve", "--builtin", "lift2d", "--nodes", "41",
                     "--out", str(fresh)]) == 0
        assert main(["solve", "--config", str(cfg),
                     "--out", str(replay)]) == 0
        assert ((replay / "field.csv").read_bytes()
                == (fresh / "field.csv").read_bytes())
        assert not {"rk4_feet", "exterior", "report_json", "threads"} \
            & set(read_meta(replay)["config"])
        for key, value in (("rk4_feet", False), ("exterior", 0.3),
                           ("report_json", "r.json")):
            cfg.write_text(json.dumps({"command": "solve",
                                       "config": dict(old, **{key: value})}))
            capsys.readouterr()
            assert main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / key)]) == 1
            err = capsys.readouterr().err
            assert "config key %r was removed" % key in err
            assert "Traceback" not in err

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

    @pytest.mark.parametrize("args, what", [
        (["--builtin", "arctan1d", "--nodes", "1e30"], "grid counts"),
        (["--builtin", "lift2d", "--controls", "1e30"], "controls")],
        ids=["nodes", "controls"])
    def test_count_past_int64_exits_1(self, tmp_path, args, what):
        # the int64 conversion of such a count once raised OverflowError
        proc = subprocess.run(
            [sys.executable, "-m", "zubov.cli", "solve", *args,
             "--out", str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "config error: %s" % what in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zubov.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "zubov" in proc.stdout

    def test_import_defers_scipy_ndimage_and_sparse(self):
        # a CLI call pays for scipy.ndimage (~0.4 s) and scipy.sparse only
        # when a command uses them
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, zubov.cli; print(sorted("
             "{'scipy.ndimage', 'scipy.sparse'} & set(sys.modules)))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"


def _inline(**system):
    """A solve config for a 1-D inline system, `system` patching it."""
    doc = {"n": 1, "f": ["-x1"], "g": "x1^2"}
    doc.update(system)
    return {"system": doc, "nodes": [21], "box": [-1.0, 1.0]}


# what a user can hand the CLI that it once answered with a traceback: the
# file each case writes, its bytes, and the command that reads it
_MALFORMED = {
    # a non-ASCII digit, once float('\u00b2')'s ValueError
    "superscript-digit": ("c.json", _inline(g="x1^\u00b2"), "solve"),
    # too deep to compile or to parse: once a RecursionError
    "5000-negations": ("c.json", _inline(g="-" * 5000 + "x1"), "solve"),
    "5000-parentheses": ("c.json", _inline(g="(" * 5000 + "x1" + ")" * 5000),
                         "solve"),
    "5000-term-sum": ("c.json", _inline(g=" + ".join(["x1^2"] * 5000)),
                      "solve"),
    # bytes that do not decode, and JSON too deep for the json module
    "config-0xff": ("c.json", b"\xff{}", "solve"),
    "config-deep": ("c.json", b"[" * 100000 + b"]" * 100000, "solve"),
    "points-0xff": ("p.csv", b"\xff0.5\n", "oracle"),
    "field-0xff": ("f.csv", b"1,3,-1,1,kruzhkov\n0,-1,0.5\n1,0,\xff\n"
                   b"2,1,0.5\n", "doa"),
    # control tables that once escaped as a ValueError
    "ragged-points": ("c.json", _inline(control={"points": [[0.0],
                                                           [1.0, 2.0]]}),
                      "solve"),
    "text-points": ("c.json", _inline(control={"points": [["a"]]}), "solve"),
    "text-box-bound": ("c.json", _inline(control={"box": {
        "lo": ["a"], "hi": [1.0], "counts": [3]}}), "solve"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_exits_1_without_a_traceback(tmp_path, case):
    name, content, command = _MALFORMED[case]
    path = tmp_path / name
    if isinstance(content, dict):
        content = json.dumps(content).encode()
    path.write_bytes(content)
    argv = {"solve": ["solve", "--config", str(path)],
            "oracle": ["oracle", "--builtin", "ex1", str(path)],
            "doa": ["doa", "--builtin", "ex1", str(path)]}[command]
    proc = subprocess.run(
        [sys.executable, "-m", "zubov.cli", *argv,
         "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(("config error", "expression error"))
    assert len(proc.stderr.splitlines()) <= 2  # one line, or one problem


def _axes(n):
    """An inline n-state system on 3 nodes per axis."""
    return {"system": {"n": n, "f": ["-x%d" % (i + 1) for i in range(n)],
                       "g": "x1^2"}, "nodes": [3], "box": [-1.0, 1.0]}


# input whose size the CLI once took at its word: a control lattice twice
# the bound (10^9 samples were killed for memory), a 40-axis grid of 3^40
# nodes (its int64 count wrapped negative), a 39-axis grid whose operator
# no array can hold (np.full's "array is too big") and RK4 segments of
# 10^302 sub-steps (spun)
_OVERSIZED = {
    "control-lattice": ("solve", _inline(control={"box": {
        "lo": [-1.0], "hi": [1.0], "counts": [2 ** 21]}})),
    "40-axis-grid": ("solve", _axes(40)),
    "39-axis-grid": ("solve", _axes(39)),
    "switch-dt-1e300": ("oracle", None),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_oversized_input_exits_1_at_once(tmp_path, case):
    command, config = _OVERSIZED[case]
    if command == "solve":
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv = ["solve", "--config", str(path)]
    else:
        path = tmp_path / "p.csv"
        path.write_text("0.5,0.5\n")
        argv = ["oracle", "--builtin", "lift2d", "--depth", "2",
                "--switch-dt", "1e300", str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "zubov.cli", *argv,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error")
    assert len(proc.stderr.splitlines()) <= 2  # one line, or one problem


class TestHjbe:
    def test_guarded_builtin_solves_raw(self, tmp_path):
        rc = main(["hjbe", "--builtin", "fuller", "--nodes", "41",
                   "--dt", "0.02", "--out", str(tmp_path)])
        assert rc == 0
        field = load_field(str(tmp_path / "field.csv"))
        assert field.transform == "raw"
        assert field.values.min() >= 0.0
        # read through its twin; the digest is the one the run recorded
        assert (tmp_path / "field.npz").exists()
        assert (field.sha256
                == read_meta(tmp_path)["result"]["field_sha256"])

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
        # the origin runs none; pruning keeps the other under the full 9840
        result = read_meta(tmp_path)["result"]
        assert 0 < result["segment_integrations"] < 9840
        assert result["segment_integrations"] == 711  # the bracket's rows
        assert result["seconds"] >= 0.0  # the bracket loop's wall time

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

    @pytest.mark.parametrize("ell, problem", [
        ("10*x1^2", "growth bound violated: |ell("),
        ("-x1^2", "has the wrong sign for the nonneg_ell guard")])
    def test_guard_breaking_ell_exits_1(self, tmp_path, capsys, ell,
                                        problem):
        # both once certified a bracket that excludes the exact value
        # (5.0 and -0.5): |ell| leaves the envelope, or ell < 0 under
        # nonneg_ell, at a sample point of the envelope ball
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": {
            "n": 1, "f": ["-x1"], "g": "x1^2", "ell": ell,
            "mode": "minimize", "guard": "nonneg_ell",
            "ules": {"C": 1.0, "sigma": 1.0, "r": 1.0},
            "growth": {"C_tilde": 1.0, "lambda": 2.0}},
            "switch_dt": 0.5, "depth": 8, "rho": 0.05}))
        pts = tmp_path / "pts.csv"
        pts.write_text("1\n")
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out),
                     str(pts)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and problem in err
        assert not out.exists()

    def test_infinite_envelope_constant_exits_1(self, tmp_path, capsys):
        # an infinite sigma once certified lower = upper = 0.29765 here,
        # below the closed form, with truncated=0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": {
            "name": "lift2d-json", "n": 2,
            "f": ["-x1 + a1*x1^2", "-x2 + a1*x2^2"], "g": "x1^2 + x2^2",
            "control": {"box": {"lo": [-1.0], "hi": [1.0], "counts": [3]}},
            "ules": {"C": 1.0, "sigma": float("inf"), "r": 0.5},
            "growth": {"C_tilde": 1.0, "lambda": 2.0}},
            "switch_dt": 0.25, "depth": 4, "rho": 0.05}))
        assert "Infinity" in cfg.read_text()
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,0.5\n")
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out),
                     str(pts)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (out / "bounds.csv").exists()

    def test_negative_rho_exits_1(self, points_file, tmp_path, capsys):
        # fuller brackets with min_value, which once took rho -1 and wrote
        # a truncated row for every point with exit 0
        rc = main(["oracle", "--builtin", "fuller", "--rho", "-1",
                   "--out", str(tmp_path), str(points_file)])
        assert rc == 1
        assert "rho must be positive" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    def test_astronomical_depth_exits_3_at_once(self, points_file,
                                                tmp_path):
        # the budget pre-flight once summed 3^s up to s = 10^30
        proc = subprocess.run(
            [sys.executable, "-m", "zubov.cli", "oracle", "--builtin",
             "lift2d", "--controls", "3", "--depth", "1e30",
             "--out", str(tmp_path), str(points_file)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert parse_bounds(tmp_path / "bounds.csv")[1]["status"] == "budget"

    def test_malformed_points_exit_1(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,abc\n")
        assert main(["oracle", "--builtin", "lift2d",
                     "--out", str(tmp_path), str(pts)]) == 1

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    def test_non_finite_point_exits_1_naming_the_line(self, tmp_path, capsys,
                                                      token):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,0.5\n%s,0.5\n" % token)
        assert main(["oracle", "--builtin", "lift2d",
                     "--out", str(tmp_path), str(pts)]) == 1
        err = capsys.readouterr().err
        assert "points file line 2" in err and "finite" in err
        assert "segment" not in err

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
    def test_clean_field_passes(self, run_dir, tmp_path, capsys):
        rc = main(["verify", "--builtin", "lift2d", "--nodes", "101",
                   "--out", str(tmp_path), str(run_dir / "field.csv")])
        assert rc == 0
        doc = read_meta(tmp_path)["result"]
        assert doc["passed"] is True
        names = [c["name"] for c in doc["checks"]]
        assert names == ["invariants", "fixed_point", "residual_stats",
                         "lyapunov_decrease", "boundary_blowup"]
        assert all(c["passed"] for c in doc["checks"])
        # the sampler's draws, on verify's line and in the record
        draws = doc["checks"][3]["stats"]["draws"]
        assert draws >= 200
        assert "[PASS] lyapunov_decrease: samples=200, draws=%d," % draws \
            in capsys.readouterr().out

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
        rc = main(["verify", "--builtin", "lift2d", "--nodes", "101",
                   "--out", str(tmp_path), str(bad_dir / "field.csv")])
        assert rc == 4
        doc = read_meta(tmp_path)["result"]
        fixed = {c["name"]: c for c in doc["checks"]}["fixed_point"]
        assert not fixed["passed"]
        assert fixed["witnesses"][0]["node"] == [70, 30]

    def test_decrease_witnesses_record_replayable_schedules(self, run_dir,
                                                            tmp_path):
        # the flipped field rises along trajectories: each witness's
        # schedule goes to metadata.json as {"segments": [[d, [a]], ...]},
        # and replaying it from there reaches the witness's v_after, bit
        # for bit
        field = load_field(str(run_dir / "field.csv"))
        flipped = field.with_values(1.0 - field.values)
        save_field(flipped, str(tmp_path / "field.csv"))
        config = tmp_path / "decrease.json"
        config.write_text(json.dumps({"builtin": "lift2d", "nodes": [101],
                                      "checks": ["decrease"]}))
        rc = main(["verify", "--config", str(config), "--out",
                   str(tmp_path / "chk"), str(tmp_path / "field.csv")])
        assert rc == 4
        (check,) = read_meta(tmp_path / "chk")["result"]["checks"]
        assert check["name"] == "lyapunov_decrease" and not check["passed"]
        witnesses = check["witnesses"]
        assert len(witnesses) == check["stats"]["violations"] > 0
        system = builtin("lift2d")
        for wit in witnesses:
            segments = wit["schedule"]["segments"]
            assert list(wit["schedule"]) == ["segments"] and segments
            for duration, control in segments:
                assert isinstance(duration, float)
                assert len(control) == 1 and isinstance(control[0], float)
            schedule = ControlSchedule([(d, a) for d, a in segments])
            final = integrate(system, wit["x"], schedule, _INT_DT).final_state
            assert interpolate(flipped, final) == wit["v_after"]

    def test_skipped_blowup_prints_no_python_warning(self, tmp_path):
        # hav1d's mask reaches the grid faces, so the blow-up check is
        # skipped: its report line says so, and stderr stays clean
        run = tmp_path / "run"
        assert main(["solve", "--builtin", "hav1d", "--nodes", "101",
                     "--out", str(run)]) == 0
        config = tmp_path / "verify.json"
        config.write_text(json.dumps({"builtin": "hav1d", "nodes": [101],
                                      "checks": ["blowup"]}))
        proc = subprocess.run(
            [sys.executable, "-m", "zubov.cli", "verify", "--config",
             str(config), "--out", str(tmp_path / "chk"),
             str(run / "field.csv")], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "mask touches the grid box" in proc.stdout
        assert "UserWarning" not in proc.stderr
        assert proc.stderr == ""

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
        rc = main(["verify", "--config", str(cfg), "--builtin", "lift2d",
                   "--nodes", "101", "--out", str(tmp_path),
                   str(run_dir / "field.csv")])
        assert rc == 0
        doc = read_meta(tmp_path)["result"]
        assert [c["name"] for c in doc["checks"]] == ["invariants",
                                                      "fixed_point"]

    def test_unknown_check_name_exits_1(self, run_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["residual", "vibes"]}))
        rc = main(["verify", "--config", str(cfg), "--builtin", "lift2d",
                   "--nodes", "101", "--out", str(tmp_path),
                   str(run_dir / "field.csv")])
        assert rc == 1

    def test_empty_check_list_exits_1(self, run_dir, tmp_path, capsys):
        # a run that checks nothing must not pass
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": []}))
        rc = main(["verify", "--config", str(cfg), "--builtin", "lift2d",
                   "--nodes", "101", "--out", str(tmp_path),
                   str(run_dir / "field.csv")])
        assert rc == 1
        assert "'checks'" in capsys.readouterr().err
        assert not (tmp_path / "metadata.json").exists()

    @pytest.mark.parametrize("args", [["--seed", "-1"], ["--epsilon", "0"],
                                      ["--epsilon", "1"], ["--epsilon", "2"]],
                             ids=["seed-1", "epsilon0", "epsilon1",
                                  "epsilon2"])
    def test_out_of_range_option_exits_1(self, run_dir, tmp_path, capsys,
                                         args):
        capsys.readouterr()
        rc = main(["verify", "--builtin", "lift2d", "--nodes", "101",
                   "--out", str(tmp_path), *args,
                   str(run_dir / "field.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and args[0][2:] in err
        assert "Traceback" not in err
        assert not (tmp_path / "metadata.json").exists()


class TestRunRecord:
    """field.csv carries dt, tol and convergence, so a field checks the
    same wherever it is copied."""

    @staticmethod
    def fixed_point_only(tmp_path):
        cfg = tmp_path / "checks.json"
        cfg.write_text(json.dumps({"checks": ["fixed_point"]}))
        return str(cfg)

    def test_bare_field_passes_fixed_point_from_its_record(self, run_dir,
                                                           tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "field.csv").write_bytes((run_dir / "field.csv").read_bytes())
        # no --dt: only the field's record says the solve's dt 0.1
        rc = main(["verify", "--config", self.fixed_point_only(tmp_path),
                   "--builtin", "lift2d", "--nodes", "101", "--out",
                   str(tmp_path / "check"), str(bare / "field.csv")])
        assert rc == 0
        fixed = read_meta(tmp_path / "check")["result"]["checks"][0]
        assert fixed["passed"] and fixed["stats"]["dt"] == 0.1

    @pytest.mark.parametrize("token", ["rk4_feet=0", "exterior_value=0.3"])
    def test_field_of_a_removed_scheme_exits_1(self, run_dir, tmp_path,
                                               capsys, token):
        # an Euler-feet or exterior-0.3 field would fail by a huge defect
        # against the one operator left; it is refused, and the message
        # names what its record holds
        lines = (run_dir / "field.csv").read_text().splitlines()
        lines[0] += "," + token
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["verify", "--config", self.fixed_point_only(tmp_path),
                   "--builtin", "lift2d", "--nodes", "101",
                   "--out", str(tmp_path / "check"), str(path)])
        assert rc == 1
        assert "record holds %s" % token in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["dt=0", "dt=nan", "tol=-1"])
    def test_out_of_range_record_exits_1(self, run_dir, tmp_path, capsys,
                                         token):
        # with dt 0 the feet are the nodes and T the identity, so any field
        # would pass the fixed-point check
        key = token.split("=")[0]
        lines = (run_dir / "field.csv").read_text().splitlines()
        lines[0] = ",".join(token if t.startswith(key + "=") else t
                            for t in lines[0].split(","))
        assert token in lines[0].split(",")
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["verify", "--config", self.fixed_point_only(tmp_path),
                   "--builtin", "lift2d", "--nodes", "101",
                   "--out", str(tmp_path / "check"), str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and "malformed field header" in err

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

    @pytest.mark.parametrize("flag", [["--dt", "0"], ["--tol", "-1"]])
    def test_out_of_range_flag_beside_a_record_exits_1(self, run_dir, tmp_path,
                                                       capsys, flag):
        # the record's dt and tol beat valid flags, but a flag out of range
        # is refused, not silently ignored
        capsys.readouterr()
        rc = main(["verify", "--config", self.fixed_point_only(tmp_path),
                   "--builtin", "lift2d", "--nodes", "101", *flag,
                   "--out", str(tmp_path / "check"),
                   str(run_dir / "field.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and "positive and finite" in err
        assert not (tmp_path / "check" / "metadata.json").exists()

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

    def test_retired_threads_flag_exits_1(self, run_dir, tmp_path, capsys):
        # doa never checked the count: it used to exit 0 and record -5
        assert main(["doa", "--builtin", "lift2d", "--threads", "-5",
                     "--out", str(tmp_path), str(run_dir / "field.csv")]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "metadata.json").exists()

    def test_non_finite_header_bound_exits_1(self, tmp_path):
        bad = tmp_path / "field.csv"
        bad.write_text("1,3,nan,1,kruzhkov\n0,-1,0.5\n1,0,0\n2,1,0.5\n")
        proc = subprocess.run(
            [sys.executable, "-m", "zubov.cli", "doa", "--builtin", "ex1",
             "--out", str(tmp_path / "doa"), str(bad)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "config error" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_value_exits_1(self, tmp_path, capsys, value):
        # such a node used to count as outside, and doa exited 0
        bad = tmp_path / "field.csv"
        bad.write_text("1,3,-1,1,kruzhkov\n0,-1,0.5\n1,0,%s\n2,1,0.5\n"
                       % value)
        proc = subprocess.run(
            [sys.executable, "-m", "zubov.cli", "doa", "--builtin", "ex1",
             "--out", str(tmp_path / "doa"), str(bad)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "config error" in proc.stderr and "node 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        for argv in (["verify", "--builtin", "ex1", "--out",
                      str(tmp_path / "chk"), str(bad)],
                     ["synthesize", "--builtin", "ex1", "--out",
                      str(tmp_path / "syn"), str(bad), "0.5", "2"]):
            assert main(argv) == 1
            assert "non-finite value" in capsys.readouterr().err

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


class TestPhases:
    """solve records the digest of the field it wrote, verify, doa and
    synthesize that of the field they read, and every command where its
    time went."""

    @pytest.mark.parametrize("command, flags, after, phases", [
        ("verify", ["--nodes", "101"], [],
         ["blowup", "decrease", "fixed_point", "invariants", "load_field",
          "residual"]),
        ("doa", [], [],
         ["contour2d", "extract_doa", "load_field", "save_contours",
          "save_mask"]),
        ("synthesize", ["--epsilon", "0.05"], ["0.5,0.5", "4"],
         ["load_field", "save_schedule", "synthesize"]),
        # run_dir's solve again: it writes the same field, and no field is
        # read
        ("solve", ["--nodes", "101", "--dt", "0.1"], None,
         ["build", "policy", "save_field", "sweeps"]),
    ])
    def test_field_readers(self, run_dir, tmp_path, command, flags, after,
                           phases):
        read = [] if after is None else [str(run_dir / "field.csv"), *after]
        assert main([command, "--builtin", "lift2d", *flags,
                     "--out", str(tmp_path), *read]) == 0
        meta = read_meta(tmp_path)
        result = meta["result"]
        assert sorted(result["phase_seconds"]) == phases
        assert all(s >= 0.0 for s in result["phase_seconds"].values())
        assert (result["field_sha256"]
                == read_meta(run_dir)["result"]["field_sha256"])
        assert "phase_seconds" not in meta["config"]
        assert "field_sha256" not in meta["config"]

    def test_bare_field_records_its_digest(self, run_dir, tmp_path):
        # no twin beside the copy: the digest comes from the parse path
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "field.csv").write_bytes((run_dir / "field.csv").read_bytes())
        assert main(["doa", "--builtin", "lift2d", "--out",
                     str(tmp_path / "doa"), str(bare / "field.csv")]) == 0
        assert (read_meta(tmp_path / "doa")["result"]["field_sha256"]
                == read_meta(run_dir)["result"]["field_sha256"])

    def test_oracle(self, points_file, tmp_path):
        assert main(["oracle", "--builtin", "lift2d", "--controls", "3",
                     "--depth", "6", "--out", str(tmp_path),
                     str(points_file)]) == 0
        result = read_meta(tmp_path)["result"]
        phases = result["phase_seconds"]
        assert sorted(phases) == ["brackets", "read_points", "save_bounds"]
        assert result["seconds"] == round(phases["brackets"], 3)
        assert "field_sha256" not in result

    def test_demo(self, tmp_path):
        assert main(["demo", "--out", str(tmp_path)]) == 0
        meta = read_meta(tmp_path)
        phases = meta["result"]["phase_seconds"]
        # one reference solve each
        assert sorted(phases) == ["arctan1d", "ex1", "lift2d"]
        assert all(s > 0.0 for s in phases.values())
        assert "phase_seconds" not in meta["config"]


# every zubov.cli name the benchmark's tracer wraps (bench/workloads.py's
# CLI_SPANS): it replaces the module attribute, so each must be looked up
# when it is called, not bound once at import
_TRACED = ("solve_zubov", "save_field", "load_field", "residual_stats",
           "check_lyapunov_decrease", "check_boundary_blowup", "extract_doa",
           "contour2d", "synthesize_epsilon_optimal")


def test_traced_names_are_called_through_the_module(tmp_path, monkeypatch):
    import zubov.cli

    calls = dict.fromkeys(_TRACED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _TRACED:
        monkeypatch.setattr(zubov.cli, name,
                            counting(name, getattr(zubov.cli, name)))
    field = str(tmp_path / "solve" / "field.csv")
    for argv in (["solve", "--nodes", "41"],
                 ["verify", "--nodes", "41", field],
                 ["doa", field],
                 ["synthesize", "--epsilon", "0.1", field, "0.5,0.5", "2"]):
        assert main([argv[0], "--builtin", "lift2d", "--out",
                     str(tmp_path / argv[0]), *argv[1:]]) == 0
    assert all(calls.values()), calls


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

    def test_ignored_settings_exit_1(self, tmp_path, capsys):
        rc = main(["demo", "--nodes", "41", "--dt", "0.2",
                   "--out", str(tmp_path / "flags")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "nodes" in err and "dt" in err
        assert not (tmp_path / "flags").exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        rc = main(["demo", "--config", str(cfg),
                   "--out", str(tmp_path / "key")])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_metadata_rerun_is_bitwise(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["demo", "--out", str(first)]) == 0
        assert main(["demo", "--config", str(first / "metadata.json"),
                     "--out", str(again)]) == 0
        assert (first / "demo.csv").read_bytes() == \
            (again / "demo.csv").read_bytes()
