"""Command-line entry point: reproducible solve / check / extract runs.

Every subcommand drops a ``metadata.json`` into its output directory holding
the fully resolved configuration, the library versions that produced the
artifacts and what the run did: ``main`` writes it once, from the result
the command returns and the wall seconds of its phases.  Feeding that file
back through ``--config`` (with a fresh ``--out``) regenerates the outputs
bit for bit.

Options merge as flags > config file > defaults (`_resolve`), and flag
text and config values are typed alike (`_coerce`): an integer option
takes only integral values, a real one finite numbers or number text.
The keys older versions recorded (`_REMOVED`, and ``threads``) replay at
their recorded values and are dropped; the ``--threads`` flag is a usage
error.

The ``result`` of a run records what it did:

  * every command that writes or reads a field: ``field_sha256``, the
    sha256 of the field.csv bytes, so a verify, doa or synthesize run
    ties to the solve it checked;
  * solve and hjbe: the solver's own record (``field.metadata``: the
    RK4 sub-steps of each foot ``foot_substeps``, the operator's
    ``operator_nnz`` and resident ``operator_bytes``, every sweep's
    sup-change ``sweep_changes``, ``policy_sweeps``, the
    ``bellman_residual`` of the returned field), less the settings the
    config holds;
  * oracle: ``segment_integrations`` and the bracket loop's ``seconds``;
    bounds.csv has x..., lower, upper, tail_bound (upper - lower), depth,
    horizon, truncated and status, "budget" for a point whose full
    enumeration passes the budget;
  * ``phase_seconds``, wall seconds by phase: solve and hjbe ``build``,
    ``sweeps``, ``policy``, ``save_field``; verify ``load_field`` and one
    key per check; doa ``load_field``, ``extract_doa``, ``save_mask``,
    and in 2-D ``contour2d`` and ``save_contours``; synthesize
    ``load_field``, ``synthesize``, ``save_schedule``; oracle
    ``read_points``, ``brackets``, ``save_bounds``; demo one key per
    reference solve.

Both sit under ``result``, never ``config``, so a rerun is unchanged.

Exit codes: 0 success, 1 unusable configuration or input, 2 the solver
stopped on max_iters, 3 the oracle refused its enumeration budget, 4 a
verification, synthesis, or demo check failed.
"""

import argparse
import json
import math
import os
import platform
import sys
import time
import warnings
from dataclasses import asdict

import numpy as np
import scipy

from . import __version__
from .expressions import ExprError
from .oracle import (
    _DEFAULT_BUDGET,
    BudgetError,
    SynthesisError,
    maximal_cost,
    min_value,
    synthesize_epsilon_optimal,
)
from .regions import contour2d, extract_doa, save_contours, save_mask
from .solver import SolverSettings, solve_hjbe, solve_zubov
from .systems import (
    BUILTINS,
    ConfigError,
    Grid,
    _decoded,
    _is_whole,
    _open_new,
    builtin,
    closed_form_value,
    load_field,
    load_system,
    _write_csv,
    save_field,
)
from .trajectories import ControlSchedule, TrajectoryError
from .verify import (
    VerificationReport,
    check_boundary_blowup,
    check_fixed_point,
    check_lyapunov_decrease,
    residual_stats,
)

_CHECKS = ("invariants", "fixed_point", "residual", "decrease", "blowup")

# removed options -> the one value every metadata.json recorded for them,
# which a replay drops
_REMOVED = {"rk4_feet": True, "exterior": None, "report_json": None}

# every run option: key -> (default, kind, flag help or None for a
# config-only key).  The flag is --key with dashes for underscores, and
# _coerce checks flag text and config values alike against the kind.
_OPTIONS = {
    "builtin": (None, "name",
                "registered problem: " + ", ".join(BUILTINS)),
    "system": (None, "table", None),  # inline definition (load_system schema)
    "nodes": (None, "ints", "grid nodes per axis (a single value broadcasts)"),
    "box": (None, "reals", "grid box, one LO,HI pair per axis or one to "
                           "broadcast (write --box=-1.2,1.2)"),
    "dt": (SolverSettings.dt, "real", "semi-Lagrangian step"),
    "tol": (SolverSettings.tol, "real", "sup-norm convergence threshold"),
    "max_iters": (SolverSettings.max_iters, "int",
                  "most sweeps before the solver stops (exit 2)"),
    "controls": (None, "int", "control samples per axis for builtins"),
    "switch_dt": (0.25, "real", "oracle/synthesis switching interval"),
    "depth": (8, "int", "oracle enumeration depth"),
    "rho": (0.05, "real", "oracle tail-certificate radius"),
    "budget": (_DEFAULT_BUDGET, "int", None),
    "seed": (0, "int", "sampling seed for verify"),
    "out": (".", "dir", "output directory"),
    "epsilon": (0.01, "real", "doa level gap / synthesis tolerance"),
    "checks": (list(_CHECKS), "checks", None),
}

_WANTS = {"int": "an integer", "real": "a finite number",
          "name": "a string", "dir": "a string",
          "checks": "check names from " + ", ".join(_CHECKS)}
_METAVARS = {"ints": "K[,K...]", "reals": "LO,HI[,...]", "name": "NAME",
             "dir": "DIR"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which this tool reserves
    # for solver non-convergence; route usage problems to exit code 1.
    def error(self, message):
        raise _UsageError(message)


# --- configuration -----------------------------------------------------------

def _flag(key):
    return "--" + key.replace("_", "-")


def _coerce(value, kind, what):
    """Return `value` (flag text or a config value) as its kind wants it, or
    raise ConfigError naming `what`: integers must be integral, a bool is
    never a number, and nothing is truncated or reinterpreted."""
    if kind in ("ints", "reals"):
        if isinstance(value, str):
            value = [tok for tok in value.split(",") if tok.strip()]
        elif not isinstance(value, list):
            value = [value]  # a bare config number reads like --nodes 41
        if not value:
            raise ConfigError("%s names no values" % what)
        return [_coerce(v, kind[:-1], what) for v in value]
    if kind == "table":
        return value  # load_system checks the definition
    if kind in ("int", "real") and isinstance(value, str):
        for parse in (int, float):  # int first: long integer text stays exact
            try:
                value = parse(value)
                break
            except ValueError:
                pass
    if kind in ("name", "dir") and isinstance(value, str):
        return value
    if kind == "checks" and isinstance(value, list) and value \
            and all(isinstance(v, str) and v in _CHECKS for v in value):
        return list(value)
    if kind == "int" and _is_whole(value):
        return int(value)
    if kind == "real" and not isinstance(value, bool) \
            and isinstance(value, (int, float)) \
            and abs(value) <= sys.float_info.max:  # NaN fails it too
        return float(value)
    raise ConfigError("%s wants %s, got %r" % (what, _WANTS[kind], value))


def _load_config(path):
    with open(path, "rb") as fh:
        stream = _decoded(fh.read(), "config file %s" % path)
    try:
        doc = json.load(stream)
    except RecursionError:
        raise ConfigError("config file %s nests too deeply to read"
                          % path) from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    if "command" in doc and isinstance(doc.get("config"), dict):
        doc = doc["config"]  # a metadata.json from an earlier run
    for key, recorded in _REMOVED.items():
        if doc.pop(key, recorded) is not recorded:
            raise ConfigError("config key %r was removed and takes only "
                              "%s; drop the key" % (key, json.dumps(recorded)))
    # the thread count older runs recorded: any integer, checked or not
    if not _is_whole(doc.pop("threads", 0)):
        raise ConfigError("config key 'threads' was removed and takes only "
                          "an integer; drop the key")
    unknown = sorted(set(doc) - set(_OPTIONS))
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    return doc


def _resolve(args):
    """Merge defaults < config file < flags into one plain dict, each value
    checked against its kind (null only where the default is null)."""
    cfg = {key: default for key, (default, _, _) in _OPTIONS.items()}
    if getattr(args, "config", None):
        cfg.update(_load_config(args.config))
    if getattr(args, "builtin", None) is not None:
        cfg["system"] = None  # the flag replaces any inline table wholesale
    for key, (default, kind, flag_help) in _OPTIONS.items():
        what = "config key %r" % key
        if flag_help is not None and getattr(args, key, None) is not None:
            cfg[key], what = getattr(args, key), _flag(key)
        if cfg[key] is not None or default is not None:
            cfg[key] = _coerce(cfg[key], kind, what)
    if cfg["builtin"] is not None and cfg["system"] is not None:
        raise ConfigError("give a builtin name or an inline system, not both")
    return cfg


def _make_system(cfg):
    if cfg["builtin"] is not None:
        overrides = {}
        if cfg["controls"] is not None:
            overrides["controls"] = cfg["controls"]
        return builtin(cfg["builtin"], **overrides)
    if cfg["system"] is not None:
        if cfg["controls"] is not None:
            raise ConfigError("controls resamples only a builtin's control "
                              "menu; an inline system gives its own in its "
                              "\"control\" table")
        return load_system(cfg["system"])
    raise ConfigError("no system given: pass --builtin NAME or a config "
                      "file with a \"system\" table")


def _make_grid(cfg, system):
    n = system.n_state
    nodes, box = cfg["nodes"], cfg["box"]
    if cfg["builtin"] is not None:  # inline systems give their own
        half, count = BUILTINS[system.name].grid
        nodes, box = nodes or [count], box or [-half, half]
    elif nodes is None or box is None:
        raise ConfigError("inline systems need an explicit --nodes and --box")
    if len(nodes) == 1:
        nodes = nodes * n
    if len(nodes) != n:
        raise ConfigError("nodes names %d axes, system has %d"
                          % (len(nodes), n))
    if len(box) == 2:
        lo, hi = [box[0]] * n, [box[1]] * n
    elif len(box) == 2 * n:
        lo, hi = list(box[0::2]), list(box[1::2])
    else:
        raise ConfigError("box wants LO,HI (broadcast) or one LO,HI pair "
                          "per axis; got %d values for %d axes"
                          % (len(box), n))
    return Grid(lo, hi, nodes)


def _settings(cfg):
    return SolverSettings(dt=cfg["dt"], tol=cfg["tol"],
                          max_iters=cfg["max_iters"])


# --- artifacts ---------------------------------------------------------------

def _timed(phases, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall seconds added to phases[name]."""
    started = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - started


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, ControlSchedule):
        return {"segments": [[float(d), c.tolist()]
                             for d, c in obj.segments]}
    return obj


def _write_metadata(cfg, command, result):
    blob = {
        "command": command,
        "config": _jsonable(cfg),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "zubov": __version__},
        "result": _jsonable(result),
    }
    os.makedirs(cfg["out"], exist_ok=True)
    with _open_new(os.path.join(cfg["out"], "metadata.json"), "w",
                   encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- solve / hjbe ------------------------------------------------------------

def _cmd_solve(cfg, args, phases):
    system = _make_system(cfg)
    grid = _make_grid(cfg, system)
    started = time.perf_counter()
    with warnings.catch_warnings():
        # the stderr line below says the solver stopped on max_iters
        warnings.filterwarnings("ignore", "value iteration")
        field = (solve_hjbe if args.command == "hjbe" else solve_zubov)(
            system, grid, _settings(cfg))
    elapsed = time.perf_counter() - started
    # the solver's own record, less the settings the config holds
    result = {k: v for k, v in field.metadata.items() if k not in cfg}
    phases.update(result.pop("phase_seconds"))
    os.makedirs(cfg["out"], exist_ok=True)
    digest = _timed(phases, "save_field", save_field, field,
                    os.path.join(cfg["out"], "field.csv"))
    result.update(grid={"lo": grid.lo, "hi": grid.hi, "counts": grid.counts},
                  seconds=round(elapsed, 3), field="field.csv",
                  field_sha256=digest)
    print("%s %s: %s nodes, %d sweeps, final sup-change %.3g (%.1fs)"
          % (args.command, system.name, "x".join(map(str, grid.counts)),
             result["iterations"], result["final_change"], elapsed))
    if not result["converged"]:
        print("solver stopped on max_iters=%d without converging"
              % cfg["max_iters"], file=sys.stderr)
        return result, 2
    return result, 0


# --- oracle ------------------------------------------------------------------

def _read_points(path, n):
    pts = []
    with open(path, "rb") as fh:
        lines = _decoded(fh.read(), "points file %s" % path)
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            vals = [float(tok) for tok in line.split(",")]
            if not all(map(math.isfinite, vals)):
                raise ValueError
        except ValueError:
            raise ConfigError("points file line %d is not comma-separated "
                              "finite reals: %r" % (lineno, line))
        if len(vals) != n:
            raise ConfigError("points file line %d has %d coordinates, "
                              "system wants %d" % (lineno, len(vals), n))
        pts.append(np.array(vals))
    if not pts:
        raise ConfigError("points file %s holds no points" % path)
    return pts


def _cmd_oracle(cfg, args, phases):
    system = _make_system(cfg)
    points = _timed(phases, "read_points", _read_points, args.points,
                    system.n_state)
    bracket = maximal_cost if system.mode == "maximize" else min_value
    rows = []  # (x, its bracket, or None over budget)
    started = time.perf_counter()
    for x in points:
        try:
            vb = bracket(system, x, switch_dt=cfg["switch_dt"],
                         depth=cfg["depth"], rho=cfg["rho"],
                         budget=cfg["budget"])
        except BudgetError:
            vb = None
        rows.append((x, vb))
    elapsed = phases["brackets"] = time.perf_counter() - started
    over_budget = sum(vb is None for _, vb in rows)

    os.makedirs(cfg["out"], exist_ok=True)
    out_csv = os.path.join(cfg["out"], "bounds.csv")
    n, nan = system.n_state, float("nan")
    # dtype object: the status text would turn a numeric array into strings
    table = [(*x, nan, nan, nan, cfg["depth"], nan, 0, "budget")
             if vb is None else
             (*x, vb.lower, vb.upper, vb.tail_bound, vb.depth, vb.horizon,
              int(vb.truncated), "ok") for x, vb in rows]
    _timed(phases, "save_bounds", _write_csv, out_csv,
           ["x%d" % (i + 1) for i in range(n)]
           + ["lower", "upper", "tail_bound", "depth", "horizon",
              "truncated", "status"],
           np.array(table, dtype=object).T,
           ["%.17g"] * (n + 3) + ["%d", "%.17g", "%d", "%s"])
    result = {"points": len(rows), "budget_exceeded": over_budget,
              "segment_integrations": sum(vb.segments for _, vb in rows
                                          if vb is not None),
              "seconds": round(elapsed, 3), "bounds": "bounds.csv"}
    print("oracle %s: %d point(s) -> %s%s"
          % (system.name, len(rows), out_csv,
             ", %d over budget" % over_budget if over_budget else ""))
    return result, 3 if over_budget else 0


# --- verify ------------------------------------------------------------------

def _check(name, system, field, cfg):
    """The report of the verify check ``name`` on the field."""
    if name == "invariants":
        problems = field.check_invariants()
        return VerificationReport(
            "invariants", not problems, {"problems": len(problems)},
            tuple({"problem": p} for p in problems))
    if name == "fixed_point":
        return check_fixed_point(system, field, cfg["dt"], cfg["tol"])
    if name == "residual":
        return residual_stats(system, field)
    if name == "decrease":
        return check_lyapunov_decrease(system, field, seed=cfg["seed"])
    try:  # blowup
        mask = extract_doa(field, cfg["epsilon"])
    except ConfigError as exc:
        return VerificationReport("boundary_blowup", False, {},
                                  ({"error": str(exc)},))
    with warnings.catch_warnings():
        # the report line says the check was skipped, and why
        warnings.filterwarnings("ignore", "mask touches")
        return check_boundary_blowup(system, field, mask)


def _cmd_verify(cfg, args, phases):
    system = _make_system(cfg)
    grid = _make_grid(cfg, system)
    field = _timed(phases, "load_field", load_field, args.field)
    if not field.grid.same_layout(grid):
        raise ConfigError("field grid %s does not match the configured "
                          "grid %s" % ("x".join(map(str, field.grid.counts)),
                                       "x".join(map(str, grid.counts))))
    if field.transform != "kruzhkov":
        raise ConfigError("verify wants a Kruzhkov field (run `solve`, "
                          "not `hjbe`)")
    if "blowup" in cfg["checks"] and not 0.0 < cfg["epsilon"] < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")

    reports = [_timed(phases, name, _check, name, system, field, cfg)
               for name in cfg["checks"]]

    for rep in reports:
        line = "[%s] %s" % ("PASS" if rep.passed else "FAIL", rep.name)
        bits = ["%s=%.4g" % (k, v) if isinstance(v, float) else "%s=%s" % (k, v)
                for k, v in rep.stats.items()]
        if bits:
            line += ": " + ", ".join(bits)
        if rep.note:
            line += " (%s)" % rep.note
        print(line)
        for wit in rep.witnesses[:3]:
            print("    witness: %s" % _jsonable(wit))
    passed = all(rep.passed for rep in reports)
    print("verify: %d/%d checks passed" % (sum(r.passed for r in reports),
                                           len(reports)))

    result = {"field": args.field, "field_sha256": field.sha256,
              "passed": passed, "checks": [asdict(r) for r in reports]}
    return result, 0 if passed else 4


# --- doa / synthesize / demo -------------------------------------------------

def _cmd_doa(cfg, args, phases):
    field = _timed(phases, "load_field", load_field, args.field)
    mask = _timed(phases, "extract_doa", extract_doa, field, cfg["epsilon"])
    os.makedirs(cfg["out"], exist_ok=True)
    _timed(phases, "save_mask", save_mask, mask,
           os.path.join(cfg["out"], "mask.csv"))
    result = {"nodes": mask.node_count,
              "touches_boundary": mask.touches_boundary,
              "epsilon": cfg["epsilon"], "mask": "mask.csv",
              "field_sha256": field.sha256}
    if field.grid.n_axes == 2:
        polys = _timed(phases, "contour2d", contour2d, field,
                       1.0 - cfg["epsilon"])
        _timed(phases, "save_contours", save_contours, polys,
               os.path.join(cfg["out"], "contour.csv"))
        result["contour"] = "contour.csv"
        result["polylines"] = len(polys)
    print("doa: %d node(s) inside, touches_boundary=%s%s"
          % (mask.node_count, mask.touches_boundary,
             ", %d contour polyline(s)" % result["polylines"]
             if "polylines" in result else ""))
    return result, 0


def _cmd_synthesize(cfg, args, phases):
    system = _make_system(cfg)
    field = _timed(phases, "load_field", load_field, args.field)
    x0 = np.array(_coerce(args.x0, "reals", "x0"))
    schedule, report = _timed(
        phases, "synthesize", synthesize_epsilon_optimal, system, field, x0,
        cfg["epsilon"], args.m, switch_dt=cfg["switch_dt"])

    os.makedirs(cfg["out"], exist_ok=True)
    _timed(phases, "save_schedule", _write_csv,
           os.path.join(cfg["out"], "schedule.csv"),
           ["duration"] + ["a%d" % (j + 1) for j in range(schedule.m)],
           np.array([(d, *c) for d, c in schedule.segments]).T,
           ["%.17g"] * (1 + schedule.m))
    print("synthesize: %d segment(s), residual %.4g (>= -epsilon %.4g), "
          "defects %s" % (len(schedule.segments), report["residual"],
                          cfg["epsilon"],
                          ["%.4g" % d for d in report["defects"]]))
    return dict(report, schedule="schedule.csv", field_sha256=field.sha256,
                segments=len(schedule.segments)), 0


def _closed_form_gap(field, name, half):
    """Sup gap between the field and the transformed closed form on
    the sub-box of half-width `half`."""
    grid = field.grid
    pts = grid.node_coords().reshape(-1, grid.n_axes)
    keep = np.max(np.abs(pts), axis=1) <= half + 1e-12
    w = closed_form_value(name, pts[keep] if grid.n_axes > 1
                          else pts[keep, 0])
    exact = 1.0 - np.exp(-np.ravel(w))
    gap = np.abs(field.values.reshape(-1)[keep] - exact)
    return float(np.max(gap, initial=0.0))


def _cmd_demo(cfg, args, phases):
    # demo solves each builtin on its defaults: refuse what it would ignore
    ignored = [key for key, (default, _, _) in _OPTIONS.items()
               if key != "out" and cfg[key] != default]
    if ignored:
        raise ConfigError("demo runs fixed reference solves and takes only "
                          "--out; drop %s" % ", ".join(ignored))
    bound = 0.02
    rows, all_ok = [], True
    for name in ("lift2d", "arctan1d", "ex1"):
        system = builtin(name)
        grid = _make_grid({"builtin": name, "nodes": None, "box": None},
                          system)  # the builtin's default grid
        # on the default SolverSettings
        field = _timed(phases, name, solve_zubov, system, grid)
        err = _closed_form_gap(field, name, 0.8)
        good = field.metadata["converged"] and err <= bound
        all_ok &= good
        rows.append({"system": name, "nodes": "x".join(map(str, grid.counts)),
                     "sweeps": field.metadata["iterations"],
                     "sup_error": err, "bound": bound,
                     "status": "ok" if good else "FAIL"})
    print("%-10s %-9s %7s %11s %7s  %s"
          % ("system", "nodes", "sweeps", "sup_error", "bound", "status"))
    for row in rows:
        print("%-10s %-9s %7d %11.5f %7.3f  %s"
              % (row["system"], row["nodes"], row["sweeps"],
                 row["sup_error"], row["bound"], row["status"]))
    os.makedirs(cfg["out"], exist_ok=True)
    head = ["system", "nodes", "sweeps", "sup_error", "bound", "status"]
    # dtype object: the text columns would turn a numeric array into strings
    _write_csv(os.path.join(cfg["out"], "demo.csv"), head,
               np.array([[row[key] for key in head] for row in rows],
                        dtype=object).T,
               ["%s", "%s", "%d", "%.17g", "%.17g", "%s"])
    return {"rows": rows, "passed": all_ok}, 0 if all_ok else 4


# --- entry point -------------------------------------------------------------

_DISPATCH = {"solve": _cmd_solve, "hjbe": _cmd_solve, "oracle": _cmd_oracle,
             "verify": _cmd_verify, "doa": _cmd_doa,
             "synthesize": _cmd_synthesize, "demo": _cmd_demo}


def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    g = shared.add_argument_group("run configuration")
    g.add_argument("--config", metavar="PATH",
                   help="JSON config file; flags override its keys")
    for key, (_, kind, flag_help) in _OPTIONS.items():
        if flag_help is not None:
            g.add_argument(_flag(key), dest=key, metavar=_METAVARS.get(kind),
                           help=flag_help)

    parser = _Parser(
        prog="zubov",
        description="Grid solvers, trajectory oracles, and post-hoc checks "
                    "for robust Lyapunov value functions.")
    parser.add_argument("--version", action="version",
                        version="zubov %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    sub.add_parser("solve", parents=[shared],
                   help="iterate the Kruzhkov-transformed value to a "
                        "fixed point")
    sub.add_parser("hjbe", parents=[shared],
                   help="iterate the raw optimal-cost value (needs a "
                        "declared convergence guard)")
    p = sub.add_parser("oracle", parents=[shared],
                       help="trajectory-enumeration value brackets")
    p.add_argument("points", help="file with one comma-separated state "
                                  "per line")
    p = sub.add_parser("verify", parents=[shared],
                       help="post-hoc checks on a solved field")
    p.add_argument("field", help="field CSV produced by solve")
    p = sub.add_parser("doa", parents=[shared],
                       help="extract the origin's sublevel component "
                            "and, in 2-D, its contour")
    p.add_argument("field", help="field CSV produced by solve")
    p = sub.add_parser("synthesize", parents=[shared],
                       help="greedy near-optimal schedule from a field")
    p.add_argument("field", help="field CSV produced by solve")
    p.add_argument("x0", help="comma-separated start state (prefix "
                              "negatives with --)")
    p.add_argument("m", type=int, help="number of unit intervals")
    sub.add_parser("demo", parents=[shared],
                   help="solve the reference problems and compare to "
                        "their closed forms")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        cfg = _resolve(args)
        phases = {}  # each command's wall seconds, by phase
        result, code = _DISPATCH[args.command](cfg, args, phases)
        _write_metadata(cfg, args.command, dict(result, phase_seconds=phases))
        return code
    except BudgetError as exc:
        print("oracle budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except SynthesisError as exc:
        print("synthesis failed: %s" % exc, file=sys.stderr)
        return 4
    except ExprError as exc:
        print("expression error: %s" % exc, file=sys.stderr)
        return 1
    except TrajectoryError as exc:
        print("trajectory error: %s" % exc, file=sys.stderr)
        return 1
    except ConfigError as exc:  # ValidationError too
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print("unreadable JSON: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("cannot read or write: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("out of memory: %s" % (exc or "an allocation failed"),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
