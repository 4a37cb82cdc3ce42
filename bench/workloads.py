"""The four workloads: their inputs, one round of operations, its checks.

Each workload object is built once per run. ``setup`` makes its inputs
(the runner repeats it to time set-up), ``run_round`` performs one round of
operations and is what ``wall_s`` times, ``check`` compares the round's
outputs with closed forms and with properties the method must have, and
``end_to_end`` / ``per_layer`` turn the rounds into metrics.
"""

import contextlib
import json
import math
import os
import statistics
import sys

import numpy as np

import checks

# acceptance criterion 3's lift2d points and criterion 4's ex1 points
LIFT2D_POINTS = ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.3, 0.55),
                 (0.55, 0.0), (0.0, -0.55), (0.25, 0.25), (-0.4, 0.1),
                 (0.1, 0.4), (-0.55, -0.25))
EX1_POINTS = (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75)

# the builtin lift2d's taper is 1 on [-1.5, 1.5]^2, so on the bracket
# points this table is the same vector field
LIFT2D_JSON = {
    "name": "lift2d-json", "n": 2,
    "f": ["-x1 + a1*x1^2", "-x2 + a1*x2^2"], "g": "x1^2 + x2^2",
    "control": {"box": {"lo": [-1.0], "hi": [1.0], "counts": [3]}},
    "ules": {"C": 1.0, "sigma": 0.5, "r": 0.5},
    "growth": {"C_tilde": 1.0, "lambda": 2.0},
}
ARCTAN_JSON = {
    "n": 1, "f": ["-x1"], "g": "abs(x1)/(1 + x1^2)",
    "ell": "abs(x1)/(1 + x1^2)", "mode": "minimize", "guard": "nonneg_ell",
}

FALSIFIER_BUDGET = 8      # random schedules in the lift2d search
FALSIFIER_SEGMENTS = 16   # falsify_quasistability's defaults
FALSIFIER_HORIZON = 40.0
FALSIFIER_DT = 0.05

LIFT2D_CONTROLS = 21      # the builtin lift2d's default control menu

CLI_SPANS = {  # zubov.cli attribute -> span name, wrapped in traced runs
    "solve_zubov": "solver.solve",
    "save_field": "systems.save_field", "load_field": "systems.load_field",
    "residual_stats": "verify.residual",
    "check_lyapunov_decrease": "verify.decrease",
    "check_boundary_blowup": "verify.blowup",
    "extract_doa": "regions.extract_doa", "contour2d": "regions.contour2d",
    "synthesize_epsilon_optimal": "oracle.synthesize",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_round(rounds, fn):
    """Median over rounds of fn(round number)."""
    return _median([fn(k) for k in range(len(rounds))])


class Workload:
    def __init__(self, seed, out_dir, tracer):
        self.seed = seed
        self.out = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def _attempt(self, fn):
        """Run one operation; a raised error or non-zero exit fails it."""
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:  # counted, reported, and the round goes on
            print("operation failed: %r" % (exc,), file=sys.stderr)
            self.failed += 1
            return None
        if isinstance(result, int) and result != 0:
            print("operation exited with %d" % result, file=sys.stderr)
            self.failed += 1
            return None
        return result


# --- CLI pipelines -----------------------------------------------------------


class _CliWorkload(Workload):
    """zubov.cli.main run in-process; command <name> writes out/<name>/."""

    def _command(self, name, config, *args):
        path = os.path.join(self.out, name + ".json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return name, [name, "--config", path,
                      "--out", os.path.join(self.out, name), *args]

    def _field_path(self):
        return os.path.join(self.out, "solve", "field.csv")

    def run_round(self):
        from zubov import cli
        rec = {}
        with self.tracer.wrapped(cli, CLI_SPANS), \
                open(os.path.join(self.out, "cli.log"), "a") as log, \
                contextlib.redirect_stdout(log):
            for name, argv in self.commands:
                with self.tracer.span("cli." + name):
                    rec[name] = self._attempt(
                        lambda: cli.main(argv)) is not None
        return rec

    def _metadata(self, command):
        with open(os.path.join(self.out, command, "metadata.json")) as fh:
            return json.load(fh)["result"]

    def check(self, rec):
        """Field, mask and contour checks; subclasses add their own."""
        if not rec["solve"]:
            return []
        coords, values = checks.read_field(self._field_path())
        problems = checks.field_problems(coords, values, "lift2d")
        rec["sup_error"] = checks.closed_form_gap(coords, values, "lift2d")
        solve = self._metadata("solve")
        rec["sweeps"] = solve["iterations"]
        if not solve["converged"]:
            problems.append("solve reports no convergence")
        if rec["doa"]:
            inside = checks.read_mask(os.path.join(self.out, "doa",
                                                   "mask.csv"))
            problems += checks.mask_problems(
                inside, checks.lift2d_sublevel(coords))
            problems += checks.contour_problems(checks.read_contours(
                os.path.join(self.out, "doa", "contour.csv")))
        return problems

    def end_to_end(self, rounds):
        return {"sup_error": _median([r["sup_error"] for r in rounds
                                      if "sup_error" in r])}

    def per_layer(self, rounds):
        t = self.tracer
        solve_s = [t.total("solver.solve", round=k)
                   for k in range(len(rounds))]
        sweeps = [r.get("sweeps", 0) for r in rounds]
        out = {
            "solver.solve_s": _median(solve_s),
            "solver.sweeps": _median(sweeps),
            "solver.updates_per_s": _median(
                [self.NODES * LIFT2D_CONTROLS * n / s
                 for n, s in zip(sweeps, solve_s)]),
            "solver.solves_per_s": _median([1.0 / s for s in solve_s]),
            "systems.load_field_calls": _per_round(
                rounds, lambda k: len(t.select("systems.load_field",
                                               round=k))),
            "systems.field_bytes": os.path.getsize(self._field_path()),
        }
        for metric, span in self.LAYER_TIMES:
            out[metric] = _per_round(
                rounds, lambda k, span=span: t.total(span, round=k))
        return out


class Lift2dCli(_CliWorkload):
    """solve, verify (all five checks), doa, synthesize on lift2d 201^2."""

    NODES = 201 * 201
    EPS_SYNTH = 0.05
    M_SYNTH = 4
    CHECKS = ("invariants", "fixed_point", "residual", "decrease", "blowup")
    REPORTS = ("invariants", "fixed_point", "residual_stats",
               "lyapunov_decrease", "boundary_blowup")
    LAYER_TIMES = tuple((span + "_s", span) for span in (
        "cli.solve", "cli.verify", "cli.doa", "cli.synthesize",
        "systems.save_field", "systems.load_field", "verify.residual",
        "verify.decrease", "verify.blowup", "regions.extract_doa",
        "regions.contour2d", "oracle.synthesize"))

    def setup(self):
        field = self._field_path()
        self.commands = (
            self._command("solve", {"builtin": "lift2d"}),
            self._command("verify", {"builtin": "lift2d", "seed": self.seed,
                                     "checks": list(self.CHECKS)}, field),
            self._command("doa", {"epsilon": 0.01}, field),
            self._command("synthesize", {"builtin": "lift2d",
                                         "epsilon": self.EPS_SYNTH},
                          field, "0.5,0.5", str(self.M_SYNTH)),
        )

    def check(self, rec):
        problems = super().check(rec)
        if rec["verify"]:
            report = self._metadata("verify")["checks"]
            if sorted(c["name"] for c in report) != sorted(self.REPORTS) \
                    or not all(c["passed"] for c in report):
                problems.append("verify did not pass all five checks: %s"
                                % [(c["name"], c["passed"]) for c in report])
            rec["fixed_point_defect"] = next(
                c["stats"]["max_defect"] for c in report
                if c["name"] == "fixed_point")
        if rec["synthesize"]:
            syn = self._metadata("synthesize")
            problems += checks.synthesis_problems(
                syn["residual"], syn["defects"], self.EPS_SYNTH, self.M_SYNTH)
        return problems

    def per_layer(self, rounds):
        t = self.tracer
        out = super().per_layer(rounds)
        out["cli.verify_self_s"] = _per_round(rounds, lambda k: sum(
            t.self_time(s) for s in t.select("cli.verify", round=k)))
        out["verify.fixed_point_defect"] = _median(
            [r["fixed_point_defect"] for r in rounds
             if "fixed_point_defect" in r])
        return out


class Lift2dFine(_CliWorkload):
    """solve at 401^2 with dt 0.025, then doa: the yardstick grid."""

    NODES = 401 * 401
    LAYER_TIMES = tuple((span + "_s", span) for span in (
        "cli.solve", "cli.doa", "systems.save_field", "systems.load_field",
        "regions.extract_doa", "regions.contour2d"))

    def setup(self):
        self.commands = (
            self._command("solve", {"builtin": "lift2d", "nodes": [401],
                                    "dt": 0.025}),
            self._command("doa", {"epsilon": 0.01}, self._field_path()),
        )


# --- oracle search -----------------------------------------------------------


class OracleSearch(Workload):
    """Oracle brackets and the quasi-stability falsifier; no grid solve."""

    def setup(self):
        from zubov import Grid, builtin, load_system
        self.lift2d = builtin("lift2d", controls=3)
        with self.tracer.span("systems.load_system"):
            self.lift2d_json = load_system(LIFT2D_JSON)
        self.ex1 = builtin("ex1", controls=3)
        self.ex1_falsify = builtin("ex1")
        self.ex1_region = Grid([-2.0], [2.0], [401])
        self.lift2d_region = Grid([-1.2, -1.2], [1.2, 1.2], [41, 41])
        self.lift2d_points = [np.array(p) for p in LIFT2D_POINTS]
        self.ex1_points = [np.array([x]) for x in EX1_POINTS]

    def _bracket(self, system, label, x, switch_dt, rho):
        from zubov import kruzhkov_value
        with self.tracer.span("oracle.bracket", system=label):
            return self._attempt(lambda: kruzhkov_value(
                system, x, switch_dt=switch_dt, depth=8, rho=rho))

    def _falsify(self, system, label, region, budget):
        from zubov import falsify_quasistability
        with self.tracer.span("oracle.falsify", system=label):
            return self._attempt(lambda: falsify_quasistability(
                system, region, budget=budget, seed=self.seed))

    def run_round(self):
        rec = {}
        rec["lift2d"] = [self._bracket(self.lift2d, "lift2d", x, 0.25, 0.05)
                         for x in self.lift2d_points]
        rec["lift2d_json"] = [
            self._bracket(self.lift2d_json, "lift2d_json", x, 0.25, 0.05)
            for x in self.lift2d_points]
        rec["ex1"] = [self._bracket(self.ex1, "ex1", x, 0.5, 0.06)
                      for x in self.ex1_points]
        # failed operations return None, as a clean lift2d search does
        before = self.failed
        rec["ex1_witness"] = self._falsify(self.ex1_falsify, "ex1",
                                           self.ex1_region, 16)
        rec["lift2d_witness"] = self._falsify(
            self.lift2d, "lift2d", self.lift2d_region, FALSIFIER_BUDGET)
        rec["falsify_ok"] = self.failed == before
        return rec

    def check(self, rec):
        problems = []
        gaps = []
        for label, points, exact_fn, slack in (
                ("lift2d", self.lift2d_points, checks.lift2d_value, 0.03),
                ("ex1", self.ex1_points, checks.ex1_value, 0.02)):
            for x, vb in zip(points, rec[label]):
                if vb is None:
                    continue
                exact = float(checks.kruzhkov(exact_fn(x if x.size > 1
                                                       else x[0])))
                problems += checks.bracket_problems(
                    vb.lower, vb.upper, exact, slack,
                    "%s bracket at %s" % (label, x.tolist()))
                gaps.append(abs(vb.lower - exact))
        rec["sup_error"] = max(gaps) if gaps else math.inf
        for x, a, b in zip(self.lift2d_points, rec["lift2d"],
                           rec["lift2d_json"]):
            if a is None or b is None:
                continue
            if abs(a.lower - b.lower) > 1e-9 or abs(a.upper - b.upper) > 1e-9:
                problems.append("JSON and builtin lift2d brackets differ at "
                                "%s: [%r, %r] vs [%r, %r]"
                                % (x.tolist(), b.lower, b.upper,
                                   a.lower, a.upper))
        brackets = rec["lift2d"] + rec["lift2d_json"] + rec["ex1"]
        rec["certified"] = sum(1 for vb in brackets
                               if vb is not None and not vb.truncated)
        if not rec["falsify_ok"]:
            return problems
        wit = rec["ex1_witness"]
        if wit is None or wit.kind != "stationary":
            problems.append("ex1 falsifier found no stationary witness")
        else:
            x0 = float(wit.x0[0])
            a = float(wit.schedule.segments[0][1][0])
            if abs(x0 - 1.0) > 1e-9 or a != 1.0:
                problems.append("ex1 witness at x=%r, a=%r, want x=1, a=1"
                                % (x0, a))
            elif (abs(checks.ex1_f(x0, a)) > 1e-12
                  or checks.ex1_g(x0) > 1e-12):
                problems.append("ex1 witness is not a zero-cost rest point")
        if rec["lift2d_witness"] is not None:
            problems.append("lift2d falsifier returned a witness, but no "
                            "zero-cost escape exists")
        return problems

    def end_to_end(self, rounds):
        return {"sup_error": _median([r["sup_error"] for r in rounds])}

    def per_layer(self, rounds):
        t = self.tracer
        n = len(rounds)

        def times(k, system):
            return [s["end"] - s["start"]
                    for s in t.select("oracle.bracket", round=k,
                                      system=system)]

        builtin_times = [x for k in range(n)
                         for x in times(k, "lift2d") + times(k, "ex1")]
        lift_falsify = [t.total("oracle.falsify", round=k, system="lift2d")
                        for k in range(n)]
        steps = FALSIFIER_BUDGET * FALSIFIER_SEGMENTS * math.ceil(
            FALSIFIER_HORIZON / FALSIFIER_SEGMENTS / FALSIFIER_DT - 1e-9)
        return {
            "oracle.bracket_s": _median(builtin_times),
            "oracle.certified_brackets": _median(
                [r["certified"] for r in rounds]),
            "oracle.falsify_s": _median(
                [t.total("oracle.falsify", round=k) for k in range(n)]),
            "oracle.brackets_per_s": _median(
                [len(t.select("oracle.bracket", round=k))
                 / t.total("oracle.bracket", round=k) for k in range(n)]),
            "oracle.schedules_per_s": _median(
                [FALSIFIER_BUDGET / s for s in lift_falsify]),
            "expressions.bracket_ratio": _median(
                [sum(times(k, "lift2d_json")) / sum(times(k, "lift2d"))
                 for k in range(n)]),
            "trajectories.rk4_steps_per_s": _median(
                [steps / s for s in lift_falsify]),
            "systems.load_system_s": _median(
                [s["end"] - s["start"]
                 for s in t.select("systems.load_system")]),
        }


# --- small solves ------------------------------------------------------------


class SmallSolves(Workload):
    """Set-up-dominated solves: 1-D grids, the raw/minimize path, 41^2."""

    def setup(self):
        from zubov import Grid, SolverSettings, builtin, load_system
        from zubov import solve_hjbe, solve_zubov
        default = SolverSettings()
        with self.tracer.span("systems.load_system"):
            arctan_json = load_system(ARCTAN_JSON)
        lift = Grid([-1.2, -1.2], [1.2, 1.2], [41, 41])
        # name, solver, system, grid, settings, closed form of 1 - e^{-W}
        self.problems = (
            ("ex1", solve_zubov, builtin("ex1"), Grid([-2.0], [2.0], [801]),
             default, "ex1"),
            ("arctan1d", solve_zubov, builtin("arctan1d"),
             Grid([-3.0], [3.0], [601]), default, "arctan1d"),
            ("hav1d", solve_zubov, builtin("hav1d"),
             Grid([-1.0], [1.0], [401]), default, "hav1d"),
            ("arctan_json", solve_hjbe, arctan_json,
             Grid([-3.0], [3.0], [601]),
             SolverSettings(dt=0.01, tol=1e-6, max_iters=2000), None),
            ("fuller", solve_hjbe, builtin("fuller"),
             Grid([-1.0, -1.0], [1.0, 1.0], [201, 201]), default, None),
            ("lift2d41_t1", solve_zubov, builtin("lift2d"), lift,
             SolverSettings(threads=1), "lift2d"),
            ("lift2d41_t2", solve_zubov, builtin("lift2d"), lift,
             SolverSettings(threads=2), "lift2d"),
        )

    def run_round(self):
        rec = {}
        for name, solve, system, grid, settings, _ in self.problems:
            with self.tracer.span("solver.solve", problem=name):
                rec[name] = self._attempt(
                    lambda: self._converged(solve(system, grid, settings)))
        return rec

    @staticmethod
    def _converged(field):
        if not field.metadata["converged"]:
            raise RuntimeError("solver stopped on max_iters")
        return field

    def check(self, rec):
        problems = []
        gaps = {}
        for name, _, _, grid, _, closed_form in self.problems:
            field = rec[name]
            if field is None:
                continue
            coords = grid.node_coords()
            v = field.values
            if closed_form is not None:
                gaps[name] = checks.closed_form_gap(coords, v, closed_form)
                # the 41^2 lift2d gap is reported, not bounded
                if closed_form != "lift2d":
                    problems += checks.field_problems(coords, v, closed_form)
            elif name == "arctan_json":
                keep = np.abs(coords[..., 0]) <= 2.5
                gaps[name] = float(np.max(np.abs(
                    v[keep] - checks.arctan_value(coords[keep][:, 0]))))
                if not gaps[name] <= 0.01:
                    problems.append("JSON arctan hjbe field is %.5f from "
                                    "arctan|x| (> 0.01)" % gaps[name])
            elif name == "fuller":
                origin = np.all(coords == 0.0, axis=-1)
                mirror = float(np.max(np.abs(v - v[::-1, ::-1])))
                if v.min() < 0.0 or v[origin][0] != 0.0 or mirror > 1e-12:
                    problems.append("fuller field: min %.3g, origin %.3g, "
                                    "mirror gap %.3g" % (v.min(),
                                                         v[origin][0],
                                                         mirror))
        a, b = rec["lift2d41_t1"], rec["lift2d41_t2"]
        if a is not None and b is not None:
            if not np.array_equal(a.values, b.values):
                problems.append("lift2d 41^2 fields differ between "
                                "threads=1 and threads=2")
            swap = float(np.max(np.abs(a.values - a.values.T)))
            if swap > 1e-12:
                problems.append("lift2d 41^2 field is not symmetric under "
                                "x1 <-> x2 (gap %.3g)" % swap)
        rec["gaps"] = gaps
        rec["sweeps"] = {name: rec[name].metadata["iterations"]
                         for name, *_ in self.problems
                         if rec[name] is not None}
        return problems

    def end_to_end(self, rounds):
        # a failed solve has no gap to report: count it as infinitely wrong
        return {"sup_error": _median([
            max(r["gaps"].get(p, math.inf) for p in ("ex1", "arctan1d",
                                                     "hav1d"))
            for r in rounds])}

    def per_layer(self, rounds):
        t = self.tracer
        n = len(rounds)
        solve_s = [t.total("solver.solve", round=k) for k in range(n)]
        sweeps = [sum(r["sweeps"].values()) for r in rounds]
        updates = [sum(grid.n_nodes * len(system.control.points)
                       * r["sweeps"][name]
                       for name, _, system, grid, *_ in self.problems
                       if name in r["sweeps"])
                   for r in rounds]
        out = {
            "solver.solve_s": _median(solve_s),
            "solver.sweeps": _median(sweeps),
            "solver.updates_per_s": _median(
                [u / s for u, s in zip(updates, solve_s)]),
            "solver.solves_per_s": _median(
                [len(self.problems) / s for s in solve_s]),
            "systems.load_system_s": _median(
                [s["end"] - s["start"]
                 for s in t.select("systems.load_system")]),
        }
        for name, *_ in self.problems:
            out["solver.solve_s." + name] = _median(
                [t.total("solver.solve", round=k, problem=name)
                 for k in range(n)])
            out["solver.sweeps." + name] = _median(
                [r["sweeps"][name] for r in rounds if name in r["sweeps"]])
            if name in rounds[0]["gaps"]:
                out["solver.sup_error." + name] = rounds[0]["gaps"][name]
        return out


WORKLOADS = {"lift2d-cli": Lift2dCli, "oracle-search": OracleSearch,
             "lift2d-fine": Lift2dFine, "small-solves": SmallSolves}
