import dataclasses
import itertools
import math

import numpy as np
import pytest

from zubov import solver
from zubov.solver import (
    SolverSettings,
    hjbe_operator,
    interpolate,
    inverse_transform,
    kruzhkov_transform,
    solve_hjbe,
    solve_zubov,
    zubov_operator,
)
from zubov.expressions import MAX_DEPTH
from zubov.systems import (ConfigError, Grid, ValidationError, ValueField,
                           builtin, closed_form_value, load_system)
from zubov.trajectories import MAX_SUBSTEPS, _substeps, rk4_step, start


def scalar_decay(**patch):
    doc = {
        "name": "scalar-decay",
        "n": 1,
        "control": {"points": [[0.0]]},
        "f": ["-x1"],
        "g": "abs(x1)",
    }
    doc.update(patch)
    return load_system(doc)


def test_cost_at_the_depth_bound_solves_and_one_level_more_is_refused():
    # x1^2 under an even number of negations, each in its own parentheses:
    # MAX_DEPTH levels in all, evaluated inside every sweep's RK4 stages
    def g(negations):
        return "-(" * negations + "x1^2" + ")" * negations

    grid = Grid([-1.0], [1.0], [21])
    deep = solve_zubov(scalar_decay(g=g(MAX_DEPTH - 2)), grid)
    plain = solve_zubov(scalar_decay(g="x1^2"), grid)
    assert deep.values.tobytes() == plain.values.tobytes()
    with pytest.raises(ValidationError, match="deeper than %d" % MAX_DEPTH):
        scalar_decay(g=g(MAX_DEPTH - 1))


ARCTAN_MIN = {
    "n": 1, "f": ["-x1"], "g": "abs(x1)/(1 + x1^2)",
    "ell": "abs(x1)/(1 + x1^2)", "mode": "minimize", "guard": "nonneg_ell",
}


# --- reference sweep ---------------------------------------------------------
# Per-control gather + einsum value iteration, the scheme the solver ran
# before it assembled one sparse operator.  It shares no code with
# zubov.solver, so the operator's fields can be checked against it.

def _ref_stencil(grid, feet):
    n = grid.n_axes
    inside = np.ones(feet.shape[0], dtype=bool)
    base, frac = [], []
    for k in range(n):
        ax = feet[:, k]
        inside &= (ax >= grid.lo[k]) & (ax <= grid.hi[k])
        u = (ax - grid.lo[k]) / grid.dx[k]
        cell = np.clip(np.floor(u).astype(np.int64), 0, grid.counts[k] - 2)
        base.append(cell)
        frac.append(np.clip(u - cell, 0.0, 1.0))
    strides = [int(np.prod(grid.counts[k + 1:])) for k in range(n)]
    idx, w = [], []
    for corner in itertools.product((0, 1), repeat=n):
        flat = np.zeros(feet.shape[0], dtype=np.int64)
        weight = np.ones(feet.shape[0])
        for k, bit in enumerate(corner):
            flat += (base[k] + bit) * strides[k]
            weight = weight * (frac[k] if bit else 1.0 - frac[k])
        idx.append(flat)
        w.append(weight)
    return inside, np.stack(idx, axis=1), np.stack(w, axis=1)


def reference_solve(system, grid, settings, raw):
    """(values, sweeps) of the Kružkov (raw=False) or raw iteration."""
    nodes = grid.node_coords().reshape(-1, grid.n_axes)
    n, dt = grid.n_axes, settings.dt
    exterior = 0.0 if raw else 1.0
    tables = []
    for a in system.control.points:
        z = rk4_step(system, np.hstack([nodes, np.zeros((len(nodes), 3))]),
                     a, dt)
        feet, q, cost, p = z[:, :n], z[:, n], z[:, n + 1], z[:, n + 2]
        scale = np.exp(-p) if raw else np.exp(-np.maximum(q, 0.0))
        tables.append((scale, cost, _ref_stencil(grid, feet)))
    pick = np.minimum if raw and system.mode == "minimize" else np.maximum
    origin = np.ravel_multi_index(grid.origin_index, tuple(grid.counts))
    v = np.zeros(len(nodes))
    for sweep in range(1, settings.max_iters + 1):
        best = None
        for scale, cost, (inside, idx, w) in tables:
            iv = np.where(inside, np.einsum("ij,ij->i", v[idx], w), exterior)
            cand = (cost + scale * iv if raw
                    else 1.0 - scale * np.maximum(1.0 - iv, 0.0))
            best = cand if best is None else pick(best, cand)
        best[origin] = 0.0
        change = np.max(np.abs(best - v))
        v = best
        if change < settings.tol:
            break
    return v.reshape(tuple(grid.counts)), sweep


LIFT41 = Grid([-1.2, -1.2], [1.2, 1.2], [41, 41])
REFERENCE_CASES = {
    "lift2d-rk4": ("lift2d", LIFT41, {}),
    "ex1-rk4": ("ex1", Grid([-2.0], [2.0], [401]), {}),
    "fuller-rk4": ("fuller", LIFT41, {"dt": 0.02}),
    "arctan-json-rk4": (ARCTAN_MIN, Grid([-3.0], [3.0], [601]),
                        {"dt": 0.01}),
    # ell != g and h != 0, so J, int g and int h all differ: a column read
    # from the wrong place changes the field
    "arctan-ell-h-json-rk4": (dict(ARCTAN_MIN, ell="x1^2", h="0.5 + abs(x1)"),
                              Grid([-3.0], [3.0], [601]), {"dt": 0.01}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_operator_matches_reference_sweep(case):
    name, grid, patch = REFERENCE_CASES[case]
    system = builtin(name) if isinstance(name, str) else load_system(name)
    settings = SolverSettings(**patch)
    raw = system.mode == "minimize"
    if raw:  # plain sweeps: the same iterates, stopped at the same sweep
        field = solve_hjbe(system, grid, settings)
        ref, sweeps = reference_solve(system, grid, settings, raw)
        assert field.metadata["converged"]
        assert field.metadata["iterations"] == sweeps
        assert np.abs(field.values - ref).max() <= 1e-12
        return
    # policy sweeps take another path to the same fixed point: the first
    # full sweep is the reference's first sweep, and both reach one field
    one = dataclasses.replace(settings, max_iters=1)
    with pytest.warns(UserWarning, match="max_iters"):
        field = solve_zubov(system, grid, one)
    assert np.abs(field.values - reference_solve(system, grid, one, raw)[0]
                  ).max() <= 1e-12
    tight = dataclasses.replace(settings, tol=1e-13, max_iters=100_000)
    field = solve_zubov(system, grid, tight)
    assert field.metadata["converged"]
    assert np.abs(field.values - reference_solve(system, grid, tight, raw)[0]
                  ).max() <= 1e-10


def test_metadata_records_operator_size_and_phases():
    # every foot of f = -x lands inside the box: two entries per row
    field = solve_zubov(scalar_decay(), Grid([-1.0], [1.0], [21]))
    assert field.metadata["operator_nnz"] == 2 * 21
    phases = field.metadata["phase_seconds"]
    assert sorted(phases) == ["build", "policy", "sweeps"]
    assert all(t >= 0.0 for t in phases.values())


def test_metadata_records_sweep_history_and_residual():
    grid = Grid([-1.0], [1.0], [21])
    meta = solve_zubov(scalar_decay(), grid).metadata
    changes = meta["sweep_changes"]
    assert len(changes) == meta["iterations"]
    assert changes[-1] == meta["final_change"] < meta["tol"]
    # one more sweep moves the field by at most the last sweep's change
    assert 0.0 <= meta["bellman_residual"] <= meta["final_change"]
    # no offset is kept: 42 weights, 21 cell indices, a 22-entry indptr
    assert meta["operator_bytes"] == 42 * 8 + 21 * 4 + 22 * 4


def test_bellman_residual_is_one_more_pinned_sweep():
    system, settings = builtin("lift2d"), SolverSettings(max_iters=30)
    with pytest.warns(UserWarning, match="max_iters"):
        field = solve_zubov(system, LIFT41, settings)
    u = 1.0 - field.values.reshape(-1)
    nxt = zubov_operator(system, LIFT41, settings.dt)(u)
    nxt[np.ravel_multi_index(LIFT41.origin_index, tuple(LIFT41.counts))] = 1.0
    assert field.metadata["bellman_residual"] == pytest.approx(
        np.abs(nxt - u).max(), abs=1e-15)
    assert len(field.metadata["sweep_changes"]) == 30


# --- policy sweeps -----------------------------------------------------------

def record_sweeps(monkeypatch):
    """Log ("full" | "policy", input) for every sweep a solve runs; the last
    full sweep is the Bellman residual's, which no iteration counts."""
    log = []
    full, policy = solver.BellmanOperator.__call__, \
        solver.BellmanOperator.policy

    def full_sweep(self, x, choice=False):
        log.append(("full", np.array(x, dtype=float)))
        return full(self, x, choice)

    def policy_sweep(self, choice, fixed):
        sweep = policy(self, choice, fixed)

        def logged(x, out):
            log.append(("policy", x.copy()))
            return sweep(x, out)
        return logged

    monkeypatch.setattr(solver.BellmanOperator, "__call__", full_sweep)
    monkeypatch.setattr(solver.BellmanOperator, "policy", policy_sweep)
    return log


def test_policy_sweeps_run_between_full_sweeps(monkeypatch):
    log = record_sweeps(monkeypatch)
    meta = solve_zubov(builtin("lift2d"), LIFT41).metadata
    assert log.pop()[0] == "full"  # the residual's
    kinds = [kind for kind, _ in log]
    assert kinds[0] == "full" and kinds[-1] == "full"  # converged on one
    assert meta["policy_sweeps"] == kinds.count("policy") > 0
    assert meta["iterations"] == kinds.count("full") + kinds.count("policy")
    assert meta["converged"] and meta["final_change"] < meta["tol"]
    assert meta["phase_seconds"]["policy"] > 0.0


def test_iterates_never_rise_across_sweep_kinds(monkeypatch):
    # ex1 has stationary feet where g = 0 (|x| >= 1): after the first full
    # sweep 93 of its 201 nodes sit at the cap, fixed in each policy phase
    log = record_sweeps(monkeypatch)
    field = solve_zubov(builtin("ex1"), Grid([-2.0], [2.0], [201]))
    assert field.metadata["converged"]
    kinds = [kind for kind, _ in log]
    switches = [k for k in range(1, len(log)) if kinds[k] != kinds[k - 1]]
    assert len(switches) >= 4  # full -> policy -> full, at least twice
    # u = 1 - v starts at 1 and may only fall, whichever sweep made it
    for (_, before), (_, after) in zip(log, log[1:]):
        assert np.all(after <= before)
    assert np.array_equal(1.0 - log[-1][1], field.values)


def test_policy_rows_are_gathered_without_grid_sized_temporaries():
    import tracemalloc

    system = builtin("lift2d")
    for n in (101, 201):
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [n, n])
        nodes = grid.n_nodes
        op = zubov_operator(system, grid, 0.05)
        u, picked = op(np.ones(nodes), choice=True)
        fixed = u >= 1.0
        op.policy(picked, fixed)  # warm caches
        tracemalloc.start()
        try:
            sweep = op.policy(picked, fixed)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # from the same iterate, the greedy rows give the full sweep
        assert np.array_equal(sweep(np.ones(nodes), np.empty(nodes)), u)
        # kept: the N rows (4 entries of 12 bytes each) and their indptr
        assert kept <= 52 * nodes + 4096
        # the gather indexes one chunk of nodes at a time: one grid-sized
        # int64 index array alone would take 8 bytes per node
        assert peak - kept <= 8 * nodes


def test_solve_hjbe_and_one_control_solves_run_no_policy_sweeps():
    grid = Grid([-1.0, -1.0], [1.0, 1.0], [41, 41])
    meta = solve_hjbe(builtin("fuller"), grid,
                      SolverSettings(dt=0.02)).metadata
    assert meta["policy_sweeps"] == 0
    assert meta["phase_seconds"]["policy"] == 0.0
    meta = solve_zubov(scalar_decay(), Grid([-1.0], [1.0], [21])).metadata
    assert meta["policy_sweeps"] == 0


def test_policy_sweeps_refuse_an_operator_with_an_offset():
    # fuller's raw rows carry the step cost; a Kruzhkov row carries none
    grid = Grid([-1.0, -1.0], [1.0, 1.0], [11, 11])
    op = hjbe_operator(builtin("fuller"), grid, 0.05)
    assert op.offset.any()
    _, picked = op(np.zeros(grid.n_nodes), choice=True)
    with pytest.raises(ValueError, match="without an offset"):
        op.policy(picked, np.zeros(grid.n_nodes, dtype=bool))


# --- streamed build ----------------------------------------------------------

@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_chunk_boundaries_are_invisible(monkeypatch, case, chunk):
    name, grid, patch = REFERENCE_CASES[case]
    system = builtin(name) if isinstance(name, str) else load_system(name)
    settings = SolverSettings(**patch)
    raw = system.mode == "minimize"
    chunk_nodes, arrays = solver._chunk_nodes, []

    def spy(grid, lo, hi):
        decoded.append(lo)
        return chunk_nodes(grid, lo, hi)

    monkeypatch.setattr(solver, "_chunk_nodes", spy)
    for size in (grid.n_nodes, chunk):  # one chunk, then many
        monkeypatch.setattr(solver, "_FEET_CHUNK", size)
        decoded = []
        op = (hjbe_operator if raw else zubov_operator)(
            system, grid, settings.dt)
        # each chunk's nodes are decoded once, not once per control
        assert decoded == list(range(0, grid.n_nodes, size))
        arrays.append((op.first, op.weights, op.offset))
    for whole, chunked in zip(*arrays):
        assert whole.dtype == chunked.dtype
        assert np.array_equal(whole, chunked)


def test_build_transients_do_not_grow_with_the_grid(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(solver, "_FEET_CHUNK", 2 ** 12)
    system = builtin("lift2d")
    zubov_operator(system, LIFT41, 0.05)  # warm caches
    beyond = []
    for n in (101, 201):
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [n, n])
        tracemalloc.start()
        try:
            op = zubov_operator(system, grid, 0.05)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del op
        beyond.append(peak - kept)
    # feet for every node of a control at once would need 4x at 201²
    assert beyond[1] <= 1.25 * beyond[0]


def test_build_chunk_transients_stay_flat(monkeypatch):
    # the build's own peak, read just before the operator allocates its
    # sweep buffers (which grow with the grid and would hide it)
    import tracemalloc

    monkeypatch.setattr(solver, "_FEET_CHUNK", 2 ** 12)
    init, beyond = solver.BellmanOperator.__init__, []

    def spy(self, *args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        beyond.append(peak - current)
        init(self, *args, **kwargs)

    monkeypatch.setattr(solver.BellmanOperator, "__init__", spy)
    system = builtin("lift2d")
    zubov_operator(system, LIFT41, 0.05)  # warm caches
    beyond.clear()
    for n in (101, 201):
        tracemalloc.start()
        try:
            zubov_operator(system, Grid([-1.2, -1.2], [1.2, 1.2], [n, n]),
                           0.05)
        finally:
            tracemalloc.stop()
    # one chunk's feet and stencils, not the grid's: 4x more nodes at 201²
    assert 0 < beyond[1] <= 1.25 * beyond[0]


def test_operator_too_big_for_an_array_is_refused_before_it_is_built():
    # 3^39 nodes fit int64, but their 2^39-corner weights fit no array: once
    # np.full's "array is too big" from inside the solve
    system = load_system({"n": 39, "f": ["-x%d" % (i + 1) for i in range(39)],
                          "g": "x1^2"})
    grid = Grid([-1.0] * 39, [1.0] * 39, [3] * 39)
    need = 8 * 2 ** 39 * 3 ** 39
    for call in (lambda: solve_zubov(system, grid),
                 lambda: zubov_operator(system, grid, 0.05),
                 lambda: hjbe_operator(system, grid, 0.05)):
        with pytest.raises(ConfigError, match=r"the operator's weights would "
                           r"need %d bytes \(1 controls x %d corners x %d "
                           r"nodes x 8\)" % (need, 2 ** 39, 3 ** 39)):
            call()


# --- sub-stepped feet --------------------------------------------------------

def stepped_rows(system, grid, dt, steps, raw):
    """(first, weights, offset) of the operator whose feet take ``steps``
    manual RK4 steps of dt / steps, through the reference stencil."""
    n = grid.n_axes
    nodes = solver._chunk_nodes(grid, 0, grid.n_nodes)  # the build's layout
    first, weights, offset = [], [], []
    for a in system.control.points:
        z = start(nodes, wide=raw)
        for _ in range(steps):
            z = rk4_step(system, z, a, dt / steps)
        inside, idx, w = _ref_stencil(grid, z[:, :n])
        scale = np.exp(-z[:, n + 2]) if raw \
            else np.exp(-np.maximum(z[:, n], 0.0))
        scale[~inside] = 0.0
        first.append(np.where(inside, idx[:, 0], -1))
        weights.append((w * scale[:, None]).T)
        offset.append(z[:, n + 1] if raw else np.zeros(len(nodes)))
    return np.array(first), np.array(weights), np.array(offset)


def test_every_dt_up_to_foot_dt_is_one_sub_step():
    assert [_substeps(dt, solver._FOOT_DT)
            for dt in (0.01, 0.025, 0.05, 0.1, 0.4, 0.8)] == [1, 1, 1, 1, 4, 8]


@pytest.mark.parametrize("dt, steps", [(0.1, 1), (0.4, 4)])
@pytest.mark.parametrize("name", ["lift2d", "fuller"])  # Kružkov / raw
def test_feet_are_rk4_sub_steps_of_at_most_foot_dt(name, dt, steps):
    # at dt 0.1 a foot is one RK4 step of dt, as before feet were
    # sub-stepped; at dt 0.4 it is four steps of 0.1
    system, raw = builtin(name), name == "fuller"
    op = (hjbe_operator if raw else zubov_operator)(system, LIFT41, dt)
    first, weights, offset = stepped_rows(system, LIFT41, dt, steps, raw)
    inside = first >= 0
    assert not inside.all()  # feet outside the box, whose rows are zero
    assert np.array_equal(op.first[inside], first[inside])
    assert op.weights.tobytes() == weights.tobytes()
    assert np.broadcast_to(op.offset, offset.shape).tobytes() \
        == offset.tobytes()


def test_metadata_records_the_foot_sub_steps():
    grid = Grid([-1.0], [1.0], [21])
    for dt, steps in ((0.05, 1), (0.1, 1), (0.25, 3)):
        settings = SolverSettings(dt=dt)
        assert solve_zubov(scalar_decay(), grid, settings).metadata[
            "foot_substeps"] == steps
        assert solve_hjbe(load_system(ARCTAN_MIN), grid, settings).metadata[
            "foot_substeps"] == steps


def test_dt_past_max_substeps_is_refused_before_the_build():
    # 10^8 sub-steps of 0.1, on the 39-state grid whose operator no array
    # can hold: the dt is refused first, before any grid-sized allocation
    system = load_system({"n": 39, "f": ["-x%d" % (i + 1) for i in range(39)],
                          "g": "x1^2", "ell": "x1^2", "guard": "case_a"})
    grid = Grid([-1.0] * 39, [1.0] * 39, [3] * 39)
    dt = 1e7
    for call in (lambda: solve_zubov(system, grid, SolverSettings(dt=dt)),
                 lambda: solve_hjbe(system, grid, SolverSettings(dt=dt)),
                 lambda: zubov_operator(system, grid, dt),
                 lambda: hjbe_operator(system, grid, dt)):
        with pytest.raises(ConfigError, match=r"takes 1e\+08 RK4 sub-steps;"
                           r" at most %d" % MAX_SUBSTEPS):
            call()


def test_large_dt_is_accurate_with_sub_stepped_feet():
    # the semi-Lagrangian error O(dt^p + dx^2/dt) falls with dt once the
    # feet are accurate: lift2d 201^2 at dt 0.8 reads 1.85e-4 on
    # |x|_inf <= 0.8 (1.50e-2 with one RK4 step per foot)
    grid = Grid([-1.2, -1.2], [1.2, 1.2], [201, 201])
    field = solve_zubov(builtin("lift2d"), grid,
                        SolverSettings(dt=0.8, tol=1e-6))
    assert field.metadata["converged"]
    assert field.metadata["foot_substeps"] == 8
    coords = grid.node_coords()
    keep = np.all(np.abs(coords) <= 0.8 + 1e-12, axis=-1)
    exact = 1.0 - np.exp(-closed_form_value("lift2d", coords[keep]))
    assert np.abs(field.values[keep] - exact).max() <= 2.5e-4


# --- sweeps ------------------------------------------------------------------

def stacked(op):
    """SciPy's K*N x N CSR matrix of the operator: row k*N + i is control
    k's row i, its 2**n entries in corner order."""
    from scipy import sparse

    controls, width, n = op.weights.shape
    columns = op.first[:, None, :] + np.array(op.corners)[:, None]
    return sparse.csr_array(
        (op.weights.transpose(0, 2, 1).reshape(-1),
         columns.transpose(0, 2, 1).reshape(-1),
         np.arange(0, controls * n * width + 1, width)),
        shape=(controls * n, n))


def single_product(op, x):
    """The sweep as one sparse product and one reduction over all controls."""
    y = stacked(op) @ x + op.offset.reshape(-1)
    out = op.opt.reduce(y.reshape(-1, op.n_nodes), axis=0)
    return out if op.cap is None else np.minimum(out, op.cap)


class TestParallelSweeps:
    def test_kernel_matches_sparse_product(self):
        from scipy import sparse
        from scipy.sparse import _sparsetools

        rng = np.random.default_rng(3)
        dense = rng.standard_normal((300, 200))
        a = sparse.csr_array(np.where(rng.random((300, 200)) < 0.05,
                                      dense, 0.0))
        x = rng.standard_normal(200)
        y = np.zeros(300)
        _sparsetools.csr_matvec(300, 200, a.indptr, a.indices, a.data, x, y)
        assert np.array_equal(y, a @ x)

    def test_wrong_length_is_rejected_before_the_kernel(self):
        grid = Grid([-1.0], [1.0], [21])
        op = zubov_operator(scalar_decay(), grid, 0.05)
        for bad in (np.zeros(20), np.zeros(22), np.zeros((21, 1))):
            with pytest.raises(ValueError, match="21 node values"):
                op(bad)

    def test_lift2d_201_equals_single_product(self):
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [201, 201])
        x = np.random.default_rng(0).random(grid.n_nodes)
        op = zubov_operator(builtin("lift2d"), grid, 0.05)
        assert np.array_equal(op(x), single_product(op, x))

    @pytest.mark.parametrize("name", ["fuller", "lift2d"])  # min / max
    def test_raw_operator_split_into_blocks(self, name):
        # one kernel call per control's block of rows
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [41, 41])
        x = np.random.default_rng(1).uniform(-1.0, 1.0, grid.n_nodes)
        op = hjbe_operator(builtin(name), grid, 0.05)
        assert np.array_equal(op(x), single_product(op, x))

    def test_choice_is_the_first_argmin(self):
        op = zubov_operator(builtin("lift2d"), LIFT41, 0.05)
        ones = np.ones(LIFT41.n_nodes)
        for x in (ones, np.random.default_rng(6).random(LIFT41.n_nodes)):
            y = (stacked(op) @ x + op.offset.reshape(-1)).reshape(
                op.n_controls, -1)
            out, picked = op(x, choice=True)
            assert np.array_equal(out, single_product(op, x))
            assert np.array_equal(picked, np.argmin(y, axis=0))
            if x is ones:  # ties, and not only at the first control
                ties = (y == y.min(axis=0)).sum(axis=0) > 1
                assert np.count_nonzero(ties & (picked > 0)) > 0

    @pytest.mark.parametrize("name", ["lift2d", "fuller"])  # Kružkov / raw
    def test_offset_is_added_only_when_nonzero(self, name):
        x = np.random.default_rng(5).random(LIFT41.n_nodes)
        raw = name == "fuller"
        op = (hjbe_operator if raw else zubov_operator)(builtin(name),
                                                        LIFT41, 0.05)
        assert np.array_equal(op(x), single_product(op, x))
        assert (op.weights == 0.0).all(axis=1).any()  # feet outside the box
        # a Kružkov row has no offset, outside the box or in it: a
        # zero-stride view, never allocated; a raw row carries its step cost
        assert bool(op.offset.any()) is raw
        assert (op.offset.strides == (0, 0)) is not raw
        kept = op.first.nbytes + op.weights.nbytes + op.indptr.nbytes
        assert op.nbytes == kept + (op.offset.nbytes if raw else 0)

    @pytest.mark.parametrize("name", ["lift2d", "fuller"])  # Kružkov / raw
    def test_feet_outside_the_box_give_zero_rows(self, name):
        system, raw = builtin(name), name == "fuller"
        op = (hjbe_operator if raw else zubov_operator)(system, LIFT41, 0.05)
        nodes = LIFT41.node_coords().reshape(-1, 2)
        # negative values too: a zero weight times one of them is -0.0
        x = np.random.default_rng(8).uniform(-1.0, 1.0, LIFT41.n_nodes)
        exterior = 0
        for k, a in enumerate(system.control.points):
            z = np.hstack([nodes, np.zeros((len(nodes), 3))])
            feet = rk4_step(system, z, a, 0.05)[:, :2]
            outside = ~_ref_stencil(LIFT41, feet)[0]
            exterior += np.count_nonzero(outside)
            assert (op.weights[k][:, outside] == 0.0).all()
            assert not np.signbit(op.weights[k][:, outside]).any()
            one = solver.BellmanOperator(
                op.first[k:k + 1], op.weights[k:k + 1], op.corners,
                op.offset[k:k + 1], op.opt)
            y = one(x)[outside]
            if raw:  # the exterior value 0 plus the step cost
                assert np.array_equal(y, op.offset[k, outside])
            else:
                assert (y == 0.0).all() and not np.signbit(y).any()
        assert exterior > 0

    def test_sweep_allocates_only_its_output(self):
        import tracemalloc

        grid = Grid([-1.2, -1.2], [1.2, 1.2], [101, 101])
        x = np.random.default_rng(2).random(grid.n_nodes)
        op = zubov_operator(builtin("lift2d"), grid, 0.05)
        op(x)  # warm caches
        tracemalloc.start()
        try:
            out = op(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the later controls' N-long buffer, allocated per call, would not fit
        assert peak <= out.nbytes + 64 * 1024


class TestSettings:
    def test_field_validation(self):
        with pytest.raises(ConfigError):
            SolverSettings(dt=0.0)
        with pytest.raises(ConfigError):
            SolverSettings(tol=-1.0)
        with pytest.raises(ConfigError):
            SolverSettings(max_iters=0)
        with pytest.raises(ConfigError):
            SolverSettings(threads=0)
        for bad in ({"dt": math.inf}, {"dt": math.nan}, {"tol": math.inf},
                    {"tol": math.nan}, {"max_iters": 2.5},
                    {"max_iters": True}, {"threads": 2.5},
                    {"threads": True}, {"threads": -1}):
            with pytest.raises(ConfigError):
                SolverSettings(**bad)
        # a whole number of any type passes and is stored as the int it
        # names; threads may be None
        for settings in (SolverSettings(max_iters=np.int64(5),
                                        threads=np.int32(2)),
                         SolverSettings(max_iters=5.0, threads=2.0)):
            assert type(settings.max_iters) is int and settings.max_iters == 5
            assert type(settings.threads) is int and settings.threads == 2
        assert SolverSettings(max_iters=10.0) == SolverSettings(max_iters=10)
        assert SolverSettings(threads=None).threads is None
        # the scheme itself takes no option
        assert [f.name for f in dataclasses.fields(SolverSettings)] == [
            "dt", "tol", "max_iters", "threads"]


class TestSolveZubov:
    def test_wrong_mode_rejected(self):
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [5, 5])
        with pytest.raises(ConfigError, match="maximize"):
            solve_zubov(builtin("fuller"), grid)

    def test_negative_g_is_rejected(self):
        # the message names the nodes' least g, -1; their least f is -2
        with pytest.raises(ConfigError, match=r"g < 0 on the grid \(min -1\)"):
            solve_zubov(scalar_decay(g="x1"), Grid([-1.0], [2.0], [31]))

    def test_ell_and_h_are_never_evaluated(self):
        # sqrt(x1) is undefined on half the grid; the Kružkov route reads g
        # only, so declaring ell changes no bit of the field
        grid = Grid([-1.0], [1.0], [21])
        field = solve_zubov(scalar_decay(ell="sqrt(x1)", h="sqrt(x1 + 0.5)"), grid)
        assert field.metadata["converged"]
        assert field.values.tobytes() == solve_zubov(
            scalar_decay(), grid).values.tobytes()

    def test_zero_cost_fixed_point(self):
        field = solve_zubov(scalar_decay(g="0.0"), Grid([-1.0], [1.0], [21]))
        assert np.all(field.values == 0.0)
        assert field.metadata["converged"]
        assert field.metadata["iterations"] == 1

    def test_1d_closed_form(self):
        # f = -x, g = |x|: W = |x|, so v = 1 - e^{-|x|}
        grid = Grid([-2.0], [2.0], [201])
        field = solve_zubov(scalar_decay(), grid, SolverSettings(dt=0.05))
        xs = grid.axes[0]
        keep = np.abs(xs) <= 1.5
        err = np.abs(field.values[keep] - (1.0 - np.exp(-np.abs(xs[keep]))))
        assert err.max() <= 0.02
        assert field.check_invariants() == []

    def test_monotone_from_below_and_in_range(self):
        sys = builtin("lift2d")
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [41, 41])
        prev = np.zeros((41, 41))
        for k in range(1, 7):
            with pytest.warns(UserWarning):
                field = solve_zubov(sys, grid,
                                    SolverSettings(dt=0.1, max_iters=k))
            assert field.values.min() >= 0.0
            assert field.values.max() <= 1.0
            assert np.all(field.values >= prev - 1e-15)
            prev = field.values

    @pytest.mark.parametrize("name", ["lift2d", "ex1"])
    def test_iterates_monotone_in_unit_interval(self, name):
        # the iteration on 1 - v starts from v = 0 and may only climb
        grid = (Grid([-2.0], [2.0], [201]) if name == "ex1"
                else Grid([-1.2, -1.2], [1.2, 1.2], [41, 41]))
        prev = np.zeros(tuple(grid.counts))
        for k in (1, 2, 3, 5, 8, 13):
            with pytest.warns(UserWarning):
                v = solve_zubov(builtin(name), grid, SolverSettings(
                    dt=0.1, max_iters=k)).values
            assert v.min() >= 0.0 and v.max() <= 1.0
            assert np.all(v >= prev)
            prev = v

    def test_bitwise_determinism(self):
        sys = builtin("lift2d")
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [31, 31])
        a = solve_zubov(sys, grid, SolverSettings(dt=0.1, threads=1))
        b = solve_zubov(sys, grid, SolverSettings(dt=0.1, threads=4))
        assert np.array_equal(a.values, b.values)
        assert not {"threads", "rk4_feet",
                    "exterior_value"} & set(a.metadata)

    def test_nonconvergence_warns_and_flags(self):
        sys = builtin("lift2d")
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [41, 41])
        with pytest.warns(UserWarning, match="max_iters"):
            field = solve_zubov(sys, grid, SolverSettings(max_iters=3))
        assert field.metadata["converged"] is False
        assert field.metadata["iterations"] == 3

    @pytest.mark.parametrize("dt", [0.1, 0.05])
    def test_values_stay_in_unit_interval(self, dt):
        # the multilinear weights sum to 1 only up to an ulp, so an update
        # that does not cap 1 - I[v] at 0 lands ~1e-15 above 1 near the
        # edge (it did at dt 0.1 on this grid)
        grid = Grid([-1.2, -1.2], [1.2, 1.2], [101, 101])
        field = solve_zubov(builtin("lift2d"), grid,
                            SolverSettings(dt=dt, tol=1e-6))
        assert field.values.min() >= 0.0
        assert field.values.max() <= 1.0
        assert field.check_invariants() == []

    def test_refinement_shrinks_error(self, lift2d_field, lift2d_field_coarse):
        from zubov.systems import closed_form_value

        def sup_err(field):
            grid = field.grid
            pts = grid.node_coords()
            keep = np.max(np.abs(pts), axis=-1) <= 0.8
            truth = 1.0 - np.exp(-closed_form_value("lift2d", pts[keep]))
            return np.abs(field.values[keep] - truth).max()

        coarse, fine = sup_err(lift2d_field_coarse), sup_err(lift2d_field)
        assert coarse / fine >= 1.5


class TestSolveHjbe:
    def test_guard_required(self):
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [5, 5])
        with pytest.raises(ConfigError, match="guard"):
            solve_hjbe(builtin("lift2d"), grid)

    def test_zero_data_fixed_point(self):
        sys = scalar_decay(g="0.0", ell="0.0", mode="minimize",
                           guard="nonneg_ell")
        field = solve_hjbe(sys, Grid([-1.0], [1.0], [21]))
        assert np.all(field.values == 0.0)
        assert field.transform == "raw"

    @pytest.mark.parametrize("ell, guard", [("0 - x1^2", "nonneg_ell"),
                                            ("x1^2", "nonpos_ell")])
    def test_ell_sign_is_checked_on_the_nodes(self, ell, guard):
        # no envelope, so nothing was sampled at load; the nodes' ell, the
        # first RK4 stage's J rate, names the worst node's value
        sys = scalar_decay(g="x1^2", ell=ell, mode="minimize", guard=guard)
        with pytest.raises(ConfigError, match=r"ell = -?1 on the grid has "
                           "the wrong sign for the %s guard" % guard):
            solve_hjbe(sys, Grid([-1.0], [1.0], [21]))

    def test_signed_guards_check_no_sign(self):
        # ell = x1 along x' = -x1 costs x1 from x1: J is the node itself
        sys = scalar_decay(g="x1^2", ell="x1", mode="minimize",
                           guard="case_a")
        field = solve_hjbe(sys, Grid([-1.0], [1.0], [21]))
        assert field.metadata["converged"]
        assert np.abs(field.values - field.grid.axes[0]).max() <= 1e-4

    def test_discounted_scalar_value(self):
        # ell = h = g: J = 1 - exp(-∫g) and ∫g from x=1 is arctan(1)
        sys = scalar_decay(g="abs(x1)/(1 + x1^2)",
                           ell="abs(x1)/(1 + x1^2)",
                           h="abs(x1)/(1 + x1^2)",
                           mode="minimize", guard="case_a")
        grid = Grid([-3.0], [3.0], [601])
        field = solve_hjbe(sys, grid, SolverSettings(dt=0.05))
        assert field.metadata["converged"]
        v1 = field.values[np.argmin(np.abs(grid.axes[0] - 1.0))]
        assert v1 == pytest.approx(1.0 - math.exp(-math.atan(1.0)), abs=0.01)

    def test_fuller_field_symmetric(self):
        grid = Grid([-1.0, -1.0], [1.0, 1.0], [41, 41])
        field = solve_hjbe(builtin("fuller"), grid,
                           SolverSettings(dt=0.02))
        flipped = field.values[::-1, ::-1]
        assert np.abs(field.values - flipped).max() <= 1e-3
        assert field.values.min() >= 0.0
        assert field.values[field.grid.origin_index] == 0.0


class TestTransforms:
    def synthetic_raw(self):
        grid = Grid([-1.0], [1.0], [9])
        w = np.linspace(0.0, 3.0, 9)
        return ValueField(grid, w, "raw")

    def test_pinned_points(self):
        f = kruzhkov_transform(self.synthetic_raw())
        assert f.values[0] == 0.0
        near = kruzhkov_transform(ValueField(Grid([-1.0], [1.0], [3]),
                                             np.array([0.0, math.log(2.0),
                                                       60.0]), "raw"))
        assert near.values[1] == pytest.approx(0.5, rel=1e-12)
        assert near.values[2] == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        raw = self.synthetic_raw()
        back = inverse_transform(kruzhkov_transform(raw), cap=50.0)
        assert np.allclose(back.values, raw.values, atol=1e-12)
        assert back.transform == "raw"

    def test_cap_clamps_saturation(self):
        grid = Grid([-1.0], [1.0], [3])
        v = ValueField(grid, np.array([0.0, 0.5, 1.0]), "kruzhkov")
        w = inverse_transform(v, cap=10.0)
        assert w.values[2] == pytest.approx(10.0)
        assert w.values[1] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_round_trip_on_solved_field(self, lift2d_field):
        back = inverse_transform(lift2d_field, cap=50.0)
        again = kruzhkov_transform(back)
        keep = lift2d_field.values < 0.99
        assert np.abs(again.values[keep]
                      - lift2d_field.values[keep]).max() <= 1e-9

    def test_direction_guards(self):
        raw = self.synthetic_raw()
        with pytest.raises(ConfigError):
            inverse_transform(raw, cap=10.0)
        with pytest.raises(ConfigError):
            kruzhkov_transform(kruzhkov_transform(raw))
        with pytest.raises(ConfigError):
            inverse_transform(kruzhkov_transform(raw), cap=0.0)


class TestInterpolate:
    def field(self):
        grid = Grid([-1.0], [1.0], [3])
        return ValueField(grid, np.array([0.25, 0.0, 1.0]), "kruzhkov")

    def test_node_values_exact(self):
        f = self.field()
        assert interpolate(f, [-1.0]) == 0.25
        assert interpolate(f, [1.0]) == 1.0

    def test_cell_midpoint(self):
        assert interpolate(self.field(), [0.5]) == pytest.approx(0.5)

    def test_exterior(self):
        f = self.field()
        assert interpolate(f, [2.0]) == 1.0  # kruzhkov default
        raw = ValueField(f.grid, f.values, "raw")
        assert interpolate(raw, [2.0]) == 0.0  # raw default
        recorded = ValueField(f.grid, f.values, "kruzhkov",
                              {"exterior_value": 0.25})
        assert interpolate(recorded, [2.0]) == 0.25

    def test_batch_and_2d(self, lift2d_field):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        out = interpolate(lift2d_field, pts)
        assert out.shape == (2,)
        assert out[0] == 0.0 and out[1] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            interpolate(self.field(), [0.0, 0.0])

    @pytest.mark.parametrize("name", ["ex1_field", "lift2d_field"])
    def test_a_batch_is_its_points_one_at_a_time(self, request, name):
        # the decrease check's batched sampler relies on it
        field = request.getfixturevalue(name)
        grid = field.grid
        pts = np.random.default_rng(5).uniform(grid.lo - 0.1, grid.hi + 0.1,
                                               (2000, grid.n_axes))
        batch = interpolate(field, pts)
        assert (batch == 1.0).any() and (batch < 1.0).any()
        alone = np.array([interpolate(field, x) for x in pts])
        assert batch.tobytes() == alone.tobytes()

    def test_matches_a_row_major_einsum(self, lift2d_field):
        grid = lift2d_field.grid
        pts = np.random.default_rng(9).uniform(-1.3, 1.3, (5000, 2))
        inside, idx, w = _ref_stencil(grid, pts)
        assert not inside.all()
        want = np.where(inside, np.einsum(
            "ij,ij->i", lift2d_field.values.reshape(-1)[idx], w), 1.0)
        assert interpolate(lift2d_field, pts).tobytes() == want.tobytes()
