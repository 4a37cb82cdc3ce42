from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zubov.expressions import (
    MAX_DEPTH, BinOp, Call, EvalDomainError, Neg, Num, ParseError, Var,
    evaluate, parse, to_source,
)


def ev(source, x=(), a=(), n_state=None, n_control=None):
    if n_state is None:
        n_state = len(x)
    if n_control is None:
        n_control = len(a)
    return evaluate(parse(source, n_state, n_control), x, a)


# --- reference evaluator: Python's own eval over math ----------------------
# The grammar was chosen so that replacing '^' with '**' yields a Python
# expression with identical precedence (unary minus binds looser than the
# power operator on the left, tighter on the right).

_PY_ENV = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
    "abs": abs, "sqrt": math.sqrt, "min": min, "max": max,
    "__builtins__": {},
}


def python_reference(source, x=(), a=()):
    env = dict(_PY_ENV)
    for i, val in enumerate(x):
        env["x%d" % (i + 1)] = val
    for i, val in enumerate(a):
        env["a%d" % (i + 1)] = val
    return eval(source.replace("^", "**"), env)  # noqa: S307 - test oracle


# --- precedence and shape ---------------------------------------------------

@pytest.mark.parametrize("source,x,expected", [
    ("2*x1^2", (3.0,), 18.0),            # power binds tighter than product
    ("-x1^2", (3.0,), -9.0),             # unary minus applies after power
    ("(-x1)^2", (3.0,), 9.0),
    ("2^3^2", (), 512.0),                # right-associative
    ("2^-2", (), 0.25),
    ("1 - 2 - 3", (), -4.0),             # left-associative
    ("12/4/3", (), 1.0),
    ("1+2*3", (), 7.0),
    ("min(1, 2) + max(3, 4)", (), 5.0),
    ("abs(-2.5)", (), 2.5),
    ("sqrt(x1^2)", (-3.0,), 3.0),
    ("ln(exp(2))", (), 2.0),
    ("1e2 + 2.5e-1", (), 100.25),
    ("-  -3", (), 3.0),
])
def test_pinned_values(source, x, expected):
    got = ev(source, x)
    assert got == pytest.approx(expected, rel=1e-15)
    assert python_reference(source, x) == pytest.approx(expected, rel=1e-15)


def test_scalar_result_is_float():
    out = ev("x1 + a1", (1.0,), (2.0,))
    assert isinstance(out, float) and out == 3.0


def test_tree_shape_of_mixed_expression():
    tree = parse("-x1 + a1*x1^2", 1, 1)
    assert tree == BinOp(
        "+", Neg(Var("x", 0)),
        BinOp("*", Var("a", 0), BinOp("^", Var("x", 0), Num(2.0))))
    assert evaluate(tree, (0.5,), (1.0,)) == pytest.approx(-0.25, abs=1e-15)


def test_abs_sin_pi_half():
    assert ev("abs(sin(3.141592653589793*x1))", (0.5,)) == \
        pytest.approx(1.0, abs=1e-12)


def test_vectorized_matches_scalar_loop():
    src = "sin(x1)*x2 + x2^3 - a1/(2 + cos(x1))"
    tree = parse(src, 2, 1)
    xs = np.linspace(-2.0, 2.0, 41)
    ys = np.linspace(0.5, 1.5, 41)
    al = np.linspace(-1.0, 1.0, 41)
    vec = evaluate(tree, (xs, ys), (al,))
    for i in (0, 7, 23, 40):
        assert vec[i] == pytest.approx(
            evaluate(tree, (xs[i], ys[i]), (al[i],)), rel=1e-15)


def test_broadcasting_grid_against_scalar():
    tree = parse("x1^2 + x2^2", 2)
    gx, gy = np.meshgrid([0.0, 1.0, 2.0], [0.0, 1.0], indexing="ij")
    out = evaluate(tree, (gx, gy))
    assert out.shape == (3, 2)
    assert out[2, 1] == 5.0


# --- parse errors -----------------------------------------------------------

@pytest.mark.parametrize("source,column", [
    ("x1 +", 5),
    ("1 +", 4),
    ("(1 + 2", 7),
    ("1 + * 2", 5),
    ("sin(1, 2)", 1),       # arity reported at the function name
    ("min(1)", 1),
    ("x3 + 1", 1),          # out of range for n_state=2
    ("y1", 1),
    ("1 2", 3),
    ("1e", 2),
    ("$", 1),
])
def test_parse_errors_carry_1based_positions(source, column):
    with pytest.raises(ParseError) as err:
        parse(source, 2, 1)
    assert err.value.position == column
    assert "position" in str(err.value)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse("", 1)
    with pytest.raises(ParseError):
        parse("   ", 1)


def test_variable_range_checks():
    parse("x2 + a1", 2, 1)
    with pytest.raises(ParseError):
        parse("a2", 2, 1)
    with pytest.raises(ParseError):
        parse("x0", 2, 1)
    with pytest.raises(ParseError):
        parse("a1", 2, 0)   # no control slots at all


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2x1", 2)
    with pytest.raises(ParseError):
        parse("(1)(2)", 1)


# --- evaluation domain errors ----------------------------------------------

@pytest.mark.parametrize("source,x", [
    ("1/x1", (0.0,)),
    ("ln(x1)", (0.0,)),
    ("ln(x1)", (-1.0,)),
    ("sqrt(x1)", (-1e-9,)),
    ("x1^0.5", (-2.0,)),
    ("0^x1", (-1.0,)),
    ("exp(x1)", (1000.0,)),     # overflow surfaces as an error, not inf
])
def test_domain_errors(source, x):
    with pytest.raises(EvalDomainError):
        ev(source, x)


def test_domain_error_if_any_grid_point_violates():
    tree = parse("ln(x1)", 1)
    with pytest.raises(EvalDomainError):
        evaluate(tree, (np.array([2.0, 1.0, 0.0]),))


def test_integer_powers_of_negative_base_are_fine():
    assert ev("x1^3", (-2.0,)) == -8.0
    assert ev("x1^0", (-2.0,)) == 1.0


def test_constant_integer_power_is_np_power():
    # x1^2 skips the domain masks; the value must be np.power's, bitwise
    x = np.array([-3.5, -1.0, -0.0, 0.0, 1e-200, 0.7, 2.0, 1e160])
    for k in (0, 1, 2, 3):
        out = evaluate(parse("x1^%d" % k, 1), (x[:-1],))
        assert out.tobytes() == np.power(x[:-1], float(k)).tobytes()
    with pytest.raises(EvalDomainError, match="non-finite"):
        evaluate(parse("x1^2", 1), (x,))  # overflow is still caught
    # a fractional constant, and Neg(Num(1)), which is not a Num, keep the
    # masks
    with pytest.raises(EvalDomainError, match="non-integer exponent"):
        ev("(-x1)^0.5", (2.0,))
    with pytest.raises(EvalDomainError, match="zero to a negative power"):
        ev("x1^-1", (0.0,))


def test_arrays_match_handwritten_numpy_bitwise():
    # the benchmark's lift2d-json f and g, against the same NumPy calls
    # written out, on contiguous, strided and zero-stride (broadcast) inputs
    rng = np.random.default_rng(11)
    z = rng.uniform(-1.2, 1.2, size=(257, 3))
    x1, x2 = z[:, 0], z[:, 1]  # strided columns, as advance passes them
    controls = {"contiguous": rng.choice([-1.0, 0.0, 1.0], size=257),
                "broadcast": np.broadcast_to(1.0, (257,))}
    f1, f2 = parse("-x1 + a1*x1^2", 2, 1), parse("-x2 + a1*x2^2", 2, 1)
    g = parse("x1^2 + x2^2", 2, 1)
    for a1 in controls.values():
        state, control = (x1, x2), (a1,)
        assert evaluate(f1, state, control).tobytes() == (
            -x1 + a1 * np.power(x1, 2.0)).tobytes()
        assert evaluate(f2, state, control).tobytes() == (
            -x2 + a1 * np.power(x2, 2.0)).tobytes()
        assert evaluate(g, state, control).tobytes() == (
            np.power(x1, 2.0) + np.power(x2, 2.0)).tobytes()
    # and through a unary ufunc, where NumPy's SIMD loops do the rounding
    e = parse("exp(a1)*sin(x1)", 1, 1)
    for a1 in controls.values():
        assert evaluate(e, (x1,), (a1,)).tobytes() == (
            np.exp(a1) * np.sin(x1)).tobytes()


# --- printing round trip ----------------------------------------------------

@pytest.mark.parametrize("source", [
    "2*x1^2", "-x1^2", "(-x1)^2", "x1 - (x2 - x3)", "2^3^2",
    "-(x1*x2)", "min(x1, max(x2, 0.5))", "x1/(x2/x3)", "sin(x1)^2",
])
def test_roundtrip_preserves_tree(source):
    tree = parse(source, 3, 0)
    assert parse(to_source(tree), 3, 0) == tree


# --- randomized agreement with the Python oracle ---------------------------

def _random_tree(rng, depth, n_state, n_control):
    leaves = ["num", "x"] + (["a"] if n_control else [])
    if depth == 0 or rng.random() < 0.3:
        pick = rng.choice(leaves)
        if pick == "num":
            return Num(round(rng.uniform(0.0, 3.0), 3))
        if pick == "x":
            return Var("x", rng.randrange(n_state))
        return Var("a", rng.randrange(n_control))
    kind = rng.choice(["neg", "bin", "bin", "bin", "pow", "call1", "call2"])
    sub = lambda: _random_tree(rng, depth - 1, n_state, n_control)
    if kind == "neg":
        return Neg(sub())
    if kind == "bin":
        return BinOp(rng.choice("+-*/"), sub(), sub())
    if kind == "pow":
        return BinOp("^", sub(), Num(float(rng.randrange(0, 4))))
    if kind == "call1":
        return Call(rng.choice(("sin", "cos", "exp", "ln", "abs", "sqrt")),
                    (sub(),))
    return Call(rng.choice(("min", "max")), (sub(), sub()))


def test_thousand_random_trees_match_python_eval():
    rng = random.Random(20260814)
    compared = 0
    for _ in range(1000):
        tree = _random_tree(rng, rng.randrange(1, 5), 2, 1)
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = (rng.uniform(-1, 1),)
        src = to_source(tree)
        assert parse(src, 2, 1) == tree
        try:
            mine = evaluate(tree, x, a)
        except EvalDomainError:
            continue
        try:
            ref = python_reference(src, x, a)
        except (OverflowError, ValueError):
            continue  # Python raises where numpy saturated internally
        assert math.isclose(mine, ref, rel_tol=1e-12, abs_tol=1e-12), src
        compared += 1
    assert compared > 400  # generator must mostly produce evaluable trees


# hypothesis strategy mirrors the grammar's value-producing shapes
_trees = st.recursive(
    st.one_of(
        st.builds(Num, st.floats(0.0, 9.0, allow_nan=False).map(
            lambda v: round(v, 2))),
        st.builds(Var, st.just("x"), st.integers(0, 1)),
    ),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(BinOp, st.sampled_from("+-*/^"), inner, inner),
        st.builds(Call, st.sampled_from(UNARY := ("sin", "cos", "abs")),
                  st.tuples(inner)),
        st.builds(Call, st.sampled_from(("min", "max")),
                  st.tuples(inner, inner)),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_to_source_parse_identity(tree):
    assert parse(to_source(tree), 2, 0) == tree


# --- lexical rules ----------------------------------------------------------

@pytest.mark.parametrize("source,column", [
    ("x1^\u00b2", 4),       # superscript two: a digit to str.isdigit
    ("\uff11 + x1", 1),     # fullwidth one: a decimal digit to float()
    ("x\u0661", 2),         # Arabic-Indic one after a name
    ("\u00e9", 1),          # a letter, but not an ASCII one
])
def test_non_ascii_digits_and_letters_are_unexpected(source, column):
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse(source, 2, 1)
    assert err.value.position == column


def test_any_unicode_whitespace_separates_tokens():
    spaced = "\u3000x1\u2003+\x1c2\u00a0*\u2028a1\t"
    assert parse(spaced, 2, 1) == parse("x1 + 2*a1", 2, 1)


def test_overflowing_literal_is_refused():
    # it would read as inf, which to_source prints as a name
    assert parse("1e308", 1) == Num(1e308)
    with pytest.raises(ParseError, match="out of range") as err:
        parse("x1 + 1e999", 1)
    assert err.value.position == 6


_ALPHABET = list("x1a2+-*/^(), .eE0123456789") + ["sin", "min", "\u00b2",
                                                  "\u3000", "$"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_ALPHABET)).map("".join)))
def test_any_text_parses_to_a_round_trip_or_a_parse_error(source):
    try:
        tree = parse(source, 2, 1)
    except ParseError:
        return
    assert parse(to_source(tree), 2, 1) == tree


# --- depth bound ------------------------------------------------------------

def _sum(k):
    return " + ".join(["x1"] * k)


# source of k levels (k nested parentheses), and its value at x1 = 0.5
_DEEP = {
    "negations": (lambda k: "-" * (k - 1) + "x1",
                  lambda k: 0.5 * (-1) ** (k - 1)),
    "parentheses": (lambda k: "(" * k + "x1" + ")" * k, lambda k: 0.5),
    "sum": (_sum, lambda k: 0.5 * k),
    "powers": (lambda k: "^".join(["x1"] * k), None),
    # the parenthesized sum starts at the top level yet sits below the
    # outer one: only the tree's height sees how deep it goes
    "sum of sums": (lambda k: "(%s) + %s" % (_sum(k // 2), _sum(k - k // 2)),
                    lambda k: 0.5 * k),
}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_deepest_allowed_tree_parses_and_one_more_level_is_refused(shape):
    source, value = _DEEP[shape]
    tree = parse(source(MAX_DEPTH), 1)
    if value is not None:
        assert evaluate(tree, (0.5,)) == value(MAX_DEPTH)
    assert parse(to_source(tree), 1) == tree
    with pytest.raises(ParseError, match="deeper than %d levels" % MAX_DEPTH):
        parse(source(MAX_DEPTH + 1), 1)
    # far too deep is a ParseError too, never a RecursionError
    with pytest.raises(ParseError, match="deeper than %d levels" % MAX_DEPTH):
        parse(source(5000), 1)


def test_depth_bound_holds_where_every_level_adds_parentheses():
    # sin((...)) nests two parentheses per level, so the parentheses' bound
    # refuses it first; the deepest nesting within it parses and evaluates
    # with 150 frames already on the stack
    def nested(k):
        return "sin((" * k + "x1" + "))" * k

    def at_depth(frames, fn):
        return fn() if frames == 0 else at_depth(frames - 1, fn)

    k = MAX_DEPTH // 2
    tree = at_depth(150, lambda: parse(nested(k), 1))
    want = 0.5
    for _ in range(k):
        want = math.sin(want)
    assert at_depth(150, lambda: evaluate(tree, (0.5,))) == pytest.approx(
        want, rel=1e-15)
    with pytest.raises(ParseError, match="deeper than"):
        parse(nested(k + 1), 1)
