"""Tiny arithmetic DSL for dynamics and cost expressions.

Grammar, parsed by precedence climbing over one table of binding
strengths (`_PREC`, which the printer reads too):

    expr  :=  atom (BINOP expr)*        # + - bind 1, * / bind 2, ^ binds 4
    atom  :=  NUMBER | VAR | '-' expr | '(' expr ')'
           |  FUNC '(' expr (',' expr)* ')'

A leading '-' binds 3, so ``-x1^2`` is ``-(x1^2)`` and ``-x1*x2`` is
``(-x1)*x2``; ``2*x1^2`` is ``2*(x1^2)``.  '+', '-', '*' and '/' group to
the left, '^' to the right (``2^3^2`` is ``2^9``), and an exponent may
carry a sign (``2^-2``).  Variables are ``x1..xN`` (state) and ``a1..aM``
(control); there is no implicit multiplication.  Functions: sin, cos,
exp, ln, abs, sqrt (unary) and min, max (binary).  Numbers are decimal
with optional fraction/exponent.  Digits and names are ASCII; any
Unicode whitespace separates tokens.  A tree deeper than MAX_DEPTH
levels, or parentheses nested deeper, is a ParseError.

Evaluation is numpy-vectorized: state/control components may be floats or
same-shaped arrays.  A tree compiles once, by a single walk, into nested
closures that run its NumPy operations and domain checks; evaluating it
again costs only those calls, not another walk.  Domain violations
(division by zero, ln/sqrt outside their domain, fractional powers of
negative bases) raise EvalDomainError -- they never come back as silent
NaNs.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

UNARY_FUNCS = ("sin", "cos", "exp", "ln", "abs", "sqrt")
BINARY_FUNCS = ("min", "max")

# binding strengths, read by the parser and by the printer (`_fmt`)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}

# the deepest tree, and nesting of parentheses, that `parse` takes: the
# recursion of parsing, compiling and evaluating stays well inside 1000
# frames, Python's default limit
MAX_DEPTH = 200
_TOO_DEEP = "expression nests deeper than %d levels" % MAX_DEPTH


class ExprError(ValueError):
    """Base class for everything this module raises."""


class ParseError(ExprError):
    """Syntax problem; `position` is the 1-based column in the source."""

    def __init__(self, message, index):
        super().__init__("%s (at position %d)" % (message, index + 1))
        self.position = index + 1


class EvalDomainError(ExprError):
    """Evaluation hit a mathematical domain violation."""


# --- syntax tree -----------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str   # 'x' or 'a'
    index: int  # zero-based


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str     # '+', '-', '*', '/', '^'
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


# --- lexer -----------------------------------------------------------------

# one token after optional whitespace; `bad` is a number whose exponent
# has no digits
_TOKEN = re.compile(r"""\s*(?:
    (?P<bad>[0-9]+(?:\.[0-9]*)?)[eE](?![+-]?[0-9])
  | (?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
  | (?P<other>\S))""", re.VERBOSE)


def _tokenize(source):
    """(kind, text, pos) triples; kinds are num/ident/op/end."""
    tokens, nested = [], 0
    for match in _TOKEN.finditer(source):  # it stops at trailing whitespace
        kind = match.lastgroup
        text, pos = match[kind], match.start(kind)
        if kind == "bad":
            raise ParseError("malformed exponent in number literal",
                             match.end() - 1)
        if kind == "other":
            raise ParseError("unexpected character %r" % text, pos)
        nested += (text == "(") - (text == ")")
        if nested > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, pos)
        tokens.append((kind, text, pos))
    return tokens + [("end", "", len(source))]


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, source, n_state, n_control):
        self.tokens, self.pos = _tokenize(source), 0
        self.n_state, self.n_control = n_state, n_control

    def take(self, op=None):
        """The next token, consumed; given `op`, it must be that operator."""
        kind, text, pos = token = self.tokens[self.pos]
        if op is not None and (kind != "op" or text != op):
            raise ParseError("expected %r" % op, pos)
        self.pos += 1
        return token

    def parse(self):
        node, _ = self.expr(0, 1)
        kind, text, pos = self.tokens[self.pos]
        if kind != "end":
            raise ParseError("unexpected trailing input %r" % text, pos)
        return node

    def expr(self, floor, depth):
        """An operand, then each operator binding at least `floor` with its
        right operand, as (tree, height) for a tree at level `depth`."""
        node, height = self.atom(depth)
        while True:
            kind, op, pos = self.tokens[self.pos]
            if kind != "op" or _PREC.get(op, -1) < floor:
                return node, height
            self.pos += 1
            # right operands bind tighter, but for '^': 2^3^2 is 2^(3^2)
            right, below = self.expr(_PREC[op] + (op != "^"), depth + 1)
            node, height = BinOp(op, node, right), 1 + max(height, below)
            # a chain such as 1 + 2 + ... + 201 deepens the tree, not the
            # recursion, so its height is checked here
            if depth + height - 1 > MAX_DEPTH:
                raise ParseError(_TOO_DEEP, pos)

    def atom(self, depth):
        kind, text, pos = self.take()
        if depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, pos)
        if kind == "num":
            if float(text) == np.inf:  # to_source would print inf
                raise ParseError("number literal out of range", pos)
            return Num(float(text)), 1
        if text == "-":
            operand, height = self.expr(_PREC["neg"], depth + 1)
            return Neg(operand), height + 1
        if text == "(":
            inner = self.expr(0, depth)
            self.take(")")
            return inner
        if text in UNARY_FUNCS or text in BINARY_FUNCS:
            self.take("(")
            args = [self.expr(0, depth + 1)]
            while self.tokens[self.pos][1] == ",":
                self.pos += 1
                args.append(self.expr(0, depth + 1))
            self.take(")")
            want = 1 if text in UNARY_FUNCS else 2
            if len(args) != want:
                raise ParseError("%s takes %d argument%s, got %d" % (
                    text, want, "" if want == 1 else "s", len(args)), pos)
            args, heights = zip(*args)
            return Call(text, args), 1 + max(heights)
        if text[:1] in ("x", "a") and text[1:].isdigit():
            limit = self.n_state if text[0] == "x" else self.n_control
            if not 1 <= int(text[1:]) <= limit:
                raise ParseError("variable %r out of range (have %s1..%s%d)"
                                 % (text, text[0], text[0], limit), pos)
            return Var(text[0], int(text[1:]) - 1), 1
        raise ParseError("unknown identifier %r" % text if kind == "ident"
                         else "expected a value", pos)


def parse(source, n_state, n_control=0):
    """Parse `source` into an expression tree over x1..xN, a1..aM."""
    if not isinstance(source, str):
        raise ParseError("expression source must be a string", 0)
    return _Parser(source, n_state, n_control).parse()


# --- evaluation ------------------------------------------------------------

def _domain(cond, message):
    if np.any(cond):
        raise EvalDomainError(message)


# operations whose operands need no check, and the functions whose
# argument does: (ufunc, test on the argument, message when any holds)
_PLAIN = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "abs": np.abs, "sin": np.sin, "cos": np.cos, "exp": np.exp,
          "min": np.minimum, "max": np.maximum}
_GUARDED = {"ln": (np.log, np.less_equal, "ln of a non-positive value"),
            "sqrt": (np.sqrt, np.less, "sqrt of a negative value")}


def _compile(node):
    """Walk the tree once; return run(state, control) computing its value.

    The closures run the NumPy operations a tree walk would, in the same
    order and with the same domain checks, so values are bitwise those of
    walking the tree on every call.  They leave floating-point error
    states to the caller (`evaluate` ignores them all).
    """
    if isinstance(node, Num):
        value = node.value
        return lambda s, c: value
    if isinstance(node, Var):
        index = node.index
        if node.kind == "x":
            return lambda s, c: s[index]
        return lambda s, c: c[index]
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda s, c: -operand(s, c)
    if isinstance(node, Call):
        name, args = node.func, [_compile(arg) for arg in node.args]
    elif isinstance(node, BinOp):
        name, args = node.op, [_compile(node.left), _compile(node.right)]
    else:
        raise TypeError("not an expression node: %r" % (node,))
    if name in _PLAIN:
        op = _PLAIN[name]
        if len(args) == 1:
            (arg,) = args
            return lambda s, c: op(arg(s, c))
        left, right = args
        return lambda s, c: op(left(s, c), right(s, c))
    if name in _GUARDED:
        (ufunc, bad, message), (arg,) = _GUARDED[name], args

        def guarded(s, c):
            value = arg(s, c)
            _domain(bad(np.asarray(value), 0), message)
            return ufunc(value)
        return guarded
    left, right = args
    if name == "/":
        def divide(s, c):
            a, b = left(s, c), right(s, c)
            _domain(b == 0, "division by zero")
            return a / b
        return divide
    # power: fractional exponents demand nonnegative bases; a constant
    # nonnegative integer exponent (x1^2) can violate neither rule
    exponent = node.right
    if (isinstance(exponent, Num) and exponent.value >= 0
            and float(exponent.value).is_integer()):
        value = exponent.value
        return lambda s, c: np.power(left(s, c), value)

    def power(s, c):
        a, b = left(s, c), right(s, c)
        b_arr = np.asarray(b)
        integral = b_arr == np.floor(b_arr)
        _domain((np.asarray(a) < 0) & ~integral,
                "negative base with non-integer exponent")
        _domain((np.asarray(a) == 0) & (b_arr < 0),
                "zero to a negative power")
        return np.power(a, b)
    return power


def _finite(out):
    """`out` as a float (0-d) or float array; EvalDomainError if it holds
    a non-finite value, such as an overflow to inf."""
    out = np.asarray(out, dtype=float)
    if not np.isfinite(out).all():
        raise EvalDomainError("expression evaluated to a non-finite value")
    return float(out) if out.ndim == 0 else out


def evaluate(expr, state=(), control=()):
    """Evaluate `expr`; state/control are sequences of floats or arrays.

    Broadcasting follows numpy; the result is a float for scalar inputs.
    Overflow to inf is treated as a domain error, never returned.  Each
    call compiles `expr`; callers that evaluate one tree many times
    compile it once with `_compile` (as `systems.load_system` does).
    """
    run = _compile(expr)
    with np.errstate(all="ignore"):
        out = run(state, control)
    return _finite(out)


# --- printing --------------------------------------------------------------

def _fmt(node, parent_prec, right_side):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "%s%d" % (node.kind, node.index + 1)
    if isinstance(node, Call):
        return "%s(%s)" % (node.func,
                           ", ".join(_fmt(a, 0, False) for a in node.args))
    if isinstance(node, Neg):
        text = "-" + _fmt(node.operand, _PREC["neg"], True)
        return "(%s)" % text if parent_prec > _PREC["neg"] else text
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        if node.op == "^":
            # right-assoc: left operand needs parens at equal precedence
            left = _fmt(node.left, prec + 1, False)
            right = _fmt(node.right, prec, False)
        else:
            left = _fmt(node.left, prec, False)
            right = _fmt(node.right, prec + 1, True)
        text = "%s %s %s" % (left, node.op, right) if node.op in "+-*/" \
            else "%s%s%s" % (left, node.op, right)
        need = prec < parent_prec or (prec == parent_prec and right_side)
        return "(%s)" % text if need else text
    raise TypeError("not an expression node: %r" % (node,))


def to_source(expr):
    """Render with minimal parentheses; parse(to_source(e)) == e."""
    return _fmt(expr, 0, False)
