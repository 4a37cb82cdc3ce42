"""Tiny arithmetic DSL for dynamics and cost expressions.

Grammar (recursive descent, one token of lookahead):

    expr    :=  term  (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?          # right-associative, binds tightest
    atom    :=  NUMBER | VAR | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

so ``-x1^2`` is ``-(x1^2)`` and ``2*x1^2`` is ``2*(x1^2)``.  Variables are
``x1..xN`` (state) and ``a1..aM`` (control); there is no implicit
multiplication.  Functions: sin, cos, exp, ln, abs, sqrt (unary) and
min, max (binary).  Numbers are decimal with optional fraction/exponent.

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
from dataclasses import dataclass

import numpy as np

UNARY_FUNCS = ("sin", "cos", "exp", "ln", "abs", "sqrt")
BINARY_FUNCS = ("min", "max")


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

_OPS = set("+-*/^(),")


def _tokenize(source):
    """Yield (kind, text, pos) triples; kinds are num/ident/op/end."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k >= n or not source[k].isdigit():
                    raise ParseError("malformed exponent in number literal", j)
                j = k
                while j < n and source[j].isdigit():
                    j += 1
            tokens.append(("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % c, i)
    tokens.append(("end", "", n))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, source, n_state, n_control):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n_state = n_state
        self.n_control = n_control

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError("expected %r" % op, pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input %r" % text, pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # exponent re-enters at unary so x^-2 parses; right-associative
            return BinOp("^", node, self.unary())
        return node

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text in UNARY_FUNCS or text in BINARY_FUNCS:
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k, t, _ = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                want = 1 if text in UNARY_FUNCS else 2
                if len(args) != want:
                    raise ParseError(
                        "%s takes %d argument%s, got %d"
                        % (text, want, "" if want == 1 else "s", len(args)),
                        pos,
                    )
                return Call(text, tuple(args))
            var = self._variable(text, pos)
            if var is not None:
                return var
            raise ParseError("unknown identifier %r" % text, pos)
        raise ParseError("expected a value", pos)

    def _variable(self, name, pos):
        if len(name) < 2 or name[0] not in "xa" or not name[1:].isdigit():
            return None
        index = int(name[1:])
        limit = self.n_state if name[0] == "x" else self.n_control
        if index < 1 or index > limit:
            raise ParseError(
                "variable %r out of range (have %s1..%s%d)"
                % (name, name[0], name[0], limit),
                pos,
            )
        return Var(name[0], index - 1)


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

# binding strength used to decide where parentheses are needed
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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
