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
with optional fraction/exponent; one too large for a float (``1e999``)
is a ParseError.  Digits and names are ASCII; any Unicode whitespace
separates tokens.  A tree deeper than MAX_DEPTH levels (a sum of 200
terms is 200 levels deep), or parentheses nested deeper, is a
ParseError.

Evaluation is numpy-vectorized: state/control components may be floats or
same-shaped arrays.  `compile_trees` turns a group of trees, such as a
system's f and g, into one generated Python function: a flat list of the
NumPy calls and domain checks a walk of the trees would make, with each
distinct subtree computed once, so a call costs only those NumPy calls.
Constants reach the generated code by reference, never as source text.
Domain violations (division by zero, ln/sqrt outside their domain,
fractional powers of negative bases) raise EvalDomainError -- they never
come back as silent NaNs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

UNARY_FUNCS = ("sin", "cos", "exp", "ln", "abs", "sqrt")
BINARY_FUNCS = ("min", "max")

# binding strengths, read by the parser and by the printer (`_fmt`)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}

# the deepest tree, and nesting of parentheses, that `parse` takes: the
# recursion of parsing and compiling stays well inside 1000 frames,
# Python's default limit (the compiled code does not recurse)
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


# --- compilation -----------------------------------------------------------

# each operation as its NumPy function
_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide",
           "neg": "negative", "abs": "abs", "sin": "sin", "cos": "cos",
           "exp": "exp", "ln": "log", "sqrt": "sqrt", "min": "minimum",
           "max": "maximum", "^": "power"}
# the exactly rounded ones: their value does not depend on the memory
# layout NumPy's loops see, so a tree whose root is one of them computes
# straight into its column of `out`.  Every other operation writes a fresh
# temporary, as the tree walk's did, since NumPy's SIMD loops may round
# differently into a strided column.
_EXACT = ("+", "-", "*", "/", "neg")
# the domain tests of the generated code, on the operands {0} and {1}, and
# the names of their messages
_GUARDS = {
    "ln": [("np.less_equal({0}, 0)", "m_ln")],
    "sqrt": [("np.less({0}, 0)", "m_sqrt")],
    "/": [("np.equal({1}, 0)", "m_divide")],
    "^": [("np.less({0}, 0) & np.not_equal({1}, np.floor({1}))", "m_base"),
          ("np.equal({0}, 0) & np.less({1}, 0)", "m_zero")],
}
_MESSAGES = {"m_ln": "ln of a non-positive value",
             "m_sqrt": "sqrt of a negative value",
             "m_divide": "division by zero",
             "m_base": "negative base with non-integer exponent",
             "m_zero": "zero to a negative power",
             "m_finite": "expression evaluated to a non-finite value"}


def _distinct(trees):
    """The distinct subtrees of `trees`, in the order a walk of the trees in
    turn first finishes them, and per tree the index of its root and the
    count of subtrees met by the end of its walk.  A subtree is (node, op,
    operands, uses): op is "num", "var" or a _UFUNCS key, operands index
    the list, and uses counts the walk's visits.  Constants are told apart
    by type and repr, so -0.0 is not 0.0."""
    index, found, roots, ends = {}, [], [], []

    def visit(node):
        operands = ()
        if isinstance(node, Num):
            op, key = "num", (type(node.value), repr(node.value))
        elif isinstance(node, Var):
            op, key = "var", (node.kind, node.index)
        else:
            if isinstance(node, Neg):
                op, children = "neg", (node.operand,)
            elif isinstance(node, BinOp):
                op, children = node.op, (node.left, node.right)
            elif isinstance(node, Call):
                op, children = node.func, node.args
            else:
                raise TypeError("not an expression node: %r" % (node,))
            key = operands = tuple(visit(child) for child in children)
        i = index.setdefault((op, key), len(found))
        if i == len(found):
            found.append([node, op, operands, 0])
        found[i][3] += 1
        return i

    for tree in trees:
        roots.append(visit(tree))
        ends.append(len(found))
    return found, roots, ends


def _function_source(name, trees, columns, names):
    """The source of one generated function over `trees` (`compile_trees`);
    `names` collects the constants the source refers to by name."""
    found, roots, ends = _distinct(trees)
    ref = [None] * len(found)  # the name that holds each subtree's value
    body, results, first = [], [], 0
    for k, (root, end) in enumerate(zip(roots, ends)):
        column = "out[..., %d]" % k
        for i in range(first, end):
            node, op, operands, uses = found[i]
            operands = [ref[j] for j in operands]
            if op == "num":
                ref[i] = "k%d" % len(names)
                names[ref[i]] = node.value
                continue
            if op == "var":
                ref[i] = "%s%d" % (node.kind, node.index)
                body.append("%s = %s[%s%d]" % (ref[i], node.kind,
                                               "..., " if columns else "",
                                               node.index))
                continue
            # a constant nonnegative integer exponent (x1^2) can break
            # neither of the power's rules
            whole = (op == "^" and isinstance(node.right, Num)
                     and node.right.value >= 0
                     and float(node.right.value).is_integer())
            for test, message in (() if whole else _GUARDS.get(op, ())):
                body.append("if (%s).any(): raise EvalDomainError(%s)"
                            % (test.format(*operands), message))
            call = "np.%s(%s" % (_UFUNCS[op], ", ".join(operands))
            if columns and i == root and uses == 1 and op in _EXACT:
                ref[i] = column
                body.append("%s, out=%s)" % (call, column))
            else:
                ref[i] = "t%d" % i
                body.append("%s = %s)" % (ref[i], call))
        first = end
        if not columns:
            results.append(ref[root])
        elif ref[root] != column:
            body.append("%s = %s" % (column, ref[root]))
    lines = ["def %s(x, a%s):" % (name, ", out" if columns else ""),
             "    with np.errstate(all='ignore'):"]
    lines += ["        " + line for line in body]
    if columns:
        lines += ["    if not np.isfinite(out).all():",
                  "        raise EvalDomainError(m_finite)"]
    else:
        lines.append("        return (%s,)" % ", ".join(results))
    return "\n".join(lines)


def compile_trees(groups, columns=True):
    """One generated NumPy function per group of trees, from one source.

    With `columns`, a group's function is rates(x, a, out): for states x
    (..., N) and controls a (..., M) it writes tree k's value into
    out[..., k], and raises EvalDomainError once they are all written if
    out holds a non-finite value, such as an overflow to inf.  Without,
    it is values(state, control) over sequences of components, as
    `evaluate` takes them, returning the trees' values as a tuple.

    Each distinct subtree of a group is evaluated once per call, where a
    walk of the trees in turn first finishes it, by the NumPy call and
    with the domain checks the walk makes there.  So the values, and the
    first EvalDomainError, are bitwise those of walking every tree.  A
    tree whose root is an exactly rounded operation, and no subtree of
    another, computes straight into its column.  Floating-point error
    states are ignored; constants and messages reach the generated code
    by reference, never as source text.
    """
    names = dict(_MESSAGES, np=np, EvalDomainError=EvalDomainError)
    functions = ["run%d" % g for g in range(len(groups))]
    source = "\n\n".join(
        _function_source(name, trees, columns, names)
        for name, trees in zip(functions, groups))
    exec(compile(source, "<zubov.expressions>", "exec"), names)
    return [names[name] for name in functions]


def _finite(out):
    """`out` as a float (0-d) or float array; EvalDomainError if it holds
    a non-finite value, such as an overflow to inf."""
    out = np.asarray(out, dtype=float)
    if not np.isfinite(out).all():
        raise EvalDomainError(_MESSAGES["m_finite"])
    return float(out) if out.ndim == 0 else out


def evaluate(expr, state=(), control=()):
    """Evaluate `expr`; state/control are sequences of floats or arrays.

    Broadcasting follows numpy; the result is a float for scalar inputs.
    Overflow to inf is treated as a domain error, never returned.  Each
    call compiles `expr`; callers that evaluate trees many times compile
    them once with `compile_trees` (as `systems.load_system` does).
    """
    (run,) = compile_trees([[expr]], columns=False)
    return _finite(run(state, control)[0])


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
