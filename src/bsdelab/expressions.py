"""Scalar expression language for drivers, payoffs and witness functions.

Grammar (ASCII; the unicode aliases -, x, / for minus/times/divide are
normalised while tokenising)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative, binds above unary minus
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

so ``-y^3`` parses as ``-(y^3)`` and ``2^3^2`` as ``2^(3^2)``.  Each
parenthesised group, function argument list, unary minus and exponent opens
one nesting level; more than ``MAX_NESTING`` levels, or more than
``MAX_TERMS`` terms and factors joined by ``+ - * /``, is a parse error.  Known
functions: abs, sign, sin, cos, exp, ln, sqrt, min, max, clamp.  ``sign(0)``
is 0.  Raising a negative base to a non-integer power, ``ln`` of a
non-positive value, ``sqrt`` of a negative value and division by zero are
domain errors and are reported with the offending sub-expression; evaluation
never silently returns a non-finite value.

Evaluation runs one generated function per expression, compiled on the first
call: a single numpy expression in which only ``/``, ``^``, ``exp``, ``ln``
and ``sqrt`` call a checking helper, variable-free sub-expressions fold to
literals, and ``x^k`` for a constant integer ``0 <= k <= 4`` is the
product ``x * ... * x`` (it can differ from ``np.power`` in the last bit).
Every node evaluates its operands depth first, left to right, a quotient too:
it is the infix ``a / _domain(b)``, so a chain of ``*`` and ``/`` nests no
deeper however long it is.
``Expression.split(var)`` is one staged build, for a caller that traps
floating-point exceptions: the same code in two stages (the largest
sub-expressions free of ``var``, then the rest given their values), run
against helpers that test nothing, where ``x^0`` is a numpy 1.0, so that its
arithmetic raises flags as the rest does; a caller replays a trapped
evaluation through the whole checked expression.  In both builds a node of
literals that does not fold to a finite one takes them as numpy floats, and a
non-finite literal raises the invalid flag: Python computes ``1e308*10`` as
inf with no flag.  ``split(var, *others)`` stages other expressions over the
same parts, such as the derivative.  ``Expression.derivative(var)`` is an AST
rewrite that the same generator compiles; it keeps each sub-tree that folds
nothing as the same node, so a split reads the driver's parts in its
derivative too.  The AST walks run on an explicit stack, so a long flat sum
recurses nowhere.

``clamp`` with a bound that is not a literal is ``np.minimum(np.maximum(x,
lo), hi)``, since ``np.clip`` breaks a tie of signed zeros by whether its
bounds are arrays.

An array of at most ``_DOT_MAX`` elements is checked finite by one BLAS call,
its sum of squares; a longer one, or one whose sum overflows, elementwise.
Every call runs under ``np.errstate(all="ignore")``, so an overflow raises its
domain error without a warning; a call with scalars only returns a float.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpressionError", "ParseError", "EvalDomainError", "Expression", "parse_expression",
    "parse_univariate", "Num", "Var", "Neg", "Bin", "Func", "all_finite",
]

GENERATOR_VARIABLES = ("t", "y", "z")

_FUNCTION_ARITY = {
    **dict.fromkeys(("abs", "sign", "sin", "cos", "exp", "ln", "sqrt"), 1),
    "min": 2, "max": 2, "clamp": 3,
}


class ExpressionError(Exception):
    """Base class for expression failures."""


class ParseError(ExpressionError):
    def __init__(self, message, position, expected=None, found=None):
        self.position = position
        self.expected = tuple(sorted(expected)) if expected else ()
        self.found = found
        detail = f"{message} at position {position}"
        if self.expected:
            detail += f" (expected one of: {', '.join(self.expected)})"
        if found is not None:
            detail += f", found {found!r}"
        super().__init__(detail)


class EvalDomainError(ExpressionError):
    """A sub-expression was evaluated outside its natural domain."""

    def __init__(self, message, subexpr):
        self.subexpr = subexpr
        super().__init__(f"{message} in sub-expression '{subexpr}'")


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple


Node = Num | Var | Neg | Bin | Func


# ---------------------------------------------------------------------------
# Tokeniser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_UNICODE_ALIASES = {"−": "-", "×": "*", "÷": "/", "⋅": "*"}


def _tokenize(source):
    for bad, good in _UNICODE_ALIASES.items():
        source = source.replace(bad, good)
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            where = len(source) - len(stripped)
            raise ParseError("unrecognised character", where, found=source[where])
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(source)))
    return tokens


# Parenthesised groups, function arguments, unary minus and exponents nest at
# most this deep.  One level generates up to three nested calls, as in
# ``_domain(sqrt(_domain(`` for ``x/sqrt(...)``, and Python compiles at most
# 200 nested parentheses.  A chain of * and / is infix, so it nests nothing.
MAX_NESTING = 32

# At most this many terms and factors, joined by + - * /, in one expression.
# A flat sum of n terms is a chain n nodes deep, in the AST and in the
# generated code, and CPython 3.11 fails to compile about 3,000 (fewer when
# it is called from deep in the stack).
MAX_TERMS = 1024


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.k = 0
        self.variables = variables
        self.depth = 0
        self.terms = 1

    def nested(self, parse, pos):
        """``parse()`` one nesting level down, opened at ``pos``."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting depth {MAX_NESTING + 1} exceeds the limit of {MAX_NESTING}", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def joined(self, pos):
        """Count the operand that the + - * / at ``pos`` joins on."""
        if self.terms == MAX_TERMS:
            raise ParseError(f"{MAX_TERMS + 1} terms exceed the limit of {MAX_TERMS}", pos)
        self.terms += 1

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError("syntax error", pos, expected={repr(op)}, found=val)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos, expected={"end of input"}, found=val)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                self.joined(pos)
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                self.joined(pos)
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.nested(self.unary, pos))
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node = Bin("^", node, self.nested(self.unary, pos))
        return node

    def arguments(self):
        args = [self.expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.advance()
                args.append(self.expr())
            else:
                return args

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            nkind, nval, npos = self.peek()
            if nkind == "op" and nval == "(":
                if val not in _FUNCTION_ARITY:
                    raise ParseError(f"unknown function '{val}'", pos, found=val)
                self.advance()
                args = self.nested(self.arguments, npos)
                self.expect_op(")")
                if len(args) != _FUNCTION_ARITY[val]:
                    raise ParseError(
                        f"function '{val}' takes {_FUNCTION_ARITY[val]} argument(s), got {len(args)}",
                        pos,
                    )
                return Func(val, tuple(args))
            if val in _FUNCTION_ARITY:
                raise ParseError(f"function '{val}' requires arguments", pos, found=val)
            if self.variables is not None and val not in self.variables:
                raise ParseError(f"unknown identifier '{val}'", pos, found=val)
            return Var(val)
        if kind == "op" and val == "(":
            node = self.nested(self.expr, pos)
            self.expect_op(")")
            return node
        raise ParseError(
            "syntax error",
            pos,
            expected={"number", "identifier", "'('", "'-'"},
            found=val,
        )


# ---------------------------------------------------------------------------
# Printer (precedence-aware; reparsing reproduces the same AST)

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _children(node):
    if isinstance(node, Bin):
        return (node.lhs, node.rhs)
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Func):
        return node.args
    if isinstance(node, (Num, Var)):
        return ()
    raise TypeError(f"not an AST node: {node!r}")


def _fold(root, combine):
    """``combine(node, results of its children)`` for every node, children
    first, without recursion: a flat sum of n terms is a chain n nodes deep."""
    order, stack = [], [root]
    while stack:  # parents before children, children right to left
        node = stack.pop()
        kids = _children(node)
        order.append((node, len(kids)))
        stack.extend(kids)
    results = []
    for node, n in reversed(order):
        kids = results[-n:] if n else ()
        del results[len(results) - n:]
        results.append(combine(node, kids))
    return results[0]


def _code(x, prec=0):
    # an operand is (source, precedence) or a float literal, never parenthesised
    text, own = (repr(x), _PREC_ATOM) if isinstance(x, float) else x
    return text if own >= prec else f"({text})"


def _source_step(node, kids):
    """(text, precedence) of ``node`` from those of its children."""
    if isinstance(node, Num):
        text = repr(node.value)
        return (f"({text})" if node.value < 0 else text), _PREC_ATOM
    if isinstance(node, Var):
        return node.name, _PREC_ATOM
    if isinstance(node, Neg):
        return f"-{_code(kids[0], _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, Func):
        return f"{node.name}({', '.join(text for text, _ in kids)})", _PREC_ATOM
    lhs, rhs = kids
    if node.op == "^":  # right-associative with an atom-level left operand
        return f"{_code(lhs, _PREC_ATOM)}^{_code(rhs, _PREC_UNARY)}", _PREC_POW
    prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
    return f"{_code(lhs, prec)} {node.op} {_code(rhs, prec + 1)}", prec


def _to_source(node):
    return _fold(node, _source_step)[0]


# ---------------------------------------------------------------------------
# Code generator: AST -> ``lambda v0, v1, ...:`` one nested numpy expression
# (not one statement per node, so numpy can reuse its temporaries)

_MAX_CHAIN = 4
_DOMAIN = {"ln": (operator.le, "ln of a non-positive value"), "/": (operator.eq, "division by zero"),
           "sqrt": (operator.lt, "sqrt of a negative value")}


def _any(mask):  # a comparison of two Python floats is a plain bool
    return mask if mask.__class__ is bool else mask.any()


# OpenBLAS runs a long dot on several threads; on a shared 2-core x86-64 VM
# about 1% of such calls (20,000 elements) stalled for 8 ms waiting for them.
_DOT_MAX = 8192


def all_finite(value):
    """Whether a float, or every element of a float array, is finite; an
    array's sum of squares warns of its overflow outside ``np.errstate``."""
    if isinstance(value, float):
        return math.isfinite(value)
    if value.size <= _DOT_MAX:
        flat = value.reshape(-1)
        if math.isfinite(flat.dot(flat)):
            return True
    return bool(np.isfinite(value).all())


def _finite(value, message, subexpr):
    if not all_finite(value):
        raise EvalDomainError(message, subexpr)
    return value


def _domain(value, kind, subexpr):
    outside, message = _DOMAIN[kind]
    if _any(outside(value, 0.0)):
        raise EvalDomainError(message, subexpr)
    return value


def _chain(base, k, subexpr):
    out = 1.0 if k == 0 else base
    for _ in range(k - 1):
        out = out * base
    return _finite(out, "power produced a non-finite value", subexpr)


def _power(base, expo, subexpr, negative, zero):
    if negative and _any((base < 0.0) & (expo != np.floor(expo))):
        raise EvalDomainError("negative base with non-integer exponent", subexpr)
    if zero and _any((base == 0.0) & (expo < 0.0)):
        raise EvalDomainError("zero base with negative exponent", subexpr)
    return _finite(np.power(base, expo), "power produced a non-finite value", subexpr)


def _f(value):
    # a literal of a variable-free node that does not fold: a numpy float, whose
    # arithmetic raises flags; a non-finite one raises the invalid flag itself
    if not math.isfinite(value):
        np.multiply(math.inf, 0.0)
    return np.float64(value)


_NAMESPACE = {
    "abs": np.abs, "sign": np.sign, "sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log,
    "sqrt": np.sqrt, "min": np.minimum, "max": np.maximum, "clamp": np.clip, "inf": math.inf,
    "nan": math.nan, **{f.__name__: f for f in (_finite, _domain, _chain, _power, _f)},
    # ``clamp`` with a bound that is not a literal: np.clip gives this to array
    # bounds, but keeps x at a tie of signed zeros with scalar ones
    "_clamp": lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi),
}


def _unchecked(value, *_):
    return value


def _unchecked_chain(base, k, *_):
    # ``_chain`` with no test; x^0 is a numpy 1.0, since Python float
    # arithmetic after it would raise no flag
    out = np.float64(1.0) if k == 0 else base
    for _ in range(k - 1):
        out = out * base
    return out


def _unchecked_power(base, expo, *_):
    return np.power(base, expo)


# the checked code's numpy operations with no test, for a caller that traps
# floating-point exceptions
_UNCHECKED = {**_NAMESPACE, "_finite": _unchecked, "_domain": _unchecked,
              "_chain": _unchecked_chain, "_power": _unchecked_power}


def _nonnegative(node):
    return isinstance(node, Func) and node.name in ("abs", "sqrt", "exp")


def _step(text, prec, *operands):
    # fold a node whose operands are all literals by running its own code
    if all(isinstance(x, float) for x in operands):
        try:
            with np.errstate(all="ignore"):
                value = float(eval(text, _NAMESPACE))
        except EvalDomainError:
            value = math.nan
        if math.isfinite(value):
            return value
    return text, prec


def _emit(root, names, hoisted):
    """(operand, source) of ``root`` as one numpy expression.

    ``names`` maps each variable to its operand; a sub-tree whose id is a key
    of ``hoisted`` is read from the operand it maps to instead.  A node of
    literals that does not fold to a finite one takes them as numpy floats.
    """
    bare = set(names.values()) | set(hoisted.values())

    def fresh(x):
        # a bare variable is the caller's own array; ``+v`` evaluates to a new one
        return (f"+{x[0]}", _PREC_UNARY) if x in bare else x

    def emit(node, ops, src):
        if isinstance(node, Num):
            value = node.value if math.isfinite(node.value) else (f"_f({node.value!r})", _PREC_ATOM)
        elif isinstance(node, Var):
            value = names[node.name]
        elif isinstance(node, Neg):
            value = _step(f"-{_code(ops[0], _PREC_UNARY)}", _PREC_UNARY, *ops)
        elif isinstance(node, Func):
            text = ", ".join(map(_code, ops))
            if node.name == "exp":
                text = f"_finite(exp({text}), 'exp produced a non-finite value', {src})"
            elif node.name == "ln" or (node.name == "sqrt" and not _nonnegative(node.args[0])):
                text = f"{node.name}(_domain({text}, {node.name!r}, {src}))"
            elif node.name == "clamp" and not all(isinstance(x, float) for x in ops[1:]):
                text = f"_clamp({text})"
            else:
                text = f"{node.name}({text})"
            value = _step(text, _PREC_ATOM, *ops)
        elif node.op != "^":
            a, b = ops
            if node.op == "/":
                b = _step(f"_domain({_code(b)}, '/', {src})", _PREC_ATOM, b)
            prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
            value = _step(f"{_code(a, prec)} {node.op} {_code(b, prec + 1)}", prec, a, b)
        else:
            a, b = ops
            if isinstance(b, float) and b == math.floor(b) and 0 <= b <= _MAX_CHAIN:
                base = fresh(a) if b == 1 else a  # x^1 is x itself
                value = _step(f"_chain({_code(base)}, {int(b)}, {src})", _PREC_ATOM, a)
            else:
                negative = (not isinstance(b, float)
                            or b != math.floor(b) and not _nonnegative(node.lhs))
                flags = f", {negative}, {not isinstance(b, float) or b < 0}"
                value = _step(f"_power({_code(a)}, {_code(b)}, {src}{flags})", _PREC_ATOM, a, b)
        return value

    def combine(node, kids):
        source = _source_step(node, [s for _, s in kids])
        if id(node) in hoisted:
            return hoisted[id(node)], source
        ops, src = [x for x, _ in kids], repr(source[0])
        value = emit(node, ops, src)
        if ops and all(isinstance(x, float) for x in ops) and not isinstance(value, float):
            value = emit(node, [(f"_f({x!r})", _PREC_ATOM) for x in ops], src)
        return value, source

    result, (source, _) = _fold(root, combine)
    return fresh(result), source


def _names(variables):
    return {name: (f"v{i}", _PREC_ATOM) for i, name in enumerate(variables)}


def _generate(root, variables, parts=()):
    """Source of ``lambda v0, v1, ..., c0, c1, ...: <root as one numpy
    expression>`` in which the sub-tree ``parts[k]`` is read from the
    parameter ``c<k>``."""
    names = _names(variables)
    hoisted = {id(part): (f"c{k}", _PREC_ATOM) for k, part in enumerate(parts)}
    result, source = _emit(root, names, hoisted)
    text = _code(result)
    if not isinstance(result, float):
        text = f"_finite({text}, 'non-finite result', {source!r})"
    params = [n for n, _ in names.values()] + [n for n, _ in hoisted.values()]
    return f"lambda {', '.join(params)}: {text}"


def _generate_parts(parts, variables):
    """Source of ``lambda v0, v1, ...: (<parts[0]>, <parts[1]>, ...)``.

    No part is a bare variable or a constant, so each value is a new one, and
    none is checked as a whole: the expression it came from checks it.
    """
    names = _names(variables)
    codes = "".join(f"{_code(_emit(part, names, {})[0])}, " for part in parts)
    return f"lambda {', '.join(n for n, _ in names.values())}: ({codes})"


def _compiled(source, label):
    return compile(source, f"<expression {label}>", "eval")


def _hoistable(root, var):
    """The largest sub-trees of ``root`` that do not contain the variable
    ``var`` but contain another one, other than bare variables; left to right,
    each node once."""
    mentions = {}  # id(node) -> (contains var, contains another variable)

    def combine(node, kids):
        if isinstance(node, Var):
            flags = (node.name == var, node.name != var)
        else:
            flags = (any(a for a, _ in kids), any(b for _, b in kids))
        mentions[id(node)] = flags
        return flags

    _fold(root, combine)
    parts, stack = {}, [root]
    while stack:
        node = stack.pop()
        has_var, has_other = mentions[id(node)]
        if has_var:
            stack.extend(reversed(_children(node)))
        elif has_other and not isinstance(node, Var):
            parts.setdefault(id(node), node)
    return list(parts.values())


def _free_variables(root):
    names, stack = set(), [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        stack.extend(_children(node))
    return names


def _key(root):
    """The AST as one flat pre-order tuple of each node's class, own field and
    arity, built without recursion: equal keys mean equal trees."""
    key, stack = [], [root]
    while stack:
        node = stack.pop()
        kids = _children(node)
        own = getattr(node, "op", getattr(node, "name", getattr(node, "value", None)))
        key += (type(node), own, len(kids))
        stack.extend(reversed(kids))
    return tuple(key)


def _rebuild(node, kids):
    """``node`` with the children ``kids``."""
    if isinstance(node, Neg):
        return Neg(kids[0])
    if isinstance(node, Bin):
        return Bin(node.op, *kids)
    if isinstance(node, Func):
        return Func(node.name, tuple(kids))
    return node


# ---------------------------------------------------------------------------
# Symbolic derivative: an AST rewrite whose builders fold literals and drop
# the factors 1 and the terms 0

_ZERO, _ONE = Num(0.0), Num(1.0)


def _is(node, value):
    return isinstance(node, Num) and node.value == value


def _literal(node):
    """``node``, or its value where its operands are literals and it folds to
    a finite one as the generated code folds it."""
    if not isinstance(node, Num) and all(isinstance(k, Num) for k in _children(node)):
        value = _emit(node, {}, {})[0]
        if isinstance(value, float):
            return Num(value)
    return node


def _neg(a):
    return a.operand if isinstance(a, Neg) else _literal(Neg(a))


def _add(a, b, op="+"):
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return b if op == "+" else _neg(b)
    return _literal(Bin(op, a, b))


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    for one, other in ((a, b), (b, a)):
        if isinstance(one, Num) and abs(one.value) == 1.0:
            return other if one.value == 1.0 else _neg(other)
    return _literal(Bin("*", a, b))


def _div(a, b):
    if _is(a, 0.0) or _is(b, 1.0):
        return a
    return _literal(Bin("/", a, b))


def _pow(a, b):
    if _is(b, 0.0) or _is(b, 1.0):
        return _ONE if _is(b, 0.0) else a
    return _literal(Bin("^", a, b))


def _call(name, *args):
    return _literal(Func(name, args))


def _selected(gap, d_active, d_other):
    """``d_active`` where ``gap >= 0``, else ``d_other``."""
    active = _call("min", _add(_call("sign", gap), _ONE), _ONE)
    return _add(_mul(d_active, active), _mul(d_other, _add(_ONE, active, "-")))


def _derivative_step(node, kids, var):
    """(``node`` with literals combined, its derivative in ``var``) from those of
    its children; a sub-tree that folds nothing stays the same object."""
    if isinstance(node, (Num, Var)):
        return node, _ONE if node == Var(var) else _ZERO
    new = [k for k, _ in kids]
    if any(k is not old for k, old in zip(new, _children(node))):
        node = _rebuild(node, new)
    node = _literal(node)
    d = [dk for _, dk in kids]
    if all(_is(dk, 0.0) for dk in d):
        return node, _ZERO
    if isinstance(node, Neg):
        return node, _neg(d[0])
    if isinstance(node, Func):
        u = node.args[0]
        if node.name == "abs":
            return node, _mul(_call("sign", u), d[0])
        if node.name == "sin":
            return node, _mul(_call("cos", u), d[0])
        if node.name == "cos":
            return node, _neg(_mul(_call("sin", u), d[0]))
        if node.name == "exp":
            return node, _mul(node, d[0])
        if node.name == "ln":
            return node, _div(d[0], u)
        if node.name == "sqrt":
            return node, _div(d[0], _mul(Num(2.0), node))
        # min and max take their first argument's derivative at a tie
        if node.name == "min":
            return node, _selected(_add(node.args[1], u, "-"), *d)
        if node.name == "max":
            return node, _selected(_add(u, node.args[1], "-"), *d)
        if node.name == "clamp":  # min(max(x, lo), hi)
            lo, hi = node.args[1:]
            inner = _selected(_add(u, lo, "-"), d[0], d[1])
            return node, _selected(_add(hi, _call("max", u, lo), "-"), inner, d[2])
        return node, _ZERO  # sign
    (u, v), (du, dv) = (node.lhs, node.rhs), d
    if node.op in "+-":
        return node, _add(du, dv, node.op)
    if node.op == "*":
        return node, _add(_mul(du, v), _mul(u, dv))
    if node.op == "/":
        return node, _div(_add(du, _mul(_div(u, v), dv), "-"), v)
    if _is(dv, 0.0):  # u^c: c u^(c - 1) u'
        return node, _mul(_mul(v, _pow(u, _add(v, _ONE, "-"))), du)
    # u^v (v' ln(u) + v u' / u)
    return node, _mul(node, _add(_mul(dv, _call("ln", u)), _div(_mul(v, du), u)))


def _derivative(root, var):
    return _fold(root, lambda node, kids: _derivative_step(node, kids, var))[1]


class Expression:
    """Immutable parsed expression over a fixed ordered variable tuple.

    Evaluation is pure and re-entrant; instances are safe to share across
    threads.  Scalars in, float out; numpy arrays in, array out.  The
    generated function is compiled on the first call, and the source text is
    printed on first use.
    """

    __slots__ = ("root", "variables", "_fn", "_staged", "_source", "_derived")

    def __init__(self, root, variables):
        missing = _free_variables(root) - set(variables)
        if missing:
            raise ExpressionError(f"variables {sorted(missing)} not in {variables}")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "variables", tuple(variables))
        for slot in ("_fn", "_staged", "_source", "_derived"):
            object.__setattr__(self, slot, None)

    def __setattr__(self, *_):
        raise AttributeError("Expression is immutable")

    def _compile(self):
        fn = eval(_compiled(_generate(self.root, self.variables), self.to_source()), _NAMESPACE)
        object.__setattr__(self, "_fn", fn)
        return fn

    def __call__(self, *values):
        if len(values) != len(self.variables):
            raise TypeError(f"expression over {self.variables} called with {len(values)} value(s)")
        args = []
        shape = None  # stays None when every value is a scalar
        for v in values:
            if type(v) is not float:
                v = np.asarray(v, dtype=float)
                if v.ndim == 0:
                    v = float(v)
                elif shape is None or shape == v.shape:
                    shape = v.shape
                else:
                    shape = np.broadcast_shapes(shape, v.shape)
            args.append(v)
        fn = self._fn or self._compile()
        with np.errstate(all="ignore"):
            out = fn(*args)
        if shape is None:
            return float(out)
        if type(out) is np.ndarray and out.shape == shape:
            return out
        return np.broadcast_to(out, shape).copy()

    def split(self, var, *others):
        """The expression staged at the variable ``var`` for a caller that
        traps floating-point exceptions: ``(pre, body, *bodies)``.

        ``pre`` takes the values of the other variables, in order, and returns
        the tuple of the largest sub-expressions that do not involve ``var``
        (bare variables and constants excepted).  ``body`` takes the values of
        all the variables followed by that tuple, and returns the expression's
        value.  Each of the Expressions ``others``, over the same variables,
        has a body in ``bodies`` that takes the same arguments (a sub-tree it
        shares with this one, the same node, is read from the tuple).  All run
        the checked code's numpy operations against helpers that test nothing,
        with ``x^0`` a numpy 1.0.  Under ``np.errstate`` raising on overflow,
        invalid and divide, and given finite values that are all numpy arrays
        or numpy scalars, each either raises ``FloatingPointError`` or returns
        ``__call__``'s bits where ``__call__`` raises nothing; a result is not
        broadcast to the arguments' shape.  Built on first use and kept for the
        last ``var`` and ``others``.
        """
        cached = self._staged
        if cached is None or cached[0] != (var, others):
            parts = _hoistable(self.root, var)
            rest = tuple(v for v in self.variables if v != var)
            source = self.to_source()
            fns = [eval(_compiled(_generate_parts(parts, rest), f"{source} before {var}"),
                        _UNCHECKED)]
            for expr in (self, *others):
                body = _generate(expr.root, self.variables, parts)
                label = f"{expr.to_source()} given the parts of {source} without {var}"
                fns.append(eval(_compiled(body, label), _UNCHECKED))
            cached = ((var, others), tuple(fns))
            object.__setattr__(self, "_staged", cached)
        return cached[1]

    def derivative(self, var):
        """The partial derivative in the variable ``var``, as an Expression
        over the same variables: sum, product, quotient and chain rules, with
        literal operations evaluated and the factors 1 and the terms 0 dropped.  ``abs(u)``
        gives ``sign(u) u'`` and ``sign`` gives 0; ``min``, ``max`` and
        ``clamp`` (as ``min(max(x, lo), hi)``) take their active argument's
        derivative, and at a tie their first argument's, a one-sided value.
        Built on first use and kept for the last ``var``."""
        derived = self._derived
        if derived is None or derived[0] != var:
            derived = (var, Expression(_derivative(self.root, var), self.variables))
            object.__setattr__(self, "_derived", derived)
        return derived[1]

    def to_source(self):
        if self._source is None:  # printed on first use
            object.__setattr__(self, "_source", _to_source(self.root))
        return self._source

    def free_variables(self):
        return frozenset(_free_variables(self.root))

    def rebind(self, variables):
        """Same AST over a different variable tuple (must cover free vars)."""
        return Expression(self.root, variables)

    def __repr__(self):
        return f"Expression({self.to_source()!r}, variables={self.variables})"

    def __eq__(self, other):
        return isinstance(other, Expression) and (_key(self.root), self.variables) == (
            _key(other.root), other.variables)

    def __hash__(self):
        return hash((_key(self.root), self.variables))


def _parse(source, variables):
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0, expected={"expression"})
    return _Parser(_tokenize(source), variables).parse()


def parse_expression(source, variables=GENERATOR_VARIABLES):
    """Parse ``source`` into an :class:`Expression` over ``variables``.

    Raises :class:`ParseError` with the offending position and expected-token
    set on malformed input, and rejects identifiers outside ``variables``.
    """
    return Expression(_parse(source, tuple(variables)), variables)


def parse_univariate(source, var_hint=None):
    """Parse an expression of one free variable (or a constant).

    The variable may have any name; ``var_hint`` only sets the name used when
    the expression is constant.  Returns an Expression of arity one.
    """
    root = _parse(source, None)
    free = sorted(_free_variables(root))
    if len(free) > 1:
        raise ExpressionError(f"expected at most one free variable, found {free} in {source!r}")
    name = free[0] if free else (var_hint or "x")
    return Expression(root, (name,))
