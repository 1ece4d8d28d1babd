"""Scalar expression language for drivers, payoffs and witness functions.

Grammar (ASCII; the unicode aliases -, x, / for minus/times/divide are
normalised while tokenising)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative, binds above unary minus
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

so ``-y^3`` parses as ``-(y^3)`` and ``2^3^2`` as ``2^(3^2)``.  Known
functions: abs, sign, sin, cos, exp, ln, sqrt, min, max, clamp.  ``sign(0)``
is 0.  Raising a negative base to a non-integer power, ``ln`` of a
non-positive value, ``sqrt`` of a negative value and division by zero are
domain errors and are reported with the offending sub-expression; evaluation
never silently returns a non-finite value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpressionError",
    "ParseError",
    "EvalDomainError",
    "Expression",
    "parse_expression",
    "parse_univariate",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Func",
]

GENERATOR_VARIABLES = ("t", "y", "z")

_FUNCTION_ARITY = {
    "abs": 1,
    "sign": 1,
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "ln": 1,
    "sqrt": 1,
    "min": 2,
    "max": 2,
    "clamp": 3,
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


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.k = 0
        self.variables = variables

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
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node = Bin("^", node, self.unary())
        return node

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in _FUNCTION_ARITY:
                    raise ParseError(f"unknown function '{val}'", pos, found=val)
                self.advance()
                args = [self.expr()]
                while True:
                    k2, v2, p2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
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
            node = self.expr()
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


def _to_source(node, min_prec=0):
    if isinstance(node, Num):
        text = repr(node.value)
        return f"({text})" if node.value < 0 else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _to_source(node.operand, _PREC_UNARY)
        text = f"-{inner}"
        return f"({text})" if min_prec > _PREC_UNARY else text
    if isinstance(node, Func):
        args = ", ".join(_to_source(a, 0) for a in node.args)
        return f"{node.name}({args})"
    if isinstance(node, Bin):
        if node.op in "+-":
            prec = _PREC_ADD
            text = f"{_to_source(node.lhs, prec)} {node.op} {_to_source(node.rhs, prec + 1)}"
        elif node.op in "*/":
            prec = _PREC_MUL
            text = f"{_to_source(node.lhs, prec)} {node.op} {_to_source(node.rhs, prec + 1)}"
        else:  # ^ is right-associative with an atom-level left operand
            prec = _PREC_POW
            text = f"{_to_source(node.lhs, _PREC_ATOM)}^{_to_source(node.rhs, _PREC_UNARY)}"
        return f"({text})" if min_prec > prec else text
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Compiler: AST -> closure over a tuple of variable values (scalars or arrays)


def _check_finite(value, subexpr, what):
    if not np.all(np.isfinite(value)):
        raise EvalDomainError(f"{what} produced a non-finite value", subexpr)
    return value


def _compile(node, variables):
    if isinstance(node, Num):
        c = node.value
        return lambda vals: c
    if isinstance(node, Var):
        idx = variables.index(node.name)
        return lambda vals: vals[idx]
    if isinstance(node, Neg):
        f = _compile(node.operand, variables)
        return lambda vals: -f(vals)
    if isinstance(node, Func):
        return _compile_func(node, variables)
    if isinstance(node, Bin):
        return _compile_bin(node, variables)
    raise TypeError(f"not an AST node: {node!r}")


def _compile_bin(node, variables):
    lf = _compile(node.lhs, variables)
    rf = _compile(node.rhs, variables)
    src = _to_source(node)
    op = node.op
    if op == "+":
        return lambda vals: lf(vals) + rf(vals)
    if op == "-":
        return lambda vals: lf(vals) - rf(vals)
    if op == "*":
        return lambda vals: lf(vals) * rf(vals)
    if op == "/":

        def divide(vals):
            denom = rf(vals)
            if np.any(denom == 0):
                raise EvalDomainError("division by zero", src)
            return lf(vals) / denom

        return divide

    def power(vals):
        base = np.asarray(lf(vals), dtype=float)
        expo = np.asarray(rf(vals), dtype=float)
        frac = expo != np.floor(expo)
        if np.any((base < 0) & frac):
            raise EvalDomainError("negative base with non-integer exponent", src)
        if np.any((base == 0) & (expo < 0)):
            raise EvalDomainError("zero base with negative exponent", src)
        with np.errstate(over="ignore"):
            out = np.power(base, expo)
        return _check_finite(out, src, "power")

    return power


def _compile_func(node, variables):
    fs = [_compile(a, variables) for a in node.args]
    src = _to_source(node)
    name = node.name
    if name == "abs":
        f = fs[0]
        return lambda vals: np.abs(f(vals))
    if name == "sign":
        f = fs[0]
        return lambda vals: np.sign(f(vals))
    if name == "sin":
        f = fs[0]
        return lambda vals: np.sin(f(vals))
    if name == "cos":
        f = fs[0]
        return lambda vals: np.cos(f(vals))
    if name == "exp":
        f = fs[0]

        def fexp(vals):
            with np.errstate(over="ignore"):
                out = np.exp(f(vals))
            return _check_finite(out, src, "exp")

        return fexp
    if name == "ln":
        f = fs[0]

        def fln(vals):
            x = f(vals)
            if np.any(np.asarray(x) <= 0):
                raise EvalDomainError("ln of a non-positive value", src)
            return np.log(x)

        return fln
    if name == "sqrt":
        f = fs[0]

        def fsqrt(vals):
            x = f(vals)
            if np.any(np.asarray(x) < 0):
                raise EvalDomainError("sqrt of a negative value", src)
            return np.sqrt(x)

        return fsqrt
    if name == "min":
        a, b = fs
        return lambda vals: np.minimum(a(vals), b(vals))
    if name == "max":
        a, b = fs
        return lambda vals: np.maximum(a(vals), b(vals))
    if name == "clamp":
        x, lo, hi = fs
        return lambda vals: np.clip(x(vals), lo(vals), hi(vals))
    raise TypeError(f"unknown function {name!r}")


def _free_variables(node, acc):
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, Neg):
        _free_variables(node.operand, acc)
    elif isinstance(node, Bin):
        _free_variables(node.lhs, acc)
        _free_variables(node.rhs, acc)
    elif isinstance(node, Func):
        for a in node.args:
            _free_variables(a, acc)
    return acc


def _substitute(node, mapping):
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Num):
        return node
    if isinstance(node, Neg):
        return Neg(_substitute(node.operand, mapping))
    if isinstance(node, Bin):
        return Bin(node.op, _substitute(node.lhs, mapping), _substitute(node.rhs, mapping))
    if isinstance(node, Func):
        return Func(node.name, tuple(_substitute(a, mapping) for a in node.args))
    raise TypeError(f"not an AST node: {node!r}")


class Expression:
    """Immutable parsed expression over a fixed ordered variable tuple.

    Evaluation is pure and re-entrant; instances are safe to share across
    threads.  Scalars in, float out; numpy arrays in, array out.
    """

    __slots__ = ("root", "variables", "_fn", "_source")

    def __init__(self, root, variables):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "_fn", _compile(root, self.variables))
        object.__setattr__(self, "_source", _to_source(root))

    def __setattr__(self, *_):
        raise AttributeError("Expression is immutable")

    def __call__(self, *values):
        if len(values) != len(self.variables):
            raise TypeError(
                f"expression over {self.variables} called with {len(values)} value(s)"
            )
        out = self._fn(values)
        if all(np.isscalar(v) or np.ndim(v) == 0 for v in values):
            out = float(out)
            if not np.isfinite(out):
                raise EvalDomainError("non-finite result", self._source)
            return out
        out = np.asarray(out, dtype=float)
        if out.shape == () or out.shape != np.broadcast_shapes(*(np.shape(v) for v in values)):
            out = np.broadcast_to(out, np.broadcast_shapes(*(np.shape(v) for v in values))).copy()
        if not np.all(np.isfinite(out)):
            raise EvalDomainError("non-finite result", self._source)
        return out

    def to_source(self):
        return self._source

    def free_variables(self):
        return frozenset(_free_variables(self.root, set()))

    def substitute(self, mapping):
        """Return a new Expression with variables rewritten to AST nodes."""
        return Expression(_substitute(self.root, mapping), self.variables)

    def rebind(self, variables):
        """Same AST over a different variable tuple (must cover free vars)."""
        missing = self.free_variables() - set(variables)
        if missing:
            raise ExpressionError(f"variables {sorted(missing)} not in {variables}")
        return Expression(self.root, variables)

    def __repr__(self):
        return f"Expression({self._source!r}, variables={self.variables})"

    def __eq__(self, other):
        return (
            isinstance(other, Expression)
            and self.root == other.root
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.root, self.variables))


def parse_expression(source, variables=GENERATOR_VARIABLES):
    """Parse ``source`` into an :class:`Expression` over ``variables``.

    Raises :class:`ParseError` with the offending position and expected-token
    set on malformed input, and rejects identifiers outside ``variables``.
    """
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0, expected={"expression"})
    root = _Parser(_tokenize(source), tuple(variables)).parse()
    return Expression(root, variables)


def parse_univariate(source, var_hint=None):
    """Parse an expression of one free variable (or a constant).

    The variable may have any name; ``var_hint`` only sets the name used when
    the expression is constant.  Returns an Expression of arity one.
    """
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0, expected={"expression"})
    root = _Parser(_tokenize(source), None).parse()
    free = sorted(_free_variables(root, set()))
    if len(free) > 1:
        raise ExpressionError(
            f"expected at most one free variable, found {free} in {source!r}"
        )
    name = free[0] if free else (var_hint or "x")
    return Expression(root, (name,))
