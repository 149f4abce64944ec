"""Recursive-descent parser for the problem-file expression language.

Grammar:

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' integer)?
    unary   := '-' unary | primary
    primary := number | ident | func '(' expr ')' | '(' expr ')'

Functions: sin cos exp sinh cosh sqrt abs.  Variables are x1..xn and
(optionally) t; the bare identifier ``i`` is the imaginary unit, and a
number may carry an ``i`` suffix (``3i``).  A factor takes at most one '^',
whose exponent is a constant integer, so ``x1^2^3`` is a syntax error (write
``(x1^2)^3``); unary minus binds tighter than the base of '^'.

``evaluate`` walks a parsed tree.  ``Program`` compiles a tree into a DAG
holding each distinct subtree once; ``evaluate`` runs it with the same numpy
operations as the tree walk, so the values are bitwise equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import copysign

import numpy as np

from .errors import ExprSyntaxError, NonIntegerExponent, UnknownVariable

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == m.start():
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is None:
            pos = m.end()
            continue
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src, dim, allow_t):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.dim = dim
        self.allow_t = allow_t

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.unary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node = Pow(node, self.integer())
        return node

    def integer(self):
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            sign = -1
            self.advance()
            kind, val, off = self.peek()
        if kind != "number" or not re.fullmatch(r"\d+", val):
            raise NonIntegerExponent(f"'^' needs a constant integer exponent, got {val!r}")
        self.advance()
        return sign * int(val)

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.primary()

    def primary(self):
        kind, val, off = self.advance()
        if kind == "number":
            if val.endswith("i"):
                return Const(complex(0.0, float(val[:-1]) if val[:-1] else 1.0))
            return Const(complex(float(val)))
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val == "i":
                return Const(1j)
            if val == "t":
                if not self.allow_t:
                    raise UnknownVariable("variable 't' not allowed here")
                return Var("t")
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                axis = int(m.group(1))
                if not 1 <= axis <= self.dim:
                    raise UnknownVariable(f"variable {val!r} outside dimension {self.dim}")
                return Var(val)
            raise UnknownVariable(f"unknown identifier {val!r}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def parse(src, dim, allow_t=False):
    """Parse an expression over variables x1..x{dim} (and t if allowed)."""
    return _Parser(src, dim, allow_t).parse()


def _parts(node):
    """(operand nodes, payload); the payload and the operands' slots are the
    node's structural key, so the key never hashes a subtree."""
    if isinstance(node, BinOp):
        return (node.left, node.right), (BinOp, node.op)
    if isinstance(node, Const):
        v = node.value
        if v != v:  # a NaN constant is never merged
            return (), (Const, id(node))
        # the signs tell -0.0 from 0.0, which compare equal
        return (), (Const, type(v), v, copysign(1.0, v.real), copysign(1.0, v.imag))
    if isinstance(node, Call):
        return (node.arg,), (Call, node.fn)
    if isinstance(node, Var):
        return (), (Var, node.name)
    if isinstance(node, Neg):
        return (node.child,), (Neg,)
    if isinstance(node, Pow):
        return (node.base,), (Pow, type(node.exponent), node.exponent)
    raise TypeError(f"not an expression node: {node!r}")


def _apply(node, operands, x, t):
    """The value of ``node`` from its operands' values."""
    if isinstance(node, BinOp):
        a, b = operands
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Call):
        return FUNCTIONS[node.fn](operands[0])
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        v = t if node.name == "t" else x[int(node.name[1:]) - 1]
        return complex(v) if np.isscalar(v) else np.asarray(v, complex)
    if isinstance(node, Neg):
        return -operands[0]
    if isinstance(node, Pow):
        return operands[0] ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node, x, t=None):
    """Evaluate a parsed tree or a compiled ``Program``; x is a sequence of
    coordinates (or arrays)."""
    if isinstance(node, Program):
        return node.run(x, t)
    return _apply(node, [evaluate(c, x, t) for c in _parts(node)[0]], x, t)


def _coords_key(x):
    """The coordinates' bytes: equal keys give bitwise-equal variable values."""
    arrays = [np.asarray(v) for v in x]
    return tuple((np.isscalar(v), a.dtype, a.shape, a.tobytes()) for v, a in zip(x, arrays))


class Program:
    """An expression tree compiled to a DAG of its distinct subtrees.

    Hash-consing in one post-order pass gives each structurally equal
    subtree one slot, evaluated once per call.  The t-free slots run before
    the t-dependent ones, and each value is dropped after its last use.
    A call given a time keeps the t-free values that a t-dependent slot or
    the root reads, for the coordinates of that call; a later call whose
    coordinates are byte for byte the same computes only the t-dependent
    slots, and any other call evaluates afresh.

    Cheap slots, a constant, a variable or one arithmetic operation on
    those (``7*x1``), are never kept: each reader recomputes them.  They are
    the most widely shared subtrees (every ``k*x1`` of one wavenumber), and
    keeping them would hold a grid-sized array per distinct one for the
    whole expression.
    """

    def __init__(self, tree):
        self._nodes, self._args = [], []
        self.root = self._visit(tree, {})
        tdep, self._cheap = [], []
        for node, operands in zip(self._nodes, self._args):
            is_t = isinstance(node, Var) and node.name == "t"
            tdep.append(is_t or any([tdep[a] for a in operands]))
            leaves = all([not self._args[a] for a in operands])
            self._cheap.append(leaves and not isinstance(node, Call))
        kept = [i for i, cheap in enumerate(self._cheap) if not cheap]
        self._t_free = [i for i in kept if not tdep[i]]
        self._t_dep = [i for i in kept if tdep[i]]
        self._order = self._t_free + self._t_dep
        self._last = [None] * len(self._nodes)  # the slot that reads each slot last
        for i in self._order:
            for a in self._args[i]:
                self._last[a] = i
        self._held = None  # (coordinates key, slot values after the t-free pass)

    def _intern(self, node, key, operands, slot_of_key):
        slot = slot_of_key.get(key)
        if slot is None:
            slot = slot_of_key[key] = len(self._nodes)
            self._nodes.append(node)
            self._args.append(operands)
        return slot

    def _visit(self, node, slot_of_key):
        """The slot of ``node``, interning its subtree first."""
        # sums and products parse left-deep: follow that spine in a loop, so
        # only parenthesised nesting recurses (as deep as the parser did)
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        kids, payload = _parts(node)
        operands = tuple([self._visit(k, slot_of_key) for k in kids])
        slot = self._intern(node, (payload, operands), operands, slot_of_key)
        for b in reversed(spine):
            operands = (slot, self._visit(b.right, slot_of_key))
            slot = self._intern(b, ((BinOp, b.op), operands), operands, slot_of_key)
        return slot

    def _value(self, i, vals, x, t):
        """Slot i's value: kept in ``vals``, or recomputed if i is cheap."""
        if not self._cheap[i]:
            return vals[i]
        return _apply(self._nodes[i], [self._value(a, vals, x, t) for a in self._args[i]], x, t)

    def _exec(self, order, vals, x, t):
        nodes, args, last, cheap = self._nodes, self._args, self._last, self._cheap
        for i in order:
            operands = args[i]
            vals[i] = _apply(
                nodes[i],
                [self._value(a, vals, x, t) if cheap[a] else vals[a] for a in operands],
                x,
                t,
            )
            for a in operands:
                if last[a] == i:
                    vals[a] = None

    def run(self, x, t=None):
        """The expression's value at coordinates ``x`` and time ``t``."""
        if t is None:
            vals = [None] * len(self._nodes)
            self._exec(self._order, vals, x, t)
        else:
            key = _coords_key(x)
            if self._held is None or self._held[0] != key:
                self._held = None  # release the old mesh's values first
                vals = [None] * len(self._nodes)
                self._exec(self._t_free, vals, x, t)
                self._held = (key, vals)
            vals = list(self._held[1])
            self._exec(self._t_dep, vals, x, t)
        return self._value(self.root, vals, x, t)


def pretty(node):
    """Deterministic text form; parse(pretty(parse(s))) is a fixpoint."""
    if isinstance(node, Const):
        v = node.value
        if v.imag == 0:
            return _num(v.real)
        if v.real == 0:
            return f"{_num(v.imag)}i" if v.imag >= 0 else f"(-{_num(-v.imag)}i)"
        raise ValueError("general complex constants are spelled a+bi in source")
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({pretty(node.arg)})"
    if isinstance(node, Neg):
        # unary minus binds tighter than '^', so a Pow child needs parens
        inner = pretty(node.child)
        if isinstance(node.child, Pow):
            inner = f"({inner})"
        return f"(-{inner})"
    if isinstance(node, Pow):
        return f"({pretty(node.base)})^{node.exponent}"
    if isinstance(node, BinOp):
        return f"({pretty(node.left)}{node.op}{pretty(node.right)})"
    raise TypeError(f"not an expression node: {node!r}")


def _num(v):
    return repr(float(v))
