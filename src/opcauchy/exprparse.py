"""Parser and compiler for the problem-file expression language.

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
``(x1^2)^3``); unary minus binds tighter than the base of '^'.  Nesting of
parentheses, calls and unary minuses deeper than ``MAX_NESTING`` levels is
a syntax error.

``parse`` reads an expression into a tree, and ``separate`` views a tree as
a sum of products g_j(t) h_j(x) plus a rest that mixes t and x.
``Program`` compiles a sequence of trees into one DAG holding each distinct
subtree once, shared across the trees.  ``sampler`` binds a Program to
coordinates and runs its t-free parts once; the sampler then gives the
trees' values at any time.  ``evaluate`` is one such sample.  Both apply
the numpy operations a walk of each tree would apply, so the values are
bitwise equal to that walk's.
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

#: A number, an identifier or an operator; whitespace between tokens is skipped.
_TOKEN_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]")
_AXIS_RE = re.compile(r"x(\d+)")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

#: Deepest nesting of parentheses, calls and unary minuses a parse accepts.
MAX_NESTING = 100


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
    """The token texts of ``src`` from one regex pass, then "" for the end."""
    tokens = _TOKEN_RE.findall(src)
    if "".join(tokens) != "".join(src.split()):  # findall skipped a character
        pos = 0
        for m in _TOKEN_RE.finditer(src):
            if src[pos : m.start()].strip():
                break
            pos = m.end()
        raise ExprSyntaxError(f"unexpected character {src[pos:].lstrip()[0]!r}", pos)
    tokens.append("")
    return tokens


class _Parser:
    """Precedence climbing over the token texts.

    Sums and products are read in a loop; only parentheses, calls and
    unary minus nest, and nesting deeper than ``MAX_NESTING`` is a syntax
    error, so neither the parser nor ``Program`` recurses without bound.
    """

    def __init__(self, src, dim, allow_t):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.dim = dim
        self.allow_t = allow_t

    def error(self, message, index=None):
        """An ExprSyntaxError at the offset of token ``index`` (default: the
        current one); offsets are found again only here, on failure."""
        index = self.pos if index is None else index
        starts = [m.start() for m in _TOKEN_RE.finditer(self.src)] + [len(self.src)]
        return ExprSyntaxError(message, starts[index])

    def parse(self):
        node = self.expr(1)
        if self.tokens[self.pos]:
            raise self.error(f"trailing input {self.tokens[self.pos]!r}")
        return node

    def expr(self, min_prec):
        """Factors joined by binary operators of precedence >= min_prec,
        left-associative."""
        node = self.factor()
        while True:
            op = self.tokens[self.pos]
            prec = _PRECEDENCE.get(op, 0)
            if prec < min_prec:
                return node
            self.pos += 1
            node = BinOp(op, node, self.expr(prec + 1))

    def nest(self, levels, index):
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise self.error(f"nested deeper than {MAX_NESTING} levels", index)

    def factor(self):
        """unary ('^' integer)?, with the unary minuses counted, not recursed."""
        tokens = self.tokens
        start = self.pos
        while tokens[self.pos] == "-":
            self.pos += 1
        negs = self.pos - start
        self.nest(negs, start)
        node = self.primary()
        self.depth -= negs
        for _ in range(negs):
            node = Neg(node)
        if tokens[self.pos] == "^":
            self.pos += 1
            node = Pow(node, self.integer())
        return node

    def integer(self):
        sign = 1
        tok = self.tokens[self.pos]
        if tok == "-":
            sign = -1
            self.pos += 1
            tok = self.tokens[self.pos]
        if not tok.isdecimal():
            raise NonIntegerExponent(f"'^' needs a constant integer exponent, got {tok!r}")
        self.pos += 1
        return sign * int(tok)

    def group(self):
        """'(' expr ')', one nesting level down."""
        if self.tokens[self.pos] != "(":
            raise self.error("expected '('")
        self.nest(1, self.pos)
        self.pos += 1
        node = self.expr(1)
        if self.tokens[self.pos] != ")":
            raise self.error("expected ')'")
        self.pos += 1
        self.depth -= 1
        return node

    def primary(self):
        tok = self.tokens[self.pos]
        if tok == "(":
            return self.group()
        self.pos += 1
        lead = tok[:1]
        if lead.isdecimal():
            if tok[-1] == "i":
                return Const(complex(0.0, float(tok[:-1])))
            return Const(complex(float(tok)))
        if lead.isalpha() or lead == "_":
            if tok in FUNCTIONS:
                return Call(tok, self.group())
            if tok == "i":
                return Const(1j)
            if tok == "t":
                if not self.allow_t:
                    raise UnknownVariable("variable 't' not allowed here")
                return Var("t")
            m = _AXIS_RE.fullmatch(tok)
            if m:
                axis = int(m.group(1))
                if not 1 <= axis <= self.dim:
                    raise UnknownVariable(f"variable {tok!r} outside dimension {self.dim}")
                return Var(tok)
            raise UnknownVariable(f"unknown identifier {tok!r}")
        raise self.error(f"unexpected token {tok!r}", self.pos - 1)


def parse(src, dim, allow_t=False):
    """Parse an expression over variables x1..x{dim} (and t if allowed)."""
    return _Parser(src, dim, allow_t).parse()


def _parts(node):
    """(operand nodes, payload); the payload and the operands' slots are the
    node's structural key, so the key never hashes a subtree.  The payload
    is all ``_apply`` needs of the node besides its operands' values."""
    if isinstance(node, BinOp):
        return (node.left, node.right), (BinOp, node.op)
    if isinstance(node, Const):
        v = node.value
        if v != v:  # a NaN constant is never merged
            return (), (Const, v, id(node))
        # the signs tell -0.0 from 0.0, which compare equal
        return (), (Const, v, type(v), copysign(1.0, v.real), copysign(1.0, v.imag))
    if isinstance(node, Call):
        return (node.arg,), (Call, node.fn)
    if isinstance(node, Var):
        return (), (Var, node.name)
    if isinstance(node, Neg):
        return (node.child,), (Neg,)
    if isinstance(node, Pow):
        return (node.base,), (Pow, type(node.exponent), node.exponent)
    raise TypeError(f"not an expression node: {node!r}")


def _apply(payload, operands, x, t):
    """The value of the node with ``_parts`` payload ``payload`` from its
    operands' values."""
    kind = payload[0]
    if kind is BinOp:
        a, b = operands
        op = payload[1]
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return a / b
    if kind is Call:
        return FUNCTIONS[payload[1]](operands[0])
    if kind is Const:
        return payload[1]
    if kind is Var:
        name = payload[1]
        v = t if name == "t" else x[int(name[1:]) - 1]
        return complex(v) if np.isscalar(v) else np.asarray(v, complex)
    if kind is Neg:
        return -operands[0]
    if kind is Pow:
        return operands[0] ** payload[2]
    raise TypeError(f"not a node payload: {payload!r}")


def _terms(tree):
    """(sign, term) for each '+'/'-' term of ``tree`` in reading order, with
    negations and parenthesised sums opened."""
    terms, stack = [], [(1, tree)]
    while stack:
        sign, node = stack.pop()
        if isinstance(node, BinOp) and node.op in "+-":
            stack.append((-sign if node.op == "-" else sign, node.right))
            stack.append((sign, node.left))
        elif isinstance(node, Neg):
            stack.append((-sign, node.child))
        else:
            terms.append((sign, node))
    return terms


def _factors(term):
    """(sign, [(op, factor), ...]) with ``term`` = sign * (1 op factor ...):
    its '*'/'/' factors in reading order, with negations and parenthesised
    products opened."""
    sign, factors, stack = 1, [], [("*", term)]
    while stack:
        op, node = stack.pop()
        if isinstance(node, BinOp) and node.op in "*/":
            inverse = {"*": "/", "/": "*"}[op]
            stack.append((op if node.op == "*" else inverse, node.right))
            stack.append((op, node.left))
        elif isinstance(node, Neg):
            sign = -sign
            stack.append((op, node.child))
        else:
            factors.append((op, node))
    return sign, factors


def _reads_t_or_x(node):
    """(whether the subtree reads t, whether it reads some x_i)."""
    reads_t = reads_x = False
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            reads_t |= node.name == "t"
            reads_x |= node.name != "t"
        else:
            stack.extend(_parts(node)[0])
    return reads_t, reads_x


def _product(factors):
    """The tree of 1 op factor ..., left-deep; a Const 1 for no factors."""
    node = None
    for op, factor in factors:
        if node is None:
            node = factor if op == "*" else BinOp("/", Const(1 + 0j), factor)
        else:
            node = BinOp(op, node, factor)
    return Const(1 + 0j) if node is None else node


def separate(tree):
    """``tree`` as sum_j g_j h_j + rest: (the (g_j, h_j) pairs, rest).

    Each '+'/'-' term of the tree is split along its '*'/'/' factors into
    the factors that read t alone, whose product is g_j, and the factors that
    read no t, constants included, whose product is h_j; either is 1 when
    it has no factors, and h_j carries the term's sign.  A term with a
    factor that reads both t and x goes whole into ``rest``, the sum of
    such terms (None when there is none).
    """
    pairs, rest = [], None
    for sign, term in _terms(tree):
        fsign, factors = _factors(term)
        reads = [_reads_t_or_x(factor) for _, factor in factors]
        if any(reads_t and reads_x for reads_t, reads_x in reads):
            if rest is None:
                rest = term if sign > 0 else Neg(term)
            else:
                rest = BinOp("+" if sign > 0 else "-", rest, term)
            continue
        g = _product([f for f, (reads_t, _) in zip(factors, reads) if reads_t])
        h = _product([f for f, (reads_t, _) in zip(factors, reads) if not reads_t])
        pairs.append((g, h if sign * fsign > 0 else Neg(h)))
    return pairs, rest


def _sum_spine(tree):
    """The tree's first term, then each '+'/'-' node of its left spine, in
    the order the terms are read."""
    spine = []
    while isinstance(tree, BinOp) and tree.op in "+-":
        spine.append(tree)
        tree = tree.left
    spine.append(tree)
    return spine[::-1]


class Program:
    """Expression trees compiled to one DAG of their distinct subtrees.

    Hash-consing in one post-order pass over all the trees gives each
    structurally equal subtree one slot, evaluated once per call however
    many trees share it.  The trees' sums are compiled term by term across
    the trees (term i of every tree, then term i+1), so a value shared by
    the trees' i-th terms is dropped right after its last reader; tree by
    tree, every shared term would stay alive until the last tree.  The
    t-free slots run before the t-dependent ones; every slot is computed
    once per call, kept, and each value except a root's is dropped after
    its last use.  A Program holds no values: a ``sampler`` keeps the t-free
    values that a t-dependent slot or a root reads.  Nor does it hold the
    trees: a slot keeps its ``_parts`` payload and its operands' slots, so a
    tree is freed once its caller drops it.
    """

    def __init__(self, trees):
        self._payloads, self._args = [], []
        slot_of_key = {}
        spines = [_sum_spine(tree) for tree in trees]
        self.roots = [None] * len(spines)
        for i in range(max(map(len, spines), default=0)):
            for r, spine in enumerate(spines):
                if i == 0:
                    self.roots[r] = self._visit(spine[0], slot_of_key)
                elif i < len(spine):
                    self.roots[r] = self._join(spine[i], self.roots[r], slot_of_key)
        tdep = []
        for payload, operands in zip(self._payloads, self._args):
            tdep.append(payload == (Var, "t") or any([tdep[a] for a in operands]))
        self._t_free = [i for i, dep in enumerate(tdep) if not dep]
        self._t_dep = [i for i, dep in enumerate(tdep) if dep]
        self._last = [None] * len(self._payloads)  # the slot that reads each slot last
        for i in self._t_free + self._t_dep:
            for a in self._args[i]:
                self._last[a] = i
        for r in self.roots:
            self._last[r] = None

    def _intern(self, payload, operands, slot_of_key):
        key = (payload, operands)
        slot = slot_of_key.get(key)
        if slot is None:
            slot = slot_of_key[key] = len(self._payloads)
            self._payloads.append(payload)
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
        slot = self._intern(payload, operands, slot_of_key)
        for b in reversed(spine):
            slot = self._join(b, slot, slot_of_key)
        return slot

    def _join(self, b, left, slot_of_key):
        """The slot of the BinOp ``b`` whose left operand has slot ``left``."""
        operands = (left, self._visit(b.right, slot_of_key))
        return self._intern((BinOp, b.op), operands, slot_of_key)

    def _exec(self, order, vals, x, t):
        payloads, args, last = self._payloads, self._args, self._last
        for i in order:
            operands = args[i]
            vals[i] = _apply(payloads[i], [vals[a] for a in operands], x, t)
            for a in operands:
                if last[a] == i:
                    vals[a] = None


def sampler(program, x):
    """A callable t -> the values of a ``Program``'s trees at coordinates ``x``
    (a sequence of scalars or arrays, not changed afterwards) and time ``t``,
    one per tree, in the trees' order.

    The t-free slots run here, once; each call runs only the t-dependent
    slots.  Overflow and division by zero raise no numpy warning: the
    callers check the values for finiteness.
    """
    held = [None] * len(program._payloads)
    with np.errstate(all="ignore"):
        program._exec(program._t_free, held, x, None)

    def sample(t):
        vals = list(held)
        with np.errstate(all="ignore"):
            program._exec(program._t_dep, vals, x, t)
        return [vals[r] for r in program.roots]

    return sample


def evaluate(program, x, t=None):
    """The values of a ``Program``'s trees at coordinates ``x`` and time
    ``t``: one sample of ``sampler(program, x)``."""
    return sampler(program, x)(t)
