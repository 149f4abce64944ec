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

``Program`` parses expressions straight into one table of slots: each
subexpression is interned as it is read, so a subexpression that occurs
more than once, in one expression or in several, has one slot and is
evaluated once.  No tree is built.  A call whose argument holds only ASCII
letters, digits, '_' and '+-*/^' (``cos(5*x1)``, ``sin(1*x1+2*x2-3*x3)``)
is one token, whose argument is read the first time its text is seen; a
later reading takes its slot.  A term after a '+' or '-' that is a real
number literal c times a number, variable or such call X, and ends there,
is one slot total ± c*X, evaluated as c*X then the sum, as a product slot
and a sum slot would be; c*X gets no slot, so an equal term elsewhere is
multiplied again, and a t-free c*X added to a total that reads t is
multiplied at every time.

``separate`` views a forcing's Program as a sum of products g_j(t) h_j(x)
plus a rest that mixes t and x, as three Programs over the same table.
``sampler`` binds a Program to coordinates and runs its t-free slots once;
the sampler then gives the expressions' values at any time.  ``evaluate``
is one such sample.

Real values stay real: a constant with a zero imaginary part is a float,
coordinates and the time are used as given, and ``+ - * neg sin cos abs``
apply numpy, or Python on numbers, to their operands as they are, so a
complex operand promotes by numpy's rules.  ``/``, ``^``, ``sqrt``,
``exp``, ``sinh`` and ``cosh`` make their operands numpy complex first,
an array as a complex128 array and a number as an ``np.complex128``: real
division, integer powers and sqrt compute other values than the complex
ones (``sqrt(-1.0)`` is NaN), and the SIMD float64 exp, sinh and cosh of
some numpy builds differ from the complex ones in the last bit.  They
leave alone operands made from ``abs`` values alone, which are real even
when every leaf is complex.  So each value equals, up to the sign of a
zero, that of a walk that makes every leaf a numpy complex, with one
exception: ``sqrt`` of a negative real value not made from ``abs`` values
alone is the principal root +i*sqrt(|a|), where that walk's sign followed
the sign of a zero imaginary part.  No arithmetic raises: a division by
zero or an overflow, of numbers as of arrays, gives an infinity or a NaN,
which the callers' finiteness checks report.  The roots' values are
returned as computed: float64 where real, complex128 otherwise, a Python
or numpy number for a constant.
"""

from __future__ import annotations

import copy
import operator
import re
import sys

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

_NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?"
#: A call token, a number, an identifier or an operator; whitespace between
#: tokens is skipped.  A call whose argument holds only ASCII letters, digits,
#: '_' and '+-*/^' is one token: each of those characters starts a number,
#: an identifier or an operator, so the argument splits into tokens just as
#: it would outside the call.
_TOKEN_RE = re.compile(
    rf"(?:{'|'.join(FUNCTIONS)})\([A-Za-z0-9_+\-*/^]*\)|{_NUMBER}|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]"
)
_AXIS_RE = re.compile(r"x(\d+)")

#: Deepest nesting of parentheses, calls and unary minuses a parse accepts.
MAX_NESTING = 100

# A slot's payload is all it needs besides its operands' values:
# ("+",) ("-",) ("*",) ("/",) ("neg",) ("^", n) ("call", name)
# ("const", value) ("x", axis) ("t",), and ("+*", c) or ("-*", c) for
# total ± c*X, whose operands are total and X.  A constant is a float when its
# imaginary part is zero, else a complex.  The parser makes no constant
# with a negative zero or a NaN part, so a constant's value is its key.
_ADD, _SUB, _MUL, _DIV, _NEG, _T = ("+",), ("-",), ("*",), ("/",), ("neg",), ("t",)
_ONE = ("const", 1.0)
_ABS = ("call", "abs")
#: The payloads besides ("^", n) whose operands are made complex first.
_COMPLEX_FIRST = {_DIV, ("call", "sqrt"), ("call", "exp"), ("call", "sinh"), ("call", "cosh")}
_SUMS = {"+": _ADD, "-": _SUB}
#: The payload name of total ± c*X for each sum, and the tokens that can end a term.
_SCALED = {_ADD: "+*", _SUB: "-*"}
_TERM_END = {"+", "-", ")", ""}
_PRODUCTS = {"*": _MUL, "/": _DIV}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "+*": operator.add, "-*": operator.sub}


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


def _starts(src):
    """The offset of each token of ``src``, then that of its end."""
    return [m.start() for m in _TOKEN_RE.finditer(src)] + [len(src)]


def _shown(tok):
    """``tok`` as an error names it: a call token by its name alone, as if
    its '(' began a token of its own."""
    return tok.partition("(")[0] or tok


def _interner(payloads, args):
    """A function (payload, operand slots) -> slot over the table ``payloads``,
    ``args``: a key seen before gets its slot, a new one is appended.  The
    keys live only as long as the function."""
    slot_of_key = {key: i for i, key in enumerate(zip(payloads, args))}
    get = slot_of_key.get

    def intern(payload, operands):
        key = payload, operands
        slot = get(key)
        if slot is None:
            slot = slot_of_key[key] = len(payloads)
            payloads.append(payload)
            args.append(operands)
        return slot

    return intern


class _Reader:
    """Precedence climbing over one expression's tokens, interning each
    subexpression as it is read.

    Sums and products are read in a loop; only parentheses, calls and
    unary minus nest, and nesting deeper than ``MAX_NESTING`` is a syntax
    error, so the reader does not recurse without bound.  ``leaves`` maps
    the text of a number, variable or call token already read to its slot;
    t may be read only where ``allow_t`` is true.
    """

    def __init__(self, src, dim, intern, leaves, allow_t):
        self.src = src
        self.tokens = None
        self.pos = 0
        self.depth = 0
        self.dim = dim
        self.intern = intern
        self.leaves = leaves
        self.allow_t = allow_t
        self.outer = None  # (source, token index, name) of the call token being read

    def error(self, message, index=None):
        """An ExprSyntaxError at the offset of token ``index`` (default: the
        current one); offsets are found again only here, on failure."""
        index = self.pos if index is None else index
        offset = _starts(self.src)[index]
        if self.outer is not None:  # in a call token's argument, after the name
            src, outer_index, name = self.outer
            offset += _starts(src)[outer_index] + len(name)
        return ExprSyntaxError(message, offset)

    def read_term(self, total):
        """(the slot of the expression's top-level '+'/'-' terms read so far
        after reading one more, whether that was the last); ``total`` is
        that slot before, None before the first term."""
        if total is None:
            self.tokens = _tokenize(self.src)
            total = self.term()
        else:
            op = _SUMS[self.tokens[self.pos]]
            self.pos += 1
            total = self.add(op, total)
        tok = self.tokens[self.pos]
        if tok and tok not in _SUMS:
            raise self.error(f"trailing input {_shown(tok)!r}")
        return total, not tok

    def expr(self):
        """term (('+'|'-') term)*, left-associative."""
        total = self.term()
        while op := _SUMS.get(self.tokens[self.pos]):
            self.pos += 1
            total = self.add(op, total)
        return total

    def add(self, op, total):
        """The slot of ``total`` ``op`` the term that follows the '+'/'-'.

        A term that is a real number literal c times a number, variable or
        call token X, and ends there, is one slot ("+*", c) or ("-*", c):
        no slot for c or c*X."""
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        if (tok[:1].isdecimal() and tok[-1] != "i" and tokens[pos + 1] == "*"
                and tokens[pos + 2][:1] not in "+-*/^()" and tokens[pos + 3] in _TERM_END):
            self.pos = pos + 2
            return self.intern((_SCALED[op], float(tok)), (total, self.factor()))
        return self.intern(op, (total, self.term()))

    def term(self):
        """factor (('*'|'/') factor)*, left-associative."""
        product = self.factor()
        while op := _PRODUCTS.get(self.tokens[self.pos]):
            self.pos += 1
            product = self.intern(op, (product, self.factor()))
        return product

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
        if negs:
            self.nest(negs, start)
        slot = self.leaves.get(tokens[self.pos])
        # a call token read before is read again where it would nest too deep
        if slot is None or self.depth == MAX_NESTING and tokens[self.pos][-1] == ")":
            slot = self.primary()
        else:
            self.pos += 1
        if negs:
            self.depth -= negs
            for _ in range(negs):
                slot = self.intern(_NEG, (slot,))
        if tokens[self.pos] == "^":
            self.pos += 1
            slot = self.intern(("^", self.integer()), (slot,))
        return slot

    def integer(self):
        sign = 1
        tok = self.tokens[self.pos]
        if tok == "-":
            sign = -1
            self.pos += 1
            tok = self.tokens[self.pos]
        if not tok.isdecimal():
            raise NonIntegerExponent(
                f"'^' needs a constant integer exponent, got {_shown(tok)!r}")
        n = int(tok)
        if n > sys.float_info.max:  # numpy takes an exponent as a float
            raise self.error(f"exponent {tok[:20]}... too large")
        self.pos += 1
        return sign * n

    def group(self):
        """'(' expr ')', one nesting level down."""
        if self.tokens[self.pos] != "(":
            raise self.error("expected '('")
        self.nest(1, self.pos)
        self.pos += 1
        slot = self.expr()
        if self.tokens[self.pos] != ")":
            raise self.error("expected ')'")
        self.pos += 1
        self.depth -= 1
        return slot

    def call(self, tok):
        """The slot of the call token ``tok``, the token before the current
        one: its argument's own tokens are read as a group, in place of the
        expression's, and the slot is kept in ``leaves``."""
        name = tok[: tok.index("(")]
        saved = self.src, self.tokens, self.pos, self.outer
        self.outer = self.src, self.pos - 1, name
        self.src = tok[len(name):]
        self.tokens = _TOKEN_RE.findall(self.src)
        self.tokens.append("")
        self.pos = 0
        arg = self.group()
        self.src, self.tokens, self.pos, self.outer = saved
        slot = self.leaves[tok] = self.intern(("call", name), (arg,))
        return slot

    def primary(self):
        """A group, a call, or a number, variable or call token not read
        before."""
        tok = self.tokens[self.pos]
        if tok == "(":
            return self.group()
        self.pos += 1
        lead = tok[:1]
        if lead.isdecimal():
            if tok[-1] == "i":
                imag = float(tok[:-1])
                payload = ("const", complex(0.0, imag) if imag else 0.0)
            else:
                payload = ("const", float(tok))
        elif lead.isalpha() or lead == "_":
            if tok[-1] == ")":
                return self.call(tok)
            if tok in FUNCTIONS:
                return self.intern(("call", tok), (self.group(),))
            if tok == "i":
                payload = ("const", 1j)
            elif tok == "t":
                if not self.allow_t:
                    raise UnknownVariable("variable 't' not allowed here")
                payload = _T
            else:
                m = _AXIS_RE.fullmatch(tok)
                if not m:
                    raise UnknownVariable(f"unknown identifier {tok!r}")
                axis = int(m.group(1))
                if not 1 <= axis <= self.dim:
                    raise UnknownVariable(f"variable {tok!r} outside dimension {self.dim}")
                payload = ("x", axis - 1)
        else:
            raise self.error(f"unexpected token {tok!r}", self.pos - 1)
        slot = self.leaves[tok] = self.intern(payload, ())
        return slot


def _complex(value):
    """``value`` as numpy complex: an array as a complex one (itself if it is
    complex), a number as an ``np.complex128``."""
    if isinstance(value, np.ndarray):
        return value.astype(complex, copy=False)
    return np.complex128(value)


class Program:
    """Expressions over x1..x{dim} (and t if ``allow_t``) parsed into one
    table of their distinct subexpressions, one root slot per expression.

    Each subexpression is interned as it is read, keyed by its payload and
    its operands' slots, so no key hashes a subexpression and a repeated
    one, in one expression or across them, gets one slot.  The expressions
    are read round-robin, one top-level '+'/'-' term at a time (term i of
    every expression, then term i+1), so a value shared by the i-th terms is
    dropped right after its last reader; expression by expression, every
    shared term would stay alive until the last expression.  Two readings
    save slots and time on long trigonometric sums: the argument of a call
    token such as ``cos(5*x1)`` is read once per Program, however many
    expressions repeat the call, and a term ``+ c*X`` or ``- c*X`` (c a
    real number literal, X a number, variable or call token) is one slot
    ("+*", c) or ("-*", c) over the sum before it and X, with no slot for
    c or c*X.  A parse error is raised for the first expression in order
    that has one, as if they were read one after another; its ``source``
    attribute is that expression's index.

    Each slot is classified once, from its operands' flags: whether it
    reads t, whether it is made from ``abs`` values alone, and which
    operands it makes numpy complex first.  One flat loop runs the t-free slots,
    then the t-dependent ones, computing each slot once per call and
    dropping each value except a root's after its last reader.  A Program
    holds no values: a ``sampler`` keeps the t-free values that a
    t-dependent slot or a root reads.  The keys are dropped once parsing
    ends.
    """

    def __init__(self, sources, dim, allow_t=False):
        payloads, args, leaves = [], [], {}
        intern = _interner(payloads, args)
        readers = [_Reader(src, dim, intern, leaves, allow_t) for src in sources]
        roots = [None] * len(readers)
        pending, failed = list(range(len(readers))), None
        while pending:
            unfinished = []
            for r in pending:
                try:
                    roots[r], done = readers[r].read_term(roots[r])
                except (ExprSyntaxError, NonIntegerExponent, UnknownVariable) as exc:
                    # the later expressions are moot; an earlier one may fail yet
                    exc.source, failed = r, exc
                    break
                if not done:
                    unfinished.append(r)
            pending = unfinished
        if failed is not None:
            raise failed
        del readers, intern  # the tokens and the keys
        self._payloads, self._args = payloads, args
        self._schedule(roots, range(len(payloads)))

    def _schedule(self, roots, slots):
        """Make ``roots`` the roots, run from the ``slots`` they read."""
        payloads, args = self._payloads, self._args
        # from_abs: real even were every leaf complex, made from abs values
        # alone; widen, bit k: operand k is made complex first
        tdep, from_abs, widen = [False] * len(args), [False] * len(args), [0] * len(args)
        last, t_free, t_dep = [None] * len(args), [], []  # last: each slot's last reader
        for i in slots:
            payload, operands = payloads[i], args[i]
            if len(operands) == 2:
                a, b = operands
                tdep[i] = tdep[a] or tdep[b]
                # total ± c*X reads the constant c too, which is no abs value
                from_abs[i] = from_abs[a] and from_abs[b] and len(payload) == 1
                if payload is _DIV:
                    widen[i] = (not from_abs[a]) | (not from_abs[b]) << 1
                last[a] = last[b] = i
            elif operands:
                (a,) = operands
                tdep[i] = tdep[a]
                from_abs[i] = payload == _ABS or from_abs[a]
                if payload in _COMPLEX_FIRST or payload[0] == "^":
                    widen[i] = not from_abs[a]
                last[a] = i
            else:
                tdep[i] = payload is _T
            (t_dep if tdep[i] else t_free).append(i)
        for i in t_dep:  # they run after every t-free slot
            for a in args[i]:
                last[a] = i
        for r in roots:
            last[r] = None
        self.roots, self._t_free, self._t_dep = roots, t_free, t_dep
        self._last, self._widen = last, widen

    def _with_roots(self, roots):
        """A Program over this one's table with other ``roots``; it runs
        only the slots they read."""
        read = [False] * len(self._args)
        for r in roots:
            read[r] = True
        for i in range(len(read) - 1, -1, -1):
            if read[i]:
                for a in self._args[i]:
                    read[a] = True
        view = copy.copy(self)
        view._schedule(roots, [i for i, r in enumerate(read) if r])
        return view

    def _exec(self, order, vals, x, t):
        payloads, args, last, widen = self._payloads, self._args, self._last, self._widen
        for i in order:
            payload, operands = payloads[i], args[i]
            if len(operands) == 2:
                a, b = operands
                u, v = vals[a], vals[b]
                if widen[i]:
                    u = _complex(u) if widen[i] & 1 else u
                    v = _complex(v) if widen[i] & 2 else v
                if len(payload) == 2:  # total ± c*X
                    v = payload[1] * v
                vals[i] = _OPERATORS[payload[0]](u, v)
                if last[a] == i:
                    vals[a] = None
                if last[b] == i:
                    vals[b] = None
            elif operands:
                (a,) = operands
                u = _complex(vals[a]) if widen[i] else vals[a]
                vals[i] = (-u if payload is _NEG
                           else FUNCTIONS[payload[1]](u) if payload[0] == "call"
                           else u ** payload[1])
                if last[a] == i:
                    vals[a] = None
            else:
                vals[i] = x[payload[1]] if payload[0] == "x" else t if payload is _T else payload[1]


def _terms(payloads, args, root, intern):
    """(sign, slot) for each '+'/'-' term of ``root`` in reading order, with
    negations and parenthesised sums opened; a term c*X of total ± c*X is
    ``intern``-ed as the product of the constant c and X."""
    terms, stack = [], [(1, root)]
    while stack:
        sign, slot = stack.pop()
        payload = payloads[slot]
        if payload is _ADD or payload is _SUB:
            left, right = args[slot]
            stack.append((-sign if payload is _SUB else sign, right))
            stack.append((sign, left))
        elif payload[0] in ("+*", "-*"):
            total, factor = args[slot]
            term = intern(_MUL, (intern(("const", payload[1]), ()), factor))
            stack.append((-sign if payload[0] == "-*" else sign, term))
            stack.append((sign, total))
        elif payload is _NEG:
            stack.append((-sign, args[slot][0]))
        else:
            terms.append((sign, slot))
    return terms


def _factors(payloads, args, term):
    """(sign, [(op, slot), ...]) with ``term`` = sign * (1 op slot ...): its
    '*'/'/' factors in reading order, with negations and parenthesised
    products opened."""
    sign, factors, stack = 1, [], [(_MUL, term)]
    while stack:
        op, slot = stack.pop()
        payload = payloads[slot]
        if payload is _MUL or payload is _DIV:
            left, right = args[slot]
            inverse = _DIV if op is _MUL else _MUL
            stack.append((op if payload is _MUL else inverse, right))
            stack.append((op, left))
        elif payload is _NEG:
            sign = -sign
            stack.append((op, args[slot][0]))
        else:
            factors.append((op, slot))
    return sign, factors


def separate(program):
    """A one-expression forcing ``program`` as sum_j g_j h_j + rest: three
    Programs over its table, whose roots are the g_j, the h_j and the rest.

    Each '+'/'-' term of the expression, with negations and parenthesised
    sums opened, is split along its '*'/'/' factors into the factors that
    read t alone, whose product is g_j, and the factors that read no t,
    constants included, whose product is h_j; either is 1 when it has no
    factors, and h_j carries the term's sign.  Terms whose g_j are one slot
    make one pair, whose h_j is the sum of theirs.  A term with a factor
    that reads both t and x goes whole into ``rest``, the sum of such
    terms (None when there is none).  The products and sums are interned
    into the table.
    """
    payloads, args = program._payloads, program._args
    intern = _interner(payloads, args)
    (root,) = program.roots
    terms = _terms(payloads, args, root, intern)
    reads_t, reads_x = [], []
    for payload, operands in zip(payloads, args):
        reads_t.append(payload is _T or any([reads_t[a] for a in operands]))
        reads_x.append(payload[0] == "x" or any([reads_x[a] for a in operands]))

    def product(factors):
        """The slot of 1 op factor ..., left-deep; the constant 1 for none."""
        slot = None
        for op, factor in factors:
            if slot is not None:
                slot = intern(op, (slot, factor))
            elif op is _MUL:
                slot = factor
            else:
                slot = intern(_DIV, (intern(_ONE, ()), factor))
        return intern(_ONE, ()) if slot is None else slot

    h_of_g, rest = {}, None
    for sign, term in terms:
        fsign, factors = _factors(payloads, args, term)
        if any(reads_t[f] and reads_x[f] for _, f in factors):
            if rest is None:
                rest = term if sign > 0 else intern(_NEG, (term,))
            else:
                rest = intern(_ADD if sign > 0 else _SUB, (rest, term))
            continue
        g = product([(op, f) for op, f in factors if reads_t[f]])
        h = product([(op, f) for op, f in factors if not reads_t[f]])
        sign *= fsign
        if g not in h_of_g:
            h_of_g[g] = h if sign > 0 else intern(_NEG, (h,))
        else:
            h_of_g[g] = intern(_ADD if sign > 0 else _SUB, (h_of_g[g], h))
    return (
        program._with_roots(list(h_of_g)),
        program._with_roots(list(h_of_g.values())),
        None if rest is None else program._with_roots([rest]),
    )


def sampler(program, x):
    """A callable t -> the values of a ``Program``'s roots at coordinates
    ``x`` (a sequence of float or complex scalars or arrays, not changed
    afterwards) and time ``t``, one value per root as computed, in the
    roots' order.

    The t-free slots run here, once; each call runs only the t-dependent
    slots, and raises TypeError if there are any and ``t`` is None.  No
    other error is raised: overflow and division by zero give an infinity
    or a NaN, with no numpy warning, and the callers check the values for
    finiteness.
    """
    held = [None] * len(program._payloads)
    with np.errstate(all="ignore"):
        program._exec(program._t_free, held, x, None)

    def sample(t):
        if t is None and program._t_dep:
            raise TypeError("the expressions read t, but no time t was given")
        vals = list(held)
        with np.errstate(all="ignore"):
            program._exec(program._t_dep, vals, x, t)
        return [vals[r] for r in program.roots]

    return sample


def evaluate(program, x, t=None):
    """The values of a ``Program``'s roots at coordinates ``x`` and time
    ``t``: one sample of ``sampler(program, x)``."""
    return sampler(program, x)(t)
