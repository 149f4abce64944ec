import functools
import gc
import operator
import re
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcauchy.cli import load_problem
from opcauchy.errors import ExprSyntaxError, NonIntegerExponent, UnknownVariable
from opcauchy.exprparse import FUNCTIONS, MAX_NESTING, Program, evaluate, sampler, separate
from opcauchy.multiplier import mesh, to_spectral

# ---------------------------------------------------------------------------
# Reference expressions: a tree of tuples, its source text and its walks.
# ("num", text) is a literal as a problem file spells it ("2.5", "1e300",
# "1.5i", "i"); ("var", name); ("neg", a); ("call", fn, a); ("pow", a, n);
# ("bin", op, a, b).


def num(text):
    return ("num", text)


def var(name):
    return ("var", name)


def neg(a):
    return ("neg", a)


def call(fn, a):
    return ("call", fn, a)


def power(a, n):
    return ("pow", a, n)


def binop(op, a, b):
    return ("bin", op, a, b)


X1, X2, X3, T = var("x1"), var("x2"), var("x3"), var("t")

_NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sinh": np.sinh, "cosh": np.cosh,
          "sqrt": np.sqrt, "abs": np.abs}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
#: The operations whose operands ``walk`` makes complex first ('^' too).
_COMPLEX_FIRST = {"/", "sqrt", "exp", "sinh", "cosh"}


def scaled(tree):
    """Whether ``tree`` is a real number literal times a factor, c*X."""
    return tree[:2] == ("bin", "*") and tree[2][0] == "num" and not tree[2][1].endswith("i")


def source(tree, top=True):
    """The problem-file text of ``tree``: every operation in parentheses,
    except a '+'/'-' chain at the top (``top``), which stays a chain of
    terms, and a c*X right of a '+'/'-', which stays ``c*X``."""
    kind = tree[0]
    if kind in ("num", "var"):
        return tree[1]
    if kind == "call":
        return f"{tree[1]}({source(tree[2])})"
    if kind == "neg":
        # unary minus binds tighter than '^', so a power needs parentheses
        inner = source(tree[1], top=False)
        return f"(-({inner}))" if tree[1][0] == "pow" else f"(-{inner})"
    if kind == "pow":
        return f"({source(tree[1])})^{tree[2]}"
    _, op, a, b = tree
    right = source(b, top=False)
    if op in "+-" and scaled(b):
        right = f"{b[2][1]}*{source(b[3], top=False)}"
    if top and op in "+-":
        return f"{source(a)}{op}{right}"
    return f"({source(a, top=False)}{op}{right})"


def as_complex(value):
    """``value`` as numpy complex: an array as a complex one, a number as an
    ``np.complex128``."""
    if isinstance(value, np.ndarray):
        return value.astype(complex)
    return np.complex128(value)


def walk(tree, x, t=None):
    """The reference value of ``tree`` at coordinates ``x`` and time ``t``,
    as computed: real constants, coordinates and the time stay real, the
    operands of '/', '^', sqrt, exp, sinh and cosh are made numpy complex
    unless they are made from abs values alone (so real in ``complex_walk``
    too), and each operation is applied by numpy, or Python on numbers, to
    its operands' values."""

    def value(tree):
        """(the value of ``tree``, whether it is made from abs values alone)."""
        kind = tree[0]
        if kind == "num":
            text = tree[1]
            if text == "i":
                return 1j, False
            if text.endswith("i"):
                imag = float(text[:-1])
                return (complex(0.0, imag) if imag else 0.0), False
            return float(text), False
        if kind == "var":
            if tree[1] != "t":
                return x[int(tree[1][1:]) - 1], False
            if t is None:
                raise TypeError("t read with no time given")
            return t, False
        parts = [value(k) for k in tree[1:] if isinstance(k, tuple)]
        vals = [v for v, _ in parts]
        from_abs = tree[:2] == ("call", "abs") or all([f for _, f in parts])
        if kind == "pow" or tree[1] in _COMPLEX_FIRST:
            vals = [v if f else as_complex(v) for v, f in parts]
        if kind == "neg":
            return -vals[0], from_abs
        if kind == "call":
            return _NUMPY[tree[1]](vals[0]), from_abs
        if kind == "pow":
            return vals[0] ** tree[2], from_abs
        return _OPS[tree[1]](*vals), from_abs

    return value(tree)[0]


def complex_walk(tree, x, t=None):
    """(value, finite): ``tree``'s value at ``x`` and ``t`` from a walk that
    makes every constant, coordinate and time a numpy complex and applies
    each operation by numpy, and whether every intermediate value was
    finite (per point)."""
    finite = [True]

    def value(tree):
        kind = tree[0]
        if kind == "num":
            text = tree[1]
            v = np.complex128(1j if text == "i" else (
                complex(0.0, float(text[:-1])) if text.endswith("i") else float(text)))
        elif kind == "var":
            v = t if tree[1] == "t" else x[int(tree[1][1:]) - 1]
            v = np.complex128(v) if np.isscalar(v) else np.asarray(v, complex)
        elif kind == "neg":
            v = -value(tree[1])
        elif kind == "call":
            v = _NUMPY[tree[1]](value(tree[2]))
        elif kind == "pow":
            v = value(tree[1]) ** tree[2]
        else:
            v = _OPS[tree[1]](value(tree[2]), value(tree[3]))
        finite[0] = finite[0] & np.isfinite(v)
        return v

    v = value(tree)
    return v, finite[0]


def canonical(tree):
    """``tree`` with each number replaced by its value."""
    if tree[0] == "num":
        return ("num", walk(tree, ()))
    return tuple(canonical(k) if isinstance(k, tuple) else k for k in tree)


def one_slot(tree):
    """Whether a Program reads ``tree``, a '+'/'-' as ``source`` prints it,
    as one slot total ± c*X: its right operand is c*X with X one token (a
    number, a variable, or a call whose argument's text holds no '(' and no
    '.')."""
    if tree[0] != "bin" or tree[1] not in "+-" or not scaled(tree[3]):
        return False
    x = tree[3][3]
    return x[0] in ("num", "var") or x[0] == "call" and not set(source(x[2])) & set("(.")


def distinct(tree):
    """The slots of a Program of ``source(tree)``: one per distinct subtree,
    numbers told apart by value, but one for a sum read as total ± c*X
    and none for its c and its c*X."""
    if one_slot(tree):
        return {("scaled", canonical(tree))} | distinct(tree[2]) | distinct(tree[3][3])
    found = {canonical(tree)}
    for kid in tree[1:]:
        if isinstance(kid, tuple):
            found |= distinct(kid)
    return found


def ev(src, x, t=None, dim=None):
    dim = len(x) if dim is None else dim
    (value,) = evaluate(Program([src], dim, allow_t=t is not None), x, t)
    return value


def bits(value):
    """A value's type, dtype and raw bytes: equal only when bitwise equal."""
    value_array = np.asarray(value)
    return type(value), value_array.dtype, np.atleast_1d(value_array).tobytes()


def outcome(fn):
    """fn()'s bits, or the type of the TypeError of a time read with none
    given, that it raises."""
    try:
        with np.errstate(all="ignore"):
            return bits(fn())
    except TypeError as exc:
        return type(exc)


# coordinates with signed zeros and values that overflow exp
COORDS = [
    np.array([0.0, -0.0, 0.5, -2.0, 710.0]),
    np.array([1.0, 3.0, -0.0, 1e-310, -800.0]),
    np.array([-1.0, 0.25, 2.0, 0.0, 40.0]),
]


class TestParsing:
    def test_simple_product(self):
        tree = binop("*", call("sin", X1), call("exp", neg(T)))
        assert bits(ev("sin(x1)*exp(-t)", COORDS[:1], 0.7)) == bits(walk(tree, COORDS[:1], 0.7))

    def test_precedence(self):
        # 1 + 2 * x1 ^ 2 parses as 1 + (2 * (x1^2))
        tree = binop("+", num("1"), binop("*", num("2"), power(X1, 2)))
        assert bits(ev("1+2*x1^2", COORDS[:1])) == bits(walk(tree, COORDS[:1]))

    def test_unary_minus_binds_base(self):
        # -x1^2 is (-x1)^2 under this grammar
        assert ev("-2^2", [0.0], dim=1) == pytest.approx(4.0)

    def test_imaginary_literals(self):
        assert ev("i*i", [0.0], dim=1) == pytest.approx(-1.0)
        assert ev("3i", [0.0], dim=1) == pytest.approx(3j)
        assert ev("2+1.5i", [0.0], dim=1) == pytest.approx(2 + 1.5j)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            Program(["x3"], 2)

    def test_t_requires_permission(self):
        with pytest.raises(UnknownVariable):
            Program(["t"], 1, allow_t=False)
        assert ev("t", [0.0], t=0.7) == 0.7

    def test_non_integer_exponent(self):
        with pytest.raises(NonIntegerExponent):
            Program(["2^x1"], 1)
        with pytest.raises(NonIntegerExponent):
            Program(["x1^1.5"], 1)

    def test_one_power_per_factor(self):
        with pytest.raises(ExprSyntaxError):
            Program(["x1^2^3"], 1)
        tree = power(power(X1, 2), 3)
        assert bits(ev("(x1^2)^3", COORDS[:1])) == bits(walk(tree, COORDS[:1]))

    def test_syntax_errors_carry_offset(self):
        with pytest.raises(ExprSyntaxError, match=r"\(at offset 6\)$"):
            Program(["sin(x1"], 1)
        with pytest.raises(ExprSyntaxError):
            Program(["1 + "], 1)
        with pytest.raises(ExprSyntaxError):
            Program(["x1 @ 2"], 1)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownVariable):
            Program(["tan(x1)"], 1)

    @pytest.mark.parametrize("src,error,message", [
        ("x1 @ 2", ExprSyntaxError, "unexpected character '@' (at offset 2)"),
        ("sin(x1)$", ExprSyntaxError, "unexpected character '$' (at offset 7)"),
        ("  $", ExprSyntaxError, "unexpected character '$' (at offset 0)"),
        ("x1 +\t@", ExprSyntaxError, "unexpected character '@' (at offset 4)"),
        ("1.5.3", ExprSyntaxError, "unexpected character '.' (at offset 3)"),
        ("(x1))", ExprSyntaxError, "trailing input ')' (at offset 4)"),
        ("(x1^2^3)", ExprSyntaxError, "expected ')' (at offset 5)"),
        ("sin x1", ExprSyntaxError, "expected '(' (at offset 4)"),
        ("x1 * * 2", ExprSyntaxError, "unexpected token '*' (at offset 5)"),
        ("   ", ExprSyntaxError, "unexpected token '' (at offset 3)"),
        ("3e+", ExprSyntaxError, "trailing input 'e' (at offset 1)"),
        ("x1^-", NonIntegerExponent, "'^' needs a constant integer exponent, got ''"),
        # numpy takes an exponent as a float, and raises for one beyond float64's range
        pytest.param("x1^-" + "9" * 309, ExprSyntaxError,
                     "exponent 99999999999999999999... too large (at offset 4)",
                     id="exponent-beyond-float64"),
        ("x9", UnknownVariable, "variable 'x9' outside dimension 2"),
        # in and next to a call read as one token, and after a '+'/'-' whose
        # term is read as total ± c*X when it is one
        ("2sin(x1)", ExprSyntaxError, "trailing input 'sin' (at offset 1)"),
        ("(2cos(x1))", ExprSyntaxError, "expected ')' (at offset 2)"),
        ("sin(x1*)", ExprSyntaxError, "unexpected token ')' (at offset 7)"),
        ("x1+2*sin(2x1)", ExprSyntaxError, "expected ')' (at offset 10)"),
        ("sin(1.2.3)", ExprSyntaxError, "unexpected character '.' (at offset 7)"),
        ("x1^cos(x1)", NonIntegerExponent, "'^' needs a constant integer exponent, got 'cos'"),
        ("cos(x1) + 2*sin", ExprSyntaxError, "expected '(' (at offset 15)"),
        ("x1 - 2 - )", ExprSyntaxError, "unexpected token ')' (at offset 9)"),
        ("x1 - 2*x9", UnknownVariable, "variable 'x9' outside dimension 2"),
    ])
    def test_error_messages(self, src, error, message):
        with pytest.raises(error) as exc:
            Program([src], 2)
        assert str(exc.value) == message

    @pytest.mark.parametrize("sources,source,message", [
        # the second expression fails in its first term, the first in its fourth
        (["1 + 2 + 3 + x9", "$"], 0, "variable 'x9' outside dimension 1"),
        (["1 + 2", "x1 + x1 * (2", "sin(x1) + x1 +"], 1, "expected ')' (at offset 12)"),
        (["x1 + 1 + 2 + 3", "x1", "x1 - 2 - )"], 2, "unexpected token ')' (at offset 9)"),
    ])
    def test_first_failing_source_is_reported(self, sources, source, message):
        # the expressions are read term by term, round-robin, but the error is
        # the one reading them one after another would raise first
        with pytest.raises((ExprSyntaxError, UnknownVariable)) as exc:
            Program(sources, 1)
        assert exc.value.source == source and str(exc.value) == message

    def test_nesting_limit(self):
        for depth, ok in ((MAX_NESTING, True), (MAX_NESTING + 1, False)):
            for src in ("(" * depth + "x1" + ")" * depth,
                        "-" * depth + "x1",
                        "sin(" * depth + "x1" + ")" * depth,
                        "-(" * (depth // 2) + "-" * (depth % 2) + "x1" + ")" * (depth // 2),
                        # the innermost call is one token, the second time read before
                        "(" * (depth - 1) + "cos(1+2*x1)" + ")" * (depth - 1),
                        "cos(x1)+" + "-" * (depth - 1) + "cos(x1)"):
                if ok:
                    (value,) = evaluate(Program([src], 1), [np.array([0.5])])
                    assert np.isfinite(value).all()
                else:
                    with pytest.raises(ExprSyntaxError, match="nested deeper"):
                        Program([src], 1)


class TestEvaluate:
    def test_exp_times_sin(self):
        got = ev("exp(t)*sin(x1)", [np.pi / 2], t=1.0)
        assert got == pytest.approx(np.e, abs=1e-14)

    def test_hand_checked_values(self):
        cases = [
            ("1+2*3", [0.0], None, 7.0),
            ("(1+2)*3", [0.0], None, 9.0),
            ("2^10", [0.0], None, 1024.0),
            ("2^-2", [0.0], None, 0.25),
            ("-x1", [1.5], None, -1.5),
            ("x1/x2", [3.0, 4.0], None, 0.75),
            ("sqrt(x1)", [9.0], None, 3.0),
            ("abs(-7)", [0.0], None, 7.0),
            ("sin(x1)^2+cos(x1)^2", [0.37], None, 1.0),
            ("sinh(x1)", [1.0], None, np.sinh(1.0)),
            ("cosh(x1)-sinh(x1)", [0.8], None, np.exp(-0.8)),
            ("exp(i*x1)", [np.pi], None, -1.0 + 0j),
            ("x1*x2*x3", [2.0, 3.0, 5.0], None, 30.0),
            ("1e2+1E-2", [0.0], None, 100.01),
            ("t^3-t", [0.0], 2.0, 6.0),
            ("cos(2*x1)", [0.25], None, np.cos(0.5)),
            ("x1-x1", [123.456], None, 0.0),
            ("3/2/2", [0.0], None, 0.75),
            ("1-2-3", [0.0], None, -4.0),
            ("exp(-(x1^2))", [1.3], None, np.exp(-1.69)),
        ]
        for src, x, t, expect in cases:
            assert ev(src, x, t) == pytest.approx(expect, abs=1e-12), src

    def test_numbers_made_complex_are_numpy_complex(self):
        got = ev("(1+2i)/(3+4i)", [])
        assert bits(got) == bits(np.complex128(1 + 2j) / np.complex128(3 + 4j))

    @pytest.mark.parametrize("src", ["1/0", "0^-1", "(1e300)^3"])
    def test_faulting_numbers_are_not_finite(self, src):
        assert not np.isfinite(ev(src, []))

    def test_array_broadcast(self):
        x = np.linspace(0, 2 * np.pi, 17)
        got = ev("sin(x1)*2", [x])
        assert np.max(np.abs(got - 2 * np.sin(x))) < 1e-14

    def test_real_values_stay_float64(self):
        x = np.linspace(0.0, 1.0, 5)
        got = ev("2*sin(x1)+x1", [x])
        assert got.dtype == np.float64 and got.tobytes() == (2 * np.sin(x) + x).tobytes()
        assert type(ev("2*t", [], t=0.5)) is float
        assert type(ev("x1", [np.float64(0.5)])) is np.float64
        assert type(ev("2", [])) is float
        assert ev("x1*i", [x]).dtype == complex

    def test_sqrt_of_a_negative_real_value_is_the_principal_root(self):
        # -cos(x1) is real: its sqrt is +i sqrt(cos(x1)) whatever the sign of
        # sin(x1); a walk over complex values follows the sign of the zero
        # imaginary part that cos(x1 + 0i) = cos(x1) - i sin(x1) sinh(0) leaves
        x = np.array([-1.0, -0.5, 0.5, 1.0])
        tree = call("sqrt", neg(call("cos", X1)))
        got = ev(source(tree), [x])
        assert np.array_equal(got, 1j * np.sqrt(np.cos(x)))
        with np.errstate(all="ignore"):
            old, _ = complex_walk(tree, [x])
        assert np.array_equal(old, np.where(np.sin(x) < 0, -1j, 1j) * np.sqrt(np.cos(x)))
        assert ev("sqrt(-4)", [0.0]) == 2j
        assert complex_walk(call("sqrt", neg(num("4"))), ())[0] == -2j

    def test_values_made_from_abs_alone_keep_the_real_operations(self):
        # abs is real in the complex walk too, so its exp, '/', '^' and
        # sqrt stay real there: the float64 exp(40) differs from the
        # complex one in the last bit on some numpy builds
        x = [np.array([-1.0, 0.25, 2.0, 0.0, 40.0]), np.array([3.0, -7.0, 0.5, 1e-310, 710.0])]
        for tree in (call("exp", call("abs", X1)),
                     call("cosh", neg(call("abs", X1))),
                     binop("/", call("abs", X1), call("abs", X2)),
                     power(binop("*", call("abs", X1), call("abs", X2)), 3),
                     call("sqrt", neg(call("abs", X2)))):
            with np.errstate(all="ignore"):
                got = ev(source(tree), x)
                expect, _ = complex_walk(tree, x)
            assert expect.dtype == float
            assert bits(got) == bits(expect), source(tree)
        assert ev("abs(x1)/abs(x2)", [3.0, 7.0]) == 3.0 / 7.0


def random_tree(rng, depth, dim, allow_t):
    kind = rng.integers(0, 7 if depth > 0 else 2)
    if kind == 0:
        return num(repr(round(float(rng.uniform(0, 9)), 3)))
    if kind == 1:
        names = [f"x{j}" for j in range(1, dim + 1)] + (["t"] if allow_t else [])
        return var(str(rng.choice(names)))
    if kind == 2:
        return neg(random_tree(rng, depth - 1, dim, allow_t))
    if kind == 3:
        fn = str(rng.choice(["sin", "cos", "exp", "sinh", "cosh", "abs"]))
        return call(fn, random_tree(rng, depth - 1, dim, allow_t))
    if kind == 4:
        return power(random_tree(rng, depth - 1, dim, allow_t), int(rng.integers(0, 4)))
    op = str(rng.choice(["+", "-", "*", "/"]))
    return binop(op, random_tree(rng, depth - 1, dim, allow_t),
                 random_tree(rng, depth - 1, dim, allow_t))


class TestPretty:
    """The reference trees' text: a Program of ``source(tree)`` has one slot
    per distinct subtree and the value of ``walk(tree)``."""

    def test_round_trip_examples(self):
        x = [0.3, -0.7]
        for tree in (
            binop("*", call("sin", X1), call("exp", neg(T))),
            binop("+", num("1"), binop("*", num("2"), power(X1, 2))),
            binop("/", neg(X1), binop("+", X2, num("3"))),
            binop("*", num("3i"), call("cos", T)),
            binop("-", binop("+", neg(power(X1, 2)), power(neg(X1), 2)), num("2.0")),
            binop("+", binop("*", X1, num("0.0")), binop("*", X1, num("0i"))),
            # one slot per total ± c*X, none for its c*X, which is not shared
            binop("-", binop("+", X1, binop("*", num("2"), call("sin", X2))),
                  binop("*", num("2"), call("sin", X2))),
            binop("+", binop("*", X1, binop("*", num("0.5"), T)),
                  binop("*", num("0.5"), T)),
            # a t-free c*X added to a total that reads t is one slot too
            binop("+", T, binop("*", num("2"), X1)),
        ):
            program = Program([source(tree)], 2, allow_t=True)
            assert len(program._payloads) == len(distinct(tree)), source(tree)
            assert bits(evaluate(program, x, 0.9)[0]) == bits(walk(tree, x, 0.9))

    def test_random_tree_fixpoint(self):
        rng = np.random.default_rng(55)
        x = [0.3, -0.7, 1.1]
        for _ in range(60):
            tree = random_tree(rng, 4, 3, True)
            program = Program([source(tree)], 3, allow_t=True)
            assert len(program._payloads) == len(distinct(tree))
            expect = outcome(lambda: walk(tree, x, 0.9))
            assert outcome(lambda: evaluate(program, x, 0.9)[0]) == expect


# ---------------------------------------------------------------------------
# Compiled programs


_REALS = ["0.0", "1.0", "2.5", "1e-300", "700.0", "1e300"]
_leaves = st.one_of(
    st.sampled_from(_REALS + ["0i", "1.5i", "i"]).map(num),
    st.sampled_from(["x1", "x2", "x3", "t"]).map(var),
)


def _grower(functions):
    """The step of ``st.recursive`` that grows trees calling ``functions``;
    a sum may add c*X, a real number literal times a tree."""

    def grow(children):
        return st.one_of(
            st.tuples(st.sampled_from(functions), children).map(lambda a: call(*a)),
            children.map(neg),
            st.tuples(children, st.integers(-2, 3)).map(lambda a: power(*a)),
            st.tuples(st.sampled_from("+-*/"), children, children).map(lambda a: binop(*a)),
            st.tuples(st.sampled_from("+-"), children, st.sampled_from(_REALS), children).map(
                lambda a: binop(a[0], a[1], binop("*", num(a[2]), a[3]))),
        )

    return grow


_grow = _grower(sorted(_NUMPY))


_subtrees = st.recursive(_leaves, _grow, max_leaves=6)


def _built_over(pool):
    """Trees over the subtrees in ``pool``, each used any number of times."""
    return st.recursive(st.sampled_from(pool), _grow, max_leaves=8)


@st.composite
def trees_with_repeats(draw):
    """Trees built over a few subtrees."""
    return draw(_built_over(draw(st.lists(_subtrees, min_size=1, max_size=3))))


@st.composite
def forests_with_repeats(draw):
    """Lists of 1-6 trees built over one pool of a few subtrees, so the
    trees share subtrees and sum terms."""
    pool = draw(st.lists(_subtrees, min_size=1, max_size=3))
    return draw(st.lists(_built_over(pool), min_size=1, max_size=6))


@pytest.fixture
def trig_calls(monkeypatch):
    """Counts of the sin and cos calls made through FUNCTIONS."""
    calls = Counter()
    for name in ("sin", "cos"):
        fn = FUNCTIONS[name]
        monkeypatch.setitem(
            FUNCTIONS, name, lambda v, fn=fn, name=name: calls.update([name]) or fn(v)
        )
    return calls


def _stiff_file(path, seed=3, n=256, fields=6):
    """An even-kind problem file like the bench's 1-D one: every field the
    sum of a*cos(k*x1) + b*sin(k*x1) over k = 1..n/2-1, 17-digit a and b."""
    rng = np.random.default_rng(seed)
    lines = []
    for r in range(fields):
        terms = []
        for k in range(1, n // 2):
            a, b = (float(v) / k for v in rng.normal(size=2))
            terms.append(f"{a!r}*cos({k}*x1)+{b!r}*sin({k}*x1)")
        lines.append(f"phi{r} = {'+'.join(terms).replace('+-', '-')}\n")
    path.write_text(
        "[equation]\nkind = even_order_product\nm = 3\nroots = 1 1.5 2\n"
        "[operator]\ndim = 1\nterms = alpha=2: coeff=1\n"
        f"[grid]\nshape = {n}\nbox = 6.283185307179586\n[initial]\n" + "".join(lines)
        + "[forcing]\nf = cos(2*t)*(0.5*cos(1*x1)-0.25*sin(1*x1))+exp(-t)*(0.01*cos(127*x1))\n"
        "[output]\ntimes = 0.1, 0.25, 0.5\n"
    )
    return str(path)


class TestProgram:
    @settings(max_examples=300, deadline=None)
    @example(  # a zero constant and a negated one are equal but not interchangeable
        tree=binop("-", binop("*", X1, neg(num("0.0"))), binop("*", X1, num("0.0"))),
        ts=[None],
    )
    @example(  # the walk divides by t = 0 first, the Program overflows 1e300^3 first
        tree=binop("+", power(T, -1), call("sin", power(num("1e300"), 3))), ts=[0.0])
    @example(  # number*factor after '+' and '-': total ± c*X, a call read as one token
        tree=binop("-", binop("+", call("cos", X1),
                              binop("*", num("2.5"), call("sin", binop(
                                  "+", X2, binop("*", num("3"), X3))))),
                   binop("*", num("0.5"), T)),
        ts=[None, 0.3])
    @example(tree=binop("+", T, binop("*", num("1e300"), X1)), ts=[0.0, 710.0])
    @example(  # abs(x1) + 2*abs(x1) is not made from abs values alone: sqrt widens it
        tree=call("sqrt", binop("+", call("abs", X1), binop("*", num("2"), call("abs", X1)))),
        ts=[None])
    @given(tree=trees_with_repeats(), ts=st.lists(
        st.sampled_from([None, 0.0, -0.0, 0.3, 2.0, 710.0]), min_size=1, max_size=4))
    def test_bitwise_equal_to_tree_walk(self, tree, ts):
        program = Program([source(tree)], 3, allow_t=True)
        for t in ts:
            expect = outcome(lambda: walk(tree, COORDS, t))
            got = outcome(lambda: evaluate(program, COORDS, t)[0])
            if isinstance(expect, type):
                # t-free slots run first, so the first error raised may differ
                assert isinstance(got, type)
            else:
                assert got == expect

    @settings(max_examples=300, deadline=None)
    @given(tree=trees_with_repeats(), x=st.sampled_from([COORDS, [0.0, -0.0, 710.0]]),
           t=st.sampled_from([None, 0.0, -0.0, 0.3, 710.0]))
    def test_arithmetic_never_raises(self, tree, x, t):
        # a fault gives a value that is not finite, of numbers as of arrays;
        # only a time read with none given raises
        program = Program([source(tree)], 3, allow_t=True)
        try:
            evaluate(program, x, t)
        except TypeError as exc:
            assert t is None and "no time t" in str(exc)

    def test_repeated_subtree_runs_once(self, trig_calls):
        wave = binop("+", binop("*", num("7"), X1), binop("*", num("7"), X2))
        tree = binop("-", binop("+", binop("*", call("cos", wave), num("2")), call("sin", wave)),
                     call("cos", wave))
        (got,) = evaluate(Program(["cos(7*x1+7*x2)*2+sin(7*x1+7*x2)-cos(7*x1+7*x2)"], 2),
                          COORDS[:2])
        assert trig_calls == {"cos": 1, "sin": 1}
        assert bits(got) == bits(walk(tree, COORDS[:2]))

    def test_forcing_samples_t_free_parts_once(self, tmp_path, trig_calls):
        path = tmp_path / "forced.ini"
        path.write_text(
            "[equation]\nkind = first_order_product\nm = 1\nroots = 1\n"
            "[operator]\ndim = 1\nterms = alpha=2: coeff=1\n"
            "[grid]\nshape = 16\nbox = 6.283185307179586\n"
            "[initial]\nphi0 = 0\n"
            "[forcing]\nf = cos(2*t)*sin(x1)\n"
            "[output]\ntimes = 1\n"
        )
        problem = load_problem(str(path))
        x = mesh(problem.shape, problem.box)
        taus = np.linspace(0.0, 1.0, 64)
        for tau in taus:
            problem.forcing_hat(tau)
        assert trig_calls == {"sin": 1, "cos": 64}
        (h,) = problem.spatial_profiles
        for tau in taus:
            (g,) = problem.time_profiles(tau)
            want = walk(call("cos", binop("*", num("2"), T)), (), tau) * walk(call("sin", X1), x)
            assert bits(g * h) == bits(want)

    def test_sample_without_time_raises(self):
        program = Program(["t*x1"], 1, allow_t=True)
        x = [np.array([1.0, 2.0])]
        with pytest.raises(TypeError, match="no time t"):
            evaluate(program, x)
        sample = sampler(program, x)
        with pytest.raises(TypeError, match="no time t"):
            sample(None)
        assert bits(sample(0.5)[0]) == bits(walk(binop("*", T, X1), x, 0.5))

    def test_program_reading_no_t_needs_no_time(self):
        tree = binop("*", num("2"), call("sin", X1))
        program = Program([source(tree)], 1, allow_t=True)
        assert bits(evaluate(program, COORDS[:1])[0]) == bits(walk(tree, COORDS[:1]))
        gs, hs, rest = separate(Program(["cos(t)*sin(x1)"], 1, allow_t=True))
        assert bits(evaluate(hs, COORDS[:1])[0]) == bits(walk(call("sin", X1), COORDS[:1]))

    @settings(max_examples=300, deadline=None)
    @example(  # an operand made from abs values alone stays real beside a complex one
        tree=binop("/", num("1.5i"), call("abs", num("2.5"))), t=0.0)
    @example(tree=binop("/", num("1e-300"), call("abs", num("1e-300"))), t=0.0)
    @given(tree=st.recursive(_leaves, _grower([f for f in sorted(_NUMPY) if f != "sqrt"]),
                             max_leaves=8),
           t=st.sampled_from([0.0, -0.0, 0.3, 2.0, 710.0]))
    def test_equal_as_numbers_to_complex_walk(self, tree, t):
        # real values stay real, so the values differ from a walk over
        # complex values at most in the sign of a zero, wherever that walk
        # stays finite; sqrt's branch follows such a sign, so it is left out
        with np.errstate(all="ignore"):
            expect, finite = complex_walk(tree, COORDS, t)
        (got,) = evaluate(Program([source(tree)], 3, allow_t=True), COORDS, t)
        got, expect, finite = np.broadcast_arrays(got, expect, finite)
        assert np.array_equal(got.real[finite], np.real(expect)[finite])
        assert np.array_equal(got.imag[finite], np.imag(expect)[finite])

    def test_slot_reading_one_operand_twice(self, trig_calls):
        # both operands are the one sin slot: it is read twice, then dropped
        tree = binop("*", call("sin", X1), call("sin", X1))
        (got,) = evaluate(Program([source(tree)], 1), COORDS[:1])
        assert trig_calls == {"sin": 1}
        assert bits(got) == bits(walk(tree, COORDS[:1]))

    def test_operand_widened_by_one_reader_stays_real_for_another(self):
        # '/' reads x1+1 as complex, '*' reads the same slot as float64
        wave = binop("+", X1, num("1"))
        tree = binop("+", binop("/", wave, num("2")), binop("*", wave, num("3")))
        for x in (COORDS[:1], [2.5]):
            assert bits(evaluate(Program([source(tree)], 1), x)[0]) == bits(walk(tree, x))

    def test_sampler_keeps_its_t_free_values_across_samples(self, trig_calls):
        # sin(x1) is t-free and read last by t-dependent slots: each sample
        # drops it from its own copy of the values, never from the held ones
        tree = binop("+", binop("*", call("sin", X1), T), binop("/", call("sin", X1), T))
        sample = sampler(Program([source(tree)], 1, allow_t=True), COORDS[:1])
        with np.errstate(all="ignore"):
            for t in (0.3, 2.0, 0.3, -0.0):
                assert bits(sample(t)[0]) == bits(walk(tree, COORDS[:1], t))
        assert trig_calls == {"sin": 1}

    def test_new_coordinates_are_not_served_stale(self):
        # each call evaluates afresh at its own coordinates; t*sin(x1)
        # carries the sign of a zero x1
        tree = binop("*", T, call("sin", X1))
        program = Program([source(tree)], 2, allow_t=True)
        first = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5)]
        second = [np.linspace(-3.0, 3.0, 5), np.linspace(0.5, 0.7, 5)]
        for xs, t in ((first, 0.1), (second, 0.2), (first, 0.3)):
            assert bits(evaluate(program, xs, t)[0]) == bits(walk(tree, xs, t))
        # coordinates changed in place: a value, then only the sign of a zero
        first[0][2] = 7.0
        assert bits(evaluate(program, first, 0.3)[0]) == bits(walk(tree, first, 0.3))
        first[0][0] = -0.0
        assert bits(evaluate(program, first, 0.3)[0]) == bits(walk(tree, first, 0.3))
        # scalars, then 0-d arrays of the same bytes, which the walk types apart
        tree = binop("*", binop("+", binop("/", X2, X1), X1), T)
        program = Program([source(tree)], 2, allow_t=True)
        for xs in ([2.0, 3.0], [np.array(2.0), np.array(3.0)]):
            assert bits(evaluate(program, xs, 0.3)[0]) == bits(walk(tree, xs, 0.3))

    def test_compile_and_run_leave_no_reference_cycles(self):
        # intermediates and compile tables must be freed at once, not whenever
        # the cycle collector next runs
        gc.collect()
        gc.disable()
        try:
            program = Program(["exp(-t)*cos(2*x1)+sin(2*x1)*x2"], 2, allow_t=True)
            evaluate(program, COORDS[:2], 0.5)
            gs, hs, rest = separate(program)
            evaluate(gs, (), 0.5)
            evaluate(hs, COORDS[:2])
            del program, gs, hs, rest
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_program_keeps_no_tree(self):
        # a Program holds its slot table alone: no source text, token or key
        # outlives parsing, and the Program still runs bitwise alike
        class Text(str):
            pass

        trees = [
            binop("+", binop("*", call("exp", neg(T)), call("cos", binop("*", num("2"), X1))),
                  binop("*", call("sin", binop("*", num("2"), X1)), X2)),
            binop("-", binop("*", binop("+", binop("*", X2, X1), X1), T),
                  binop("*", neg(num("0.0")), X1)),
            power(call("cos", binop("*", num("2"), X1)), 3),
        ]
        texts = [Text(source(tree)) for tree in trees]
        alive = [weakref.ref(text) for text in texts]
        program = Program(texts, 2, allow_t=True)
        del texts
        assert [ref() for ref in alive] == [None] * len(trees)
        held = gc.get_referents(*vars(program).values())
        assert not any(isinstance(obj, (dict, str)) for obj in held)
        for got, tree in zip(evaluate(program, COORDS[:2], 0.5), trees):
            assert bits(got) == bits(walk(tree, COORDS[:2], 0.5))

    def test_3000_term_sum(self):
        n = 3000
        program = Program(["+".join(f"{k}*x1" for k in range(n))], 1)
        x = [np.array([1.0, 2.0])]
        assert np.array_equal(evaluate(program, x)[0], n * (n - 1) // 2 * x[0])

    def test_loading_holds_no_trees(self, tmp_path):
        # the fields are parsed straight into slots and the keys are dropped
        # once parsing ends: 1.6 MB on CPython 3.11, where parsed trees of all
        # six fields, their compiled table and its keys, all live at once,
        # peaked at 2.8 MB
        path = _stiff_file(tmp_path / "even.ini")
        load_problem(path)  # imports and caches outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            load_problem(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6


class TestCallTokensAndScaledTerms:
    """A call whose argument holds no parenthesis is read once per Program,
    and a term c*X after a '+'/'-' is one slot total ± c*X."""

    def test_stiff_file_slots(self, tmp_path):
        # 6 fields of 254 terms a*cos(k*x1) or b*sin(k*x1): one slot per
        # distinct call, per k*x1 and its k, per later term, and per first
        # term's constant, its negation if any, and product
        text = open(_stiff_file(tmp_path / "even.ini")).read()
        fields = [line.partition(" = ")[2] for line in text.splitlines()
                  if line.startswith("phi")]
        program = Program(fields, 1)
        kinds = Counter(payload[0] for payload in program._payloads)
        assert kinds["call"] == len(set(re.findall(r"(?:cos|sin)\(\d+\*x1\)", text))) == 254
        assert kinds["+*"] + kinds["-*"] == 6 * 253 and kinds["+"] == kinds["-"] == 0
        negs = sum(field.startswith("-") for field in fields)
        assert len(program._payloads) == 254 + 6 * 253 + 2 * 127 + 1 + 6 * 2 + negs
        # and each field is the sum of its terms, added left to right
        x = [np.linspace(0.0, 2 * np.pi, 256, endpoint=False)]
        for field, got in zip(fields, evaluate(program, x)):
            total = None
            for sign, c, fn, k in re.findall(r"([+-]?)([0-9.e+-]+)\*(cos|sin)\((\d+)\*x1\)",
                                              field):
                term = _NUMPY[fn](float(k) * x[0])
                if total is None:
                    total = (-float(c) if sign == "-" else float(c)) * term
                else:
                    total = _OPS[sign](total, float(c) * term)
            assert bits(got) == bits(total)

    @pytest.mark.parametrize("src,pairs,rest", [
        # scaled sums at the top, one fused after another; t as X fuses too
        ("2*cos(3*x1) + 0.5*sin(x1) + 3*t - 2*cos(t*x1)",
         [(num("1.0"), binop("+", binop("*", num("2"), call("cos", binop("*", num("3"), X1))),
                             binop("*", num("0.5"), call("sin", X1)))),
          (T, num("3"))],
         neg(binop("*", num("2"), call("cos", binop("*", T, X1))))),
        # inside the groups of a pair and of the rest
        ("cos(t)*(0.5*cos(x1)-0.25*sin(2*x1)) + cos(t*x1)*(1+2*sin(x1))",
         [(call("cos", T), binop("-", binop("*", num("0.5"), call("cos", X1)),
                                 binop("*", num("0.25"), call("sin", binop("*", num("2"), X1)))))],
         binop("*", call("cos", binop("*", T, X1)),
               binop("+", num("1"), binop("*", num("2"), call("sin", X1))))),
        # a t-free c*X after a total that reads t, at the top and in a group
        ("t + 2*sin(x1) - 0.5*x1 + cos(t*x1)*(cos(t)+2*sin(x1))",
         [(T, num("1.0")),
          (num("1.0"), binop("-", binop("*", num("2"), call("sin", X1)),
                             binop("*", num("0.5"), X1)))],
         binop("*", call("cos", binop("*", T, X1)),
               binop("+", call("cos", T), binop("*", num("2"), call("sin", X1))))),
    ])
    def test_separate_opens_scaled_terms(self, src, pairs, rest):
        # the pairs and the rest are those of each term read as c*X
        gs, hs, got_rest = parts(src)
        x = MILD_COORDS[:1]
        assert [bits(h) for h in evaluate(hs, x)] == [bits(walk(h, x)) for _, h in pairs]
        for t in (0.0, 0.3, 1.7):
            want = [bits(walk(g, (), t)) for g, _ in pairs]
            assert [bits(g) for g in evaluate(gs, (), t)] == want
            assert bits(evaluate(got_rest, x, t)[0]) == bits(walk(rest, x, t))


def _wave(*coeffs):
    """sum_d coeffs[d] * x_{d+1} as a tree, a negative coefficient subtracted."""
    terms = [(c, binop("*", num(str(abs(c))), var(f"x{d + 1}"))) for d, c in enumerate(coeffs)]
    return functools.reduce(
        lambda total, term: binop("+" if term[0] > 0 else "-", total, term[1]),
        terms[1:], terms[0][1])


def _trig_field(coeffs, waves):
    """sum_j coeffs[j] * (cos or sin, alternating)(waves[j // 2]) as a tree."""
    terms = [
        binop("*", num(repr(abs(c))) if c >= 0 else neg(num(repr(-c))),
              call("sin" if j % 2 else "cos", waves[j // 2]))
        for j, c in enumerate(coeffs)
    ]
    return functools.reduce(lambda total, term: binop("+", total, term), terms)


class TestMultiRoot:
    """One Program over several expressions: every field of a problem file."""

    _A = binop("+", call("sin", X1), binop("*", X2, X3))
    _B = call("cos", binop("-", X3, num("2i")))

    @settings(max_examples=200, deadline=None)
    @example(  # a root is also a term and a left operand of other roots
        trees=[_A, binop("+", _A, _B), binop("-", _B, _A), _A[2]], ts=[None, 0.5])
    @given(trees=forests_with_repeats(), ts=st.lists(
        st.sampled_from([None, 0.0, -0.0, 0.3, 710.0]), min_size=1, max_size=3))
    def test_bitwise_equal_to_each_tree_walk(self, trees, ts):
        program = Program([source(tree) for tree in trees], 3, allow_t=True)
        for t in ts:
            expect = [outcome(lambda tree=tree: walk(tree, COORDS, t)) for tree in trees]
            try:
                with np.errstate(all="ignore"):
                    got = [bits(v) for v in evaluate(program, COORDS, t)]
            except TypeError:
                # which error comes first may differ: t-free slots run first
                assert any(isinstance(e, type) for e in expect)
            else:
                assert got == expect

    @settings(max_examples=100, deadline=None)
    @given(trees=forests_with_repeats(), t=st.sampled_from([None, 0.0, 0.3, 710.0]))
    def test_compiled_together_equal_each_compiled_alone(self, trees, t):
        sources = [source(tree) for tree in trees]
        alone = [outcome(lambda s=s: evaluate(Program([s], 3, allow_t=True), COORDS, t)[0])
                 for s in sources]
        try:
            with np.errstate(all="ignore"):
                together = [bits(v) for v in evaluate(Program(sources, 3, allow_t=True),
                                                      COORDS, t)]
        except TypeError:
            assert any(isinstance(a, type) for a in alone)
        else:
            assert together == alone

    def test_fields_evaluate_shared_trig_once(self, tmp_path, trig_calls):
        waves = [_wave(1, 2), _wave(3, -1)]
        fields = [_trig_field([0.5 / (r + 1), -0.25, 1.0 + r, 2.0], waves) for r in range(6)]
        path = tmp_path / "even.ini"
        path.write_text(
            "[equation]\nkind = even_order_product\nm = 3\nroots = 1 1.5 2\n"
            "[operator]\ndim = 2\nterms = alpha=2 0: coeff=1 ; alpha=0 2: coeff=1\n"
            "[grid]\nshape = 8 8\nbox = 6.283185307179586 6.283185307179586\n"
            "[initial]\n" + "".join(f"phi{r} = {source(f)}\n" for r, f in enumerate(fields))
            + "[output]\ntimes = 1\n"
        )
        problem = load_problem(str(path))
        assert trig_calls == {"cos": 2, "sin": 2}
        x = mesh(problem.shape, problem.box)
        for field, tree in zip(problem.phi, fields):
            assert bits(field.data) == bits(np.broadcast_to(walk(tree, x), problem.shape))

    def test_shared_terms_released_term_by_term(self):
        # field by field, all 25 shared trig values would stay alive until the
        # last field read them
        shape = (16, 16, 16)
        x = mesh(shape, (2 * np.pi,) * 3)
        waves = [_wave(j + 1, j + 2, -(j + 3)) for j in range(13)]
        program = Program([
            source(_trig_field([(j + 1) / (r + 1) for j in range(25)], waves))
            for r in range(6)
        ], 3)
        grid_bytes = np.empty(shape, complex).nbytes
        tracemalloc.start()
        try:
            values = evaluate(program, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == 6 and all(v.shape == shape for v in values)
        assert peak < (6 + 6) * grid_bytes


class TestBroadcastAxes:
    """Problem files are evaluated on the broadcast axes ``mesh`` returns."""

    def test_load_is_bitwise_a_walk_on_dense_coordinates(self, tmp_path):
        fields = [
            binop("+", call("sin", X1),
                  binop("*", call("cos", binop("-", binop("*", num("2"), X2), X3)), power(X1, 2))),
            binop("*", num("7"), X2),
        ]
        forcing = "cos(x2-t) + exp(-t)*sin(3*x1)*cos(x3) + 2*t"
        pairs = [
            (call("exp", neg(T)),
             binop("*", call("sin", binop("*", num("3"), X1)), call("cos", X3))),
            (T, num("2")),
        ]
        rest = call("cos", binop("-", X2, T))
        path = tmp_path / "mixed.ini"
        path.write_text(
            "[equation]\nkind = first_order_product\nm = 2\nroots = 1 2\n"
            "[operator]\ndim = 3\n"
            "terms = alpha=2 0 0: coeff=1 ; alpha=0 2 0: coeff=1 ; alpha=0 0 2: coeff=1\n"
            "[grid]\nshape = 4 6 8\nbox = 6.283185307179586 3.0 5.0\n"
            "[initial]\n" + "".join(f"phi{r} = {source(f)}\n" for r, f in enumerate(fields))
            + f"[forcing]\nf = {forcing}\n[output]\ntimes = 1\n"
        )
        problem = load_problem(str(path))
        shape = problem.shape
        dense = np.broadcast_arrays(*mesh(shape, problem.box))
        for field, tree in zip(problem.phi, fields):
            assert bits(field.data) == bits(walk(tree, dense))
        spatial = [np.broadcast_to(walk(h, dense), shape) for _, h in pairs]
        assert len(problem.spatial_profiles) == len(pairs)
        for got, want in zip(problem.spatial_profiles, spatial):
            assert bits(got) == bits(want)
        for t in (0.0, 0.3, 1.0):
            samples = walk(rest, dense, t)
            assert bits(np.broadcast_to(problem.forcing(t), shape)) == bits(samples)
            profiles = [walk(g, (), t) for g, _ in pairs]
            assert [bits(g) for g in problem.time_profiles(t)] == [bits(g) for g in profiles]
            want = to_spectral(samples)
            for g, h in zip(profiles, spatial):
                want = want + g * to_spectral(h)
            assert bits(problem.forcing_hat(t)) == bits(want)


class TestRealValues:
    """Real subexpressions are evaluated in float64; these are the facts that
    keep their values those of a walk over complex values."""

    @staticmethod
    def points():
        rng = np.random.default_rng(7)
        tiny = np.finfo(float).smallest_normal
        edge = [np.log(np.finfo(float).max), 710.4758600739439, 709.0895657128241, 710.0]
        special = [0.0, 5e-324, 1e-310, tiny, np.nextafter(tiny, 0), 1.0, np.pi, 1e5] + edge
        xs = np.concatenate([
            special, rng.uniform(-1e5, 1e5, 4000), rng.uniform(-800.0, 800.0, 4000),
            rng.uniform(700.0, 712.0, 4000), rng.uniform(-40.0, 40.0, 4000),
            rng.normal(size=1000) * 1e-300,
        ])
        return np.concatenate([xs, -xs])

    @staticmethod
    def with_imag(x, zero):
        """``x`` as complex with the imaginary part ``zero`` (0.0 or -0.0)."""
        z = x.astype(complex)
        z.imag = zero
        return z

    @pytest.mark.parametrize("fn", [np.sin, np.cos])
    def test_real_trig_is_the_real_part_of_complex_trig(self, fn):
        # sin and cos stay real: float64 values, of arrays and of numbers, are
        # bitwise the real part of complex128 ones at either zero imaginary part
        x = self.points()
        real = fn(x).view(np.int64)
        for zero in (0.0, -0.0):
            assert np.array_equal(real, fn(self.with_imag(x, zero)).real.view(np.int64))
            numbers = [fn(v) for v in x[::50].tolist()]
            complexes = [fn(complex(v, zero)).real for v in x[::50].tolist()]
            assert np.array_equal(np.array(numbers).view(np.int64), real[::50])
            assert np.array_equal(np.array(complexes).view(np.int64), real[::50])

    @pytest.mark.parametrize("fn", [np.exp, np.sinh, np.cosh])
    def test_complex_exp_ignores_the_sign_of_a_zero(self, fn):
        # exp, sinh and cosh take complex operands, since the SIMD float64
        # loops of some numpy builds differ from the complex ones in the last
        # bit: the real part of the complex value is the same at either zero
        # imaginary part, and the imaginary part is a zero
        x = self.points()
        with np.errstate(all="ignore"):
            plus, minus = (fn(self.with_imag(x, zero)) for zero in (0.0, -0.0))
        assert np.array_equal(plus.real.view(np.int64), minus.real.view(np.int64))
        assert not np.any(plus.imag) and not np.any(minus.imag)

    def test_trig_sum_file_transforms_like_the_complex_walk(self, tmp_path):
        # a 3-D trig-sum problem file with forcing: the Fourier coefficients
        # of its fields and spatial profiles are bitwise those of a walk over
        # complex values, and so are its forcing's
        rng = np.random.default_rng(11)
        ks = [(1, 0, 0), (0, 2, -1), (3, -1, 2), (1, 1, 1), (0, 0, 3), (2, -3, 1)]
        waves = [_wave(*k) for k in ks]
        fields = [_trig_field([float(c) / (r + 1) for c in rng.normal(size=2 * len(ks))], waves)
                  for r in range(6)]
        hs = [_trig_field([float(c) for c in rng.normal(size=2)], [wave]) for wave in waves[:3]]
        gs = [call("cos", binop("*", num("2"), T)), call("exp", neg(T)),
              binop("+", num("1"), binop("*", T, T))]
        forcing = "+".join(f"{source(g, top=False)}*({source(h)})" for g, h in zip(gs, hs))
        path = tmp_path / "trig.ini"
        path.write_text(
            "[equation]\nkind = even_order_product\nm = 3\nroots = 1 1.5 2\n"
            "[operator]\ndim = 3\n"
            "terms = alpha=2 0 0: coeff=1 ; alpha=0 2 0: coeff=1 ; alpha=0 0 2: coeff=1\n"
            "[grid]\nshape = 8 8 8\nbox = 6.283185307179586 6.283185307179586 6.283185307179586\n"
            "[initial]\n" + "".join(f"phi{r} = {source(f)}\n" for r, f in enumerate(fields))
            + f"[forcing]\nf = {forcing}\n[output]\ntimes = 0.5\n"
        )
        problem = load_problem(str(path))
        shape = problem.shape
        x = mesh(shape, problem.box)

        def coefficients(tree):
            return to_spectral(np.broadcast_to(complex_walk(tree, x)[0], shape))

        for field, tree in zip(problem.phi, fields):
            assert bits(to_spectral(field.data)) == bits(coefficients(tree))
        assert len(problem.spatial_profiles) == len(hs)
        for got, tree in zip(problem._spatial_hat, hs):
            assert bits(got) == bits(coefficients(tree))
        for t in (0.0, 0.3, 1.7):
            want = 0.0
            for g, h in zip(gs, hs):
                want = want + complex_walk(g, (), t)[0] * coefficients(h)
            assert bits(problem.forcing_hat(t)) == bits(want)


class _Unreadable:
    """Coordinates, or a time, that fail the test when read."""

    def __getitem__(self, axis):
        raise AssertionError(f"x{axis + 1} read")

    def __array__(self, *args, **kwargs):
        raise AssertionError("t read")


UNREAD = _Unreadable()


def parts(src, dim=1):
    """``separate`` of the forcing ``src``."""
    return separate(Program([src], dim, allow_t=True))


def recombined(gs, hs, rest, x, t):
    """sum_j g_j h_j + rest at (x, t)."""
    total = sum(g * h for g, h in zip(evaluate(gs, x, t), evaluate(hs, x, t)))
    return total + (evaluate(rest, x, t)[0] if rest else 0)


MILD_COORDS = [np.array([0.0, 0.5, -2.0, 1.3]), np.array([1.0, -0.25, 2.0, 0.75])]
_mild_leaves = st.one_of(
    st.sampled_from(["0.5", "2.0", "1.5", "0.5i", "3.0"]).map(num),
    st.sampled_from(["x1", "x2", "t"]).map(var),
)


class TestSeparate:
    def test_each_kind_of_term(self):
        src = "cos(2*t)*sin(3*x1) - cos(t*x1) + exp(-t) - 2*sin(x1)/(2+cos(x1)) + -(t+x1)*3"
        gs, hs, rest = parts(src)
        x = [np.linspace(0.0, 6.0, 7)]
        for t in (0.0, 0.3, 2.0):
            # the g_j read no x, the h_j no t
            assert np.allclose(evaluate(gs, UNREAD, t), [np.cos(2 * t), np.exp(-t), 1])
            want = [np.sin(3 * x[0]), 1, -2 * np.sin(x[0]) / (2 + np.cos(x[0]))]
            for got, h in zip(evaluate(hs, x, UNREAD), want):
                assert np.allclose(got, h, rtol=1e-14, atol=1e-14)
            assert np.allclose(evaluate(rest, x, t)[0], -np.cos(t * x[0]) - (t + x[0]) * 3)
            expect = ev(src, x, t)
            assert np.allclose(recombined(gs, hs, rest, x, t), expect, rtol=1e-14, atol=1e-14)

    def test_no_rest_and_no_pairs(self):
        gs, hs, rest = parts("t*x1*t/(x1+1)")
        assert rest is None and len(gs.roots) == len(hs.roots) == 1
        gs, hs, rest = parts("cos(t*x1) - sin(x1+t)")
        assert gs.roots == hs.roots == [] and rest is not None
        with pytest.raises(AssertionError, match="x1 read"):
            evaluate(rest, UNREAD, 0.5)
        with pytest.raises(AssertionError, match="t read"):
            evaluate(rest, MILD_COORDS[:1], UNREAD)

    def test_equal_time_profiles_make_one_pair(self):
        # the h_j of equal g_j are summed on the grid, before any transform
        gs, hs, rest = parts("cos(t)*sin(x1) + cos(t)*cos(2*x1) + exp(-t)*sin(x1) - cos(t)*x1")
        assert rest is None and len(gs.roots) == 2
        x = MILD_COORDS[:1]
        summed = binop("-", binop("+", call("sin", X1), call("cos", binop("*", num("2"), X1))), X1)
        assert [bits(h) for h in evaluate(hs, x)] == [
            bits(walk(summed, x)), bits(walk(call("sin", X1), x))]
        assert [bits(g) for g in evaluate(gs, (), 0.3)] == [
            bits(walk(call("cos", T), (), 0.3)), bits(walk(call("exp", neg(T)), (), 0.3))]

    def test_3000_factors_and_terms(self):
        # long products and sums are split without recursion
        n = 3000
        gs, hs, rest = parts("*".join(["t", "x1"] * (n // 2)))
        assert rest is None and len(gs.roots) == 1
        gs, hs, rest = parts("+".join(f"x1*cos({k}*t)" for k in range(n)))
        assert rest is None and len(gs.roots) == n
        # every g_j is t: one pair, whose h_j sums all 3000 terms
        gs, hs, rest = parts("+".join(f"{k}*x1*t" for k in range(n)))
        assert rest is None and len(gs.roots) == 1
        assert recombined(gs, hs, rest, [np.array([2.0])], 0.5) == n * (n - 1) // 2

    @settings(max_examples=300, deadline=None)
    @given(tree=st.recursive(_mild_leaves, _grow, max_leaves=10),
           t=st.sampled_from([0.0, 0.3, 1.7]))
    def test_parts_read_their_variables_and_add_up(self, tree, t):
        program = Program([source(tree)], 2, allow_t=True)
        gs, hs, rest = separate(program)
        with np.errstate(all="ignore"):
            evaluate(gs, UNREAD, t)  # the g_j read no x
            evaluate(hs, MILD_COORDS, UNREAD)  # and the h_j no t
            expect = evaluate(program, MILD_COORDS, t)[0]
            got = recombined(gs, hs, rest, MILD_COORDS, t)
        finite = np.isfinite(expect) & np.isfinite(got)
        got, expect = (np.broadcast_to(v, finite.shape)[finite] for v in (got, expect))
        assert np.all(np.abs(got - expect) <= 1e-9 * (1.0 + np.abs(expect)))


def reference_schedule(program, n):
    """(t_free, t_dep, last, widen, from_abs) of ``program`` by the
    definitions, over the first ``n`` slots of its table: a slot depends on
    t if it is t or an operand does; it is made from abs values alone if it
    is an abs call or has operands, all made from abs values alone; the
    operands of '/', '^', sqrt, exp, sinh and cosh that are not are made
    complex first (``widen``, per operand)."""
    payloads, args = program._payloads[:n], program._args[:n]
    read, stack = set(), list(program.roots)
    while stack:
        i = stack.pop()
        if i not in read:
            read.add(i)
            stack.extend(args[i])
    tdep, from_abs, widen = {}, {}, {}
    for i in range(n):
        payload, operands = payloads[i], args[i]
        tdep[i] = payload == ("t",) or any(tdep[a] for a in operands)
        # total ± c*X reads c too, a constant and so no abs value
        from_abs[i] = payload == ("call", "abs") or bool(operands) and all(
            from_abs[a] for a in operands) and payload[0] not in ("+*", "-*")
        if payload[0] == "^" or payload == ("/",) or payload[:1] == ("call",) and (
                payload[1] in _COMPLEX_FIRST):
            widen[i] = tuple(not from_abs[a] for a in operands)
        else:
            widen[i] = (False,) * len(operands)
    order = sorted(read)
    t_free = [i for i in order if not tdep[i]]
    t_dep = [i for i in order if tdep[i]]
    last = [None] * n
    for i in t_free + t_dep:
        for a in args[i]:
            last[a] = i
    for r in program.roots:
        last[r] = None
    return t_free, t_dep, last, {i: widen[i] for i in order}, from_abs


class TestSchedule:
    """Each slot's classification, from its operands' flags, against the
    definitions applied to the whole table."""

    @settings(max_examples=200, deadline=None)
    @example(trees=[binop("/", call("abs", X1), power(call("abs", binop("-", T, X1)), 2))])
    @example(trees=[binop("-", call("abs", X1), binop("*", num("2"), call("abs", X2)))])
    @given(trees=st.one_of(trees_with_repeats().map(lambda tree: [tree]), forests_with_repeats()))
    def test_classification_matches_the_definitions(self, trees):
        program = Program([source(tree) for tree in trees], 3, allow_t=True)
        programs = [program]
        if len(trees) == 1:  # and the views that separate makes
            programs += [view for view in separate(program) if view is not None]
        n = len(program._payloads)
        for prog in programs:
            t_free, t_dep, last, widen, _ = reference_schedule(prog, len(prog._last))
            assert (prog._t_free, prog._t_dep, prog._last) == (t_free, t_dep, last)
            got = {i: tuple(bool(prog._widen[i] >> k & 1) for k in range(len(prog._args[i])))
                   for i in widen}
            assert got == widen
        # a slot's made-from-abs flag, read as whether a sqrt of it widens it
        from_abs = reference_schedule(program, n)[4]
        for i in range(n):
            program._payloads.append(("call", "sqrt"))
            program._args.append((i,))
        probe = program._with_roots(list(range(n, 2 * n)))
        assert [not probe._widen[n + i] for i in range(n)] == [from_abs[i] for i in range(n)]
