import copy
import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcauchy.cli import load_problem
from opcauchy.errors import ExprSyntaxError, NonIntegerExponent, UnknownVariable
from opcauchy.exprparse import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    Neg,
    Pow,
    Program,
    Var,
    evaluate,
    parse,
    pretty,
)
from opcauchy.multiplier import mesh


def ev(src, x, t=None, dim=None):
    dim = len(x) if dim is None else dim
    return evaluate(parse(src, dim, allow_t=t is not None), x, t)


class TestParsing:
    def test_simple_product(self):
        node = parse("sin(x1)*exp(-t)", 1, allow_t=True)
        assert isinstance(node, BinOp) and node.op == "*"
        assert node.left == Call("sin", Var("x1"))
        assert node.right == Call("exp", Neg(Var("t")))

    def test_precedence(self):
        # 1 + 2 * x1 ^ 2 parses as 1 + (2 * (x1^2))
        node = parse("1+2*x1^2", 1)
        assert node == BinOp("+", Const(1 + 0j), BinOp("*", Const(2 + 0j), Pow(Var("x1"), 2)))

    def test_unary_minus_binds_base(self):
        # -x1^2 is (-x1)^2 under this grammar
        assert ev("-2^2", [0.0], dim=1) == pytest.approx(4.0)

    def test_imaginary_literals(self):
        assert ev("i*i", [0.0], dim=1) == pytest.approx(-1.0)
        assert ev("3i", [0.0], dim=1) == pytest.approx(3j)
        assert ev("2+1.5i", [0.0], dim=1) == pytest.approx(2 + 1.5j)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse("x3", 2)

    def test_t_requires_permission(self):
        with pytest.raises(UnknownVariable):
            parse("t", 1, allow_t=False)
        assert parse("t", 1, allow_t=True) == Var("t")

    def test_non_integer_exponent(self):
        with pytest.raises(NonIntegerExponent):
            parse("2^x1", 1)
        with pytest.raises(NonIntegerExponent):
            parse("x1^1.5", 1)

    def test_one_power_per_factor(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1^2^3", 1)
        assert parse("(x1^2)^3", 1) == Pow(Pow(Var("x1"), 2), 3)

    def test_syntax_errors_carry_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("sin(x1", 1)
        assert exc.value.offset == 6
        with pytest.raises(ExprSyntaxError):
            parse("1 + ", 1)
        with pytest.raises(ExprSyntaxError):
            parse("x1 @ 2", 1)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownVariable):
            parse("tan(x1)", 1)


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

    def test_array_broadcast(self):
        x = np.linspace(0, 2 * np.pi, 17)
        got = ev("sin(x1)*2", [x])
        assert np.max(np.abs(got - 2 * np.sin(x))) < 1e-14


def random_tree(rng, depth, dim, allow_t):
    kind = rng.integers(0, 7 if depth > 0 else 2)
    if kind == 0:
        return Const(complex(round(float(rng.uniform(0, 9)), 3)))
    if kind == 1:
        names = [f"x{j}" for j in range(1, dim + 1)] + (["t"] if allow_t else [])
        return Var(str(rng.choice(names)))
    if kind == 2:
        return Neg(random_tree(rng, depth - 1, dim, allow_t))
    if kind == 3:
        fn = str(rng.choice(["sin", "cos", "exp", "sinh", "cosh", "abs"]))
        return Call(fn, random_tree(rng, depth - 1, dim, allow_t))
    if kind == 4:
        return Pow(random_tree(rng, depth - 1, dim, allow_t), int(rng.integers(0, 4)))
    op = str(rng.choice(["+", "-", "*", "/"]))
    return BinOp(
        op,
        random_tree(rng, depth - 1, dim, allow_t),
        random_tree(rng, depth - 1, dim, allow_t),
    )


class TestPretty:
    def test_round_trip_examples(self):
        for src in ("sin(x1)*exp(-t)", "1+2*x1^2", "-x1/(x2+3)", "3i*cos(t)"):
            dim, allow_t = 2, True
            text = pretty(parse(src, dim, allow_t))
            assert pretty(parse(text, dim, allow_t)) == text

    def test_random_tree_fixpoint(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            tree = random_tree(rng, 4, 3, True)
            text = pretty(tree)
            reparsed = parse(text, 3, allow_t=True)
            assert pretty(reparsed) == text
            x = [0.3, -0.7, 1.1]
            with np.errstate(divide="ignore", invalid="ignore"):
                a = evaluate(tree, x, 0.9)
                b = evaluate(reparsed, x, 0.9)
            if np.isfinite(a) and np.isfinite(b):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Compiled programs


def bits(value):
    """A value's type and raw bytes: equal only when bitwise equal."""
    return type(value), np.atleast_1d(np.asarray(value, complex)).tobytes()


def outcome(fn):
    """fn()'s bits, or the type of the error it raises: arithmetic, or a
    TypeError from reading t when no time is given."""
    try:
        with np.errstate(all="ignore"):
            return bits(fn())
    except (ArithmeticError, TypeError) as exc:
        return type(exc)


_leaves = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300, 700.0, 1e300]).map(
        lambda v: Const(complex(v, 0.0))),
    st.sampled_from([-0.0, -1.5, 2.5]).map(lambda v: Const(complex(0.0, v))),
    st.sampled_from(["x1", "x2", "x3", "t"]).map(Var),
)


def _grow(children):
    return st.one_of(
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(lambda a: Call(*a)),
        children.map(Neg),
        st.tuples(children, st.integers(-2, 3)).map(lambda a: Pow(*a)),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda a: BinOp(*a)),
    )


_subtrees = st.recursive(_leaves, _grow, max_leaves=6)


@st.composite
def trees_with_repeats(draw):
    """Trees built over a few subtrees, each reused as the same object and
    as structurally equal copies."""
    pool = draw(st.lists(_subtrees, min_size=1, max_size=3))
    reused = st.sampled_from(pool)
    return draw(st.recursive(reused | reused.map(copy.deepcopy), _grow, max_leaves=8))


# coordinates with signed zeros and values that overflow exp
COORDS = [
    np.array([0.0, -0.0, 0.5, -2.0, 710.0]),
    np.array([1.0, 3.0, -0.0, 1e-310, -800.0]),
    np.array([-1.0, 0.25, 2.0, 0.0, 40.0]),
]


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


class TestProgram:
    @settings(max_examples=300, deadline=None)
    @example(  # constants 0.0 and -0.0 are equal but not interchangeable
        tree=BinOp("-", BinOp("*", Var("x1"), Const(complex(-0.0, 0.0))),
                   BinOp("*", Var("x1"), Const(0j))),
        ts=[None],
    )
    @given(tree=trees_with_repeats(), ts=st.lists(
        st.sampled_from([None, 0.0, -0.0, 0.3, 2.0, 710.0]), min_size=1, max_size=4))
    def test_bitwise_equal_to_tree_walk(self, tree, ts):
        # t = None evaluates in one pass; a time keeps the t-free values
        program = Program(tree)
        for t in ts:
            expect = outcome(lambda: evaluate(tree, COORDS, t))
            assert outcome(lambda: evaluate(program, COORDS, t)) == expect

    def test_repeated_subtree_runs_once(self, trig_calls):
        tree = parse("cos(7*x1+7*x2)*2+sin(7*x1+7*x2)-cos(7*x1+7*x2)", 2)
        got = evaluate(Program(tree), COORDS[:2])
        assert trig_calls == {"cos": 1, "sin": 1}
        assert bits(got) == bits(evaluate(tree, COORDS[:2]))

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
        samples = [problem.forcing(*x, tau) for tau in taus]
        assert trig_calls == {"sin": 1, "cos": 64}
        for tau, got in zip(taus, samples):
            assert bits(got) == bits(np.cos(2 * complex(tau)) * np.sin(x[0].astype(complex)))

    def test_new_coordinates_are_not_served_stale(self):
        # sin(x1) and x2/x1+x1 are kept between calls; t*sin(x1) carries
        # the sign of a zero x1
        tree = parse("t*sin(x1)", 2, allow_t=True)
        program = Program(tree)
        first = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5)]
        second = [np.linspace(-3.0, 3.0, 5), np.linspace(0.5, 0.7, 5)]
        for xs, t in ((first, 0.1), (second, 0.2), (first, 0.3)):
            assert bits(evaluate(program, xs, t)) == bits(evaluate(tree, xs, t))
        # coordinates changed in place: a value, then only the sign of a zero
        first[0][2] = 7.0
        assert bits(evaluate(program, first, 0.3)) == bits(evaluate(tree, first, 0.3))
        first[0][0] = -0.0
        assert bits(evaluate(program, first, 0.3)) == bits(evaluate(tree, first, 0.3))
        # scalars, then 0-d arrays of the same bytes, which the tree walk types apart
        tree = parse("(x2/x1+x1)*t", 2, allow_t=True)
        program = Program(tree)
        for xs in ([2.0, 3.0], [np.array(2.0), np.array(3.0)]):
            assert bits(evaluate(program, xs, 0.3)) == bits(evaluate(tree, xs, 0.3))

    def test_compile_and_run_leave_no_reference_cycles(self):
        # intermediates and compile tables must be freed at once, not whenever
        # the cycle collector next runs
        tree = parse("exp(-t)*cos(2*x1)+sin(2*x1)*x2", 2, allow_t=True)
        gc.collect()
        gc.disable()
        try:
            program = Program(tree)
            evaluate(program, COORDS[:2], 0.5)
            evaluate(program, COORDS[:2])
            del program
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_3000_term_sum(self):
        n = 3000
        tree = parse("+".join(f"{k}*x1" for k in range(n)), 1)
        x = [np.array([1.0, 2.0])]
        assert np.array_equal(evaluate(Program(tree), x), n * (n - 1) // 2 * x[0])
