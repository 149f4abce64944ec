import copy
import gc
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcauchy.cli import load_problem
from opcauchy.errors import ExprSyntaxError, NonIntegerExponent, UnknownVariable
from opcauchy.exprparse import (
    FUNCTIONS,
    MAX_NESTING,
    BinOp,
    Call,
    Const,
    Neg,
    Pow,
    Program,
    Var,
    _apply,
    _parts,
    evaluate,
    parse,
    separate,
)
from opcauchy.multiplier import mesh, to_spectral


def walk(node, x, t=None):
    """The reference tree walk: each node's value from its operands' values."""
    kids, payload = _parts(node)
    return _apply(payload, [walk(c, x, t) for c in kids], x, t)


def pretty(node):
    """Deterministic text form; parse(pretty(parse(s))) is a fixpoint."""
    if isinstance(node, Const):
        v = node.value
        if v.imag == 0:
            return repr(v.real)
        if v.real == 0:
            return f"{v.imag!r}i" if v.imag >= 0 else f"(-{-v.imag!r}i)"
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


def ev(src, x, t=None, dim=None):
    dim = len(x) if dim is None else dim
    (value,) = evaluate(Program([parse(src, dim, allow_t=t is not None)]), x, t)
    return value


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
        ("x9", UnknownVariable, "variable 'x9' outside dimension 2"),
    ])
    def test_error_messages(self, src, error, message):
        with pytest.raises(error) as exc:
            parse(src, 2)
        assert str(exc.value) == message

    def test_nesting_limit(self):
        for depth, ok in ((MAX_NESTING, True), (MAX_NESTING + 1, False)):
            for src in ("(" * depth + "x1" + ")" * depth,
                        "-" * depth + "x1",
                        "sin(" * depth + "x1" + ")" * depth,
                        "-(" * (depth // 2) + "-" * (depth % 2) + "x1" + ")" * (depth // 2)):
                if ok:
                    (value,) = evaluate(Program([parse(src, 1)]), [np.array([0.5])])
                    assert np.isfinite(value).all()
                else:
                    with pytest.raises(ExprSyntaxError, match="nested deeper"):
                        parse(src, 1)


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
                a = walk(tree, x, 0.9)
                b = walk(reparsed, x, 0.9)
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


def _built_over(pool):
    """Trees over the subtrees in ``pool``, each reused as the same object
    and as structurally equal copies."""
    reused = st.sampled_from(pool)
    return st.recursive(reused | reused.map(copy.deepcopy), _grow, max_leaves=8)


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
    @example(  # the walk divides by t = 0 first, the Program overflows 1e300^3 first
        tree=parse("t^-1 + sin(1e300^3)", 3, allow_t=True), ts=[0.0])
    @given(tree=trees_with_repeats(), ts=st.lists(
        st.sampled_from([None, 0.0, -0.0, 0.3, 2.0, 710.0]), min_size=1, max_size=4))
    def test_bitwise_equal_to_tree_walk(self, tree, ts):
        program = Program([tree])
        for t in ts:
            expect = outcome(lambda: walk(tree, COORDS, t))
            got = outcome(lambda: evaluate(program, COORDS, t)[0])
            if isinstance(expect, type):
                # t-free slots run first, so the first error raised may differ
                assert isinstance(got, type)
            else:
                assert got == expect

    def test_repeated_subtree_runs_once(self, trig_calls):
        tree = parse("cos(7*x1+7*x2)*2+sin(7*x1+7*x2)-cos(7*x1+7*x2)", 2)
        (got,) = evaluate(Program([tree]), COORDS[:2])
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
            assert bits(g * h) == bits(np.cos(2 * complex(tau)) * np.sin(x[0].astype(complex)))

    def test_new_coordinates_are_not_served_stale(self):
        # each call evaluates afresh at its own coordinates; t*sin(x1)
        # carries the sign of a zero x1
        tree = parse("t*sin(x1)", 2, allow_t=True)
        program = Program([tree])
        first = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5)]
        second = [np.linspace(-3.0, 3.0, 5), np.linspace(0.5, 0.7, 5)]
        for xs, t in ((first, 0.1), (second, 0.2), (first, 0.3)):
            assert bits(evaluate(program, xs, t)[0]) == bits(walk(tree, xs, t))
        # coordinates changed in place: a value, then only the sign of a zero
        first[0][2] = 7.0
        assert bits(evaluate(program, first, 0.3)[0]) == bits(walk(tree, first, 0.3))
        first[0][0] = -0.0
        assert bits(evaluate(program, first, 0.3)[0]) == bits(walk(tree, first, 0.3))
        # scalars, then 0-d arrays of the same bytes, which the tree walk types apart
        tree = parse("(x2/x1+x1)*t", 2, allow_t=True)
        program = Program([tree])
        for xs in ([2.0, 3.0], [np.array(2.0), np.array(3.0)]):
            assert bits(evaluate(program, xs, 0.3)[0]) == bits(walk(tree, xs, 0.3))

    def test_compile_and_run_leave_no_reference_cycles(self):
        # intermediates and compile tables must be freed at once, not whenever
        # the cycle collector next runs
        tree = parse("exp(-t)*cos(2*x1)+sin(2*x1)*x2", 2, allow_t=True)
        gc.collect()
        gc.disable()
        try:
            program = Program([tree])
            evaluate(program, COORDS[:2], 0.5)
            evaluate(program, COORDS[:2])
            del program
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_program_keeps_no_tree(self):
        # a slot keeps its payload, not its node: a compiled tree is freed
        # once its caller drops it, and the Program still runs bitwise alike
        sources = ["exp(-t)*cos(2*x1)+sin(2*x1)*x2", "(x2*x1+x1)*t-(-0.0)*x1", "cos(2*x1)^3"]
        trees = [parse(s, 2, allow_t=True) for s in sources]
        expect = [walk(tree, COORDS[:2], 0.5) for tree in trees]
        program = Program(trees)
        roots = [weakref.ref(tree) for tree in trees]
        del trees
        assert [root() for root in roots] == [None] * len(sources)
        for got, want in zip(evaluate(program, COORDS[:2], 0.5), expect):
            assert bits(got) == bits(want)

    def test_3000_term_sum(self):
        n = 3000
        tree = parse("+".join(f"{k}*x1" for k in range(n)), 1)
        x = [np.array([1.0, 2.0])]
        assert np.array_equal(evaluate(Program([tree]), x)[0], n * (n - 1) // 2 * x[0])


def _trig_field(coeffs, waves):
    """sum_j coeffs[j] * (cos or sin, alternating)(waves[j // 2]) as text."""
    return "+".join(
        f"{c!r}*{'sin' if j % 2 else 'cos'}({waves[j // 2]})" for j, c in enumerate(coeffs)
    )


class TestMultiRoot:
    """One Program over several trees: every field of a problem file."""

    _A = BinOp("+", Call("sin", Var("x1")), BinOp("*", Var("x2"), Var("x3")))
    _B = Call("cos", BinOp("-", Var("x3"), Const(2j)))

    @settings(max_examples=200, deadline=None)
    @example(  # a root is also a term and a left operand of other roots
        trees=[_A, BinOp("+", _A, _B), BinOp("-", _B, _A), _A.left], ts=[None, 0.5])
    @given(trees=forests_with_repeats(), ts=st.lists(
        st.sampled_from([None, 0.0, -0.0, 0.3, 710.0]), min_size=1, max_size=3))
    def test_bitwise_equal_to_each_tree_walk(self, trees, ts):
        program = Program(trees)
        for t in ts:
            expect = [outcome(lambda tree=tree: walk(tree, COORDS, t)) for tree in trees]
            try:
                with np.errstate(all="ignore"):
                    got = [bits(v) for v in evaluate(program, COORDS, t)]
            except ArithmeticError:
                # which error comes first may differ: t-free slots run first
                assert any(isinstance(e, type) for e in expect)
            else:
                assert got == expect

    def test_fields_evaluate_shared_trig_once(self, tmp_path, trig_calls):
        waves = ["x1+2*x2", "3*x1-x2"]
        fields = [_trig_field([0.5 / (r + 1), -0.25, 1.0 + r, 2.0], waves) for r in range(6)]
        path = tmp_path / "even.ini"
        path.write_text(
            "[equation]\nkind = even_order_product\nm = 3\nroots = 1 1.5 2\n"
            "[operator]\ndim = 2\nterms = alpha=2 0: coeff=1 ; alpha=0 2: coeff=1\n"
            "[grid]\nshape = 8 8\nbox = 6.283185307179586 6.283185307179586\n"
            "[initial]\n" + "".join(f"phi{r} = {f}\n" for r, f in enumerate(fields))
            + "[output]\ntimes = 1\n"
        )
        problem = load_problem(str(path))
        assert trig_calls == {"cos": 2, "sin": 2}
        x = mesh(problem.shape, problem.box)
        for field, text in zip(problem.phi, fields):
            assert bits(field.data) == bits(walk(parse(text, 2), x))

    def test_shared_terms_released_term_by_term(self):
        # tree by tree, all 25 shared trig values would stay alive until the
        # last field read them
        shape = (16, 16, 16)
        x = mesh(shape, (2 * np.pi,) * 3)
        waves = [f"{j + 1}*x1+{j + 2}*x2-{j + 3}*x3" for j in range(13)]
        program = Program([
            parse(_trig_field([(j + 1) / (r + 1) for j in range(25)], waves), 3)
            for r in range(6)
        ])
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
        fields = ["sin(x1) + cos(2*x2-x3)*x1^2", "7*x2"]
        forcing = "cos(x2-t) + exp(-t)*sin(3*x1)*cos(x3) + 2*t"
        path = tmp_path / "mixed.ini"
        path.write_text(
            "[equation]\nkind = first_order_product\nm = 2\nroots = 1 2\n"
            "[operator]\ndim = 3\n"
            "terms = alpha=2 0 0: coeff=1 ; alpha=0 2 0: coeff=1 ; alpha=0 0 2: coeff=1\n"
            "[grid]\nshape = 4 6 8\nbox = 6.283185307179586 3.0 5.0\n"
            "[initial]\n" + "".join(f"phi{r} = {f}\n" for r, f in enumerate(fields))
            + f"[forcing]\nf = {forcing}\n[output]\ntimes = 1\n"
        )
        problem = load_problem(str(path))
        shape = problem.shape
        dense = np.broadcast_arrays(*mesh(shape, problem.box))
        for field, text in zip(problem.phi, fields):
            assert bits(field.data) == bits(walk(parse(text, 3), dense))
        pairs, rest = separate(parse(forcing, 3, allow_t=True))
        assert len(pairs) == 2 and rest is not None
        spatial = [np.broadcast_to(walk(h, dense), shape) for _, h in pairs]
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


def reads(node):
    """The variable names a tree reads."""
    if isinstance(node, Var):
        return {node.name}
    return set().union(*[reads(c) for c in _parts(node)[0]])


def recombined(pairs, rest, x, t):
    """sum_j g_j h_j + rest at (x, t), from one Program of all the parts."""
    trees = [g for g, _ in pairs] + [h for _, h in pairs] + ([rest] if rest else [])
    values = evaluate(Program(trees), x, t)
    n = len(pairs)
    total = sum(values[j] * values[n + j] for j in range(n))
    return total + (values[-1] if rest else 0)


_mild_leaves = st.one_of(
    st.sampled_from([0.5, 2.0, -1.5, 0.5j, 3.0]).map(lambda v: Const(complex(v))),
    st.sampled_from(["x1", "x2", "t"]).map(Var),
)
MILD_COORDS = [np.array([0.0, 0.5, -2.0, 1.3]), np.array([1.0, -0.25, 2.0, 0.75])]


class TestSeparate:
    def test_each_kind_of_term(self):
        tree = parse(
            "cos(2*t)*sin(3*x1) - cos(t*x1) + exp(-t) - 2*sin(x1)/(2+cos(x1)) + -(t+x1)*3", 1,
            allow_t=True)
        pairs, rest = separate(tree)
        assert len(pairs) == 3
        assert [reads(g) for g, _ in pairs] == [{"t"}, {"t"}, set()]
        assert [reads(h) for _, h in pairs] == [{"x1"}, set(), {"x1"}]
        assert reads(rest) == {"t", "x1"}
        x = [np.linspace(0.0, 6.0, 7)]
        for t in (0.0, 0.3, 2.0):
            expect = evaluate(Program([tree]), x, t)[0]
            assert np.allclose(recombined(pairs, rest, x, t), expect, rtol=1e-14, atol=1e-14)

    def test_no_rest_and_no_pairs(self):
        pairs, rest = separate(parse("t*x1*t/(x1+1)", 1, allow_t=True))
        assert rest is None and len(pairs) == 1
        pairs, rest = separate(parse("cos(t*x1) - sin(x1+t)", 1, allow_t=True))
        assert pairs == [] and reads(rest) == {"t", "x1"}

    def test_3000_factors_and_terms(self):
        # long products and sums are split without recursion
        n = 3000
        pairs, rest = separate(parse("*".join(["t", "x1"] * (n // 2)), 1, allow_t=True))
        assert rest is None and len(pairs) == 1
        pairs, rest = separate(parse("+".join(f"{k}*x1*t" for k in range(n)), 1, allow_t=True))
        assert rest is None and len(pairs) == n
        assert recombined(pairs, rest, [np.array([2.0])], 0.5) == n * (n - 1) // 2

    @settings(max_examples=300, deadline=None)
    @given(tree=st.recursive(_mild_leaves, _grow, max_leaves=10),
           t=st.sampled_from([0.0, 0.3, 1.7]))
    def test_parts_read_their_variables_and_add_up(self, tree, t):
        pairs, rest = separate(tree)
        assert all(reads(g) <= {"t"} and "t" not in reads(h) for g, h in pairs)
        try:
            with np.errstate(all="ignore"):
                expect = evaluate(Program([tree]), MILD_COORDS, t)[0]
                got = recombined(pairs, rest, MILD_COORDS, t)
        except ArithmeticError:
            return  # a constant divided by zero or overflowed
        finite = np.isfinite(expect) & np.isfinite(got)
        got, expect = (np.broadcast_to(v, finite.shape)[finite] for v in (got, expect))
        assert np.all(np.abs(got - expect) <= 1e-9 * (1.0 + np.abs(expect)))
