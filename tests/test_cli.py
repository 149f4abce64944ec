import numpy as np
import pytest

from opcauchy import cli
from opcauchy.cli import (
    ConfigError,
    load_problem,
    main,
    read_opc1,
    write_csv,
    write_opc1,
)
from opcauchy.multiplier import Field, mesh
from opcauchy.symbol_poly import Kind

HEAT_PRODUCT = """
[equation]
kind = first_order_product
m = 2
roots = 1 2

[operator]
dim = 1
terms = alpha=2: coeff=1

[grid]
shape = 32
box = 6.283185307179586

[initial]
phi0 = sin(x1)
phi1 = 0

[output]
times = 0.5, 1.0
"""

REPEATED_FORCED = """
[equation]
kind = repeated_root
m = 2

[operator]
dim = 1
terms = alpha=2: coeff=1

[grid]
shape = 16
box = 6.283185307179586

[initial]
phi0 = 0
phi1 = 0
phi2 = 0
phi3 = 0

[forcing]
f = cos(t)*sin(x1)

[output]
times = 0.5
"""

WAVE_3D = """
[equation]
kind = even_order_product
m = 2
roots = 1 2

[operator]
dim = 3
terms = alpha=2 0 0: coeff=1 ; alpha=0 2 0: coeff=1 ; alpha=0 0 2: coeff=1

[grid]
shape = 16 16 16
box = 6.283185307179586 6.283185307179586 6.283185307179586

[initial]
phi0 = cos(x1)+sin(x2)
phi1 = 0
phi2 = 0
phi3 = 0

[output]
times = 0.5
"""


def write_problem(tmp_path, text, name="problem.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadProblem:
    def test_heat_product(self, tmp_path):
        problem = load_problem(write_problem(tmp_path, HEAT_PRODUCT))
        assert problem.spec.kind is Kind.FIRST_ORDER_PRODUCT
        assert problem.spec.m == 2
        assert problem.shape == (32,)
        assert problem.t_points == (0.5, 1.0)
        x = mesh(problem.shape, problem.box)[0]
        assert np.max(np.abs(problem.phi[0].data - np.sin(x))) < 1e-14
        assert np.max(np.abs(problem.phi[1].data)) == 0

    def test_missing_phi1_rejected(self, tmp_path):
        broken = HEAT_PRODUCT.replace("phi1 = 0\n", "")
        with pytest.raises(ConfigError, match="phi1"):
            load_problem(write_problem(tmp_path, broken))

    def test_wrong_root_count_rejected(self, tmp_path):
        broken = HEAT_PRODUCT.replace("roots = 1 2", "roots = 1")
        with pytest.raises(ConfigError, match="roots"):
            load_problem(write_problem(tmp_path, broken))

    def test_unknown_kind_rejected(self, tmp_path):
        broken = HEAT_PRODUCT.replace("first_order_product", "mystery")
        with pytest.raises(ConfigError, match="kind"):
            load_problem(write_problem(tmp_path, broken))

    def test_bad_operator_term_rejected(self, tmp_path):
        broken = HEAT_PRODUCT.replace("alpha=2: coeff=1", "alpha=2 coeff=1")
        with pytest.raises(ConfigError, match="operator"):
            load_problem(write_problem(tmp_path, broken))

    def test_shape_box_mismatch_rejected(self, tmp_path):
        broken = HEAT_PRODUCT.replace("box = 6.283185307179586", "box = 6.28 6.28")
        with pytest.raises(ConfigError, match="grid"):
            load_problem(write_problem(tmp_path, broken))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_problem(str(tmp_path / "nope.ini"))

    def test_non_finite_initial_data_rejected(self, tmp_path, capsys):
        # x1 = 0 is a grid point, so 1/x1 is infinite there
        broken = HEAT_PRODUCT.replace("phi0 = sin(x1)", "phi0 = 1/x1")
        path = write_problem(tmp_path, broken)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ConfigError, match="phi0"):
                load_problem(path)
            code = main(["--mode", "solve", "--problem", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "phi0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_forcing_with_time(self, tmp_path):
        problem = load_problem(write_problem(tmp_path, REPEATED_FORCED))
        x = mesh(problem.shape, problem.box)[0]
        vals = problem.forcing(0.25)
        assert np.max(np.abs(vals - np.cos(0.25) * np.sin(x))) < 1e-14


class TestOpc1Format:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        shape, box = (8, 6), (2 * np.pi, 3.0)
        snaps = [
            (t, Field(shape, box, rng.normal(size=shape) + 1j * rng.normal(size=shape)))
            for t in (0.25, 0.5)
        ]
        path = tmp_path / "dump.opc"
        write_opc1(path, snaps, box)
        back = read_opc1(path)
        assert len(back) == 2
        for (t0, u0), (t1, u1) in zip(snaps, back):
            assert t0 == t1
            assert u1.shape == shape and u1.box == box
            assert np.array_equal(u0.data, u1.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.opc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_opc1(path)


class TestCsv:
    @pytest.mark.parametrize("chunk", [7, cli.CSV_CHUNK_ROWS])
    @pytest.mark.parametrize("shape", [(7,), (5, 6), (3, 4, 5)])
    def test_bytes_match_savetxt(self, tmp_path, monkeypatch, shape, chunk):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(62)
        box = tuple(2.0 + d for d in range(len(shape)))
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        data.flat[:4] = [complex(-0.0, -0.0), 1e-300, -1e300, complex(5e-324, -2.5e-310)]
        write_csv(tmp_path / "fast.csv", Field(shape, box, data), 0.25)
        cols = [c.ravel() for c in mesh(shape, box)] + [data.real.ravel(), data.imag.ravel()]
        header = ",".join([f"x{d + 1}" for d in range(len(shape))] + ["re_u", "im_u"])
        np.savetxt(tmp_path / "ref.csv", np.column_stack(cols), delimiter=",",
                   header=f"t = {0.25!r}\n{header}", fmt="%.17e")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestRunModes:
    def test_solve_writes_artifacts(self, tmp_path):
        problem = write_problem(tmp_path, HEAT_PRODUCT)
        out = tmp_path / "out"
        code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 0
        assert (out / "stability.txt").exists()
        assert (out / "solution_t0.csv").exists()
        snaps = read_opc1(out / "solution.opc")
        # CSV and binary must agree
        csv = np.loadtxt(out / "solution_t1.csv", delimiter=",", skiprows=2)
        u = snaps[1][1].data
        assert np.max(np.abs(csv[:, 1] + 1j * csv[:, 2] - u.ravel())) < 1e-12
        # and the t = 1 slice matches the known closed form
        x = mesh((32,), (2 * np.pi,))[0]
        expect = (2 * np.exp(-1) - np.exp(-2)) * np.sin(x)
        assert np.max(np.abs(u - expect)) < 1e-8

    def test_solve_deterministic(self, tmp_path):
        problem = write_problem(tmp_path, HEAT_PRODUCT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--mode", "solve", "--problem", problem, "--out", str(out1)]) == 0
        assert main(["--mode", "solve", "--problem", problem, "--out", str(out2)]) == 0
        assert (out1 / "solution.opc").read_bytes() == (out2 / "solution.opc").read_bytes()

    def test_repeated_forcing_needs_verdict(self, tmp_path, capsys):
        problem = write_problem(tmp_path, REPEATED_FORCED)
        out = tmp_path / "out"
        code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "probe" in err

    def test_probe_then_solve(self, tmp_path):
        problem = write_problem(tmp_path, REPEATED_FORCED)
        out = tmp_path / "out"
        assert main(["--mode", "probe", "--out", str(out)]) == 0
        assert (out / "probe_verdict.txt").exists()
        code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 0

    def test_verdict_is_read_per_run(self, tmp_path, capsys):
        # a probe into one directory does not resolve a solve into another
        problem = write_problem(tmp_path, REPEATED_FORCED)
        assert main(["--mode", "probe", "--out", str(tmp_path / "a")]) == 0
        code = main(["--mode", "solve", "--problem", problem, "--out", str(tmp_path / "b")])
        assert code == 2
        assert "probe" in capsys.readouterr().err
        assert not (tmp_path / "b" / "solution.opc").exists()

    def test_verify_mode(self, tmp_path):
        problem = write_problem(tmp_path, HEAT_PRODUCT)
        out = tmp_path / "out"
        assert main(["--mode", "verify", "--problem", problem, "--out", str(out)]) == 0
        text = (out / "verify.txt").read_text()
        residual = float(text.splitlines()[1].split("=")[1])
        assert residual < 1e-6

    def test_convergence_mode(self, tmp_path):
        problem = write_problem(tmp_path, HEAT_PRODUCT)
        out = tmp_path / "out"
        assert main(["--mode", "convergence", "--problem", problem, "--out", str(out)]) == 0
        rows = [
            line.split()
            for line in (out / "convergence.txt").read_text().splitlines()
            if not line.startswith("#")
        ]
        errs = [float(e) for _, e in rows]
        assert errs[-1] < 1e-10

    def test_compare_spherical_mode(self, tmp_path):
        problem = write_problem(tmp_path, WAVE_3D)
        out = tmp_path / "out"
        code = main(
            ["--mode", "compare-spherical", "--problem", problem,
             "--out", str(out), "--sphere-order", "21"]
        )
        assert code == 0
        rows = [
            line.split()
            for line in (out / "compare_spherical.txt").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert rows and all(float(err) < 1e-3 for _, _, err in rows)

    def test_non_finite_forcing_exit_2(self, tmp_path, capsys):
        forced = HEAT_PRODUCT.replace("[output]", "[forcing]\nf = cos(t)/x1\n\n[output]")
        problem = write_problem(tmp_path, forced)
        out = tmp_path / "out"
        with np.errstate(divide="ignore", invalid="ignore"):
            code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "forcing" in err
        assert not (out / "solution.opc").exists()

    def test_problem_required(self, capsys):
        assert main(["--mode", "solve"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--problem" in err[0]

    def test_main_maps_config_error_to_2(self, tmp_path, capsys):
        code = main(["--mode", "solve", "--problem", str(tmp_path / "missing.ini")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("times = 0.5, 1.0", "times = 1.0, 0.5"),
        ("times = 0.5, 1.0", "times = -0.5"),
        ("times = 0.5, 1.0", "times = nan"),
        ("times = 0.5, 1.0", "times = inf"),
        ("times = 0.5, 1.0", "times = 0.1, nan"),
        ("box = 6.283185307179586", "box = 0"),
        ("box = 6.283185307179586", "box = -6.28"),
        ("box = 6.283185307179586", "box = nan"),
    ])
    def test_bad_times_and_box_exit_2(self, tmp_path, capsys, old, new):
        problem = write_problem(tmp_path, HEAT_PRODUCT.replace(old, new))
        out = tmp_path / "out"
        code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("text,old,new,named", [
        (HEAT_PRODUCT, "m = 2", "m = two", "equation.m"),
        (HEAT_PRODUCT, "dim = 1", "dim = x", "operator.dim"),
        (WAVE_3D, "shape = 16 16 16", "shape = 8 8.5 8", "grid.shape"),
        (WAVE_3D, "shape = 16 16 16", "shape = 8 -4 8", "grid.shape"),
        (HEAT_PRODUCT, "box = 6.283185307179586", "box = abc", "grid.box"),
        (WAVE_3D, "alpha=2 0 0", "alpha=2.5 0 0", "operator term"),
        (HEAT_PRODUCT, "times = 0.5, 1.0", "times = 0.25, zz", "output.times"),
        (WAVE_3D, "m = 2\nroots = 1 2", "m = 1\nroots = 1", "m >= 2"),
        (REPEATED_FORCED, "m = 2", "m = 1", "m >= 2"),
        (HEAT_PRODUCT, "m = 2\nroots = 1 2", "m = 0\nroots =", "root"),
        (HEAT_PRODUCT, "coeff=1", "coeff=1 ; alpha=2: coeff=3", "duplicate"),
        (HEAT_PRODUCT, "roots = 1 2", "roots = nan 2", "roots must be finite"),
        (HEAT_PRODUCT, "roots = 1 2", "roots = inf 2", "roots must be finite"),
        (WAVE_3D, "roots = 1 2", "roots = 1 -inf", "roots must be finite"),
        (HEAT_PRODUCT, "roots = 1 2", "coeffs = 2 -3 nan", "coeffs must be finite"),
        (HEAT_PRODUCT, "coeff=1", "coeff=nan", "must be finite"),
        (HEAT_PRODUCT, "coeff=1", "coeff=1,inf", "must be finite"),
        (HEAT_PRODUCT, "alpha=2", "alpha=-2", "negative"),
    ], ids=["m", "dim", "shape", "negative-shape", "box", "alpha", "times", "even-m1", "repeated-m1",
            "first-m0", "duplicate-alpha", "roots-nan", "roots-inf", "even-roots-inf",
            "coeffs-nan", "coeff-nan", "coeff-inf", "negative-alpha"])
    def test_bad_numbers_exit_2(self, tmp_path, capsys, text, old, new, named):
        assert old in text
        problem = write_problem(tmp_path, text.replace(old, new))
        out = tmp_path / "out"
        code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("old,new,line", [
        ("phi0 = sin(x1)", "phi0 = sin(x1) + $",
         "error: initial.phi0: unexpected character '$' (at offset 9)"),
        ("phi1 = 0", "phi1 = x2", "error: initial.phi1: variable 'x2' outside dimension 1"),
        ("phi1 = 0", "phi1 = t", "error: initial.phi1: variable 't' not allowed here"),
        ("phi0 = sin(x1)", "phi0 = x1^0.5",
         "error: initial.phi0: '^' needs a constant integer exponent, got '0.5'"),
        ("[output]", "[forcing]\nf = cos(t)*sin(x1\n\n[output]",
         "error: forcing.f: expected ')' (at offset 13)"),
        ("[output]", "[forcing]\nf = cos(s)\n\n[output]",
         "error: forcing.f: unknown identifier 's'"),
        ("phi1 = 0", "phi1 = 1/x1", "error: initial.phi1 is not finite at every grid point"),
    ], ids=["syntax", "variable", "time", "exponent", "forcing-syntax", "forcing-variable",
            "non-finite"])
    def test_expression_errors_name_their_key(self, tmp_path, capsys, old, new, line):
        problem = write_problem(tmp_path, HEAT_PRODUCT.replace(old, new))
        out = tmp_path / "out"
        with np.errstate(divide="ignore", invalid="ignore"):
            code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    @pytest.mark.parametrize("field", [
        "(" * 3000 + "x1" + ")" * 3000,
        "-" * 3000 + "x1",
    ], ids=["parentheses", "unary-minus"])
    def test_deep_nesting_exit_2(self, tmp_path, capsys, field):
        problem = write_problem(tmp_path, HEAT_PRODUCT.replace("phi0 = sin(x1)", f"phi0 = {field}"))
        out = tmp_path / "out"
        code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: initial.phi0: nested deeper than")
        assert not out.exists()

    @pytest.mark.parametrize("old,new", [
        ("phi0 = sin(x1)", "phi0 = 1e308*sin(x1)"),
        ("[output]", "[forcing]\nf = 1e308*cos(t)*sin(x1)\n\n[output]"),
    ], ids=["data", "forcing"])
    def test_non_finite_output_exit_3(self, tmp_path, capsys, old, new):
        # finite samples whose Fourier sums overflow: no mode is predicted to grow
        problem = write_problem(tmp_path, HEAT_PRODUCT.replace(old, new))
        strict, permissive = tmp_path / "strict", tmp_path / "permissive"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["--mode", "solve", "--problem", problem, "--out", str(strict)]) == 3
            assert "not finite" in capsys.readouterr().out
            assert main(["--mode", "solve", "--problem", problem, "--out", str(permissive),
                         "--permissive-overflow"]) == 0
        for out in (strict, permissive):
            lines = (out / "stability.txt").read_text().splitlines()
            assert "overflowed_modes = 0" in lines
            counts = [int(line.split("=")[1]) for line in lines if line.startswith("nonfinite_modes")]
            bad = sum(int(np.count_nonzero(~np.isfinite(u.data)))
                      for _, u in read_opc1(out / "solution.opc"))
            assert len(counts) == 1 and counts[0] > 0 and bad > 0

    def test_finite_run_reports_zero_nonfinite(self, tmp_path):
        problem = write_problem(tmp_path, HEAT_PRODUCT)
        out = tmp_path / "out"
        assert main(["--mode", "solve", "--problem", problem, "--out", str(out)]) == 0
        assert "nonfinite_modes = 0" in (out / "stability.txt").read_text().splitlines()

    @pytest.mark.parametrize("flag,value", [
        ("--quad-nodes", "0"),
        ("--quad-nodes", "-3"),
        ("--sphere-order", "-2"),
    ])
    def test_bad_node_counts_exit_2(self, tmp_path, capsys, flag, value):
        problem = write_problem(tmp_path, WAVE_3D)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--mode", "compare-spherical", "--problem", problem, "--out", str(out),
                  flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()
