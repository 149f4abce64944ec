import dataclasses
import io
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcauchy import cli, kernels, oracle
from opcauchy.cli import (
    MAGIC,
    ConfigError,
    load_problem,
    main,
    read_opc1,
    write_csv,
    write_opc1,
)
from opcauchy.errors import InconclusiveProbe
from opcauchy.kernels import solve
from opcauchy.multiplier import Field, mesh, to_spectral
from opcauchy.oracle import mode_ode_solve
from opcauchy.symbol_poly import Kind, symbol_grid

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

EVEN_KIND = """
[equation]
kind = even_order_product
m = 3
roots = 1 1.5 2

[operator]
dim = 1
terms = alpha=2: coeff=1

[grid]
shape = 32
box = 6.283185307179586

[initial]
phi0 = 0
phi1 = 0
phi2 = 0
phi3 = 0
phi4 = 0
phi5 = 0

[output]
times = 0.5
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


CUBIC = """
[equation]
kind = first_order_product
m = 3
roots = 1 2 3

[operator]
dim = 1
terms = alpha=2: coeff=1

[grid]
shape = 32
box = 6.283185307179586

[initial]
phi0 = sin(x1)
phi1 = cos(2*x1)
phi2 = 0

[forcing]
f = cos(t)*sin(3*x1)

[output]
times = 0.5, 1.0
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
        # cos(t)*sin(x1) is one separable pair and leaves no rest
        assert problem.forced and problem.forcing is None
        (g,) = problem.time_profiles(0.25)
        (h,) = problem.spatial_profiles
        assert np.max(np.abs(g * h - np.cos(0.25) * np.sin(x))) < 1e-14
        expect = to_spectral(np.cos(0.25) * np.sin(x).astype(complex))
        assert np.max(np.abs(problem.forcing_hat(0.25) - expect)) < 1e-14

    def test_real_fields_stay_real_until_their_transform(self, tmp_path):
        text = (
            "[equation]\nkind = first_order_product\nm = 3\nroots = 1 2 3\n"
            "[operator]\ndim = 3\n"
            "terms = alpha=2 0 0: coeff=1 ; alpha=0 2 0: coeff=1 ; alpha=0 0 2: coeff=1\n"
            "[grid]\nshape = 6 5 4\nbox = 6.283185307179586 3.0 5.0\n"
            "[initial]\nphi0 = 0.5*cos(2*x1-x2+3*x3)+sin(x1+x3)\nphi1 = sin(3*x2)\nphi2 = 0\n"
            "[output]\ntimes = 1\n"
        )
        problem = load_problem(write_problem(tmp_path, text))
        multi, one_axis, zero = (f.data for f in problem.phi)
        assert [u.dtype for u in (multi, one_axis, zero)] == [np.float64] * 3
        assert zero.strides == (0, 0, 0) and one_axis.strides[0] == one_axis.strides[2] == 0
        for u in (multi, one_axis, zero):
            assert to_spectral(u).tobytes() == to_spectral(u.astype(complex)).tobytes()


class TestOpc1Format:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        shape, box = (8, 6), (2 * np.pi, 3.0)
        snaps = [
            (t, Field(shape, box, rng.normal(size=shape) + 1j * rng.normal(size=shape)))
            for t in (0.25, 0.5)
        ]
        path = tmp_path / "dump.opc"
        write_opc1(path, snaps)
        back = read_opc1(path)
        assert len(back) == 2
        for (t0, u0), (t1, u1) in zip(snaps, back):
            assert t0 == t1
            assert u1.shape == shape and u1.box == box
            assert np.array_equal(u0.data, u1.data)

    def test_round_trip_is_bitwise_for_special_values(self, tmp_path):
        parts = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-310, 1.5, -3e300]
        re, im = np.meshgrid(parts, parts, indexing="ij")
        data = np.empty(re.shape, complex)
        data.real, data.imag = re, im
        box = (1.0, 2.0)
        snaps = [(0.25, Field(data.shape, box, data)),
                 (0.5, Field(data.shape, box, data[::-1].copy()))]
        path = tmp_path / "special.opc"
        write_opc1(path, snaps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_opc1(path)
        for (t0, u0), (t1, u1) in zip(snaps, back):
            assert t1 == t0 and u1.data.flags.writeable
            assert np.array_equal(u1.data.view(np.uint64), u0.data.view(np.uint64))
        # the file layout: the header, then per time interleaved little-endian Re, Im
        header = MAGIC + struct.pack("<I2I2dI2d", 2, *data.shape, *box, 2, 0.25, 0.5)
        body = [np.column_stack([u.data.real.ravel(), u.data.imag.ravel()]).astype("<f8")
                for _, u in snaps]
        assert path.read_bytes() == header + b"".join(b.tobytes() for b in body)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.opc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_opc1(path)

    @staticmethod
    def damaged(tmp_path, edit):
        """The path of a two-snapshot file, its bytes passed through ``edit``."""
        shape, box = (4, 3), (1.0, 2.0)
        snaps = [(t, Field(shape, box, np.full(shape, t + 1j))) for t in (0.25, 0.5)]
        path = tmp_path / "damaged.opc"
        write_opc1(path, snaps)
        path.write_bytes(edit(path.read_bytes()))
        return path

    @pytest.mark.parametrize("cut", [6, 10, 20, 40])
    def test_cut_header_raises_value_error(self, tmp_path, cut):
        # the header is 4 + 4 + 2*4 + 2*8 + 4 + 2*8 = 52 bytes
        path = self.damaged(tmp_path, lambda raw: raw[:cut])
        with pytest.raises(ValueError, match="damaged.opc"):
            read_opc1(path)

    @pytest.mark.parametrize("cut", [52, 52 + 8, 52 + 16 * 12, 52 + 16 * 24 - 1])
    def test_cut_body_raises_value_error(self, tmp_path, cut):
        path = self.damaged(tmp_path, lambda raw: raw[:cut])
        with pytest.raises(ValueError, match="damaged.opc"):
            read_opc1(path)

    def test_trailing_bytes_raise_value_error(self, tmp_path):
        path = self.damaged(tmp_path, lambda raw: raw + b"\0")
        with pytest.raises(ValueError, match="damaged.opc: bytes after the last snapshot"):
            read_opc1(path)
        assert len(read_opc1(self.damaged(tmp_path, lambda raw: raw))) == 2

    @pytest.mark.parametrize("shape", [(2**30, 2**28), (2**31, 2**31)])
    def test_header_larger_than_the_file_raises_value_error(self, tmp_path, shape):
        # the sizes are checked against the file before any read: nothing is allocated
        path = self.damaged(tmp_path, lambda raw: raw[:8] + struct.pack("<2I", *shape) + raw[16:52]
                            + bytes(64))
        with pytest.raises(ValueError, match="damaged.opc"):
            read_opc1(path)


_TENS = np.array([float(f"1e{k}") for k in range(-323, 309)])

#: Values whose 18 digits are hard to get right, by kind; each is also
#: written negated.
TARGETED = {
    "next_to_powers_of_ten": np.concatenate(
        [np.nextafter(_TENS, 0), _TENS, np.nextafter(_TENS, np.inf)]
    ),
    # 1e153 is the double just below 10**153, and its 18 digits round up to
    # 1.00000000000000000e+153; the others end in 9s without carrying
    "decade_carries": np.array(
        [1e153, 9.999999999999999e17, 9.9999999999999999e16]
        + [float(f"9.999999999999999e{k}") for k in range(-308, 308, 7)]
    ),
    # m 2**-21 for odd m has 19 significant digits, the last a 5: a tie at 18
    "exact_ties": np.arange(2099, 20972, 2) * 2.0**-21,
    "extremes": np.array([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0]),
}


def pairs_field(values):
    """A 1-D field whose Re, Im are ``values`` in turn, padded with zeros."""
    values = np.asarray(values, np.float64)
    padded = np.zeros(max(4, values.size + values.size % 2))
    padded[: values.size] = values
    return Field((padded.size // 2,), (3.0,), padded.view(np.complex128))


def savetxt_bytes(u, t):
    """The bytes ``np.savetxt(fmt="%.17e")`` writes for ``u``, with the header
    ``write_csv`` writes."""
    points = np.broadcast_arrays(*mesh(u.shape, u.box))
    cols = [c.ravel() for c in points] + [u.data.real.ravel(), u.data.imag.ravel()]
    header = ",".join([f"x{d + 1}" for d in range(u.dim)] + ["re_u", "im_u"])
    buf = io.BytesIO()
    np.savetxt(buf, np.column_stack(cols), delimiter=",", header=f"t = {t!r}\n{header}",
               fmt="%.17e")
    return buf.getvalue()


class TestCsv:
    # 1: blocks of one row; 13: several blocks per chunk, and a partial last chunk
    @pytest.mark.parametrize("chunk", [1, 7, 13, cli.CSV_CHUNK_ROWS])
    @pytest.mark.parametrize("shape", [(7,), (5, 6), (3, 4, 5)])
    def test_bytes_match_savetxt(self, tmp_path, monkeypatch, shape, chunk):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(62)
        box = tuple(2.0 + d for d in range(len(shape)))
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        data.flat[:6] = [complex(-0.0, -0.0), 1e-300, -1e300, complex(5e-324, -2.5e-310),
                         complex(np.nan, -np.inf), complex(np.inf, 1.5e-123)]
        write_csv(tmp_path / "fast.csv", Field(shape, box, data), 0.25)
        points = np.broadcast_arrays(*mesh(shape, box))
        cols = [c.ravel() for c in points] + [data.real.ravel(), data.imag.ravel()]
        header = ",".join([f"x{d + 1}" for d in range(len(shape))] + ["re_u", "im_u"])
        np.savetxt(tmp_path / "ref.csv", np.column_stack(cols), delimiter=",",
                   header=f"t = {0.25!r}\n{header}", fmt="%.17e")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("case", sorted(TARGETED))
    def test_targeted_values_match_savetxt(self, tmp_path, case):
        values = np.concatenate([TARGETED[case], -TARGETED[case]])
        u = pairs_field(values)
        write_csv(tmp_path / "u.csv", u, 0.5)
        assert (tmp_path / "u.csv").read_bytes() == savetxt_bytes(u, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64))),
        min_size=1, max_size=64,
    ))
    def test_any_float_matches_savetxt(self, tmp_path_factory, values):
        u = pairs_field(values)
        path = tmp_path_factory.mktemp("csv") / "u.csv"
        write_csv(path, u, 0.5)
        assert path.read_bytes() == savetxt_bytes(u, 0.5)

    def test_peak_memory_of_a_32_cubed_write(self, tmp_path):
        # the text is built one chunk of rows at a time
        rng = np.random.default_rng(63)
        shape = (32, 32, 32)
        u = Field(shape, (2 * np.pi,) * 3, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "u.csv", u, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


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

    @pytest.mark.parametrize("forcing", ["sin(x1)", "exp(-t)", "cos(t*x1)"],
                             ids=["x-only", "t-only", "mixed"])
    def test_any_forcing_needs_verdict(self, tmp_path, capsys, forcing):
        # a forcing with no rest, or no separable pair, still makes the problem forced
        problem = write_problem(tmp_path, REPEATED_FORCED.replace("cos(t)*sin(x1)", forcing))
        code = main(["--mode", "solve", "--problem", problem, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "probe" in capsys.readouterr().err
        assert not (tmp_path / "out" / "solution.opc").exists()

    def test_verify_mode(self, tmp_path):
        problem = write_problem(tmp_path, HEAT_PRODUCT)
        out = tmp_path / "out"
        assert main(["--mode", "verify", "--problem", problem, "--out", str(out)]) == 0
        text = (out / "verify.txt").read_text()
        residual = float(text.splitlines()[1].split("=")[1])
        assert residual < 1e-6

    def test_verify_with_no_time_step_exits_2(self, tmp_path, capsys):
        # a last output time of 0 puts every snapshot at t = 0
        problem = write_problem(tmp_path, HEAT_PRODUCT.replace("times = 0.5, 1.0", "times = 0"))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--mode", "verify", "--problem", problem, "--out", str(out)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

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

    def test_memory_error_prints_only_the_error(self, tmp_path, capsys, monkeypatch):
        # a grid that does not fit ends the run with one line naming its shape
        def no_room(P, shape, box):
            raise MemoryError

        monkeypatch.setattr(kernels, "symbol_grid", no_room)
        problem = write_problem(tmp_path, HEAT_PRODUCT)
        out = tmp_path / "out"
        code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0] == "error: out of memory for the grid of shape 32"
        assert not (out / "solution.opc").exists()

    @pytest.mark.parametrize("old,new,named", [
        ("[output]", "[forcing]\nf = exp(1000*x1)*cos(t)\n\n[output]", "forcing"),
        ("[output]", "[forcing]\nf = exp(1000*t)*sin(x1)\n\n[output]", "forcing"),
        ("[output]", "[forcing]\nf = exp(1000*t*x1)\n\n[output]", "forcing"),
        ("phi0 = sin(x1)", "phi0 = 1/x1", "initial.phi0"),
    ], ids=["spatial-profile", "time-profile", "rest", "data"])
    def test_overflow_prints_only_the_error(self, tmp_path, capsys, old, new, named):
        # no errstate here: a numpy warning would be printed next to the error
        problem = write_problem(tmp_path, HEAT_PRODUCT.replace(old, new))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--mode", "solve", "--problem", problem, "--out", str(out)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
        assert not (out / "solution.opc").exists()

    @pytest.mark.parametrize("mode,old,new,line", [
        ("solve", "phi0 = sin(x1)", "phi0 = 1/0",
         "error: initial.phi0 is not finite at every grid point"),
        ("solve", "phi0 = sin(x1)", "phi0 = 0^-1",
         "error: initial.phi0 is not finite at every grid point"),
        ("solve", "[output]", "[forcing]\nf = (1/0)*cos(t)*sin(x1)\n\n[output]",
         "error: forcing.f is not finite at every grid point"),
        ("solve", "[output]", "[forcing]\nf = cos(t+1/0)*sin(x1)\n\n[output]",
         "error: forcing is not finite at t = "),
        ("solve", "[output]", "[forcing]\nf = cos(x1-t)*(t*1e300)^3\n\n[output]",
         "error: forcing is not finite at t = "),
        ("verify", "[output]", "[forcing]\nf = cos(x1-t)*(t*1e300)^3\n\n[output]",
         "error: forcing is not finite at t = "),
    ], ids=["data-division", "data-power", "spatial-profile", "time-profile", "rest",
            "rest-verify"])
    def test_scalar_arithmetic_faults_exit_2(self, tmp_path, capsys, mode, old, new, line):
        # numbers, like arrays, give inf or nan, which the finiteness checks report
        problem = write_problem(tmp_path, HEAT_PRODUCT.replace(old, new))
        out = tmp_path / "out"
        code = main(["--mode", mode, "--problem", problem, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(line)
        assert not out.exists()

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
        (WAVE_3D, "shape = 16 16 16", "shape = 1000000 1000000 1000000", "grid.shape"),
    ], ids=["m", "dim", "shape", "negative-shape", "box", "alpha", "times", "even-m1", "repeated-m1",
            "first-m0", "duplicate-alpha", "roots-nan", "roots-inf", "even-roots-inf",
            "coeffs-nan", "coeff-nan", "coeff-inf", "negative-alpha", "unaddressable-shape"])
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

    @pytest.mark.parametrize("fields,line", [
        ({0: "1 + 2 + 3 + x9", 3: "$"}, "error: initial.phi0: variable 'x9' outside dimension 1"),
        ({3: "sin(x1) + cos(x1) * (2"}, "error: initial.phi3: expected ')' (at offset 22)"),
        ({0: "cos(x1) + sin(x1) +", 5: None},
         "error: initial.phi0: unexpected token '' (at offset 19)"),
    ], ids=["two-bad", "one-bad", "bad-and-missing"])
    def test_first_bad_field_in_file_order_is_reported(self, tmp_path, capsys, fields, line):
        # the fields are parsed term by term, round-robin, yet the error is
        # the first one in file order, as if they were parsed one by one
        text = EVEN_KIND
        for r, field in fields.items():
            text = text.replace(f"phi{r} = 0\n", "" if field is None else f"phi{r} = {field}\n")
        out = tmp_path / "out"
        code = main(["--mode", "solve", "--problem", write_problem(tmp_path, text), "--out",
                     str(out)])
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

    def test_overflow_exit_3(self, tmp_path, capsys):
        # backward heat: mode -16 of a 32-point grid grows like e^(256 t), e^768 at t = 3
        text = HEAT_PRODUCT.replace("m = 2\nroots = 1 2", "m = 1\nroots = -1")
        text = text.replace("phi1 = 0\n", "").replace("times = 0.5, 1.0", "times = 3")
        problem = write_problem(tmp_path, text)
        strict, permissive = tmp_path / "strict", tmp_path / "permissive"
        assert main(["--mode", "solve", "--problem", problem, "--out", str(strict)]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == (
            "1 mode(s) overflowed; rerun with --permissive-overflow")
        assert main(["--mode", "solve", "--problem", problem, "--out", str(permissive),
                     "--permissive-overflow"]) == 0
        for out in (strict, permissive):
            lines = (out / "stability.txt").read_text().splitlines()
            assert "overflowed_modes = 1" in lines and "overflowed = -16" in lines

    def test_inconclusive_probe_exit_4(self, tmp_path, capsys, monkeypatch):
        def inconclusive(m, seed):
            raise InconclusiveProbe("neither repeated-root measure dominates")

        monkeypatch.setattr(oracle, "kernel_discrepancy_probe", inconclusive)
        out = tmp_path / "made" / "out"
        assert main(["--mode", "probe", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: neither repeated-root measure dominates"]
        # no verdict, and the directories the run made are gone
        assert not (tmp_path / "made").exists()

    @pytest.mark.parametrize("mode,text,old,new,line", [
        ("solve", HEAT_PRODUCT, "roots = 1 2", "roots = 1,2,3 2",
         "error: equation.roots: expected 're' or 're,im', got '1,2,3'"),
        ("solve", HEAT_PRODUCT, "[grid]", "[mesh]", "error: missing [grid] section"),
        ("solve", HEAT_PRODUCT, "box = 6.283185307179586\n", "",
         "error: missing key 'box' in [grid]"),
        ("solve", HEAT_PRODUCT, "alpha=2:", "alpha=2 0:",
         "error: operator term 'alpha=2 0: coeff=1': alpha must have 1 entries"),
        ("solve", HEAT_PRODUCT, "terms = alpha=2: coeff=1", "terms = ;",
         "error: operator: no terms given"),
        ("solve", HEAT_PRODUCT, "roots = 1 2\n", "", "error: equation: need 'roots' or 'coeffs'"),
        ("solve", HEAT_PRODUCT, "times = 0.5, 1.0", "times =",
         "error: output.times: need at least one time"),
        ("compare-spherical", HEAT_PRODUCT, "", "", "error: compare-spherical needs a 3-D problem"),
        ("compare-spherical", WAVE_3D, "roots = 1 2", "roots = -1 -2",
         "error: compare-spherical needs a positive real root as the speed"),
    ], ids=["pair", "section", "key", "alpha-count", "no-terms", "no-roots", "no-times",
            "spherical-dim", "spherical-speed"])
    def test_config_error_messages(self, tmp_path, capsys, mode, text, old, new, line):
        assert old in text
        problem = write_problem(tmp_path, text.replace(old, new))
        out = tmp_path / "out"
        assert main(["--mode", mode, "--problem", problem, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    @pytest.mark.parametrize("raw,named", [
        (("m = 2\n" + HEAT_PRODUCT).encode(), "File contains no section headers."),
        (HEAT_PRODUCT.replace("m = 2", "m = 2\nm = 3").encode(),
         "option 'm' in section 'equation' already exists"),
        ((HEAT_PRODUCT + "\n[grid]\nshape = 16\n").encode(), "section 'grid' already exists"),
        (HEAT_PRODUCT.replace("phi0 = sin(x1)", "phi0 = %(x)s").encode(),
         "initial.phi0: unexpected character '%'"),
        (HEAT_PRODUCT.replace("m = 2", "m = 2  # caf\xe9").encode("latin-1"),
         "can't decode byte 0xe9"),
        (REPEATED_FORCED.replace("m = 2", "m = 1100").encode(), "int too large to convert"),
    ], ids=["no-section", "repeated-key", "repeated-section", "percent", "not-utf8",
            "repeated-m-1100"])
    def test_malformed_problem_file_exit_2(self, tmp_path, capsys, raw, named):
        problem = tmp_path / "problem.ini"
        problem.write_bytes(raw)
        out = tmp_path / "made" / "out"
        assert main(["--mode", "solve", "--problem", str(problem), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert str(problem) in err[0] or "initial.phi0" in err[0]
        assert not (tmp_path / "made").exists()

    def test_finite_run_reports_zero_nonfinite(self, tmp_path):
        problem = write_problem(tmp_path, HEAT_PRODUCT)
        out = tmp_path / "out"
        assert main(["--mode", "solve", "--problem", problem, "--out", str(out)]) == 0
        assert "nonfinite_modes = 0" in (out / "stability.txt").read_text().splitlines()

    @pytest.mark.parametrize("flag,value", [
        ("--quad-nodes", "0"),
        ("--quad-nodes", "-3"),
        ("--sphere-order", "-2"),
        ("--seed", "-3"),
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


def artifact_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestArtifacts:
    """Every artifact is a new file, in a directory made before any work."""

    @pytest.mark.parametrize("mode,out,reason", [
        ("solve", "file", "File exists"),
        ("probe", "file/sub", "Not a directory"),
    ])
    def test_unusable_out_exit_2(self, tmp_path, capsys, monkeypatch, mode, out, reason):
        # the output directory fails before the problem is read
        monkeypatch.setattr(cli, "load_problem", None)
        (tmp_path / "file").write_text("not a directory\n")
        out = tmp_path / out
        code = main(["--mode", mode, "--problem", "p.ini", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out}: {reason}"]
        assert (tmp_path / "file").read_text() == "not a directory\n"

    def test_unwritable_artifact_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "solution.opc").mkdir(parents=True)
        code = main(["--mode", "solve", "--problem", write_problem(tmp_path, HEAT_PRODUCT),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write {out / 'solution.opc'}: Is a directory"
        ]

    def test_rewrite_makes_new_files(self, tmp_path):
        # a second solve into one --out writes the bytes of a solve into an empty one,
        # and a hard link to an earlier artifact, or a symlink at its path, keeps its bytes
        first = write_problem(tmp_path, HEAT_PRODUCT.replace("sin(x1)", "cos(2*x1)"), "first.ini")
        second = write_problem(tmp_path, HEAT_PRODUCT)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["--mode", "solve", "--problem", first, "--out", str(out)]) == 0
        before = artifact_bytes(out)
        for name in ["solution_t0.csv", "solution.opc"]:
            (tmp_path / f"link-{name}").hardlink_to(out / name)
        (tmp_path / "target.txt").write_text("kept\n")
        (out / "stability.txt").unlink()
        (out / "stability.txt").symlink_to(tmp_path / "target.txt")
        assert main(["--mode", "solve", "--problem", second, "--out", str(out)]) == 0
        assert main(["--mode", "solve", "--problem", second, "--out", str(fresh)]) == 0
        assert artifact_bytes(out) == artifact_bytes(fresh)
        for name in ["solution_t0.csv", "solution.opc"]:
            assert (tmp_path / f"link-{name}").read_bytes() == before[name]
            assert before[name] != (out / name).read_bytes()
        assert not (out / "stability.txt").is_symlink()
        assert (tmp_path / "target.txt").read_text() == "kept\n"

    def test_stale_csvs_are_removed(self, tmp_path):
        # a solve at two output times into the --out of one at four
        out = tmp_path / "out"
        four = write_problem(tmp_path, HEAT_PRODUCT.replace("0.5, 1.0", "0.25, 0.5, 0.75, 1.0"),
                             "four.ini")
        assert main(["--mode", "solve", "--problem", four, "--out", str(out)]) == 0
        others = ["solution_t02.csv", "solution_tx.csv", "solution_t3.txt", "t9.csv"]
        for name in others:
            (out / name).write_text("kept\n")
        two = write_problem(tmp_path, HEAT_PRODUCT)
        assert main(["--mode", "solve", "--problem", two, "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(
            ["solution.opc", "solution_t0.csv", "solution_t1.csv", "stability.txt", *others]
        )
        assert [t for t, _ in read_opc1(out / "solution.opc")] == [0.5, 1.0]


#: The three kinds on a 1-D Laplacian, with zero data and a forcing to fill in.
FORCED_KINDS = {
    "first": "kind = first_order_product\nm = 2\nroots = 1 2\n",
    "even": "kind = even_order_product\nm = 2\nroots = 1 2\n",
    "repeated": "kind = repeated_root\nm = 2\n",
}


def forced_problem(directory, kind, forcing, n=32, times="0.5"):
    """A loaded problem of ``kind`` on an n-point 1-D grid, zero data, the
    given forcing, and the tau' measure for the repeated root."""
    count = 2 if kind == "first" else 4
    text = (
        f"[equation]\n{FORCED_KINDS[kind]}\n"
        "[operator]\ndim = 1\nterms = alpha=2: coeff=1\n\n"
        f"[grid]\nshape = {n}\nbox = 6.283185307179586\n\n[initial]\n"
        + "".join(f"phi{r} = 0\n" for r in range(count))
        + f"\n[forcing]\nf = {forcing}\n\n[output]\ntimes = {times}\n"
    )
    path = directory / f"{kind}.ini"
    path.write_text(text)
    return dataclasses.replace(load_problem(str(path)), measure="tau_prime")


def spectra(problem):
    """The Fourier coefficients of every snapshot of ``solve(problem)``."""
    return [to_spectral(u.data) for _, u in solve(problem)[0]]


class TestSeparableForcing:
    """The forcing split into pairs g_j(t) h_j(x) and a rest, end to end."""

    CASES = {
        "rest-only": ("cos(t*x1)", lambda x, t: np.cos(t * x)),
        "mixed": ("cos(2*t)*sin(3*x1) + cos(t*x1) + exp(-t) + sin(x1)",
                  lambda x, t: np.cos(2 * t) * np.sin(3 * x) + np.cos(t * x) + np.exp(-t)
                  + np.sin(x)),
        "divided": ("cos(t)/(2+cos(x1))", lambda x, t: np.cos(t) / (2 + np.cos(x))),
        "merged": ("cos(t)*sin(x1) + cos(t)*cos(2*x1) + exp(-t)*sin(x1)",
                   lambda x, t: np.cos(t) * (np.sin(x) + np.cos(2 * x)) + np.exp(-t) * np.sin(x)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("kind", list(FORCED_KINDS))
    def test_every_mode_matches_oracle(self, tmp_path, kind, case):
        text, f = self.CASES[case]
        problem = forced_problem(tmp_path, kind, text)
        (uhat,) = spectra(problem)
        x = mesh(problem.shape, problem.box)[0]
        pgrid = symbol_grid(problem.P, problem.shape, problem.box)
        zeros = [0j] * problem.spec.data_count
        ref = np.array([
            mode_ode_solve(problem.spec, complex(pgrid[k]), zeros,
                           lambda tau, k=k: to_spectral(f(x, tau).astype(complex))[k], 0.5)
            for k in range(x.size)
        ])
        assert np.max(np.abs(uhat - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case,pairs,rest", [
        ("cos(2*t)*sin(3*x1) + exp(-t) + sin(x1)", 3, False),
        ("cos(2*t)*sin(3*x1) + cos(t*x1) + exp(-t) + sin(x1)", 3, True),
        # the terms with g = cos(t) are one pair, whose h is summed on the grid
        (CASES["merged"][0], 2, False),
    ], ids=["separable", "with-rest", "merged"])
    def test_each_spatial_profile_transformed_once(self, tmp_path, monkeypatch, case, pairs,
                                                   rest):
        problem = forced_problem(tmp_path, "first", case, times="0.1, 0.25, 0.5")
        assert len(problem.spatial_profiles) == pairs and (problem.forcing is not None) == rest
        transforms = []
        to_spectral_ = kernels.to_spectral
        monkeypatch.setattr(kernels, "to_spectral",
                            lambda a: transforms.append(a.shape) or to_spectral_(a))
        solve(problem, nodes=64)
        # the data, each profile once, and the rest at every node of every time
        per_node = 3 * 64 if rest else 0
        assert len(transforms) == problem.spec.data_count + pairs + per_node

    def test_traced_rest_leaves_solve_unchanged(self, tmp_path):
        # a tracer replaces the rest by a pass-through wrapper of it
        problem = forced_problem(tmp_path, "even", self.CASES["mixed"][0],
                                 times="0.1, 0.25, 0.5")
        rest = problem.forcing
        traced = dataclasses.replace(problem, forcing=lambda *a, **k: rest(*a, **k))
        for (_, u), (_, v) in zip(solve(problem)[0], solve(traced)[0]):
            assert np.array_equal(u.data, v.data)

    TERMS = st.sampled_from([
        "{a}*cos({k}*t)*sin({n}*x1)",  # separable
        "{a}*sin({n}*x1)/(2+cos(x1))",  # x-only
        "{a}*exp(-{k}*t)",  # t-only
        "{a}*cos({k}*t*x1)",  # mixed
        "{a}*(1+t)*cos({n}*x1+t)",  # a t-only factor times a mixed one
    ])
    FORCINGS = st.lists(
        st.builds(lambda term, a, k, n: term.format(a=a, k=k, n=n), TERMS,
                  st.sampled_from(["0.5", "-1.25", "2", "(1+2i)"]),
                  st.integers(1, 3), st.integers(0, 4)),
        min_size=1, max_size=4,
    ).map("+".join)

    @pytest.mark.parametrize("kind", list(FORCED_KINDS))
    @settings(max_examples=20, deadline=None)
    @given(f1=FORCINGS, f2=FORCINGS, c=st.sampled_from([-2.5, 0.75, 3.0]))
    def test_solution_is_linear_in_the_forcing(self, tmp_path_factory, kind, f1, f2, c):
        directory = tmp_path_factory.mktemp("linear")
        u1, u2, u12, uc = (
            spectra(forced_problem(directory, kind, f, n=16))[0]
            for f in (f1, f2, f"{f1}+{f2}", f"{c}*({f1})")
        )
        scale = max(np.max(np.abs(u)) for u in (u1, u2, u12, c * u1))
        assert np.max(np.abs(u12 - (u1 + u2))) <= 1e-13 * scale
        assert np.max(np.abs(uc - c * u1)) <= 1e-13 * scale


class TestCoefficientInput:
    """The first kind given by ``coeffs =``, its characteristic coefficients."""

    @staticmethod
    def solved(tmp_path, equation):
        """(the loaded problem, its snapshots from ``--mode solve``) for CUBIC's
        ``roots = 1 2 3`` replaced by ``equation``."""
        name = equation.split()[0]
        path = write_problem(tmp_path, CUBIC.replace("roots = 1 2 3", equation), f"{name}.ini")
        out = tmp_path / name
        assert main(["--mode", "solve", "--problem", path, "--out", str(out)]) == 0
        return load_problem(path), read_opc1(out / "solution.opc")

    def test_monic_coeffs_solve_like_their_roots(self, tmp_path):
        _, by_roots = self.solved(tmp_path, "roots = 1 2 3")
        problem, by_coeffs = self.solved(tmp_path, "coeffs = -6 11 -6 1")
        assert problem.spec.lead == 1
        for (_, u), (_, v) in zip(by_roots, by_coeffs):
            assert np.max(np.abs(u.data - v.data)) <= 1e-12

    def test_non_monic_coeffs_match_oracle(self, tmp_path):
        problem, snapshots = self.solved(tmp_path, "coeffs = -12 22 -12 2")
        assert problem.spec.lead == 2
        x = mesh(problem.shape, problem.box)[0]
        h = to_spectral(np.sin(3 * x))
        phihat = [to_spectral(f.data) for f in problem.phi]
        excited = np.flatnonzero(np.abs(h) + sum(np.abs(c) for c in phihat) > 1e-12)
        assert excited.size == 6  # k = +-1, +-2, +-3
        pgrid = symbol_grid(problem.P, problem.shape, problem.box)
        for t, u in snapshots:
            got = to_spectral(u.data)
            ref = np.array([
                mode_ode_solve(problem.spec, complex(pgrid[k]), [c[k] for c in phihat],
                               lambda tau, k=k: np.cos(tau) * h[k], t)
                for k in excited
            ])
            assert np.max(np.abs(got[excited] - ref)) <= 1e-12 * np.max(np.abs(ref))
