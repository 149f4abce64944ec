"""Problem files, run orchestration, and output emission.

Problem files are flat INI-style text (see README for the full format):

    [equation]  kind, m, roots = re,im ...   (or coeffs = re,im ...)
    [operator]  dim, terms = alpha=2: coeff=1 ; ...
    [grid]      shape, box
    [initial]   phi0 = expr, phi1 = expr, ...
    [forcing]   f = expr            (optional)
    [output]    times = 0.25,0.5,1

Exit codes: 0 success, 2 validation error, 3 numerical-flag failure,
4 inconclusive probe.
"""

from __future__ import annotations

import argparse
import configparser
import enum
import itertools
import struct
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import exprparse, oracle
from .errors import InconclusiveProbe, OpcauchyError
from .kernels import CauchyProblem, sinhc_sqrt, solve
from .multiplier import Field, apply_multiplier, mesh
from .spherical import SphereQuadrature, sinhc_spherical
from .symbol_poly import CharacteristicSpec, Kind, SymbolPolynomial

VERDICT_FILENAME = "probe_verdict.txt"
MAGIC = b"OPC1"


class Mode(enum.Enum):
    SOLVE = "solve"
    VERIFY = "verify"
    PROBE = "probe"
    CONVERGENCE = "convergence"
    COMPARE_SPHERICAL = "compare-spherical"


@dataclass(frozen=True)
class RunConfig:
    mode: Mode
    problem: str = None
    quad_nodes: int = 64
    sphere_order: int = 29
    out: str = "out"
    seed: int = 0
    permissive_overflow: bool = False


class ConfigError(OpcauchyError):
    """Problem-file validation failure (exit code 2)."""


def _number(text, key, kind=float):
    """``kind(text)``; a malformed number becomes a ConfigError naming ``key``."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {text.strip()!r}") from None


def _parse_complex_pair(text, key):
    parts = text.split(",")
    if len(parts) > 2:
        raise ConfigError(f"{key}: expected 're' or 're,im', got {text!r}")
    return complex(*(_number(part, key) for part in parts))


def _parse_complex_list(text, key):
    return [_parse_complex_pair(tok, key) for tok in text.split()]


def _require(cfg, section, key=None):
    if section not in cfg:
        raise ConfigError(f"missing [{section}] section")
    if key is None:
        return cfg[section]
    if key not in cfg[section]:
        raise ConfigError(f"missing key '{key}' in [{section}]")
    return cfg[section][key]


def _parse_operator(cfg):
    dim = _number(_require(cfg, "operator", "dim"), "operator.dim", int)
    terms_text = _require(cfg, "operator", "terms")
    terms = []
    for chunk in terms_text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            alpha_part, coeff_part = chunk.split(":")
            alpha_txt = alpha_part.split("=", 1)[1].strip()
            coeff_txt = coeff_part.split("=", 1)[1].strip()
        except (ValueError, IndexError):
            raise ConfigError(
                f"operator term {chunk!r}: expected 'alpha=...: coeff=...'"
            )
        alpha = tuple(_number(a, f"operator term {chunk!r}", int) for a in alpha_txt.split())
        if len(alpha) != dim:
            raise ConfigError(f"operator term {chunk!r}: alpha must have {dim} entries")
        terms.append((alpha, _parse_complex_pair(coeff_txt, "coeff")))
    if not terms:
        raise ConfigError("operator: no terms given")
    return _validated(SymbolPolynomial, dim, tuple(terms))


def _validated(model, *args, **kwargs):
    """Build ``model(*args, **kwargs)``; a ValueError from its checks becomes a ConfigError."""
    try:
        return model(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_problem(path):
    """Parse a problem file into a CauchyProblem.

    Each expression is compiled once (``exprparse.Program``); the forcing
    keeps its t-free values for the mesh it is sampled on, so a sample at a
    new time computes only the t-dependent parts.
    """
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"cannot read problem file {path}")

    kind_txt = _require(cfg, "equation", "kind").strip()
    try:
        kind = Kind(kind_txt)
    except ValueError:
        valid = ", ".join(k.value for k in Kind)
        raise ConfigError(f"equation.kind: {kind_txt!r} not one of {valid}")
    m = _number(_require(cfg, "equation", "m"), "equation.m", int)

    if kind is Kind.FIRST_ORDER_PRODUCT:
        if cfg.has_option("equation", "roots"):
            roots = _parse_complex_list(cfg["equation"]["roots"], "equation.roots")
            if len(roots) != m:
                raise ConfigError(f"equation.roots: expected {m} roots")
            spec = _validated(CharacteristicSpec.first_order_product, roots=roots)
        elif cfg.has_option("equation", "coeffs"):
            coeffs = _parse_complex_list(cfg["equation"]["coeffs"], "equation.coeffs")
            if len(coeffs) != m + 1:
                raise ConfigError(f"equation.coeffs: expected {m + 1} coefficients")
            spec = _validated(CharacteristicSpec.first_order_product, coeffs=coeffs)
        else:
            raise ConfigError("equation: need 'roots' or 'coeffs'")
    elif kind is Kind.EVEN_ORDER_PRODUCT:
        roots = _parse_complex_list(_require(cfg, "equation", "roots"), "equation.roots")
        if len(roots) != m:
            raise ConfigError(f"equation.roots: expected {m} roots")
        spec = _validated(CharacteristicSpec.even_order_product, roots)
    else:
        spec = _validated(CharacteristicSpec.repeated_root, m)

    P = _parse_operator(cfg)
    dim = P.dim

    shape = tuple(_number(n, "grid.shape", int) for n in _require(cfg, "grid", "shape").split())
    box = tuple(_number(L, "grid.box") for L in _require(cfg, "grid", "box").split())
    if len(shape) != dim or len(box) != dim:
        raise ConfigError(f"grid: shape and box need {dim} entries each")
    if min(shape) < 2:
        raise ConfigError("grid.shape: need at least 2 points per axis")

    init = _require(cfg, "initial")
    grid_mesh = mesh(shape, box)
    phis = []
    for r in range(spec.data_count):
        key = f"phi{r}"
        if key not in init:
            raise ConfigError(
                f"missing initial.{key}: kind {kind.value} with m={m} needs "
                f"phi0..phi{spec.data_count - 1}"
            )
        program = exprparse.Program(exprparse.parse(init[key], dim, allow_t=False))
        vals = exprparse.evaluate(program, grid_mesh)
        if not np.isfinite(vals).all():
            raise ConfigError(f"initial.{key} is not finite at every grid point")
        phis.append(_validated(Field, shape, box, np.broadcast_to(vals, shape).astype(complex)))

    forcing = None
    if cfg.has_section("forcing") and cfg.has_option("forcing", "f"):
        fprogram = exprparse.Program(exprparse.parse(cfg["forcing"]["f"], dim, allow_t=True))

        def forcing(*args):
            *xs, t = args
            return np.broadcast_to(exprparse.evaluate(fprogram, xs, t), shape)

    times = tuple(
        _number(v, "output.times")
        for v in _require(cfg, "output", "times").replace(",", " ").split()
    )
    if not times:
        raise ConfigError("output.times: need at least one time")

    return _validated(CauchyProblem, spec, P, shape, box, tuple(phis), forcing, times)


# ---------------------------------------------------------------------------
# Artifact emission


#: Rows formatted per write in ``write_csv``; bounds the text held at once.
CSV_CHUNK_ROWS = 1024


def write_csv(path, u: Field, t):
    """One row per grid point: coordinates, Re u, Im u, in row-major order.

    The bytes are those of ``np.savetxt(fmt="%.17e", delimiter=",")`` with
    the same two-line header; each axis's coordinates are formatted once.
    """
    header = ",".join([f"x{d + 1}" for d in range(u.dim)] + ["re_u", "im_u"])
    axes = [
        ["%.17e," % v for v in L * np.arange(n) / n] for n, L in zip(u.shape, u.box)
    ]
    prefixes = map("".join, itertools.product(*axes))
    re_u, im_u = u.data.real.ravel(), u.data.imag.ravel()
    with open(path, "w") as fh:
        fh.write(f"# t = {t!r}\n# {header}\n")
        for lo in range(0, re_u.size, CSV_CHUNK_ROWS):
            hi = lo + CSV_CHUNK_ROWS
            rows = zip(
                itertools.islice(prefixes, CSV_CHUNK_ROWS),
                re_u[lo:hi].tolist(),
                im_u[lo:hi].tolist(),
            )
            fh.write("".join(["%s%.17e,%.17e\n" % row for row in rows]))


def write_opc1(path, snapshots, box):
    """Binary dump: magic OPC1; little-endian u32 ndim, u32 shape[], f64 box[],
    u32 ntimes, f64 times[]; then per time interleaved Re,Im f64 row-major."""
    shape = snapshots[0][1].shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(shape)))
        fh.write(struct.pack(f"<{len(shape)}I", *shape))
        fh.write(struct.pack(f"<{len(box)}d", *box))
        fh.write(struct.pack("<I", len(snapshots)))
        fh.write(struct.pack(f"<{len(snapshots)}d", *[t for t, _ in snapshots]))
        for _, u in snapshots:
            inter = np.empty(u.data.size * 2)
            inter[0::2] = u.data.real.ravel()
            inter[1::2] = u.data.imag.ravel()
            fh.write(inter.astype("<f8").tobytes())


def read_opc1(path):
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError("bad magic")
        (ndim,) = struct.unpack("<I", fh.read(4))
        shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        box = struct.unpack(f"<{ndim}d", fh.read(8 * ndim))
        (ntimes,) = struct.unpack("<I", fh.read(4))
        times = struct.unpack(f"<{ntimes}d", fh.read(8 * ntimes))
        size = int(np.prod(shape))
        out = []
        for t in times:
            raw = np.frombuffer(fh.read(16 * size), dtype="<f8")
            data = (raw[0::2] + 1j * raw[1::2]).reshape(shape)
            out.append((t, Field(tuple(shape), tuple(box), data)))
    return out


def _write_stability(path, report):
    lines = ["# stability report"]
    for j, g in enumerate(report.max_growth):
        lines.append(f"max_growth_root_{j + 1} = {g:.6e}")
    lines.append(f"condition = {report.condition:.6e}")
    lines.append(f"nonfinite_modes = {report.nonfinite}")
    lines.append(f"overflowed_modes = {len(report.overflowed)}")
    for k in report.overflowed:
        lines.append(f"overflowed = {' '.join(str(c) for c in k)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _verdict_path(config):
    return Path(config.out) / VERDICT_FILENAME


def _with_measure(problem, config):
    """The problem with its repeated-root measure read from this run's verdict."""
    if problem.spec.kind is not Kind.REPEATED_ROOT or problem.forcing is None:
        return problem
    path = _verdict_path(config)
    if not path.exists():
        raise ConfigError(
            f"repeated-root problems with forcing need a probe verdict; run "
            f"--mode probe first (expected {path})"
        )
    return replace(problem, measure=oracle.load_verdict(path))


# ---------------------------------------------------------------------------
# Run modes


def _run_solve(config):
    problem = _with_measure(load_problem(config.problem), config)
    snapshots, report = solve(problem, nodes=config.quad_nodes)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for idx, (t, u) in enumerate(snapshots):
        write_csv(out / f"solution_t{idx}.csv", u, t)
    write_opc1(out / "solution.opc", snapshots, problem.box)
    _write_stability(out / "stability.txt", report)
    print(f"wrote {len(snapshots)} snapshot(s) to {out}")
    flags = []
    if report.overflowed:
        flags.append(f"{len(report.overflowed)} mode(s) overflowed")
    if report.nonfinite:
        flags.append(f"{report.nonfinite} output mode(s) not finite")
    if flags and not config.permissive_overflow:
        print(f"{'; '.join(flags)}; rerun with --permissive-overflow")
        return 3
    return 0


def _run_verify(config, n_snapshots=25):
    problem = _with_measure(load_problem(config.problem), config)
    t_max = max(problem.t_points)
    ts = tuple(np.linspace(0.0, t_max, n_snapshots))
    dense = replace(problem, t_points=ts)
    snapshots, _ = solve(dense, nodes=config.quad_nodes)
    report = oracle.residual_check(snapshots, dense)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "# residual verification",
        f"max_relative_residual = {report.max_residual:.6e}",
    ]
    for r, e in enumerate(report.ic_errors):
        lines.append(f"ic_error_{r} = {e:.6e}")
    (out / "verify.txt").write_text("\n".join(lines) + "\n")
    print(f"max relative residual {report.max_residual:.3e}")
    return 0


def _run_probe(config):
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = [
            oracle.kernel_discrepancy_probe(m, seed=config.seed + m)
            for m in (2, 3)
        ]
    except InconclusiveProbe as exc:
        print(f"probe inconclusive: {exc}")
        return 4
    oracle.save_verdict(_verdict_path(config), results)
    print(f"verdict: {results[0].winner} (min ratio {min(r.min_ratio for r in results):.1e})")
    return 0


def _run_convergence(config, node_counts=(8, 16, 24, 32, 48, 64, 96), ref_nodes=192):
    problem = _with_measure(load_problem(config.problem), config)
    ref, _ = solve(problem, nodes=ref_nodes)
    rows = []
    for n in node_counts:
        snaps, _ = solve(problem, nodes=n)
        err = max(
            float(np.max(np.abs(u.data - ur.data)))
            for (_, u), (_, ur) in zip(snaps, ref)
        )
        rows.append((n, err))
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["# quadrature convergence: nodes, max abs error vs "
             f"{ref_nodes}-node reference"]
    for n, err in rows:
        lines.append(f"{n} {err:.6e}")
        print(f"nodes {n:4d}  error {err:.3e}")
    (out / "convergence.txt").write_text("\n".join(lines) + "\n")
    return 0


def _run_compare_spherical(config):
    problem = load_problem(config.problem)
    if len(problem.shape) != 3:
        raise ConfigError("compare-spherical needs a 3-D problem")
    u0 = problem.phi[0]
    speeds = [r.real for r in problem.spec.roots if abs(r.imag) < 1e-12 and r.real > 0]
    if not speeds:
        raise ConfigError("compare-spherical needs a positive real root as the speed")
    q = SphereQuadrature.gauss_product(config.sphere_order)
    rows = []
    for a in speeds:
        for t in problem.t_points:
            spherical = sinhc_spherical(u0, a, t, q)
            spectral = apply_multiplier(
                u0, lambda p: t * sinhc_sqrt(t * t * a * a * p), problem.P
            ).data
            num = np.linalg.norm(spherical.data - spectral)
            den = max(np.linalg.norm(spectral), 1e-300)
            rows.append((a, t, float(num / den)))
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["# spherical vs spectral propagator: a, t, relative L2 difference"]
    for a, t, err in rows:
        lines.append(f"{a} {t} {err:.6e}")
        print(f"a {a:g}  t {t:g}  relative L2 difference {err:.3e}")
    (out / "compare_spherical.txt").write_text("\n".join(lines) + "\n")
    return 0


def run(config: RunConfig) -> int:
    if config.mode is not Mode.PROBE and config.problem is None:
        raise ConfigError("--problem is required for this mode")
    if config.mode is Mode.SOLVE:
        return _run_solve(config)
    if config.mode is Mode.VERIFY:
        return _run_verify(config)
    if config.mode is Mode.PROBE:
        return _run_probe(config)
    if config.mode is Mode.CONVERGENCE:
        return _run_convergence(config)
    return _run_compare_spherical(config)


def _integer_at_least(least):
    """argparse type: an integer no smaller than ``least``."""

    def integer(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {value}")
        return value

    return integer


def build_parser():
    ap = argparse.ArgumentParser(
        prog="opcauchy",
        description="closed-form solver for higher-order linear Cauchy problems",
    )
    ap.add_argument("--mode", required=True, choices=[m.value for m in Mode])
    ap.add_argument("--problem", default=None, help="problem definition file")
    ap.add_argument("--quad-nodes", type=_integer_at_least(1), default=64)
    ap.add_argument("--sphere-order", type=_integer_at_least(0), default=29)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--permissive-overflow", action="store_true")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = RunConfig(
        mode=Mode(args.mode),
        problem=args.problem,
        quad_nodes=args.quad_nodes,
        sphere_order=args.sphere_order,
        out=args.out,
        seed=args.seed,
        permissive_overflow=args.permissive_overflow,
    )
    try:
        return run(config)
    except InconclusiveProbe as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OpcauchyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
