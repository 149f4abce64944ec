"""Problem files, run orchestration, and output emission.

Problem files are flat INI-style text (see README for the full format):

    [equation]  kind, m, roots = re,im ...   (or coeffs = re,im ...)
    [operator]  dim, terms = alpha=2: coeff=1 ; ...
    [grid]      shape, box
    [initial]   phi0 = expr, phi1 = expr, ...
    [forcing]   f = expr            (optional)
    [output]    times = 0.25,0.5,1

Exit codes: 0 success, 2 validation error or an output path that cannot be
written, 3 numerical-flag failure, 4 inconclusive probe.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import math
import os
import re
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import exprparse, oracle
from .errors import (
    ExprSyntaxError,
    InconclusiveProbe,
    NonIntegerExponent,
    OpcauchyError,
    UnknownVariable,
    UnwritableOutput,
)
from .kernels import PLAIN_MEASURE, TAU_PRIME_MEASURE, CauchyProblem, sinhc_sqrt, solve
from .multiplier import Field, apply_multiplier, mesh
from .spherical import SphereQuadrature, sinhc_spherical
from .symbol_poly import CharacteristicSpec, Kind, SymbolPolynomial

VERDICT_FILENAME = "probe_verdict.txt"
MAGIC = b"OPC1"


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


def _equation_numbers(cfg, key, count, noun):
    """The ``count`` complex numbers of ``[equation] key``, counted as ``noun``."""
    label = f"equation.{key}"
    values = [_parse_complex_pair(tok, label) for tok in _require(cfg, "equation", key).split()]
    if len(values) != count:
        raise ConfigError(f"{label}: expected {count} {noun}")
    return values


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
    return SymbolPolynomial(dim, tuple(terms))


def _program(sources, keys, dim, allow_t):
    """``exprparse.Program``; a parse error becomes a ConfigError naming its key."""
    try:
        return exprparse.Program(sources, dim, allow_t)
    except (ExprSyntaxError, NonIntegerExponent, UnknownVariable) as exc:
        raise ConfigError(f"{keys[exc.source]}: {exc}") from exc


def _read_ini(path):
    """The problem file at ``path`` as UTF-8 INI text; ``%`` is an ordinary character."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    if not cfg.read(path, encoding="utf-8"):
        raise ConfigError(f"cannot read problem file {path}")
    return cfg


def load_problem(path):
    """Parse a problem file into a CauchyProblem; any ValueError, ArithmeticError or
    configparser.Error of the loading becomes a ConfigError: the path, then its first line."""
    try:
        return _parse_problem(path)
    except (ValueError, ArithmeticError, configparser.Error) as exc:
        raise ConfigError(f"{path}: " + str(exc).partition("\n")[0]) from exc


def _parse_problem(path):
    """The problem file at ``path`` as a CauchyProblem.

    The initial fields are parsed straight into the slots of one
    ``exprparse.Program``, with no tree, and evaluated in one call, so a
    subexpression they share is evaluated once.  The forcing is one Program
    too; ``exprparse.separate`` gives its pairs g_j(t) h_j(x) and its rest
    as roots of that table.  All h_j are evaluated here on the mesh; all g_j
    are a Program of t alone.  The rest is bound to the mesh here: its
    t-free parts are evaluated once, and a sample at a time t computes only
    the t-dependent parts.
    """
    cfg = _read_ini(path)
    kind_txt = _require(cfg, "equation", "kind").strip()
    try:
        kind = Kind(kind_txt)
    except ValueError:
        valid = ", ".join(k.value for k in Kind)
        raise ConfigError(f"equation.kind: {kind_txt!r} not one of {valid}")
    m = _number(_require(cfg, "equation", "m"), "equation.m", int)

    if kind is Kind.FIRST_ORDER_PRODUCT:
        if cfg.has_option("equation", "roots"):
            roots = _equation_numbers(cfg, "roots", m, "roots")
            spec = CharacteristicSpec.first_order_product(roots=roots)
        elif cfg.has_option("equation", "coeffs"):
            coeffs = _equation_numbers(cfg, "coeffs", m + 1, "coefficients")
            spec = CharacteristicSpec.first_order_product(coeffs=coeffs)
        else:
            raise ConfigError("equation: need 'roots' or 'coeffs'")
    elif kind is Kind.EVEN_ORDER_PRODUCT:
        roots = _equation_numbers(cfg, "roots", m, "roots")
        spec = CharacteristicSpec.even_order_product(roots)
    else:
        spec = CharacteristicSpec.repeated_root(m)

    P = _parse_operator(cfg)
    dim = P.dim

    shape = tuple(_number(n, "grid.shape", int) for n in _require(cfg, "grid", "shape").split())
    box = tuple(_number(L, "grid.box") for L in _require(cfg, "grid", "box").split())
    if len(shape) != dim or len(box) != dim:
        raise ConfigError(f"grid: shape and box need {dim} entries each")
    if min(shape) < 2:
        raise ConfigError("grid.shape: need at least 2 points per axis")
    if math.prod(shape) * 16 > np.iinfo(np.intp).max:
        raise ConfigError(f"grid.shape: {math.prod(shape)} points are too many to address")

    init = _require(cfg, "initial")
    # the fields before a missing one are read first, so their errors come first
    wanted = [f"phi{r}" for r in range(spec.data_count)]
    names = list(itertools.takewhile(init.__contains__, wanted))
    keys = [f"initial.{name}" for name in names]
    program = _program([init[name] for name in names], keys, dim, allow_t=False)
    if len(names) < len(wanted):
        raise ConfigError(
            f"missing initial.{wanted[len(names)]}: kind {kind.value} with m={m} needs "
            f"phi0..phi{spec.data_count - 1}"
        )
    grid_mesh = mesh(shape, box)
    phis = [Field(shape, box, vals) for vals in _grid_values(program, keys, grid_mesh, shape)]

    forcing, time_profiles, spatial_profiles = None, None, ()
    if cfg.has_section("forcing") and cfg.has_option("forcing", "f"):
        program = _program([cfg["forcing"]["f"]], ["forcing.f"], dim, allow_t=True)
        gs, hs, rest = exprparse.separate(program)
        if gs.roots:
            spatial_profiles = tuple(
                _grid_values(hs, ["forcing.f"] * len(hs.roots), grid_mesh, shape)
            )
            time_profiles = exprparse.sampler(gs, ())
        if rest is not None:
            sample = exprparse.sampler(rest, grid_mesh)

            def forcing(t):
                return sample(t)[0]

    times = tuple(
        _number(v, "output.times")
        for v in _require(cfg, "output", "times").replace(",", " ").split()
    )
    if not times:
        raise ConfigError("output.times: need at least one time")
    # a ConfigParser is a reference cycle: empty it, so the file's text is
    # freed now, not when the cycle collector next runs
    for section in cfg.sections():
        cfg.remove_section(section)

    return CauchyProblem(
        spec, P, shape, box, tuple(phis), forcing, times,
        time_profiles=time_profiles, spatial_profiles=spatial_profiles,
    )


def _grid_values(program, keys, grid_mesh, shape):
    """The t-free ``program``'s roots evaluated on the mesh's axes, each as computed
    and broadcast to ``shape`` (a read-only view); a value that is not finite at some
    grid point is a ConfigError naming its key.  Expressions raise no arithmetic
    error: a division by zero or an overflow gives such a value."""
    out = []
    for key, vals in zip(keys, exprparse.evaluate(program, grid_mesh)):
        if not np.isfinite(vals).all():
            raise ConfigError(f"{key} is not finite at every grid point")
        out.append(np.broadcast_to(vals, shape))
    return out


# ---------------------------------------------------------------------------
# Artifact emission


#: Rows formatted per write in ``write_csv``; bounds the text held at once.
CSV_CHUNK_ROWS = 2048

#: Longest ``"%.17e"`` text of a float64: "-d.ddddddddddddddddde-ddd".
_E17_WIDTH = 25


@contextlib.contextmanager
def output_to(path):
    """Raise an OSError of the block as UnwritableOutput naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def new_file(path):
    """A binary handle on a new file at ``path``.

    A file already at ``path`` is removed first, never truncated in place:
    a hard link or an open handle to it keeps its bytes, and a symlink at
    ``path`` is replaced, not followed.  ext4 writes a truncated and
    rewritten file back when it is closed, and a file renamed over another
    too; a new file stays in the page cache.
    """
    with output_to(path):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        with open(path, "xb") as fh:
            yield fh


def _format_e17(x):
    """The ``"%.17e"`` text of each float64 in ``x``: a (len(x), 25) uint8
    array, each row the text's bytes padded with zeros.

    |x| = f 2**a (``np.frexp``, exact) is scaled by 10**(17 - e), with e the
    decimal exponent, to y in [1e17, 1e18), whose rounding is the 18 digits.
    10**k is held as (hi + lo) 2**s with hi + lo in [1, 2), built from Python
    integers for the distinct k of this call only, and f (hi + lo) is a
    double-double from Dekker's exact product.  Its error is about 1e-13 on
    y, so round(y) is exact unless y lies within 1e-6 of a half-integer.
    Such values (exact ties among them), the values whose e does not settle,
    nan and infinities are formatted by Python's ``"%.17e"`` one at a time;
    zeros are copied from a template.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    finite = np.isfinite(x)
    zero = np.flatnonzero(ax == 0)
    ax[~finite] = 1.0  # stand-ins: the rows of zeros and of the fallback are rewritten
    ax[zero] = 1.0
    frac, expo = np.frexp(ax)
    e = np.floor(np.log10(ax)).astype(np.int64)

    def halves(v):
        c = 134217729.0 * v  # Veltkamp's splitter 2**27 + 1
        high = c - (c - v)
        return high, v - high

    def scaled(f, a, k):
        """|x| 10**k = f (10**k 2**-s) 2**(a + s) as a normalised pair."""
        base = int(k.min())
        table = np.zeros((3, int(k.max()) - base + 1))
        for j in np.flatnonzero(np.bincount(k - base)):
            power = base + int(j)
            n, d = (10**power, 1) if power >= 0 else (1, 10**-power)
            s = n.bit_length() - d.bit_length()
            if (n << max(-s, 0)) < (d << max(s, 0)):
                s -= 1
            # N = floor(10**power 2**(120 - s)), in [2**120, 2**121)
            N = (n << max(120 - s, 0)) // (d << max(s - 120, 0))
            top = N >> 68
            table[:, j] = top * 2.0**-52, (N - (top << 68)) * 2.0**-120, s
        p_hi, p_lo, s = table.take(k - base, axis=1)
        prod = f * p_hi
        fh, fl = halves(f)
        ph, pl = halves(p_hi)
        tail = (((fh * ph - prod) + fh * pl + fl * ph) + fl * pl) + f * p_lo
        hi = prod + tail
        shift = a + s.astype(np.int64)
        return np.ldexp(hi, shift), np.ldexp(tail - (hi - prod), shift)

    hi, lo = scaled(frac, expo, 17 - e)
    for rounds in range(3):
        # the decimal exponent is off by one where y is outside [1e17, 1e18)
        step = ((hi > 1e18) | ((hi == 1e18) & (lo >= 0))).astype(np.int64)
        step -= (hi < 1e17) | ((hi == 1e17) & (lo < 0))
        redo = np.flatnonzero(step)
        if not redo.size or rounds == 2:
            break
        e[redo] += step[redo]
        hi[redo], lo[redo] = scaled(frac[redo], expo[redo], 17 - e[redo])
    floor = np.floor(lo)
    rest = lo - floor
    q = hi.astype(np.int64) + floor.astype(np.int64) + (rest > 0.5)
    carry = q == 10**18
    q[carry] = 10**17
    e += carry

    # one row per byte of "-d.ddddddddddddddddde+ddd", transposed at the end;
    # the digits go to rows 2-19 and the first then moves before the point
    text = np.empty((_E17_WIDTH, x.size), np.uint8)
    text[0] = np.where(np.signbit(x), ord("-"), 0)
    nines = np.array(np.divmod(q, 10**9), np.int32)  # the first and last nine digits
    for j in range(9):
        tens = nines // 10
        text[[10 - j, 19 - j]] = nines - 10 * tens
        nines = tens
    text[1] = text[2]
    text[1:20] += ord("0")
    text[2] = ord(".")
    text[20] = ord("e")
    low = int(e.min())
    p = np.arange(low, int(e.max()) + 1)
    ap, three = np.abs(p), np.abs(p) >= 100
    exponents = [
        np.where(p < 0, ord("-"), ord("+")),
        np.where(three, ap // 100, ap // 10 % 10) + ord("0"),
        np.where(three, ap // 10 % 10, ap % 10) + ord("0"),
        np.where(three, ap % 10 + ord("0"), 0),
    ]
    text[21:] = np.array(exponents, np.uint8).take(e - low, axis=1)
    text[1:, zero] = np.frombuffer(b"0.00000000000000000e+00\0", np.uint8)[:, None]

    fallback = ~finite
    fallback[np.abs(rest - 0.5) < 1e-6] = True
    fallback[redo] = True
    fallback[zero] = False
    for i in np.flatnonzero(fallback):
        chars = ("%.17e" % x[i]).encode()
        text[:, i] = 0
        text[: len(chars), i] = np.frombuffer(chars, np.uint8)
    return text.T


def write_csv(path, u: Field, t):
    """One row per grid point: coordinates, Re u, Im u, in row-major order.

    The bytes are those of ``np.savetxt(fmt="%.17e", delimiter=",")`` with
    the same two-line header.  Each axis's coordinates are formatted once.
    A block is the rows that share their leading-axis values: the trailing
    axes whose rows fit in ``CSV_CHUNK_ROWS``, or else one row.  A chunk is
    whole blocks in one matrix of zero-padded fields, reused by every chunk:
    its separators and the trailing axes' text are laid out once per call,
    and a chunk sets only each block's leading-axis text and its values
    before it is written with the padding removed.
    """
    dim, shape, width = u.dim, u.shape, _E17_WIDTH + 1
    header = ",".join([f"x{d + 1}" for d in range(dim)] + ["re_u", "im_u"])
    axes = [_format_e17(x.ravel()) for x in mesh(shape, u.box)]
    # Re and Im of each point, side by side
    values = np.ascontiguousarray(u.data, np.complex128).reshape(-1).view(np.float64)
    lead = dim
    while lead and math.prod(shape[lead - 1 :]) <= CSV_CHUNK_ROWS:
        lead -= 1
    block = math.prod(shape[lead:])
    blocks = values.size // 2 // block
    per_chunk = min(CSV_CHUNK_ROWS // block, blocks)
    text = bytearray(per_chunk * block * (dim + 2) * width)
    rows = np.frombuffer(text, np.uint8).reshape(per_chunk, block, dim + 2, width)
    rows[..., -1] = ord(",")
    rows[:, :, -1, -1] = ord("\n")
    grid = rows.reshape(per_chunk, *shape[lead:], dim + 2, width)
    for d in range(lead, dim):
        place = [1] * (dim + 1 - lead)
        place[1 + d - lead] = shape[d]
        grid[..., d, :-1] = axes[d].reshape(*place, _E17_WIDTH)
    with new_file(path) as fh:
        fh.write(f"# t = {t!r}\n# {header}\n".encode())
        for first in range(0, blocks, per_chunk):
            n = min(per_chunk, blocks - first)
            index = np.arange(first, first + n)
            for d in reversed(range(lead)):
                rows[:n, :, d, :-1] = axes[d][index % shape[d], None]
                index //= shape[d]
            lo, hi = 2 * first * block, 2 * (first + n) * block
            rows[:n, :, -2:, :-1] = _format_e17(values[lo:hi]).reshape(n, block, 2, -1)
            chunk = text if n == per_chunk else text[: rows[:n].nbytes]
            fh.write(chunk.translate(None, b"\0"))


def write_opc1(path, snapshots):
    """Binary dump: magic OPC1; little-endian u32 ndim, u32 shape[], f64 box[],
    u32 ntimes, f64 times[]; then per time interleaved Re,Im f64 row-major."""
    shape, box = snapshots[0][1].shape, snapshots[0][1].box
    with new_file(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(shape)))
        fh.write(struct.pack(f"<{len(shape)}I", *shape))
        fh.write(struct.pack(f"<{len(box)}d", *box))
        fh.write(struct.pack("<I", len(snapshots)))
        fh.write(struct.pack(f"<{len(snapshots)}d", *[t for t, _ in snapshots]))
        for _, u in snapshots:
            fh.write(np.ascontiguousarray(u.data, "<c16"))


def read_opc1(path):
    """The (t, Field) snapshots ``write_opc1`` wrote, each value bit for bit.  Each size
    the header implies is compared with the bytes left before it is read: a file cut
    short, run on or with another magic or grid raises ValueError naming it."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def take(size):
            nonlocal left
            if size > left:
                raise ValueError(f"{path}: damaged OPC1 file: cut short")
            left -= size
            return size

        def unpack(fmt):
            return struct.unpack(fmt, fh.read(take(struct.calcsize(fmt))))

        if unpack("4s") != (MAGIC,):
            raise ValueError(f"{path}: bad magic")
        (ndim,) = unpack("<I")
        shape, box = unpack(f"<{ndim}I"), unpack(f"<{ndim}d")
        (ntimes,) = unpack("<I")
        times = unpack(f"<{ntimes}d")
        size = math.prod(shape)
        take(16 * size * ntimes)
        if left:
            raise ValueError(f"{path}: bytes after the last snapshot")
        out = []
        try:
            for t in times:
                raw = np.frombuffer(fh.read(16 * size), dtype="<c16")
                out.append((t, Field(shape, box, raw.reshape(shape).astype(np.complex128))))
        except ValueError as exc:
            raise ValueError(f"{path}: damaged OPC1 file: {exc}") from None
    return out


def _write_lines(path, lines):
    with new_file(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def _write_stability(path, report):
    lines = ["# stability report"]
    for j, g in enumerate(report.max_growth):
        lines.append(f"max_growth_root_{j + 1} = {g:.6e}")
    lines.append(f"condition = {report.condition:.6e}")
    lines.append(f"nonfinite_modes = {report.nonfinite}")
    lines.append(f"overflowed_modes = {len(report.overflowed)}")
    for k in report.overflowed:
        lines.append(f"overflowed = {' '.join(str(c) for c in k)}")
    _write_lines(path, lines)


def save_verdict(path, results):
    """Persist probe results as a key-value text file plus evidence table."""
    results = list(results)
    winners = {r.winner for r in results}
    if len(winners) != 1:
        raise InconclusiveProbe("probe runs disagree on the winner")
    winner = winners.pop()
    ms = sorted({row[0] for r in results for row in r.rows})
    lines = [
        "# repeated-root forcing kernel probe verdict",
        f"winner = {winner}",
        f"m_values = {','.join(str(m) for m in ms)}",
        f"samples = {sum(len(r.rows) for r in results)}",
        f"min_ratio = {min(r.min_ratio for r in results):.6e}",
        "# m re_p im_p t forcing err_plain err_tau_prime",
    ]
    for r in results:
        for m, p, t, label, ep, et in r.rows:
            lines.append(
                f"# {m} {p.real:+.6e} {p.imag:+.6e} {t:.6f} {label} {ep:.6e} {et:.6e}"
            )
    _write_lines(path, lines)


def load_verdict(path):
    """Read back the winning measure from a verdict file."""
    winner = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("winner"):
                winner = line.split("=", 1)[1].strip()
    if winner not in (PLAIN_MEASURE, TAU_PRIME_MEASURE):
        raise ValueError(f"no valid winner recorded in {path}")
    return winner


def _verdict_path(config):
    return Path(config.out) / VERDICT_FILENAME


def _with_measure(problem, config):
    """The problem with its repeated-root measure read from this run's verdict."""
    if problem.spec.kind is not Kind.REPEATED_ROOT or not problem.forced:
        return problem
    path = _verdict_path(config)
    if not path.exists():
        raise ConfigError(
            f"repeated-root problems with forcing need a probe verdict; run "
            f"--mode probe first (expected {path})"
        )
    return replace(problem, measure=load_verdict(path))


# ---------------------------------------------------------------------------
# Run modes

#: Times that ``--mode verify`` solves at, uniformly spaced from 0 to the last output time.
VERIFY_SNAPSHOTS = 25
#: Node counts that ``--mode convergence`` compares with the solve of its reference count.
CONVERGENCE_NODE_COUNTS = (8, 16, 24, 32, 48, 64, 96)
CONVERGENCE_REF_NODES = 192


#: The name of the CSV of output time i, which ``solve`` writes as ``solution_t{i}.csv``.
_SNAPSHOT_CSV = re.compile(r"solution_t(0|[1-9][0-9]*)\.csv")


def _remove_stale_csvs(out, count):
    """Remove each ``solution_t<i>.csv`` in ``out`` with i >= ``count``: an earlier
    run's output time that this run does not have."""
    with output_to(out):
        for path in out.iterdir():
            match = _SNAPSHOT_CSV.fullmatch(path.name)
            if match and int(match[1]) >= count:
                path.unlink()


def _run_solve(config):
    problem = _with_measure(load_problem(config.problem), config)
    snapshots, report = solve(problem, nodes=config.quad_nodes)
    out = Path(config.out)
    _remove_stale_csvs(out, len(snapshots))
    for idx, (t, u) in enumerate(snapshots):
        write_csv(out / f"solution_t{idx}.csv", u, t)
    write_opc1(out / "solution.opc", snapshots)
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


def _run_verify(config):
    problem = _with_measure(load_problem(config.problem), config)
    t_max = max(problem.t_points)
    ts = tuple(np.linspace(0.0, t_max, VERIFY_SNAPSHOTS))
    dense = replace(problem, t_points=ts)
    snapshots, _ = solve(dense, nodes=config.quad_nodes)
    report = oracle.residual_check(snapshots, dense)
    out = Path(config.out)
    lines = [
        "# residual verification",
        f"max_relative_residual = {report.max_residual:.6e}",
    ]
    for r, e in enumerate(report.ic_errors):
        lines.append(f"ic_error_{r} = {e:.6e}")
    _write_lines(out / "verify.txt", lines)
    print(f"max relative residual {report.max_residual:.3e}")
    return 0


def _run_probe(config):
    results = [oracle.kernel_discrepancy_probe(m, seed=config.seed + m) for m in (2, 3)]
    save_verdict(_verdict_path(config), results)
    print(f"verdict: {results[0].winner} (min ratio {min(r.min_ratio for r in results):.1e})")
    return 0


def _run_convergence(config):
    problem = _with_measure(load_problem(config.problem), config)
    ref, _ = solve(problem, nodes=CONVERGENCE_REF_NODES)
    rows = []
    for n in CONVERGENCE_NODE_COUNTS:
        snaps, _ = solve(problem, nodes=n)
        err = max(
            float(np.max(np.abs(u.data - ur.data)))
            for (_, u), (_, ur) in zip(snaps, ref)
        )
        rows.append((n, err))
    out = Path(config.out)
    lines = ["# quadrature convergence: nodes, max abs error vs "
             f"{CONVERGENCE_REF_NODES}-node reference"]
    for n, err in rows:
        lines.append(f"{n} {err:.6e}")
        print(f"nodes {n:4d}  error {err:.3e}")
    _write_lines(out / "convergence.txt", lines)
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
    lines = ["# spherical vs spectral propagator: a, t, relative L2 difference"]
    for a, t, err in rows:
        lines.append(f"{a} {t} {err:.6e}")
        print(f"a {a:g}  t {t:g}  relative L2 difference {err:.3e}")
    _write_lines(out / "compare_spherical.txt", lines)
    return 0


#: The run of each ``--mode``; each takes the parsed command line as its config.
_MODES = {
    "solve": _run_solve,
    "verify": _run_verify,
    "probe": _run_probe,
    "convergence": _run_convergence,
    "compare-spherical": _run_compare_spherical,
}


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
    ap.add_argument("--mode", required=True, choices=list(_MODES))
    ap.add_argument("--problem", default=None, help="problem definition file")
    ap.add_argument("--quad-nodes", type=_integer_at_least(1), default=64)
    ap.add_argument("--sphere-order", type=_integer_at_least(0), default=29)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=_integer_at_least(0), default=0)
    ap.add_argument("--permissive-overflow", action="store_true")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    out, made, code = Path(args.out), [], 2
    try:
        if args.mode != "probe" and args.problem is None:
            raise ConfigError("--problem is required for this mode")
        # the output directory is made before any work, so an unusable one fails first
        with output_to(out):
            made = list(itertools.takewhile(lambda d: not d.exists(), [out, *out.parents]))
            out.mkdir(parents=True, exist_ok=True)
        code = _MODES[args.mode](args)
    except InconclusiveProbe as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 4
    except OpcauchyError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        shape = _read_ini(args.problem).get("grid", "shape", fallback="?").strip()
        print(f"error: out of memory for the grid of shape {shape}", file=sys.stderr)
    if code:
        # a failed run leaves behind no directory that it made and left empty
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                break
    return code


if __name__ == "__main__":
    sys.exit(main())
