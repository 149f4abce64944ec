"""Seeded problem files for the benchmark workloads.

Every workload solves three problem files, one per kind, with the
Laplacian on a 2*pi-periodic box, m = 3 and output times 0.1, 0.25, 0.5.
Box 2*pi makes the wavevectors integers, so p(k) = -|k|^2 exactly.

Data and forcing are short sums of trigonometric terms, written into the
files as expressions.  The generator keeps each term's exact coefficients,
so the checker knows every excited mode's initial data and forcing without
touching the solver.  The seed chooses one phase per wavevector, shared by
all data fields and forcing terms on it, the extra 3-D wavevectors and two
of the four forced ones.  A shared phase rotates a mode's whole solution,
so the error measured at that mode does not depend on the seed; only which
modes are excited and sampled does.  Amplitudes are fixed, 1/|k| (over
r + 1 for the r-th datum), so the lowest modes set the scale of the
solution and every seed puts energy on the grid's top wavenumbers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

TIMES = (0.1, 0.25, 0.5)
BOX = 2 * math.pi
M = 3

#: kind name in the problem file, its roots line, and its data count.
KINDS = {
    "first": ("first_order_product", "1 2 3", M),
    "even": ("even_order_product", "1 1.5 2", 2 * M),
    "repeated": ("repeated_root", None, 2 * M),
}

#: g(t) of each forcing term, as problem-file text and as a scalar function.
FORCING_PROFILES = (
    ("cos(2*t)", lambda t: math.cos(2 * t)),
    ("exp(-t)", lambda t: math.exp(-t)),
    ("(1+t*t)", lambda t: 1 + t * t),
    ("sin(3*t)", lambda t: math.sin(3 * t)),
)


#: Seeded wavevectors excited in 3-D on top of the fixed unit, axis-top and
#: corner ones.  A 1-D workload excites every wavenumber instead.
EXTRA_MODES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple
    forced: bool


WORKLOADS = {
    "free3d": Workload("free3d", (32, 32, 32), forced=False),
    "forced3d": Workload("forced3d", (16, 16, 16), forced=True),
    "stiff1d": Workload("stiff1d", (256,), forced=True),
}


def smoke(workload: Workload) -> Workload:
    """The same workload on a tiny grid, for testing the benchmark itself."""
    shape = tuple(6 if len(workload.shape) == 3 else 32 for _ in workload.shape)
    return dataclasses.replace(workload, shape=shape)


@dataclass
class Case:
    """One generated problem file and the exact data behind it."""

    kind: str
    path: str
    text: str
    # wavevector -> complex Fourier coefficient of e^{i k.x}, per data field
    data: list = field(default_factory=list)
    # wavevector -> list of (g, complex coefficient) forcing terms
    forcing: dict = field(default_factory=dict)


def _canonical(k):
    """Representative of {k, -k}: first nonzero component positive."""
    for c in k:
        if c:
            return k if c > 0 else tuple(-x for x in k)
    return k


def mode_set(workload: Workload, rng):
    """The excited wavevectors, each once up to sign.

    Returns (modes, lowest, highest): every excited wavevector, a unit one
    and one of largest |p|.
    """
    dim = len(workload.shape)
    top = min(workload.shape) // 2 - 1
    if dim == 1:
        modes = [(k,) for k in range(1, top + 1)]
        return modes, modes[0], modes[-1]
    unit = [tuple(int(i == d) for i in range(dim)) for d in range(dim)]
    corners = [(top,) + tuple(-top if i == d else top for i in range(1, dim)) for d in range(dim)]
    modes = unit + [tuple(top * c for c in k) for k in unit] + corners
    target = len(modes) + EXTRA_MODES
    while len(modes) < target:
        k = _canonical(tuple(int(c) for c in rng.integers(-top, top + 1, size=dim)))
        if any(k) and k not in modes:
            modes.append(k)
    return modes, unit[0], corners[0]


def _wave(k):
    """The problem-file text of k.x."""
    parts = [f"{c}*x{d + 1}" for d, c in enumerate(k) if c]
    return "+".join(parts).replace("+-", "-")


def _trig(a, b, k):
    """a*cos(k.x) + b*sin(k.x) as text, with exact float round-trip."""
    w = _wave(k)
    return f"{a!r}*cos({w})+{b!r}*sin({w})".replace("+-", "-")


def generate(workload: Workload, seed: int, outdir):
    """Write the workload's three problem files; return their Cases.

    The same seed gives byte-identical files.
    """
    rng = np.random.default_rng(seed)
    modes, lowest, highest = mode_set(workload, rng)
    phase = {k: float(rng.uniform(0, 2 * math.pi)) for k in modes}
    amp = {k: 1.0 / math.sqrt(sum(c * c for c in k)) for k in modes}

    forcing_modes = []
    if workload.forced:
        others = [k for k in modes if k not in (lowest, highest)]
        picks = rng.choice(len(others), size=2, replace=False)
        forcing_modes = [lowest, highest] + [others[int(i)] for i in sorted(picks)]

    dim = len(workload.shape)
    shape = " ".join(str(n) for n in workload.shape)
    box = " ".join([repr(BOX)] * dim)
    terms = "; ".join(
        f"alpha={' '.join('2' if i == d else '0' for i in range(dim))}: coeff=1"
        for d in range(dim)
    )

    def coeffs(k, scale):
        # a cos(k.x) + b sin(k.x) = Re((a - i b) e^{i k.x}), so c_k = (a - i b)/2
        a = scale * amp[k] * math.cos(phase[k])
        b = -scale * amp[k] * math.sin(phase[k])
        return a, b, complex(a, -b) / 2

    field_text, field_coeffs = [], []
    for r in range(2 * M):
        scale = 1.0 / (r + 1)
        parts, exact = [], {}
        for k in modes:
            a, b, c = coeffs(k, scale)
            parts.append(_trig(a, b, k))
            exact[k] = c
        field_text.append("+".join(parts).replace("+-", "-"))
        field_coeffs.append(exact)

    forcing_text, forcing_exact = None, {}
    if workload.forced:
        parts = []
        for (gtext, g), k in zip(FORCING_PROFILES, forcing_modes):
            a, b, c = coeffs(k, 1.0)
            parts.append(f"{gtext}*({_trig(a, b, k)})")
            forcing_exact.setdefault(k, []).append((g, c))
        forcing_text = "+".join(parts)

    cases = []
    for kind, (kind_name, roots, count) in KINDS.items():
        lines = ["[equation]", f"kind = {kind_name}", f"m = {M}"]
        if roots:
            lines.append(f"roots = {roots}")
        lines += ["", "[operator]", f"dim = {dim}", f"terms = {terms}", "",
                  "[grid]", f"shape = {shape}", f"box = {box}", "", "[initial]"]
        lines += [f"phi{r} = {field_text[r]}" for r in range(count)]
        if forcing_text:
            lines += ["", "[forcing]", f"f = {forcing_text}"]
        lines += ["", "[output]", "times = " + ", ".join(repr(t) for t in TIMES), ""]
        text = "\n".join(lines)
        path = f"{outdir}/{kind}.ini"
        with open(path, "w") as fh:
            fh.write(text)
        cases.append(Case(kind, path, text, field_coeffs[:count], forcing_exact))
    return cases
