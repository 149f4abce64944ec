"""Correctness check of one case's artifacts, run outside the timed region.

Two parts:

* the artifacts themselves: every per-time CSV, ``solution.opc`` (decoded
  with ``cli.read_opc1``) and ``stability.txt`` must exist, parse and hold
  only finite values;
* accuracy: a seeded sample of Fourier modes is compared with
  ``oracle.mode_ode_solve``, given each mode's exact initial data and
  forcing from the generator.

The error is reported as measured, never clipped.  Only the modes with
|p| <= 4 (the range the acceptance criteria already pin) gate correctness.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from workloads import KINDS, TIMES

#: Modes with |p| at most this are expected to match the oracle closely.
LOW_P = 4.0
#: Relative error allowed on those modes before the run counts as wrong.
LOW_P_RTOL = 1e-8
#: Up to EXCITED_CAP excited modes are all checked; beyond, SPREAD_MODES of
#: them evenly spaced in |p|.  The oracle falls back to slow adaptive
#: integration on stiff modes, so the sample is kept small.  Apart from the
#: forced modes it is the same for every seed, so the worst error it finds
#: hardly depends on the seed.
EXCITED_CAP = 32
SPREAD_MODES = 6
#: Unexcited modes checked, whose solution must stay zero.
RANDOM_UNEXCITED = 4
#: Gauss nodes of the oracle's own Duhamel quadrature.
ORACLE_NODES = 256


def spec_for(opcauchy, kind):
    """The CharacteristicSpec of a workload kind, built from public API."""
    kind_name, roots, _ = KINDS[kind]
    Spec = opcauchy.CharacteristicSpec
    if kind_name == "first_order_product":
        return Spec.first_order_product(roots=[float(r) for r in roots.split()])
    if kind_name == "even_order_product":
        return Spec.even_order_product([float(r) for r in roots.split()])
    return Spec.repeated_root(3)


def sample_modes(modes, forced_modes, shape, rng):
    """Seeded sample of canonical wavevectors to compare with the oracle.

    The two top-|p| and two lowest excited modes and every forced mode
    always; all excited modes when there are few, else a spread of them;
    plus a few random unexcited modes, whose solution must stay zero.
    """
    by_p = sorted(modes, key=lambda k: sum(c * c for c in k))
    chosen = list(dict.fromkeys(by_p[-2:] + by_p[:2] + list(forced_modes)))
    if len(modes) <= EXCITED_CAP:
        spread = modes
    else:
        picks = np.linspace(0, len(by_p) - 1, SPREAD_MODES + 2).round().astype(int)[1:-1]
        spread = [by_p[i] for i in picks]
    chosen += [k for k in spread if k not in chosen]
    top = min(shape) // 2 - 1
    excited = set(modes)
    grid = [
        k for k in itertools.product(range(-top, top + 1), repeat=len(shape))
        if next((c for c in k if c), 0) > 0 and k not in excited
    ]
    picks = rng.choice(len(grid), min(RANDOM_UNEXCITED, len(grid)), replace=False)
    return chosen + [grid[int(i)] for i in picks]


def read_artifacts(cli, out_dir, shape):
    """Decode the solve artifacts; return (snapshots, None) or (None, reason)."""
    size = int(np.prod(shape))
    for idx in range(len(TIMES)):
        path = os.path.join(out_dir, f"solution_t{idx}.csv")
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            return None, f"unreadable {path}: {exc}"
        lines = raw.count(b"\n")
        if not raw.startswith(b"# t = ") or lines != size + 2:
            return None, f"{path}: {lines} lines, expected header and {size} rows"
        lowered = raw.lower()
        if b"nan" in lowered or b"inf" in lowered:
            return None, f"{path}: non-finite value"
    try:
        snapshots = cli.read_opc1(os.path.join(out_dir, "solution.opc"))
    except (OSError, ValueError) as exc:
        return None, f"unreadable solution.opc: {exc}"
    if [t for t, _ in snapshots] != list(TIMES):
        return None, "solution.opc: wrong output times"
    for _, u in snapshots:
        if tuple(u.shape) != tuple(shape):
            return None, "solution.opc: wrong grid shape"
        bad = int(np.size(u.data) - np.count_nonzero(np.isfinite(u.data)))
        if bad:
            return None, f"solution.opc: {bad} non-finite value(s)"
    try:
        with open(os.path.join(out_dir, "stability.txt")) as fh:
            stability = fh.read()
    except OSError as exc:
        return None, f"unreadable stability.txt: {exc}"
    if "overflowed_modes = 0" not in stability:
        return None, "stability.txt: overflowed modes reported"
    return snapshots, None


@dataclass
class Accuracy:
    max_rel_err: float  # worst |u - oracle| / max|oracle| over modes and times
    low_rel_err: float  # the same over the |p| <= LOW_P modes only
    modes: int
    oracle_calls: int


def compare_with_oracle(oracle, spec, case, snapshots, sample, shape):
    """Per-mode comparison of a case's solution with the ODE oracle."""
    data = [[field.get(k, 0j) for field in case.data] for k in sample]
    forcing = [case.forcing.get(k) for k in sample]
    p = [-float(sum(c * c for c in k)) for k in sample]
    index = tuple(np.array([c % n for c in col]) for col, n in zip(zip(*sample), shape))
    worst = low = 0.0
    calls = 0
    for t, u in snapshots:
        uhat = np.fft.fftn(u.data)[index] / u.data.size
        ref = []
        for phihat, terms, pk in zip(data, forcing, p):
            fhat = None
            if terms:
                def fhat(tau, terms=terms):
                    return sum(g(tau) * c for g, c in terms)
            ref.append(oracle.mode_ode_solve(spec, pk, phihat, fhat, t, nodes=ORACLE_NODES))
            calls += 1
        ref = np.array(ref)
        scale = float(np.max(np.abs(ref)))
        err = np.abs(uhat - ref) / scale
        worst = max(worst, float(np.max(err)))
        lows = [e for e, pk in zip(err, p) if abs(pk) <= LOW_P]
        low = max([low] + [float(e) for e in lows])
    return Accuracy(worst, low, len(sample), calls)


def accuracy_ok(acc: Accuracy):
    return math.isfinite(acc.max_rel_err) and acc.low_rel_err <= LOW_P_RTOL
