"""Acceptance gate: each test pins one shipping criterion at its stated
tolerance and prints a single pass line with the measured margin."""

import time

import numpy as np

from opcauchy.cli import load_verdict, save_verdict
from opcauchy.kernels import (
    CauchyProblem,
    homogeneous_mode,
    inhomogeneous_mode,
    sinhc_sqrt,
    solve,
)
from opcauchy.multiplier import Field, apply_multiplier, mesh
from opcauchy.oracle import kernel_discrepancy_probe, mode_ode_solve, residual_check
from opcauchy.spherical import SphereQuadrature, sinhc_spherical
from opcauchy.symbol_poly import CharacteristicSpec, Kind

from helpers import derivative, laplacian, zero_field

T_VALUES = (0.25, 0.5, 1.0)
TWO_PI = 2 * np.pi


def _disk_sample(rng, radius):
    return radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())


def _sample_roots(rng, m, even):
    """Distinct roots with |a_j| <= 2 and pairwise gap >= 0.1."""
    while True:
        roots = np.array([_disk_sample(rng, 2.0) for _ in range(m)])
        gaps = [
            abs(roots[i] - roots[j]) for i in range(m) for j in range(i + 1, m)
        ]
        if min(gaps) < 0.1:
            continue
        if even:
            # the even kind additionally needs nonzero roots with distinct squares
            sq = roots * roots
            sq_gaps = [
                abs(sq[i] - sq[j]) for i in range(m) for j in range(i + 1, m)
            ]
            if min(np.abs(roots)) < 0.2 or min(sq_gaps) < 0.05:
                continue
        return roots


def _sample_symbol(rng, roots):
    """p with |p| <= 4 and Re(a_j p) <= 0 for every root, or None."""
    for _ in range(400):
        p = _disk_sample(rng, 4.0)
        if all((a * p).real <= 0 for a in roots):
            return p
    return None


def _mode_formula(spec, p, phihat, t, measure=None):
    out = homogeneous_mode(spec, p, phihat, t)
    out += inhomogeneous_mode(spec, p, np.cos, t, nodes=64, measure=measure)
    return out


def _run_oracle_equivalence(kind, count, rng, measure=None):
    worst = 0.0
    done = 0
    while done < count:
        m = 2 + done % 3
        if kind is Kind.REPEATED_ROOT:
            spec = CharacteristicSpec.repeated_root(m)
            p = _sample_symbol(rng, [1.0])  # Re p <= 0
        else:
            even = kind is Kind.EVEN_ORDER_PRODUCT
            roots = _sample_roots(rng, m, even)
            p = _sample_symbol(rng, roots)
            if p is None:
                continue
            spec = (
                CharacteristicSpec.even_order_product(roots)
                if even
                else CharacteristicSpec.first_order_product(roots=roots)
            )
        phihat = rng.normal(size=spec.data_count) + 1j * rng.normal(
            size=spec.data_count
        )
        for t in T_VALUES:
            got = _mode_formula(spec, p, phihat, t, measure=measure)
            ref = mode_ode_solve(spec, p, phihat, np.cos, t)
            err = abs(got - ref) / (1 + abs(ref))
            assert err <= 1e-6, (kind, m, p, t, err)
            worst = max(worst, err)
        done += 1
    return worst


def test_criterion_1_per_mode_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for kind in (Kind.FIRST_ORDER_PRODUCT, Kind.EVEN_ORDER_PRODUCT):
        worst = max(worst, _run_oracle_equivalence(kind, 200, rng))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 1 PASS: 200 problems/kind x 3 times within 1e-6 "
        f"(worst {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_closed_form_spot_checks():
    heat = CharacteristicSpec.first_order_product(roots=[1.0, 2.0])
    got = homogeneous_mode(heat, -1.0, [1.0, 0.0], 1.0)
    heat_err = abs(got - (2 * np.exp(-1) - np.exp(-2)))
    assert heat_err <= 1e-8

    wave = CharacteristicSpec.even_order_product([1.0, 2.0])
    wave_err = 0.0
    for t in T_VALUES:
        got = homogeneous_mode(wave, -1.0, [1.0, 0, 0, 0], t)
        expect = (4 * np.cos(t) - np.cos(2 * t)) / 3
        wave_err = max(wave_err, abs(got - expect))
    assert wave_err <= 1e-8
    print(
        f"criterion 2 PASS: heat err {heat_err:.2e}, wave err {wave_err:.2e} "
        f"(tolerance 1e-8)"
    )


def test_criterion_3_zero_data_reduction():
    rng = np.random.default_rng(33)
    worst = 0.0
    for kind in (Kind.FIRST_ORDER_PRODUCT, Kind.EVEN_ORDER_PRODUCT):
        even = kind is Kind.EVEN_ORDER_PRODUCT
        for _ in range(30):
            m = int(rng.integers(2, 5))
            roots = _sample_roots(rng, m, even)
            p = _sample_symbol(rng, roots)
            if p is None:
                continue
            spec = (
                CharacteristicSpec.even_order_product(roots)
                if even
                else CharacteristicSpec.first_order_product(roots=roots)
            )
            t = float(rng.choice(T_VALUES))
            zeros = np.zeros(spec.data_count, dtype=complex)
            # nonzero-data assembly with zero data vs the pure forced formula
            full = _mode_formula(spec, p, zeros, t)
            forced = inhomogeneous_mode(spec, p, np.cos, t, nodes=64)
            scale = 1 + abs(forced)
            err = abs(full - forced) / scale
            assert err <= 1e-12
            worst = max(worst, err)
    print(f"criterion 3 PASS: zero-data assemblies identical (worst {worst:.2e})")


def test_criterion_4_discrepancy_probe_and_winner(tmp_path):
    results = [kernel_discrepancy_probe(m, seed=7 + m) for m in (2, 3)]
    min_ratio = min(r.min_ratio for r in results)
    assert min_ratio >= 1e3
    path = tmp_path / "probe_verdict.txt"
    save_verdict(path, results)
    winner = load_verdict(path)
    assert path.read_text().count("#") >= len(results[0].rows)  # evidence table

    rng = np.random.default_rng(44)
    worst = _run_oracle_equivalence(Kind.REPEATED_ROOT, 200, rng, measure=winner)
    print(
        f"criterion 4 PASS: winner {winner}, min ratio {min_ratio:.1e}, "
        f"repeated-root vs oracle worst {worst:.2e} (tolerance 1e-6)"
    )


def _dense_solve_and_check(problem, n_snapshots):
    ts = tuple(np.linspace(0.0, 1.0, n_snapshots))
    dense = CauchyProblem(
        problem.spec, problem.P, problem.shape, problem.box, problem.phi,
        problem.forcing, ts,
    )
    snapshots, _ = solve(dense, nodes=64)
    return residual_check(snapshots, dense)


def test_criterion_5_residual_substitution():
    shape1, box1 = (64,), (TWO_PI,)
    x = mesh(shape1, box1)[0]
    wave_1d = CauchyProblem(
        spec=CharacteristicSpec.even_order_product([1.0, 2.0]),
        P=derivative(1, 0, 2),
        shape=shape1,
        box=box1,
        phi=[
            Field(shape1, box1, (np.sin(x) + 0.5 * np.cos(2 * x)).astype(complex)),
            zero_field(shape1, box1),
            zero_field(shape1, box1),
            zero_field(shape1, box1),
        ],
        forcing=lambda t: np.cos(t) * np.sin(x),
        t_points=(1.0,),
    )
    rep1 = _dense_solve_and_check(wave_1d, 65)
    assert rep1.max_residual <= 1e-4
    assert max(rep1.ic_errors) <= 1e-5

    shape3, box3 = (16, 16, 16), (TWO_PI,) * 3
    xx, yy, zz = mesh(shape3, box3)
    heat_3d = CauchyProblem(
        spec=CharacteristicSpec.first_order_product(roots=[1.0, 2.0]),
        P=laplacian(3),
        shape=shape3,
        box=box3,
        phi=[
            Field(shape3, box3, (np.sin(xx) + np.cos(yy) * np.sin(zz)).astype(complex)),
            zero_field(shape3, box3),
        ],
        forcing=None,
        t_points=(1.0,),
    )
    rep3 = _dense_solve_and_check(heat_3d, 33)
    assert rep3.max_residual <= 1e-4
    assert max(rep3.ic_errors) <= 1e-5
    print(
        f"criterion 5 PASS: residuals 1-D {rep1.max_residual:.2e}, "
        f"3-D {rep3.max_residual:.2e} (<= 1e-4); worst IC error "
        f"{max(max(rep1.ic_errors), max(rep3.ic_errors)):.2e} (<= 1e-5)"
    )


def test_criterion_6_spherical_vs_spectral():
    start = time.perf_counter()
    shape, box = (32, 32, 32), (TWO_PI,) * 3
    rng = np.random.default_rng(66)
    xyz = mesh(shape, box)
    data = np.zeros(shape)
    for _ in range(15):
        k = rng.integers(-5, 6, size=3)
        data += rng.normal() * np.cos(
            sum(k[d] * xyz[d] for d in range(3)) + rng.uniform(0, TWO_PI)
        )
    u = Field(shape, box, data.astype(complex))
    q = SphereQuadrature.gauss_product(29)
    lap = laplacian(3)
    worst = 0.0
    for a, t in ((1.0, 0.5), (2.0, 0.5), (1.0, 1.0), (2.0, 0.25)):
        assert a * t in (0.5, 1.0)
        spherical = sinhc_spherical(u, a, t, q)
        spectral = apply_multiplier(u, lambda p: t * sinhc_sqrt(t * t * a * a * p), lap)
        err = np.linalg.norm(spherical.data - spectral.data) / np.linalg.norm(
            spectral.data
        )
        assert err <= 1e-3
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"criterion 6 PASS: spherical vs spectral worst {worst:.2e} "
        f"(<= 1e-3, {elapsed:.1f}s)"
    )


def test_criterion_7_lagrange_identities():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        roots = _sample_roots(rng, m, even=False)
        for q in range(m):
            total = sum(
                aj**q / np.prod([aj - ai for ai in roots if ai != aj])
                for aj in roots
            )
            expected = 1.0 if q == m - 1 else 0.0
            err = abs(total - expected)
            assert err <= 1e-9
            worst = max(worst, err)
    print(f"criterion 7 PASS: 1000 root sets, worst deviation {worst:.2e} (<= 1e-9)")


def test_criterion_8_quadrature_convergence():
    cases = [
        (CharacteristicSpec.first_order_product(roots=[1.0, 2.0]), [1.0, 0.0]),
        (CharacteristicSpec.even_order_product([1.0, 2.0]), [1.0, 0, 0, 0]),
    ]
    node_counts = (8, 16, 24, 32, 48, 64, 96)
    summaries = []
    for spec, phihat in cases:
        ref = homogeneous_mode(spec, -1.0, phihat, 1.0)
        ref += inhomogeneous_mode(spec, -1.0, np.cos, 1.0, nodes=192)

        def err_at(n):
            got = homogeneous_mode(spec, -1.0, phihat, 1.0)
            got += inhomogeneous_mode(spec, -1.0, np.cos, 1.0, nodes=n)
            return abs(got - ref)

        errs = [err_at(n) for n in node_counts]
        below = [i for i, e in enumerate(errs) if e < 1e-10]
        assert below, f"never reached 1e-10: {errs}"
        first = below[0]
        assert node_counts[first] < 96
        for i in range(first):
            assert errs[i + 1] <= errs[i], (spec.kind, node_counts, errs)
        summaries.append((spec.kind.value, node_counts[first], errs[first]))
    detail = "; ".join(f"{k} < 1e-10 at {n} nodes ({e:.1e})" for k, n, e in summaries)
    print(f"criterion 8 PASS: {detail}")
