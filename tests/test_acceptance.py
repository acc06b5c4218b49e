"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

import schwarzbundles as sb
from schwarzbundles.errors import BranchUnresolvedError, TangentNotMeromorphicError

from oracles import area_integral_pullback, polygon_area_integral


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def disk():
    return sb.build_circle(0, 1)


@pytest.fixture(scope="module")
def disk_grid(disk):
    return sb.sample(disk, 512)


@pytest.fixture(scope="module")
def cardioid():
    return sb.build_polynomial_curve([0, 1, 0.3], 0.7)


@pytest.fixture(scope="module")
def cardioid_grid(cardioid):
    return sb.sample(cardioid, 1024)


def test_criterion_1_disk_exponential_transform(disk):
    start = time.perf_counter()
    grid = sb.sample(disk, 512)
    errs = [
        abs(sb.piece_f(grid, 2, 3) - 5 / 6),
        abs(sb.piece_g(grid, 0.5, 3) - (-1 / 3)),
        abs(sb.piece_h(grid, 0, 0.5) - 1.0),
        abs(sb.piece_gstar(grid, 2, 0.5) - (-0.5)),
    ]
    elapsed = time.perf_counter() - start
    report("criterion 1: disk piece values F, G, H, G*",
           max(errs) < 1e-9 and elapsed < 1.0,
           f"max err {max(errs):.2e}, {elapsed:.2f} s")


def test_criterion_2_transition_identities(disk, disk_grid, cardioid, cardioid_grid):
    start = time.perf_counter()
    worst = 0.0
    for grid in (disk_grid, cardioid_grid):
        pts = sb.annulus_verification_points(grid, 32)
        for w in (3, 0, 0.4 + 0.2j):
            bundle = sb.schwarz_pole_bundle(grid.curve, w)
            section = sb.canonical_section(bundle, grid)
            worst = max(worst, sb.verify_transition(section, bundle, pts))
    elapsed = time.perf_counter() - start
    report("criterion 2: transition identity residuals on annulus points",
           worst < 1e-9 and elapsed < 5.0,
           f"worst residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_chern_classes(disk, cardioid):
    worst_dev = 0.0
    ok = True
    for curve in (disk, cardioid):
        grid = sb.sample(curve, 512)
        cases = [
            (sb.exp_schwarz_bundle(curve), 0),
            (sb.schwarz_pole_bundle(curve, 3), 0),
            (sb.schwarz_pole_bundle(curve, 0), 1),
            (sb.tangent_power_bundle(curve, 2), -2),
        ]
        for bundle, expect in cases:
            _, winding = sb.unwrap_log(bundle.transition_at_nodes(grid))
            worst_dev = max(worst_dev, abs(winding - round(winding)))
            ok = ok and (sb.chern_class(bundle, grid) == expect)
    report("criterion 3: Chern classes with integer windings",
           ok and worst_dev < 1e-6, f"max pre-rounding deviation {worst_dev:.2e}")


def test_criterion_4_cauchy_and_moment_consistency(disk, disk_grid,
                                                   cardioid, cardioid_grid):
    worst = 0.0
    for grid in (disk_grid, cardioid_grid):
        section = sb.canonical_section(sb.exp_schwarz_bundle(grid.curve), grid)
        radii = np.concatenate([np.linspace(0.05, 0.45, 10),
                                np.linspace(1.8, 4.0, 10)])
        pts = radii * np.exp(1j * np.linspace(0, 2 * np.pi, 20, endpoint=False))
        count = 0
        for z in pts:
            z = complex(z)
            side = sb.locate(grid, z)
            if side is sb.Location.NEAR_BOUNDARY:
                continue
            ct = sb.cauchy_transform(grid, z)
            expect = np.exp(ct) if side is sb.Location.INTERIOR else np.exp(-ct)
            worst = max(worst, abs(sb.evaluate_section(section, z) - expect))
            count += 1
        assert count >= 20
    laurent = max(sb.moment_expansion_check(disk_grid, 6),
                  sb.moment_expansion_check(cardioid_grid, 6))
    report("criterion 4: exp-Schwarz section vs Cauchy transform and moments",
           worst < 1e-9 and laurent < 1e-8,
           f"section err {worst:.2e}, Laurent err {laurent:.2e}")


def test_criterion_5_quadrature_identities(disk, disk_grid, cardioid,
                                           cardioid_grid, unit_square):
    start = time.perf_counter()
    polys = ([1], [0, 1], [0, 0, 1], [0, 0, 0, 1])
    worst_boundary = 0.0
    worst_area = 0.0
    for curve, grid in ((disk, disk_grid), (cardioid, cardioid_grid)):
        for coeffs in polys:
            res_c = sb.classical_quadrature(curve, coeffs)
            res_a = sb.abelian_quadrature(curve, coeffs)
            worst_boundary = max(
                worst_boundary,
                abs(res_c - sb.boundary_classical(grid, coeffs)),
                abs(res_a - sb.boundary_abelian(grid, coeffs)))
            fn = lambda z: np.polynomial.polynomial.polyval(z, coeffs)
            dcoeffs = sb.poly_derivative(coeffs)
            dfn = lambda z: np.polynomial.polynomial.polyval(z, dcoeffs)
            worst_area = max(
                worst_area,
                abs(res_c - area_integral_pullback(curve, fn, 400) / np.pi),
                abs(res_a - area_integral_pullback(curve, dfn, 400) / np.pi))
    # arc-length residues apply where 1/T continues meromorphically (circles);
    # the cardioid must be rejected, not mis-answered
    for coeffs in polys:
        val = sb.arclength_quadrature(disk, coeffs, disk_grid)
        worst_boundary = max(worst_boundary,
                             abs(val - sb.boundary_arclength(disk_grid, coeffs)))
    rejected = False
    try:
        sb.arclength_quadrature(cardioid, [1], cardioid_grid)
    except TangentNotMeromorphicError:
        rejected = True

    weights = sb.polygon_quadrature(unit_square)
    worst_poly = 0.0
    for coeffs in ([0, 0, 1], [0, 0, 0, 1]):
        lhs = sb.apply_polygon_quadrature(weights, coeffs)
        fpp = sb.poly_derivative(coeffs, 2)
        oracle = polygon_area_integral(
            unit_square,
            lambda z: np.polynomial.polynomial.polyval(z, fpp), 400) / np.pi
        worst_poly = max(worst_poly, abs(lhs - oracle))
    elapsed = time.perf_counter() - start
    report("criterion 5: residue quadratures vs boundary and area oracles",
           worst_boundary < 1e-9 and worst_area < 1e-5 and worst_poly < 1e-5
           and rejected and elapsed < 30.0,
           f"boundary {worst_boundary:.2e}, area {worst_area:.2e}, "
           f"polygon {worst_poly:.2e}, {elapsed:.1f} s")


def test_criterion_6_rational_structure(disk_grid, cardioid_grid):
    fit = sb.fit_rational_structure(
        disk_grid, 1, 1, sb.default_exterior_samples(disk_grid, 12))
    scale = fit.q_coeffs[1, 1]
    q_err = np.abs(fit.q_coeffs / scale - np.array([[-1, 0], [0, 1]])).max()
    p_err = np.abs(fit.p_coeffs - np.array([0, 1])).max()
    fit_card = sb.fit_rational_structure(
        cardioid_grid, 2, 2, sb.default_exterior_samples(cardioid_grid, 12))
    boundary = sb.verify_algebraic_boundary(fit_card.q_coeffs, cardioid_grid)
    report("criterion 6: rational structure of the exponential transform",
           fit.residual < 1e-8 and q_err < 1e-7 and p_err < 1e-7
           and boundary < 1e-5,
           f"disk residual {fit.residual:.2e}, Q err {q_err:.2e}, "
           f"boundary {boundary:.2e}")


def test_criterion_7_property_suites(disk, disk_grid, cardioid):
    rng = np.random.default_rng(42)

    worst_herm = 0.0
    for _ in range(50):
        r1, r2 = rng.uniform(1.5, 4.0, size=2)
        t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
        z, w = r1 * np.exp(1j * t1), r2 * np.exp(1j * t2)
        a = sb.double_cauchy(disk_grid, z, w)
        b = sb.double_cauchy(disk_grid, w, z)
        worst_herm = max(worst_herm, abs(a.E - np.conjugate(b.E)))

    pts = 2.2 * np.exp(2j * np.pi * (np.arange(6) + 0.15) / 6) + 0.1
    gram_c = np.empty((6, 6), dtype=complex)
    gram_e = np.empty((6, 6), dtype=complex)
    for i, zi in enumerate(pts):
        for j, zj in enumerate(pts):
            tv = sb.double_cauchy(disk_grid, zi, zj)
            gram_c[i, j] = -tv.C
            gram_e[i, j] = 1.0 / tv.E
    min_eig = min(
        np.linalg.eigvalsh(0.5 * (gram_c + gram_c.conj().T)).min(),
        np.linalg.eigvalsh(0.5 * (gram_e + gram_e.conj().T)).min())

    worst_inv = 0.0
    for _ in range(20):
        r = rng.uniform(0.9, 1.1)
        th = rng.uniform(0, 2 * np.pi)
        z = complex(cardioid.phi(r * np.exp(1j * th)))
        back = sb.schwarz_reflect(cardioid, sb.schwarz_reflect(cardioid, z))
        worst_inv = max(worst_inv, abs(back - z))

    m_resid = max(
        sb.verify_m_differential_match(
            lambda z: z, lambda z: sb.schwarz_near(disk, z), disk, disk_grid, 0),
        sb.verify_m_differential_match(
            lambda z: 1.0, lambda z: sb.schwarz_prime(disk, z), disk, disk_grid, 2),
        sb.verify_m_differential_match(
            lambda z: 1.0, lambda z: 1.0 / sb.holomorphic_tangent(disk, z),
            disk, disk_grid, 1))

    report("criterion 7: hermitian symmetry, positivity, involution, matching",
           worst_herm < 1e-10 and min_eig >= -1e-8 and worst_inv < 1e-10
           and m_resid < 1e-10,
           f"herm {worst_herm:.2e}, eig {min_eig:.2e}, inv {worst_inv:.2e}, "
           f"match {m_resid:.2e}")


def test_criterion_8_refinement_behavior(disk, cardioid):
    tol = 1e-10
    checks = []

    def area(grid):
        return sb.harmonic_moments(grid, 0, 0)[0]

    def transform(grid):
        return sb.double_cauchy(grid, 2.0, 3.0).C

    for curve, functional in ((cardioid, area), (disk, transform),
                              (cardioid, transform)):
        grid = sb.adaptive_refine(curve, functional, tol)
        doubled = sb.sample(curve, 2 * grid.n)
        checks.append(abs(complex(functional(grid)) - complex(functional(doubled))))

    coarse = sb.sample(cardioid, 16)
    bundle = sb.schwarz_pole_bundle(cardioid, 0.9 + 0.05j)
    try:
        chern = sb.chern_class(bundle, coarse)
        outcome = isinstance(chern, int)
        detail = f"coarse grid gave integer Chern {chern}"
    except BranchUnresolvedError:
        outcome = True
        detail = "coarse grid raised BranchUnresolved"
    report("criterion 8: refinement stability and coarse-grid refusal",
           max(checks) < 1e-10 and outcome,
           f"max doubling change {max(checks):.2e}; {detail}")
