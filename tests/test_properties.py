"""Property suites over randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import schwarzbundles as sb
from schwarzbundles.errors import CurveNotSimpleError
from schwarzbundles.schwarz import NEWTON_TOL

finite = dict(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def disk():
    return sb.build_circle(0, 1)


@pytest.fixture(scope="module")
def disk_grid(disk):
    return sb.sample(disk, 256)


@given(t=st.floats(min_value=0.0, max_value=2 * np.pi, **finite))
def test_unit_tangent_modulus(t):
    curve = sb.build_polynomial_curve([0, 1, 0.3], 0.8)
    assert abs(abs(sb.unit_tangent(curve, t)) - 1.0) < 1e-14


@given(t=st.floats(min_value=0.0, max_value=2 * np.pi, **finite))
def test_schwarz_boundary_identity(t):
    curve = sb.build_polynomial_curve([0, 1, 0.25, 0.05], 0.75)
    z = complex(curve.point(t))
    assert abs(sb.schwarz_near(curve, z) - np.conjugate(z)) < 1e-10


@given(r=st.floats(min_value=0.88, max_value=1.12, **finite),
       th=st.floats(min_value=0.0, max_value=2 * np.pi, **finite))
def test_reflection_involution(r, th):
    curve = sb.build_polynomial_curve([0, 1, 0.3], 0.8)
    z = complex(curve.phi(r * np.exp(1j * th)))
    assert abs(sb.schwarz_reflect(curve, sb.schwarz_reflect(curve, z)) - z) < 1e-10


@given(re=st.floats(min_value=-0.22, max_value=0.22, **finite),
       im=st.floats(min_value=-0.22, max_value=0.22, **finite))
def test_curve_area_formula(re, im):
    # maps zeta + a2 zeta^2 with |a2| <= 0.25 sqrt(2) are safely univalent
    a2 = complex(re, im)
    curve = sb.build_polynomial_curve([0, 1, a2], 0.8)
    grid = sb.sample(curve, 256)
    area = sb.harmonic_moments(grid, 0, 0)[0]
    assert area.real == pytest.approx(1.0 + 2.0 * abs(a2) ** 2, abs=1e-10)
    assert abs(area.imag) < 1e-10


@settings(max_examples=15)
@given(r1=st.floats(min_value=1.5, max_value=4.0, **finite),
       t1=st.floats(min_value=0.0, max_value=2 * np.pi, **finite),
       r2=st.floats(min_value=1.5, max_value=4.0, **finite),
       t2=st.floats(min_value=0.0, max_value=2 * np.pi, **finite))
def test_hermitian_symmetry_exterior(disk_grid, r1, t1, r2, t2):
    z = r1 * np.exp(1j * t1)
    w = r2 * np.exp(1j * t2)
    a = sb.double_cauchy(disk_grid, z, w)
    b = sb.double_cauchy(disk_grid, w, z)
    assert abs(a.C - np.conjugate(b.C)) < 1e-10
    assert abs(a.E - np.conjugate(b.E)) < 1e-10


@pytest.fixture(scope="module")
def cardioid_grid():
    return sb.sample(sb.build_polynomial_curve([0, 1, 0.3], 0.7), 512)


@pytest.mark.parametrize("grid_name", ["disk", "cardioid"])
@settings(max_examples=15)
@given(r1=st.floats(min_value=0.05, max_value=0.6, **finite),
       t1=st.floats(min_value=0.0, max_value=2 * np.pi, **finite),
       r2=st.floats(min_value=1.6, max_value=4.0, **finite),
       t2=st.floats(min_value=0.0, max_value=2 * np.pi, **finite))
def test_hermitian_symmetry_mixed(request, grid_name, r1, t1, r2, t2):
    # z = phi(r1 e^{i t1}) is interior, and w beyond the cardioid's reach 1.3
    grid = request.getfixturevalue(f"{grid_name}_grid")
    z = complex(grid.curve.phi(r1 * np.exp(1j * t1)))
    w = r2 * np.exp(1j * t2)
    a = sb.double_cauchy(grid, z, w)   # interior, exterior
    b = sb.double_cauchy(grid, w, z)   # exterior, interior
    assert abs(a.C - np.conjugate(b.C)) < 1e-10
    assert abs(a.E - np.conjugate(b.E)) < 1e-10


@settings(max_examples=15)
@given(r1=st.floats(min_value=0.05, max_value=0.6, **finite),
       t1=st.floats(min_value=0.0, max_value=2 * np.pi, **finite),
       r2=st.floats(min_value=0.05, max_value=0.6, **finite),
       t2=st.floats(min_value=0.0, max_value=2 * np.pi, **finite))
def test_hermitian_symmetry_interior(disk_grid, r1, t1, r2, t2):
    z = r1 * np.exp(1j * t1)
    w = r2 * np.exp(1j * t2)
    if abs(z - w) < 1e-3:
        return
    a = sb.double_cauchy(disk_grid, z, w)
    b = sb.double_cauchy(disk_grid, w, z)
    assert abs(a.C - np.conjugate(b.C)) < 1e-10
    assert abs(a.E - np.conjugate(b.E)) < 1e-10


AFFINE_CURVES = {"cardioid": ([0, 1, 0.3], 0.7),
                 "quartic": ([0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72)}
unit = st.floats(min_value=0.0, max_value=1.0, **finite)
angle = st.floats(min_value=0.0, max_value=2 * np.pi, **finite)


@pytest.mark.parametrize("name", sorted(AFFINE_CURVES))
@settings(max_examples=20)
@given(scale=st.floats(min_value=0.3, max_value=3.0, **finite), turn=angle,
       shift=st.tuples(st.floats(min_value=-5.0, max_value=5.0, **finite),
                       st.floats(min_value=-5.0, max_value=5.0, **finite)),
       radii=st.lists(unit, min_size=4, max_size=4),
       angles=st.lists(angle, min_size=4, max_size=4))
def test_transform_is_affine_invariant(name, scale, turn, shift, radii, angles):
    # C of a z + b, a w + b on the domain a D + b is C(z, w) on D, branch
    # included: a rotation moves every principal-log cut. Interior points
    # sit at pullback radius at most 0.7, exterior ones 1.5 to 3 times the
    # reach out; each C is within double_cauchy_bound of its one-point sums
    coeffs, rho = AFFINE_CURVES[name]
    a, b = scale * np.exp(1j * turn), complex(*shift)
    curve = sb.build_polynomial_curve(coeffs, rho)
    moved = sb.build_polynomial_curve([a * coeffs[0] + b] + [a * c for c in coeffs[1:]],
                                      rho)
    grid, moved_grid = sb.sample(curve, 512), sb.sample(moved, 512)
    reach = np.abs(grid.z - curve.conformal_center).max()
    turns = np.exp(1j * np.asarray(angles))
    z_in, w_in = curve.phi(0.7 * np.asarray(radii[:2]) * turns[:2])
    z_out, w_out = curve.conformal_center + reach * (1.5 + 1.5 * np.asarray(radii[2:])) * turns[2:]
    for z in (z_in, z_out):
        for w in (w_in, w_out):
            if abs(z - w) < 1e-3:
                continue
            c = sb.double_cauchy(grid, z, w).C
            c_moved = sb.double_cauchy(moved_grid, a * z + b, a * w + b).C
            bound = (oracles.double_cauchy_bound(grid, z, w, c)
                     + oracles.double_cauchy_bound(moved_grid, a * z + b, a * w + b, c_moved))
            assert abs(c_moved - c) <= bound
    for cv, g, move in ((curve, grid, lambda p: p), (moved, moved_grid, lambda p: a * p + b)):
        for bundle, chern in ((sb.exp_schwarz_bundle(cv), 0),
                              (sb.schwarz_pole_bundle(cv, move(w_out)), 0),
                              (sb.schwarz_pole_bundle(cv, move(w_in)), 1),
                              (sb.tangent_power_bundle(cv, -1), 1),
                              (sb.tangent_power_bundle(cv, 2), -2)):
            assert sb.chern_class(bundle, g) == chern


@settings(max_examples=20)
@given(scale=st.floats(min_value=0.3, max_value=3.0, **finite), turn=angle,
       reach=unit, heading=angle)
def test_moments_follow_an_affine_map(scale, turn, reach, heading):
    # M_k of a D + b is |a|^2 sum_{j <= k} C(k, j) a^j b^(k - j) M_j of D,
    # 0 <= k <= 6. b = a c with |c| <= 0.4 keeps 0 interior to both curves
    # (|phi| >= 0.63 on the quartic's boundary). Each trapezoidal moment
    # rounds within eps of the sum of its terms' moduli, hence the bound
    coeffs, rho = AFFINE_CURVES["quartic"]
    a = scale * np.exp(1j * turn)
    b = a * 0.4 * reach * np.exp(1j * heading)
    grid = sb.sample(sb.build_polynomial_curve(coeffs, rho), 1024)
    moved = sb.sample(sb.build_polynomial_curve(
        [a * coeffs[0] + b] + [a * c for c in coeffs[1:]], rho), 1024)
    moments, moved_moments = sb.harmonic_moments(grid, 0, 6), sb.harmonic_moments(moved, 0, 6)

    def term_moduli(g, k):
        return g.weight / (2 * np.pi) * np.sum(np.abs(g.z) ** (k + 1) * np.abs(g.dz))

    for k in range(7):
        want = abs(a) ** 2 * sum(math.comb(k, j) * a ** j * b ** (k - j) * moments[j]
                                 for j in range(k + 1))
        scale_k = abs(a) ** 2 * sum(math.comb(k, j) * abs(a) ** j * abs(b) ** (k - j)
                                    * term_moduli(grid, j) for j in range(k + 1))
        bound = 16 * oracles.EPS * (scale_k + term_moduli(moved, k))
        assert abs(moved_moments[k] - want) <= bound


INVERSE_CURVES = dict(AFFINE_CURVES, disk=([0, 1], 0.5))


@pytest.mark.parametrize("name", sorted(INVERSE_CURVES))
@given(radii=st.lists(unit, min_size=1, max_size=12), data=st.data())
def test_batched_inverse_recovers_the_annulus(name, radii, data):
    # zeta anywhere in the validated annulus rho <= |zeta| <= 1/rho. Newton
    # stops at a residual of NEWTON_TOL (1 + |z|), so zeta is off by at most
    # that over |phi'| (twice that here, for rounding): up to 1.3e-12 on
    # these curves, past 1e-12 only where |phi'| is small, as by zeta =
    # -1/rho on the cardioid. Each point of the batch comes out as alone
    coeffs, rho = INVERSE_CURVES[name]
    curve = sb.build_polynomial_curve(coeffs, rho)
    angles = data.draw(st.lists(angle, min_size=len(radii), max_size=len(radii)))
    zeta = (rho + (1.0 / rho - rho) * np.asarray(radii)) * np.exp(1j * np.asarray(angles))
    zs = curve.phi(zeta)
    got = sb.invert_conformal_map(curve, zs)
    bound = 2.0 * NEWTON_TOL * (1.0 + np.abs(zs)) / np.abs(curve.dphi(zeta))
    assert np.all(np.abs(got - zeta) <= bound)
    assert [sb.invert_conformal_map(curve, z) for z in zs] == got.tolist()


@given(re=st.floats(min_value=-2.0, max_value=2.0, **finite),
       im=st.floats(min_value=-2.0, max_value=2.0, **finite))
def test_locate_is_winding(disk_grid, re, im):
    z = complex(re, im)
    side = sb.locate(disk_grid, z)
    if side is sb.Location.NEAR_BOUNDARY:
        return
    w = sb.winding_number(disk_grid, z)
    assert abs(w - round(w)) < 1e-6
    assert round(w) == (1 if side is sb.Location.INTERIOR else 0)


@given(degree=st.integers(min_value=2, max_value=8),
       rho=st.floats(min_value=0.5, max_value=0.95, **finite),
       mags=st.lists(st.floats(min_value=0.0, max_value=0.6, **finite),
                     min_size=7, max_size=7),
       phases=st.lists(st.floats(min_value=0.0, max_value=2 * np.pi, **finite),
                       min_size=7, max_size=7))
def test_accepted_curves_have_tangent_winding_one(degree, rho, mags, phases):
    # phi' has no zero in |zeta| <= 1/rho once the curve is accepted, so by
    # the argument principle i zeta phi'(zeta) winds once around the circle;
    # about a third of these draws put a zero there and are refused
    k = np.arange(2, degree + 1)
    coeffs = (np.array(mags[:degree - 1]) * rho ** (k - 1) / k
              * np.exp(1j * np.array(phases[:degree - 1])))
    try:
        curve = sb.build_polynomial_curve([0, 1, *coeffs], rho)
    except CurveNotSimpleError:
        return
    _, winding = sb.unwrap_log(curve.velocity(2 * np.pi * np.arange(512) / 512))
    assert abs(winding - 1.0) < 1e-9


@given(k=st.integers(min_value=-4, max_value=4))
def test_disk_moments_vanish_except_area(disk_grid, k):
    table = sb.harmonic_moments(disk_grid, min(k, 0), max(k, 0))
    expect = 1.0 if k == 0 else 0.0
    assert abs(table[k] - expect) < 1e-12


def test_concurrent_evaluation_matches_serial(disk_grid):
    from concurrent.futures import ThreadPoolExecutor

    pts = [(1.6 + 0.2j * k, 2.5 - 0.15j * k) for k in range(24)]
    serial = [sb.double_cauchy(disk_grid, z, w).E for z, w in pts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(
            lambda zw: sb.double_cauchy(disk_grid, *zw).E, pts))
    assert serial == parallel
