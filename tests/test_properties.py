"""Property suites over randomized inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schwarzbundles as sb

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


@settings(max_examples=15)
@given(r1=st.floats(min_value=0.05, max_value=0.6, **finite),
       t1=st.floats(min_value=0.0, max_value=2 * np.pi, **finite),
       r2=st.floats(min_value=1.6, max_value=4.0, **finite),
       t2=st.floats(min_value=0.0, max_value=2 * np.pi, **finite))
def test_hermitian_symmetry_mixed(disk_grid, r1, t1, r2, t2):
    z = r1 * np.exp(1j * t1)
    w = r2 * np.exp(1j * t2)
    a = sb.double_cauchy(disk_grid, z, w)   # interior, exterior
    b = sb.double_cauchy(disk_grid, w, z)   # exterior, interior
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
