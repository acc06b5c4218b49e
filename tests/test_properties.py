"""Property suites over randomized inputs."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import schwarzbundles as sb
from strategies import certified_curves
from schwarzbundles import transforms
from schwarzbundles.errors import BranchUnresolvedError, CurveNotSimpleError
from schwarzbundles.schwarz import NEWTON_TOL
from schwarzbundles.transforms import PHASE_STEP_LIMIT

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
    area = sb.boundary_classical(grid, [1])
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
    # (|phi| >= 0.63 on the quartic's boundary). The bound is eps times the
    # moduli of the moments' trapezoidal terms, which bound |M_k|; the
    # moments from the coefficient table stay within 0.06 of it (300 draws)
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


@pytest.fixture(scope="module", params=sorted(INVERSE_CURVES))
def inverse_grid(request):
    return sb.sample(sb.build_polynomial_curve(*INVERSE_CURVES[request.param]), 256)


@settings(max_examples=60)
@given(r=st.one_of(st.floats(min_value=0.85, max_value=1.15, **finite),
                   st.floats(min_value=0.0, max_value=2.0, **finite)), t=angle)
def test_pole_class_is_the_winding_around_the_pole(inverse_grid, r, t):
    # the stored class of 1/(S - conj w), the roots of phi - w in |zeta| < 1,
    # is the curve's winding around w off the band, and the transition's
    # winding at the nodes wherever its unwrap resolves; half of the poles
    # are drawn near the curve, where the two can part
    w = complex(inverse_grid.curve.phi(r * np.exp(1j * t)))
    bundle = sb.schwarz_pole_bundle(inverse_grid.curve, w)
    chern = sb.chern_class(bundle, inverse_grid)
    if sb.locate(inverse_grid, w) is not sb.Location.NEAR_BOUNDARY:
        assert chern == round(sb.winding_number(inverse_grid, w))
    try:
        _, winding = sb.unwrap_log(bundle.transition_at_nodes(inverse_grid))
    except BranchUnresolvedError:
        return
    assert chern == round(winding)


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


@settings(max_examples=30, deadline=None)
@given(curve=certified_curves())
def test_moment_table_matches_the_trapezoidal_moments(curve):
    # The trapezoidal sum at n = 4096 is exact for z^k conj(z) dz, a
    # trigonometric polynomial of degree at most (k + 2) N < n, up to rounding:
    # k + 3 products per term and the summation tree, within 4 (k + 16) eps of
    # the terms' moduli. The table rounds within 4 (k + 2)(N + 3) eps of the
    # moment of the coefficients' moduli (test_quaddom's bound).
    coeffs, degree = curve.coeffs, len(curve.coeffs) - 1
    grid = sb.sample(curve, 4096)
    table = curve.moments(20)
    for k in range(21):
        terms = grid.weight / (2 * np.pi) * np.sum(np.abs(grid.z) ** (k + 1) * np.abs(grid.dz))
        modulus = oracles.exact_moment(np.abs(coeffs), k).real
        bound = 4 * oracles.EPS * ((k + 16) * terms + (k + 2) * (degree + 3) * modulus)
        assert abs(table[k] - sb.boundary_classical(grid, [0] * k + [1])) <= bound, k


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


# polygon validation: the blocked pair pass against the scalar loops it
# replaced (`oracles.polygon_refusal`), class and message, on five families

def _outcome(vertices):
    try:
        sb.build_polygon(vertices)
    except sb.errors.SchwarzBundleError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def star_polygons(draw):
    """Vertices at sorted angles and random radii: star-shaped about 0,
    though a thin wedge may still make a short edge or collinear points."""
    n = draw(st.integers(3, 24))
    angles = draw(st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True, **finite),
                           min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(0.2, 1.0, **finite), min_size=n, max_size=n))
    return [r * np.exp(1j * t) for r, t in zip(radii, sorted(angles))]


crossing_polygons = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=16)
lattice_polygons = st.lists(st.builds(complex, st.integers(0, 3), st.integers(0, 3)),
                            min_size=3, max_size=10)


@st.composite
def scaled_clockwise_polygons(draw):
    """A star polygon turned clockwise, scaled by 10^-20 ... 10^20, with one
    vertex repeated at a drawn position."""
    scale = 10.0 ** draw(st.integers(-20, 20))
    vertices = [v * scale for v in draw(star_polygons())[::-1]]
    vertices.insert(draw(st.integers(0, len(vertices))), draw(st.sampled_from(vertices)))
    return vertices


@st.composite
def mixed_scale_polygons(draw):
    """A star polygon whose vertices are scaled by 10^-20 ... 10^20 each, so
    that edges meet the zero-length rule's threshold at a large extent."""
    return [v * 10.0 ** draw(st.integers(-20, 20)) for v in draw(star_polygons())]


@pytest.mark.parametrize("family", [star_polygons(), crossing_polygons, lattice_polygons,
                                    scaled_clockwise_polygons(), mixed_scale_polygons()],
                         ids=["star", "crossing", "lattice", "clockwise-scaled-repeat",
                              "mixed-scales"])
@settings(max_examples=250)
@given(data=st.data())
def test_polygon_validation_matches_the_scalar_loops(family, data):
    vertices = data.draw(family)
    assert _outcome(vertices) == oracles.polygon_refusal(vertices)


SPECTRAL_CURVES = dict(INVERSE_CURVES, cubic=([0.2j, 1, 0.2 + 0.15j, -0.04 + 0.05j], 0.7))


@pytest.mark.parametrize("n", [512, 1024, 4096])
@pytest.mark.parametrize("name", sorted(SPECTRAL_CURVES))
def test_spectral_verification_bounds_the_point_residual(name, n):
    # every built-in kind with a section, correct and off log lambda12 by
    # 1e-8 times one mode, at all points and at either half of them
    curve = sb.build_polynomial_curve(*SPECTRAL_CURVES[name])
    grid = sb.sample(curve, n)
    pts = sb.annulus_verification_points(grid, 32)
    t = grid.t
    modes = (np.sin(3 * t), np.exp(-1j * t), np.exp(2j * t), np.exp(40j * t), np.exp(-40j * t))
    bundles = (sb.exp_schwarz_bundle(curve), sb.schwarz_pole_bundle(curve, 3),
               sb.schwarz_pole_bundle(curve, complex(curve.phi(0.3 + 0.1j))),
               sb.tangent_power_bundle(curve, -1))
    for bundle in bundles:
        section = sb.canonical_section(bundle, grid)
        for mode in (None, *modes):
            tried = section if mode is None else dataclasses.replace(
                section, density=section.density + 1e-8 * mode)
            for subset in (pts, pts[:16], pts[16:]):
                value = sb.verify_transition(tried, bundle, subset)
                point = oracles.point_transition_residual(tried, bundle, subset)
                assert value >= point or point <= 1e-13, (value, point)
                if mode is None:
                    assert value <= 1e-12


MOMENT_CURVES = {"disk": ([0, 1], 0.5), "shifted": ([0.2 + 0.1j, 1], 0.5),
                 "cardioid": ([0, 1, 0.3], 0.7),
                 "quartic": ([0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72)}


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("name", sorted(MOMENT_CURVES))
def test_trapezoid_moments_equal_the_power_loop(name, n):
    # m_k walks |k| products by z (or 1/z) per term, the loop takes one
    # complex power: both within (|k| + 1) eps of the terms' moduli. For
    # k >= 0 boundary_classical's Horner sum of e_k is a second reference.
    grid = sb.sample(sb.build_polynomial_curve(*MOMENT_CURVES[name]), n)
    k_lo, k_hi = -300, 20
    got = transforms._trapezoid_moments(grid, k_lo, k_hi)
    want = oracles.trapezoid_moments_loop(grid, k_lo, k_hi)
    scale = grid.weight / (2 * np.pi) * np.abs(grid.z) * np.abs(grid.dz)
    for k, m, loop in zip(range(k_lo, k_hi + 1), got, want):
        bound = 2 * (abs(k) + 1) * oracles.EPS * np.sum(np.abs(grid.z) ** k * scale)
        assert abs(m - loop) <= bound, k
        if k >= 0:
            assert abs(m - sb.boundary_classical(grid, [0] * k + [1])) <= bound, k


def _unwrap_or_refusal(unwrap, values):
    try:
        return unwrap(values)
    except BranchUnresolvedError as exc:
        return type(exc), str(exc)


def _same_unwrap(got, expected):
    if isinstance(expected[0], type):  # a refusal: its type and message
        return got == expected
    return (oracles.same_bits(got[0], expected[0])
            and type(got[1]) is type(expected[1])
            and oracles.same_bits(got[1], expected[1]))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300), columns=st.one_of(st.none(), st.integers(1, 4)),
       winding=st.integers(-3, 3), scale=st.floats(-300, 300, **finite),
       wobble=st.floats(0.0, 1.5, **finite), seed=st.integers(0, 2 ** 32 - 1),
       spoil=st.sampled_from([None, "zero", "nan", "inf", "step", "real"]))
def test_unwrap_log_equals_the_oracle_bit_for_bit(n, columns, winding, scale, wobble,
                                                  seed, spoil):
    # 1-D and (n, m) sequences, smooth or spoiled with each refusal: the
    # same bytes, winding type and value, or the same refusal and message
    rng = np.random.default_rng(seed)
    shape = (n,) if columns is None else (n, columns)
    t = 2 * np.pi * np.arange(n) / n
    t = t if columns is None else t[:, None]
    values = 10.0 ** scale * np.exp(1j * winding * t + wobble * rng.standard_normal(shape)
                                    + 0.3j * rng.standard_normal(shape))
    spot = (int(rng.integers(n)),) + (() if columns is None else (int(rng.integers(columns)),))
    if spoil == "zero":
        values[spot] = 0.0
    elif spoil == "nan":
        values[spot] = complex(np.nan, 1.0)
    elif spoil == "inf":
        values[spot] = -np.inf
    elif spoil == "step":
        values[spot[0]:] *= np.exp(1j * (PHASE_STEP_LIMIT + 0.1))
    elif spoil == "real":  # positive reals with signed zero imaginary parts
        values = np.abs(values) + 1j * np.copysign(0.0, rng.standard_normal(shape))
    with np.errstate(all="ignore"):
        got = _unwrap_or_refusal(sb.unwrap_log, values)
        expected = _unwrap_or_refusal(oracles.unwrap_log_with_temporaries, values)
    assert _same_unwrap(got, expected)


@pytest.mark.parametrize("values", [
    np.full(3, complex(1e308, -5e-324)),  # phases of -0.0 before the sum
    np.array([1.0, 1.0 - 0.0j, 1.0, 1.0 + 0.0j]),
    np.full((4, 2), complex(2.0, -0.0)),
    np.exp(1j * np.array([0.0, 0.3, 2.0, 0.6])),  # a step of 1.7
    np.array([1.0, 0.0, 1.0, 1.0]),
    np.array([1.0, np.nan, 1.0]),
    np.array([1.0, complex(np.inf, np.nan), 1.0]),
    np.array([2.5]),
], ids=["negative-zero-phases", "signed-zeros", "columns", "step", "zero", "nan",
        "inf", "one-value"])
def test_unwrap_log_equals_the_oracle_on_edge_cases(values):
    with np.errstate(all="ignore"):
        got = _unwrap_or_refusal(sb.unwrap_log, values)
        expected = _unwrap_or_refusal(oracles.unwrap_log_with_temporaries, values)
    assert _same_unwrap(got, expected)
