import cmath
import dataclasses
import warnings

import numpy as np
import pytest

import schwarzbundles as sb
from schwarzbundles.errors import (
    CoincidentInteriorPointsError,
    NearBoundaryError,
    OriginNotInteriorError,
    ParseError,
    WrongQuadrantError,
)

import oracles
from oracles import EPS, double_cauchy_area_oracle, double_cauchy_bound, same_bits

LOG_5_6 = cmath.log(5.0 / 6.0)


def test_cauchy_transform_disk_values(disk_grid):
    # residue of (1/zeta)/(zeta - 2) at 0 is -1/2, so the exterior value is 1/2
    assert sb.cauchy_transform(disk_grid, 2.0) == pytest.approx(0.5, abs=1e-12)
    # double pole at 0 leaves no residue
    assert sb.cauchy_transform(disk_grid, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_cauchy_transform_shifted_circle_interior():
    c = sb.build_circle(0.3 + 0.1j, 1.0)
    g = sb.sample(c, 512)
    # conj(zeta) = conj(a) + r^2/(zeta - a) on the circle; interior value is conj(a)
    assert sb.cauchy_transform(g, 0.3 + 0.1j) == pytest.approx(0.3 - 0.1j, abs=1e-12)


def test_cauchy_transform_near_boundary(disk_grid):
    with pytest.raises(NearBoundaryError):
        sb.cauchy_transform(disk_grid, 1.0 + 1e-9)


def test_moments_unit_disk(disk_grid):
    table = sb.harmonic_moments(disk_grid, -3, 3)
    for k, m in table.items():
        expect = 1.0 if k == 0 else 0.0
        assert abs(m - expect) < 1e-12


def test_moments_scaled_circle():
    c = sb.build_circle(0, 1.5)
    g = sb.sample(c, 512)
    table = sb.harmonic_moments(g, -2, 2)
    assert table[0] == pytest.approx(1.5 ** 2, abs=1e-12)
    for k in (-2, -1, 1, 2):
        assert abs(table[k]) < 1e-12


def test_moments_cardioid_area(cardioid_grid):
    # area/pi for zeta + 0.3 zeta^2 is 1 + 2*0.09
    assert sb.harmonic_moments(cardioid_grid, 0, 0)[0] == pytest.approx(1.18, abs=1e-12)


def test_moments_shifted_circle_frozen():
    # M_k = a^k for k >= 0 and M_{-1} = conj(a), on |z - a| = 1
    a = 0.2
    g = sb.sample(sb.build_circle(a, 1.0), 512)
    table = sb.harmonic_moments(g, -2, 4)
    for k in range(0, 5):
        assert table[k] == pytest.approx(a ** k, abs=1e-12)
    assert table[-1] == pytest.approx(a, abs=1e-12)
    assert abs(table[-2]) < 1e-12


@pytest.mark.parametrize("k_min, k_max", [(1, 3), (-3, -1), (2, 1)])
def test_moments_refuse_a_range_without_zero(disk_grid, k_min, k_max):
    with pytest.raises(ParseError, match="k = 0"):
        sb.harmonic_moments(disk_grid, k_min, k_max)


@pytest.mark.parametrize("k_min, k_max", [(0, 4000), (-4000, 0)])
def test_moments_refuse_orders_that_overflow(cardioid, k_min, k_max):
    # |z| runs from 0.7 to 1.3 on the cardioid: 1.3^4000 and 0.7^-4000 overflow
    with pytest.raises(ParseError, match="overflow"):
        sb.harmonic_moments(sb.sample(cardioid, 256), k_min, k_max)


def test_moments_need_interior_origin():
    g = sb.sample(sb.build_circle(5.0, 1.0), 256)
    with pytest.raises(OriginNotInteriorError):
        sb.harmonic_moments(g, -1, 1)


@pytest.mark.parametrize("n", [256, 1024])
def test_moments_of_nonnegative_order_need_no_interior_origin(n):
    # only the negative orders are singular at the origin; about 5, M_k = 5^k
    table = sb.harmonic_moments(sb.sample(sb.build_circle(5.0, 1.0), n), 0, 3)
    for k, value in table.items():
        assert abs(value - 5.0 ** k) <= 1e-12 * 5.0 ** k


def test_moment_expansion_disk(disk_grid):
    assert sb.moment_expansion_check(disk_grid, 4) < 1e-10


def test_moment_expansion_shifted_circle():
    g = sb.sample(sb.build_circle(0.2, 1.0), 512)
    assert sb.moment_expansion_check(g, 4) < 1e-8


@pytest.mark.parametrize("coeffs,rho,n", [([0, 1], 0.5, 512), ([0, 1, 0.3], 0.7, 4096),
                                          ([0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72, 1024)])
def test_moment_expansion_check_fails_off_the_curve(coeffs, rho, n):
    # the check compares the grid's discrete moments with the exact ones, so
    # nodes moved off the curve by a 1e-6 mode fail it at criterion 4's 1e-10
    grid = sb.sample(sb.build_polynomial_curve(coeffs, rho), n)
    assert sb.moment_expansion_check(grid, 6) <= 1e-10
    moved = dataclasses.replace(grid, z=grid.z + 1e-6 * np.exp(3j * grid.t))
    assert sb.moment_expansion_check(moved, 6) > 1e-10


def test_double_cauchy_disk_values(disk_grid):
    assert sb.double_cauchy(disk_grid, 2, 3).C == pytest.approx(LOG_5_6, abs=1e-12)
    assert sb.double_cauchy(disk_grid, 0.5, 3).C == pytest.approx(LOG_5_6, abs=1e-12)
    assert sb.double_cauchy(disk_grid, 0, 0.5).C == pytest.approx(
        cmath.log(0.25), abs=1e-12)


def test_exponential_disk_values(disk_grid):
    assert sb.double_cauchy(disk_grid, 2, 3).E == pytest.approx(
        5.0 / 6.0, abs=1e-12)


def test_exponential_normalized_at_infinity(disk_grid):
    tv = sb.double_cauchy(disk_grid, 1e6, 1e6)
    assert abs(tv.E - 1.0) < 1e-5


def test_hermitian_symmetry_spot(disk_grid):
    a = sb.double_cauchy(disk_grid, 2.0, 3j)
    b = sb.double_cauchy(disk_grid, 3j, 2.0)
    assert abs(a.E - np.conjugate(b.E)) < 1e-12


def test_pieces_disk(disk_grid):
    assert sb.piece_f(disk_grid, 2, 3) == pytest.approx(1 - 1 / 6, abs=1e-12)
    assert sb.piece_g(disk_grid, 0.5, 3) == pytest.approx(-1 / 3, abs=1e-12)
    assert sb.piece_h(disk_grid, 0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert sb.piece_gstar(disk_grid, 2, 0.5) == pytest.approx(-0.5, abs=1e-12)


def test_piece_quadrant_enforcement(disk_grid):
    with pytest.raises(WrongQuadrantError):
        sb.piece_f(disk_grid, 0.5, 3)
    with pytest.raises(WrongQuadrantError):
        sb.piece_g(disk_grid, 2, 3)
    with pytest.raises(WrongQuadrantError):
        sb.piece_h(disk_grid, 0, 3)
    with pytest.raises(WrongQuadrantError):
        sb.piece_gstar(disk_grid, 0.2, 0.5)


def test_coincident_interior_points(disk_grid):
    with pytest.raises(CoincidentInteriorPointsError):
        sb.double_cauchy(disk_grid, 0.5, 0.5)
    for piece in (sb.piece_f, sb.piece_g, sb.piece_gstar, sb.piece_h):
        with pytest.raises(CoincidentInteriorPointsError):
            piece(disk_grid, 0.5, 0.5)


PIECES = {"F": sb.piece_f, "G": sb.piece_g, "G*": sb.piece_gstar, "H": sb.piece_h}


@pytest.mark.parametrize("grid_name, z, w, name", [
    ("disk_grid", 2, 3, "F"), ("disk_grid", 0.5, 3, "G"),
    ("disk_grid", 2, 0.5, "G*"), ("disk_grid", 0, 0.5, "H"),
    ("cardioid_grid", 3j, 3, "F"), ("cardioid_grid", 0.2, 3, "G"),
    ("cardioid_grid", 2.2, -0.3, "G*"), ("cardioid_grid", -0.3, 0.2, "H"),
])
def test_piece_property_is_the_piece_function(request, grid_name, z, w, name):
    grid = request.getfixturevalue(grid_name)
    assert sb.double_cauchy(grid, z, w).piece == (name, PIECES[name](grid, z, w))


@pytest.mark.parametrize("grid_name", ["disk_grid", "cardioid_grid"])
def test_gstar_is_conjugate_of_swapped_g(request, grid_name):
    # C(z, w) is the Cauchy sum at z of the pole section's density for
    # interior w, and conj C(w, z) the sums at w of exterior z's density and
    # of its conjugate; each lies within double_cauchy_bound of its one-point
    # sums
    grid = request.getfixturevalue(grid_name)
    rng = np.random.default_rng(7)
    angles = 2 * np.pi * rng.uniform(size=(20, 2))
    radii = np.column_stack([rng.uniform(2.0, 4.0, 20), rng.uniform(0.0, 0.4, 20)])
    for (rz, rw), (tz, tw) in zip(radii, angles):
        z, w = rz * np.exp(1j * tz), rw * np.exp(1j * tw)
        c_zw, c_wz = sb.double_cauchy(grid, z, w).C, sb.double_cauchy(grid, w, z).C
        bound = (double_cauchy_bound(grid, z, w, c_zw)
                 + double_cauchy_bound(grid, w, z, c_wz))
        assert abs(c_zw - np.conjugate(c_wz)) <= bound
        g = sb.piece_g(grid, w, z)
        assert abs(sb.piece_gstar(grid, z, w) - np.conjugate(g)) <= \
            abs(g) * (2 * bound + 8 * EPS)


PIN_CURVES = {"disk": ([0, 1], 0.5), "cardioid": ([0, 1, 0.3], 0.7),
              "quartic": ([0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72)}
QUADRANTS = [(i, j) for i in ("int", "ext") for j in ("int", "ext")]


def _pin_pairs(curve, seed):
    """Six (z, w) pairs per quadrant, interior points at pullback radius at
    most 0.7 and exterior ones 1.5 to 3 times the curve's reach out, then
    interior z at exterior w on and beside the ray z - w < 0, and one pair
    with z - w > 0."""
    rng = np.random.default_rng(seed)
    reach = np.abs(curve.point(2 * np.pi * np.arange(256) / 256)).max()

    def points(side):
        turn = np.exp(2j * np.pi * rng.uniform(size=6))
        if side == "int":
            return curve.phi(0.7 * np.sqrt(rng.uniform(size=6)) * turn)
        return reach * rng.uniform(1.5, 3.0, 6) * turn

    pairs = [pair for z_side, w_side in QUADRANTS
             for pair in zip(points(z_side), points(w_side))]
    return pairs + [(0.5 + 0.1j, 3.0), (0.5 - 0.1j, 3.0), (0.5, 3.0),
                    (-0.2 + 0.05j, 3.0 + 0.05j), (0.3j, -3.0 + 0.3j)]


@pytest.mark.parametrize("n", [512, 4096])
@pytest.mark.parametrize("name", sorted(PIN_CURVES))
def test_c_pinned_to_the_conjugate_swap_route(name, n):
    # C from the pole section, lone and batched, against the conjugate-swap
    # reference, which takes no complex log in the mixed quadrant: within
    # the sum of both routes' bounds, so with no 2 pi shift of Im C, also
    # where the ray z - w < 0 crosses the domain (the principal log's cut)
    grid = sb.sample(sb.build_polynomial_curve(*PIN_CURVES[name]), n)
    seen = set()
    for z, w in _pin_pairs(grid.curve, n):
        want = oracles.double_cauchy_conjugate_swap(grid, z, w)
        assert want is not None
        tv = sb.double_cauchy(grid, z, w)
        batch = sb.double_cauchy_batch(grid, [z, 0.0, 1e3], w)[0]
        bound = (double_cauchy_bound(grid, z, w, tv.C)
                 + oracles.conjugate_swap_bound(grid, z, w, want))
        for got in (tv.C, batch):
            assert abs(got - want) <= bound
            assert abs(got.imag - want.imag) < np.pi
        seen.add(sb.transforms.quadrant_tag(tv.quadrant))
    assert seen == {f"{z}:{w}" for z, w in QUADRANTS}


def test_far_w_answers(disk_grid):
    # 1/(S - conj w) is about 1/|w| at the nodes: small, but not a zero
    for w in (1e13, -1e200j):
        for z in (2.0, 0.3):
            tv = sb.double_cauchy(disk_grid, z, w)
            expect = 1 - 1 / (z * np.conjugate(w)) if z > 1 else 1 - z / np.conjugate(w)
            assert abs(tv.E - expect) < 1e-9


def test_exponential_is_exactly_exp_of_c(disk_grid):
    tv = sb.double_cauchy(disk_grid, 2.0 + 1j, -3.0)
    assert tv.E == cmath.exp(tv.C)


def test_unwrap_log_guards_and_winding():
    from schwarzbundles.errors import BranchUnresolvedError
    th = 2 * np.pi * np.arange(64) / 64
    logs, winding = sb.unwrap_log(np.exp(2j * th))
    assert winding == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(logs.real, 0.0, atol=1e-12)
    with pytest.raises(BranchUnresolvedError):
        sb.unwrap_log(np.exp(1j * np.array([0.0, 0.3, 2.0, 0.6])))  # step 1.7
    with pytest.raises(BranchUnresolvedError):
        sb.unwrap_log(np.array([1.0, 0.0, 1.0, 1.0]))  # passes through zero


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, np.nan)])
def test_unwrap_log_rejects_non_finite(bad):
    from schwarzbundles.errors import BranchUnresolvedError
    with pytest.raises(BranchUnresolvedError):
        sb.unwrap_log(np.array([1.0, bad, 1.0, 1.0]))


def _unwrap_outcome(values):
    from schwarzbundles.errors import BranchUnresolvedError
    try:
        return sb.unwrap_log(values)
    except BranchUnresolvedError as exc:
        return str(exc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spoil", [None, "zero", "nan", "step"])
def test_unwrap_log_columns_equal_per_column_calls(cardioid_grid, spoil):
    # each column of an (n, m) array unwraps as it would alone: logs bit for
    # bit; the windings sum the same steps in another order, within n eps of
    # the sum of |steps|; the array refuses where some column refuses, with
    # one of the columns' messages
    grid = cardioid_grid
    ws = np.array([2.5, -1.7 + 1.9j, 0.3 - 2.2j, 0.1 + 0.2j, 40.0])  # one inside
    vals = np.conjugate(grid.z)[:, None] - np.conjugate(ws)
    if spoil == "zero":
        vals[17, 1] = 0.0
    elif spoil == "nan":
        vals[900, 2] = np.nan
    elif spoil == "step":
        vals[300:, 3] *= np.exp(2.0j)
    got = _unwrap_outcome(vals)
    singles = [_unwrap_outcome(np.ascontiguousarray(col)) for col in vals.T]
    messages = [one for one in singles if isinstance(one, str)]
    if spoil is not None:
        assert len(messages) == 1 and got == messages[0]
        return
    assert not messages
    logs, windings = got
    assert windings.shape == (ws.size,)
    assert np.array_equal(np.round(windings), [0, 0, 0, -1, 0])  # conj turns back
    for j, (one_logs, one_winding) in enumerate(singles):
        assert isinstance(one_winding, float)
        assert same_bits(logs[:, j], one_logs)
        steps = np.angle(np.roll(vals[:, j], -1) / vals[:, j])
        bound = grid.n * EPS * np.abs(steps).sum() / (2 * np.pi)
        assert abs(windings[j] - one_winding) <= bound


def test_unwrap_log_columns_refuse_like_the_worst_column():
    steps = np.array([[0.0, 0.0], [0.3, 1.7], [0.6, 0.2], [1.8, 0.5]])
    got = _unwrap_outcome(np.exp(1j * steps))
    singles = [_unwrap_outcome(np.exp(1j * col)) for col in steps.T]
    assert all(isinstance(one, str) for one in singles)
    # the array names its largest step, which is column 0's (1.8 back to 0)
    assert got == singles[0] != singles[1]


@pytest.mark.parametrize("p", [np.nan, np.inf, complex(np.inf, np.nan), -np.inf],
                         ids=["nan", "inf", "inf+nanj", "-inf"])
def test_transforms_refuse_non_finite_points(cardioid_grid, p):
    section = sb.canonical_section(sb.exp_schwarz_bundle(cardioid_grid.curve),
                                   cardioid_grid)
    batch = np.append(np.linspace(2.0, 6.0, 300), p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: sb.cauchy_transform(cardioid_grid, p),
                     lambda: sb.double_cauchy(cardioid_grid, p, 3.0),
                     lambda: sb.double_cauchy(cardioid_grid, p, 0.2),
                     lambda: sb.double_cauchy(cardioid_grid, 3.0, p),
                     lambda: sb.double_cauchy_batch(cardioid_grid, batch, 3.0),
                     lambda: sb.evaluate_section(section, p),
                     lambda: sb.cauchy_integral(cardioid_grid, section.density, p)):
            with pytest.raises(ParseError, match="finite"):
                call()


CAUCHY_CURVES = {"disk": ([0, 1], 0.5), "cardioid": ([0, 1, 0.3], 0.7),
                 "quartic": ([0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CAUCHY_CURVES))
def test_cauchy_integral_is_the_trapezoidal_sum(name):
    # two densities, conj(z) and the exp-Schwarz section's log density, at
    # interior and exterior points: within the kernel pass's stated bound
    grid = sb.sample(sb.build_polynomial_curve(*CAUCHY_CURVES[name]), 1024)
    section = sb.canonical_section(sb.exp_schwarz_bundle(grid.curve), grid)
    for density in (np.conjugate(grid.z), section.density):
        for z in (0.3, -0.4 + 0.1j, 0.1j, 2.0, -3 + 1j, 2.5j):
            got = sb.cauchy_integral(grid, density, z)
            assert type(got) is complex
            assert abs(got - oracles.trapezoid_cauchy(grid, density, z)) \
                <= oracles.kernel_row_bound(grid, density * grid.dz, z)


@pytest.mark.filterwarnings("error")
def test_cauchy_integral_refuses_the_exclusion_band(disk_grid):
    # 1e-9 off a node, where the bare sum would be a finite, wrong value
    with pytest.raises(NearBoundaryError):
        sb.cauchy_integral(disk_grid, np.conjugate(disk_grid.z), 1 + 1e-9)


def test_moment_expansion_propagates_band_refusal(disk):
    g16 = sb.sample(disk, 16)  # band 1.95 reaches the sampling circle
    with pytest.raises(NearBoundaryError):
        sb.moment_expansion_check(g16, 2)


def _disk_exact_exponential(z, w):
    # closed forms from the reflection S(z) = 1/z: the exterior piece is
    # 1 - 1/(z conj w); interior arguments trade a factor for conj z / conj w
    # (hermitian symmetry) resp. |z - w|^2 / (1 - z conj w) for both inside
    zi, wi = abs(z) < 1, abs(w) < 1
    if not zi and not wi:
        return 1 - 1 / (z * np.conjugate(w))
    if zi and not wi:
        return 1 - np.conjugate(z) / np.conjugate(w)
    if not zi and wi:
        return 1 - w / z
    return abs(z - w) ** 2 / (1 - z * np.conjugate(w))


def test_exponential_quadrant_sweep_disk(disk_grid):
    interior = [0.3, -0.5j, 0.5 + 0.1j, -0.2 - 0.4j]
    exterior = [2.0, 3j, -1.8 + 1.1j, 1.4 - 1.6j]
    for z in interior + exterior:
        for w in interior + exterior:
            if z == w and abs(z) < 1:
                continue
            got = sb.double_cauchy(disk_grid, z, w).E
            assert abs(got - _disk_exact_exponential(z, w)) < 1e-10


def test_double_cauchy_matches_area_oracle(disk, disk_grid, cardioid, cardioid_grid):
    cases = [(disk, disk_grid, 2.0, 3.0), (disk, disk_grid, 2.0 + 1j, -2.5),
             (cardioid, cardioid_grid, 2.5, 3.0 + 0.5j)]
    for curve, grid, z, w in cases:
        ours = sb.double_cauchy(grid, z, w).C
        oracle = double_cauchy_area_oracle(curve, z, w, n=400)
        assert abs(ours - oracle) < 1e-5


def test_decay_bound(cardioid_grid):
    radius = np.abs(cardioid_grid.z).max()
    area_over_pi = sb.harmonic_moments(cardioid_grid, 0, 0)[0].real
    for z, w in ((4.0, 5j), (-6.0, 3 - 4j), (10.0, 10.0)):
        bound = area_over_pi / ((abs(z) - radius) * (abs(w) - radius))
        assert abs(sb.double_cauchy(cardioid_grid, z, w).C) <= bound * (1 + 1e-8)


def test_gram_positivity(disk_grid):
    pts = 2.2 * np.exp(2j * np.pi * (np.arange(6) + 0.15) / 6) + 0.1
    cmat = np.empty((6, 6), dtype=complex)
    emat = np.empty((6, 6), dtype=complex)
    for i, zi in enumerate(pts):
        for j, zj in enumerate(pts):
            tv = sb.double_cauchy(disk_grid, zi, zj)
            cmat[i, j] = -tv.C
            emat[i, j] = 1.0 / tv.E
    for mat in (cmat, emat):
        sym = 0.5 * (mat + mat.conj().T)
        assert np.linalg.eigvalsh(sym).min() >= -1e-8


def test_transform_value_serialization(disk_grid):
    tvs = [sb.double_cauchy(disk_grid, 2, 3),
           sb.double_cauchy(disk_grid, 0.5, 3)]
    csv = sb.transform_values_to_csv(tvs)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("re_z,")
    assert len(lines) == 3
    assert "ext:ext" in lines[1] and "int:ext" in lines[2]
    blob = sb.transform_values_to_json(tvs)
    assert blob[0]["quadrant"] == "ext:ext"
    assert blob[0]["E"][0] == pytest.approx(5 / 6)
