import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import oracles
from oracles import same_bits
import schwarzbundles as sb
from schwarzbundles.curve import _ring
from schwarzbundles.errors import (
    AdjustmentPointNotInteriorError,
    BranchUnresolvedError,
    NearBoundaryError,
    NoHolomorphicSectionError,
)

QUARTIC = [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03]
# complex coefficients: g = phi' * conj-phi'(1/zeta) is not real at node 0
# of a ring
SKEWED = [0.2j, 1, 0.2 + 0.15j, -0.04 + 0.05j]


def builtin_transitions(curve):
    """Each built-in bundle with the oracle's closed form at pullback points."""
    return ((sb.exp_schwarz_bundle(curve),
             lambda zeta: oracles.exp_schwarz_at(curve, zeta)),
            (sb.schwarz_pole_bundle(curve, 3),
             lambda zeta: oracles.schwarz_pole_at(curve, 3, zeta)),
            (sb.schwarz_pole_bundle(curve, 0.3 + 0.1j),
             lambda zeta: oracles.schwarz_pole_at(curve, 0.3 + 0.1j, zeta)),
            (sb.tangent_power_bundle(curve, 2),
             lambda zeta: oracles.tangent_power_at(curve, 2, zeta)),
            (sb.tangent_power_bundle(curve, -1),
             lambda zeta: oracles.tangent_power_at(curve, -1, zeta)))


def builtin_bundles(curve):
    return tuple(bundle for bundle, _ in builtin_transitions(curve))


def test_chern_classes_disk(disk, disk_grid):
    assert sb.chern_class(sb.exp_schwarz_bundle(disk), disk_grid) == 0
    assert sb.chern_class(sb.schwarz_pole_bundle(disk, 3), disk_grid) == 0
    assert sb.chern_class(sb.schwarz_pole_bundle(disk, 0), disk_grid) == 1
    assert sb.chern_class(sb.tangent_power_bundle(disk, 2), disk_grid) == -2


def test_chern_classes_cardioid(cardioid, cardioid_grid):
    assert sb.chern_class(sb.exp_schwarz_bundle(cardioid), cardioid_grid) == 0
    assert sb.chern_class(sb.schwarz_pole_bundle(cardioid, 3), cardioid_grid) == 0
    assert sb.chern_class(sb.schwarz_pole_bundle(cardioid, 0.4 + 0.2j),
                          cardioid_grid) == 1
    assert sb.chern_class(sb.tangent_power_bundle(cardioid, 2), cardioid_grid) == -2


def test_chern_jump_across_curve(disk, disk_grid):
    z0 = complex(disk_grid.z[37])
    inner = sb.chern_class(sb.schwarz_pole_bundle(disk, 0.95 * z0), disk_grid)
    outer = sb.chern_class(sb.schwarz_pole_bundle(disk, 1.05 * z0), disk_grid)
    assert inner - outer == 1


def test_exp_schwarz_section_disk(disk, disk_grid):
    section = sb.canonical_section(sb.exp_schwarz_bundle(disk), disk_grid)
    assert section.chern == 0
    assert section.normalization == sb.bundles.ONE_AT_INFINITY
    assert sb.evaluate_section(section, 0.5) == pytest.approx(1.0, abs=1e-12)
    for z in (2.0, 5.0):
        assert sb.evaluate_section(section, z) == pytest.approx(
            np.exp(-1.0 / z), abs=1e-12)


def test_schwarz_pole_section_exterior_parameter(disk, disk_grid):
    bundle = sb.schwarz_pole_bundle(disk, 3)
    section = sb.canonical_section(bundle, disk_grid)
    assert sb.evaluate_section(section, 0.5) == pytest.approx(-1 / 3, abs=1e-12)
    for z in (2.0, 5.0):
        assert sb.evaluate_section(section, z) == pytest.approx(
            1 - 1 / (3 * z), abs=1e-12)


def test_schwarz_pole_section_interior_parameter(disk, disk_grid):
    bundle = sb.schwarz_pole_bundle(disk, 0)
    section = sb.canonical_section(bundle, disk_grid, a=0)
    assert section.chern == 1
    assert section.normalization == sb.bundles.LEADING_ONE_OVER_Z
    assert sb.evaluate_section(section, 0.5) == pytest.approx(1.0, abs=1e-12)
    for z in (2.0, 5.0):
        assert sb.evaluate_section(section, z) == pytest.approx(1.0 / z, abs=1e-12)


def test_section_normalization_at_infinity(disk, disk_grid):
    s0 = sb.canonical_section(sb.exp_schwarz_bundle(disk), disk_grid)
    assert abs(sb.evaluate_section(s0, 1e6) - 1.0) < 1e-6
    s1 = sb.canonical_section(sb.schwarz_pole_bundle(disk, 0), disk_grid)
    assert abs(1e6 * sb.evaluate_section(s1, 1e6) - 1.0) < 1e-6


def test_negative_chern_has_no_section(disk, disk_grid):
    with pytest.raises(NoHolomorphicSectionError):
        sb.canonical_section(sb.tangent_power_bundle(disk, 2), disk_grid)


def test_adjustment_point_validation(disk, disk_grid):
    bundle = sb.schwarz_pole_bundle(disk, 0)
    with pytest.raises(AdjustmentPointNotInteriorError):
        sb.canonical_section(bundle, disk_grid, a=5.0)


def test_adjustment_defaults_to_pole(disk, disk_grid):
    bundle = sb.schwarz_pole_bundle(disk, 0.3 + 0.2j)
    section = sb.canonical_section(bundle, disk_grid)
    assert section.adjustment == pytest.approx(0.3 + 0.2j)


@pytest.mark.parametrize("pole, passes, adjustment", [
    (0.3 + 0.2j, 1, 0.3 + 0.2j),  # interior pole: one kernel pass
    (3, 2, 0j),                   # exterior pole, then the conformal center
    (None, 1, 0j),
])
def test_each_adjustment_candidate_is_located_once(monkeypatch, disk, disk_grid,
                                                   pole, passes, adjustment):
    calls = []
    sides = sb.curve.sides
    monkeypatch.setattr(sb.curve, "sides", lambda *a: calls.append(a) or sides(*a))
    bundle = sb.LineBundle(disk, lambda grid: grid.z - 0.1, pole=pole)  # Chern class 1
    section = sb.canonical_section(bundle, disk_grid)
    assert section.chern == 1 and section.adjustment == adjustment
    assert len(calls) == passes


def test_verify_transition_disk(disk, disk_grid):
    pts = sb.annulus_verification_points(disk_grid, 32)
    for w in (3, 0, 0.4 + 0.2j):
        bundle = sb.schwarz_pole_bundle(disk, w)
        section = sb.canonical_section(bundle, disk_grid)
        assert sb.verify_transition(section, bundle, pts) < 1e-9


def test_verify_transition_detects_wrong_sections(cardioid, cardioid_grid):
    # a section of another bundle, or a density off log lambda12 by 1e-8,
    # must fail the check
    grid = cardioid_grid
    pts = sb.annulus_verification_points(grid, 32)
    exp_bundle = sb.exp_schwarz_bundle(cardioid)
    pole_bundle = sb.schwarz_pole_bundle(cardioid, 3)
    trivial = sb.custom_bundle(cardioid, lambda z: 1.0 + 0j)
    section = sb.canonical_section(exp_bundle, grid)
    assert sb.verify_transition(section, exp_bundle, pts) < 1e-12
    cases = [
        (sb.canonical_section(pole_bundle, grid), exp_bundle),
        (sb.canonical_section(trivial, grid), pole_bundle),
    ]
    for mode in (np.sin(3 * grid.t), np.exp(-1j * grid.t), np.exp(2j * grid.t)):
        bad = section.density + 1e-8 * mode
        cases.append((dataclasses.replace(section, density=bad), exp_bundle))
    for wrong, bundle in cases:
        assert sb.verify_transition(wrong, bundle, pts) > 1e-9


def test_verify_transition_needs_both_rings(disk, disk_grid):
    # on the disk e^{-it} = 1/z shows only at exterior points and e^{2it}
    # only at interior ones, so each ring catches what the other cannot
    bundle = sb.exp_schwarz_bundle(disk)
    section = sb.canonical_section(bundle, disk_grid)
    pts = sb.annulus_verification_points(disk_grid, 32)
    inside = np.array([sb.locate(disk_grid, z) is sb.Location.INTERIOR for z in pts])
    for mode, seen in ((np.exp(-1j * disk_grid.t), ~inside),
                       (np.exp(2j * disk_grid.t), inside)):
        wrong = dataclasses.replace(section, density=section.density + 1e-8 * mode)
        assert sb.verify_transition(wrong, bundle, pts) > 1e-9
        assert sb.verify_transition(wrong, bundle, pts[seen]) > 1e-9
        assert sb.verify_transition(wrong, bundle, pts[~seen]) < 1e-14


def test_verify_transition_refuses_unplaceable_rings(disk):
    # the adjustment point w = 0.9 sits in the inner ring's band at n = 512
    bundle = sb.schwarz_pole_bundle(disk, 0.9)
    for n, placeable in ((512, False), (1024, True), (4096, True)):
        grid = sb.sample(disk, n)
        section = sb.canonical_section(bundle, grid)
        pts = sb.annulus_verification_points(grid, 32)
        if placeable:
            assert sb.verify_transition(section, bundle, pts) <= 1e-12
        else:
            with pytest.raises(NearBoundaryError, match="refine the grid"):
                sb.verify_transition(section, bundle, pts)
    # the lambda12 pole 1/conj(w) ~ 1.053 lies inside the outer ring (1.08)
    grid = sb.sample(disk, 512)
    bundle = sb.schwarz_pole_bundle(disk, 0.95)
    section = sb.canonical_section(bundle, grid, a=0)
    with pytest.raises(NearBoundaryError, match="zero or pole"):
        sb.verify_transition(section, bundle, sb.annulus_verification_points(grid))
    # the ring radius 1 - 12 pi / 1024 = 0.963 is too close to rho = 0.95
    thin = sb.build_circle(0, 1, rho=0.95)
    bundle = sb.exp_schwarz_bundle(thin)
    section = sb.canonical_section(bundle, sb.sample(thin, 1024))
    with pytest.raises(NearBoundaryError, match="validated annulus"):
        sb.verify_transition(section, bundle, [0.1, 3.0])


def test_verify_transition_trivial_bundle(disk, disk_grid):
    bundle = sb.custom_bundle(disk, lambda z: 1.0 + 0j)
    section = sb.canonical_section(bundle, disk_grid)
    pts = sb.annulus_verification_points(disk_grid, 16)
    assert sb.verify_transition(section, bundle, pts) == pytest.approx(0.0, abs=1e-14)
    assert sb.evaluate_section(section, 0.3) == pytest.approx(1.0)
    assert sb.evaluate_section(section, 2.5) == pytest.approx(1.0)


SECTION_CURVES = {"disk": ([0, 1], 0.5), "cardioid": ([0, 1, 0.3], 0.7),
                  "quartic": (QUARTIC, 0.72)}


def two_pass_section_value(section, z):
    """exp of the density's one-point kernel sum at z, times (z - a)^{-c}
    where a separate `locate` pass finds z exterior."""
    value = np.exp(complex(sb.kernel_sums(section.grid, [z], section.density)[2][0]))
    if section.chern and sb.locate(section.grid, z) is sb.Location.EXTERIOR:
        value = value * (z - section.adjustment) ** (-section.chern)
    return value


@pytest.mark.parametrize("name", sorted(SECTION_CURVES))
def test_evaluate_section_is_one_kernel_pass(monkeypatch, name):
    # exp-Schwarz, exterior-pole and interior-pole (Chern class 1) sections:
    # one `sides` call and one kernel pass (watched in every module that binds
    # kernel_sums) give the side and the sum, with the bits of a separate sum
    # and side pass
    curve = sb.build_polynomial_curve(*SECTION_CURVES[name])
    grid = sb.sample(curve, 512)
    sections = [sb.canonical_section(bundle, grid)
                for bundle in (sb.exp_schwarz_bundle(curve),
                               sb.schwarz_pole_bundle(curve, 3 + 0.5j),
                               sb.schwarz_pole_bundle(curve, 0.2 + 0.1j))]
    assert [section.chern for section in sections] == [0, 0, 1]
    points = (0.3, 0.2 + 0.1j, -0.4 + 0.1j, 2.0, 3.5j, -3 + 1j)
    want = [[two_pass_section_value(section, z) for z in points] for section in sections]
    calls, passes = [], []
    sides = sb.curve.sides
    monkeypatch.setattr(sb.curve, "sides", lambda *a: calls.append(a) or sides(*a))
    for module in (sb.curve, sb.transforms, sb.bundles):
        if hasattr(module, "kernel_sums"):
            monkeypatch.setattr(module, "kernel_sums", lambda *a, kernel=module.kernel_sums:
                                passes.append(a) or kernel(*a))
    for section, row in zip(sections, want):
        for z, value in zip(points, row):
            calls.clear()
            passes.clear()
            got = sb.evaluate_section(section, z)
            assert len(calls) == len(passes) == 1
            assert same_bits(got, value)


def test_exp_schwarz_matches_cauchy_transform(cardioid, cardioid_grid):
    section = sb.canonical_section(sb.exp_schwarz_bundle(cardioid), cardioid_grid)
    for z in (0.2, -0.4 + 0.1j, 2.0, 1.5j, -3.0):
        side = sb.locate(cardioid_grid, z)
        ct = sb.cauchy_transform(cardioid_grid, z)
        expect = np.exp(ct) if side is sb.Location.INTERIOR else np.exp(-ct)
        assert abs(sb.evaluate_section(section, z) - expect) < 1e-9


def _section_times_closed_factor(section, z, w, z_interior, w_interior):
    """The pole section at z times the factor that makes it E(z, w): f2 = F
    and f1 = E/(conj z - conj w) at exterior w, f1 = E/|z - w|^2 and
    f2 = E/(z - w) at interior w (the divisor adjustment at w)."""
    value = sb.evaluate_section(section, z)
    if not w_interior:
        return value * (np.conjugate(z) - np.conjugate(w)) if z_interior else value
    return value * (abs(z - w) ** 2 if z_interior else z - w)


# E(z, w) on the unit disk in each quadrant (z interior, w interior)
DISK_E = {
    (False, False): lambda z, w: 1 - 1 / (z * np.conjugate(w)),
    (True, False): lambda z, w: 1 - np.conjugate(z) / np.conjugate(w),
    (False, True): lambda z, w: 1 - w / z,
    (True, True): lambda z, w: abs(z - w) ** 2 / (1 - z * np.conjugate(w)),
}


def test_section_pieces_consistency(disk, disk_grid):
    # the Schwarz-pole section and double_cauchy's E against the disk's
    # closed forms in all four quadrants, with G on the ray z - w < 0
    pairs = {3.0: [2.0, -4.0 + 1j, 0.3, -0.5j, 0.5 + 0.1j, 0.5 - 0.1j],
             -1.5 + 2j: [2.0j, 0.4 - 0.3j],
             0.4 + 0.2j: [0.25j, -0.3, 2.0, 3j]}
    for w, zs in pairs.items():
        section = sb.canonical_section(sb.schwarz_pole_bundle(disk, w), disk_grid)
        for z in zs:
            quadrant = (abs(z) < 1, abs(w) < 1)
            expect = DISK_E[quadrant](z, w)
            assert abs(_section_times_closed_factor(section, z, w, *quadrant)
                       - expect) < 1e-12
            assert abs(sb.double_cauchy(disk_grid, z, w).E - expect) < 1e-12


def test_section_pieces_consistency_cardioid(cardioid, cardioid_grid):
    # the section at n = 1024 against E from a fine grid, n = 16384
    fine = sb.sample(cardioid, 16384)
    for w, zs in ((2.5, [0.2, 3.0j, 0.5 - 0.1j]), (0.4 + 0.2j, [-0.3, 2.2])):
        section = sb.canonical_section(sb.schwarz_pole_bundle(cardioid, w),
                                       cardioid_grid)
        for z in zs:
            tv = sb.double_cauchy(fine, z, w)
            quadrant = tuple(side is sb.Location.INTERIOR for side in tv.quadrant)
            assert abs(_section_times_closed_factor(section, z, w, *quadrant)
                       - tv.E) < 1e-12


def test_pole_density_is_the_section_density(cardioid, cardioid_grid):
    # double_cauchy's density for a located w is the canonical section's
    for w in (2.5, -1.0 + 1.5j, 0.4 + 0.2j, 0.0):
        interior = sb.locate(cardioid_grid, w) is sb.Location.INTERIOR
        section = sb.canonical_section(sb.schwarz_pole_bundle(cardioid, w),
                                       cardioid_grid)
        assert section.chern == int(interior)
        assert same_bits(sb.bundles._pole_density(cardioid_grid, w, interior),
                         section.density)


def test_m_differential_matching(disk, disk_grid):
    # z dz and S dz agree under conjugation on the curve (classical case)
    resid = sb.verify_m_differential_match(
        lambda z: z, lambda z: sb.schwarz_near(disk, z), disk, disk_grid, 0)
    assert resid < 1e-12
    resid = sb.verify_m_differential_match(
        lambda z: 1.0, lambda z: sb.schwarz_prime(disk, z), disk, disk_grid, 2)
    assert resid < 1e-12
    resid = sb.verify_m_differential_match(
        lambda z: 1.0, lambda z: 1.0 / sb.holomorphic_tangent(disk, z),
        disk, disk_grid, 1)
    assert resid < 1e-12


def test_tangent_bundle_section(cardioid, cardioid_grid):
    # transition T itself winds once, so it carries a 1/z-normalized section;
    # verifying it exercises the tangent's square-root tracking off the grid
    bundle = sb.tangent_power_bundle(cardioid, -1)
    assert sb.chern_class(bundle, cardioid_grid) == 1
    section = sb.canonical_section(bundle, cardioid_grid)
    pts = sb.annulus_verification_points(cardioid_grid, 32)
    assert sb.verify_transition(section, bundle, pts) < 1e-9


def test_holomorphic_tangent_matches_grid(cardioid, cardioid_grid):
    for j in range(0, cardioid_grid.n, 111):
        z = complex(cardioid_grid.z[j])
        grid_tangent = cardioid_grid.dz[j] / abs(cardioid_grid.dz[j])
        assert abs(sb.holomorphic_tangent(cardioid, z) - grid_tangent) < 1e-10


def test_branch_unresolved_on_coarse_grid(cardioid):
    g16 = sb.sample(cardioid, 16)
    bundle = sb.schwarz_pole_bundle(cardioid, 0.9 + 0.05j)
    try:
        c = sb.chern_class(bundle, g16)
    except BranchUnresolvedError:
        return
    assert isinstance(c, int)


def test_branch_unresolved_resolves_under_refinement(disk, disk_grid):
    g16 = sb.sample(disk, 16)
    pole = 0.95 * complex(g16.z[3])  # transition zero hugs the curve
    bundle = sb.schwarz_pole_bundle(disk, pole)
    with pytest.raises(BranchUnresolvedError):
        sb.chern_class(bundle, g16)
    assert sb.chern_class(bundle, disk_grid) == 1


def test_transition_nonvanishing_guard(disk, disk_grid):
    bundle = sb.custom_bundle(disk, lambda z: z - 1.0)  # vanishes on the curve
    with pytest.raises(BranchUnresolvedError):
        sb.chern_class(bundle, disk_grid)


def test_evaluate_section_refuses_band(disk, disk_grid):
    from schwarzbundles.errors import NearBoundaryError
    section = sb.canonical_section(sb.exp_schwarz_bundle(disk), disk_grid)
    with pytest.raises(NearBoundaryError):
        sb.evaluate_section(section, 1.0 + 1e-12)


def test_verify_transition_refuses_band(disk, disk_grid):
    from schwarzbundles.errors import NearBoundaryError
    bundle = sb.schwarz_pole_bundle(disk, 3)
    section = sb.canonical_section(bundle, disk_grid)
    with pytest.raises(NearBoundaryError):
        sb.verify_transition(section, bundle, [1.0 + 1e-12])


def test_holomorphic_tangent_outside_annulus(disk):
    from schwarzbundles.errors import OutsideAnnulusError
    with pytest.raises(OutsideAnnulusError):
        sb.holomorphic_tangent(disk, 5.0)


def test_evaluators_are_called_once_on_the_node_array(disk, disk_grid):
    shapes = []

    def one(z):
        shapes.append(np.shape(z))
        return 1.0  # a scalar result is broadcast to every node

    assert sb.chern_class(sb.custom_bundle(disk, one), disk_grid) == 0
    assert sb.verify_m_differential_match(one, one, disk, disk_grid, 0) == 0.0
    assert shapes == [(disk_grid.n,)] * 3


def test_custom_bundle_chern_two(disk, disk_grid):
    # transition z^2 has winding 2; the canonical pair is (1, z^{-2})
    bundle = sb.custom_bundle(disk, lambda z: z * z)
    assert sb.chern_class(bundle, disk_grid) == 2
    section = sb.canonical_section(bundle, disk_grid, a=0)
    assert sb.evaluate_section(section, 0.4) == pytest.approx(1.0, abs=1e-12)
    assert sb.evaluate_section(section, 2.0) == pytest.approx(0.25, abs=1e-12)
    pts = sb.annulus_verification_points(disk_grid, 16)
    assert sb.verify_transition(section, bundle, pts) < 1e-12


def test_section_dump(disk, disk_grid):
    section = sb.canonical_section(sb.schwarz_pole_bundle(disk, 0), disk_grid)
    blob = sb.section_to_json(section)
    assert blob["chern"] == 1
    assert blob["adjustment"] == [0.0, 0.0]
    assert blob["normalization"] == sb.bundles.LEADING_ONE_OVER_Z
    assert len(blob["density"]) == disk_grid.n
    assert set(blob["density"][0]) == {"t", "re", "im"}


@pytest.mark.parametrize("n", [1024, 4096])
def test_node_transitions_match_inverted_points(n, disk, cardioid):
    # closed forms at grid.zeta against one batched Newton inversion
    quartic = sb.build_polynomial_curve(QUARTIC, 0.72)
    for curve in (disk, cardioid, quartic):
        grid = sb.sample(curve, n)
        zeta = sb.invert_conformal_map(curve, grid.z[::7])
        for bundle, at_zeta in builtin_transitions(curve):
            closed = bundle.transition_at_nodes(grid)[::7]
            newton = at_zeta(zeta)
            assert np.all(np.abs(closed - newton) <= 1e-12 * np.abs(newton))


def test_node_path_makes_no_newton_calls(monkeypatch, cardioid, cardioid_grid):
    def refuse(curve, z):
        raise AssertionError("Newton inversion on the node path")

    monkeypatch.setattr(sb.bundles, "invert_conformal_map", refuse)
    with pytest.raises(AssertionError):  # the patch is live
        sb.holomorphic_tangent(cardioid, complex(cardioid_grid.z[0]))
    pts = sb.annulus_verification_points(cardioid_grid, 32)
    for bundle in builtin_bundles(cardioid):
        if sb.chern_class(bundle, cardioid_grid) < 0:
            with pytest.raises(NoHolomorphicSectionError):
                sb.canonical_section(bundle, cardioid_grid)
        else:
            section = sb.canonical_section(bundle, cardioid_grid)
            assert sb.verify_transition(section, bundle, pts) < 1e-12


def test_exp_schwarz_log_density_anchor():
    # S has imaginary part -5 at node 0, so the principal branch moves it by 2 pi
    curve = sb.build_polynomial_curve([5j, 1, 0.3], 0.7)
    grid = sb.sample(curve, 1024)
    bundle = sb.exp_schwarz_bundle(curve)
    unwrapped, winding = sb.unwrap_log(bundle.transition_at_nodes(grid))
    section = sb.canonical_section(bundle, grid)
    assert winding == pytest.approx(0.0, abs=1e-12)
    assert section.density[0].imag == pytest.approx(2 * np.pi - 5, abs=1e-12)
    assert np.abs(section.density - unwrapped).max() < 1e-12


@pytest.mark.filterwarnings("error")
def test_exp_schwarz_far_from_origin_does_not_overflow():
    # exp(S) ~ e^800 overflows at the nodes; the log density S does not
    far = sb.build_polynomial_curve([800, 1], 0.5)
    grid = sb.sample(far, 512)
    bundle = sb.exp_schwarz_bundle(far)
    assert sb.chern_class(bundle, grid) == 0
    section = sb.canonical_section(bundle, grid)
    assert np.isfinite(section.density).all()
    for z in (803.0, 800 - 2.5j):
        assert sb.evaluate_section(section, z) == pytest.approx(
            np.exp(-1.0 / (z - 800)), abs=1e-12)


def verification_radii(n):
    r1 = 1.0 - sb.bundles._VERIFY_SPACINGS * 2.0 * np.pi / n
    return (1.0, r1, 1.0 / r1)


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_ring_tangent_matches_radial_tracking(n, disk, cardioid):
    # the closed-form root on each ring against the radial tracking per node
    curves = (disk, cardioid, sb.build_polynomial_curve(QUARTIC, 0.72),
              sb.build_polynomial_curve(SKEWED, 0.7))
    for curve in curves:
        for radius in verification_radii(n):
            grid = _ring(curve, n, radius)
            for m in (-1, 1, 2, 3):
                radial = oracles.tangent_power_at(curve, m, grid.zeta)
                ring = sb.tangent_power_bundle(curve, m).transition_at_nodes(grid)
                assert np.max(np.abs(ring - radial) / np.abs(radial)) <= 1e-14


def test_ring_tangent_carries_the_sign_across_the_cut():
    # phi' = (1 + 0.55 zeta)^3 vanishes at |zeta| = 1.82, just past 1/rho =
    # 1.79, so on the ring 0.95/rho the principal root of g changes sign 4
    # times. Turned by 2.87, node 0 falls between two sign changes, where the
    # continuous root is minus the principal one. phi' is tiny near its zero
    # and the two evaluation paths round apart there, so the tolerance is
    # wider than on the verification rings; a wrong sign would be off by 2.
    coeffs = npoly.polysub(npoly.polypow([1, 0.55], 4), [1]) / 2.2
    for turn, flipped in ((0.0, False), (2.87, True)):
        curve = sb.build_polynomial_curve(
            coeffs * np.exp(1j * turn * np.arange(coeffs.size)), 0.56)
        grid = _ring(curve, 1024, 0.95 / 0.56)
        root = np.sqrt(curve.dphi(grid.zeta) * curve.dphi_reflected(grid.zeta))
        assert np.count_nonzero((root[1:] * np.conjugate(root[:-1])).real < 0) == 4
        closed_root = grid.dz[0] / sb.bundles._pullback_tangent(curve, grid.zeta[:1])[0]
        assert (abs(closed_root + root[0]) < abs(closed_root - root[0])) == flipped
        for m in (-1, 1, 3):
            radial = oracles.tangent_power_at(curve, m, grid.zeta)
            ring = sb.tangent_power_bundle(curve, m).transition_at_nodes(grid)
            assert np.max(np.abs(ring - radial) / np.abs(radial)) <= 1e-11


def test_pullback_tangent_keeps_the_sign_near_a_multiple_zero():
    # phi' = 7 (0.55 / 3.85) (1 + 0.55 zeta)^6: at |zeta| = 1.01 rho the
    # reflected factor is near its 6-fold zero at 1/|zeta| = 1.77 and an
    # 8-step radial tracker returns -T at 142 of these 4001 points; 2000
    # steps follow the root. Evaluated in zeta: on this curve the inverse map
    # does not give back every zeta (ROADMAP item 2).
    rho = 0.56
    curve = sb.build_polynomial_curve(
        npoly.polysub(npoly.polypow([1, 0.55], 7), [1]) / 3.85, rho)
    for radius in (1.01 * rho, 0.99 / rho):
        zeta = radius * np.exp(2j * np.pi * np.arange(4001) / 4001)
        fine = oracles.pullback_tangent_loop(curve, zeta, steps=2000)
        got = sb.bundles._pullback_tangent(curve, zeta)
        assert got.shape == zeta.shape
        assert np.count_nonzero(np.abs(got - fine) > np.abs(got + fine)) == 0
    # scalar and 2-D points give the values of the flat array
    point = sb.bundles._pullback_tangent(curve, zeta[7])
    assert np.shape(point) == () and abs(point - got[7]) <= 4 * oracles.EPS * abs(got[7])
    assert same_bits(sb.bundles._pullback_tangent(curve, zeta[:4000].reshape(40, 100)),
                     got[:4000].reshape(40, 100))


def test_ring_tangent_calls_no_unwrap(monkeypatch, cardioid):
    # the root's sign on a ring comes from the closed form, not from a
    # phase unwrap of g
    calls = []
    unwrap = sb.bundles.unwrap_log
    monkeypatch.setattr(sb.bundles, "unwrap_log", lambda *a: calls.append(a) or unwrap(*a))
    n = 1024
    for radius in verification_radii(n):
        grid = _ring(cardioid, n, radius)
        for m in (-1, 1, 2, 3):
            sb.tangent_power_bundle(cardioid, m).transition_at_nodes(grid)
    assert not calls


def test_coarse_ring_tangent_equals_the_fine_ring():
    # phi' = (1 + 0.55 zeta)^4: on the ring 0.97/rho at n = 256, g turns by
    # 1.78 >= pi/2 between adjacent nodes, too far for a phase unwrap to tell
    # its root's sign; the closed form is pointwise, so the coarse ring is
    # the fine ring's every fourth node, and lambda12 = T winds once
    curve = sb.build_polynomial_curve(npoly.polysub(npoly.polypow([1, 0.55], 5), [1])
                                      / 2.75, 0.56)
    bundle = sb.tangent_power_bundle(curve, -1)
    coarse = _ring(curve, 256, 0.97 / 0.56)
    fine = _ring(curve, 1024, 0.97 / 0.56)
    g = curve.dphi(coarse.zeta) * curve.dphi_reflected(coarse.zeta)
    assert np.abs(np.angle(np.roll(g, -1) / g)).max() >= np.pi / 2
    assert same_bits(bundle.transition_at_nodes(coarse),
                     bundle.transition_at_nodes(fine)[::4])
    assert sb.chern_class(bundle, coarse) == 1


@pytest.mark.parametrize("n", [256, 512, 1024, 4096])
def test_verification_points_match_full_pass_search(n, disk, cardioid):
    curves = (disk, cardioid, sb.build_polynomial_curve(QUARTIC, 0.72),
              sb.build_polynomial_curve(SKEWED, 0.7),
              sb.build_circle(0, 1, rho=0.95))
    for curve in curves:
        grid = sb.sample(curve, n)
        expected = oracles.verification_points_full_pass(grid)
        if expected is None:
            with pytest.raises(NearBoundaryError, match="validated annulus"):
                sb.annulus_verification_points(grid)
        else:
            assert sb.annulus_verification_points(grid).tobytes() == expected.tobytes()


def test_verification_points_confirm_the_bound_with_the_full_pass(cardioid):
    # a node moved next to the first point, away from the point's own angle:
    # the full distance pass at every radius refuses it
    grid = sb.sample(cardioid, 1024)
    first = sb.annulus_verification_points(grid)
    z = grid.z.copy()
    z[grid.n // 2] = first[0] + 0.5 * grid.exclusion_band
    moved = dataclasses.replace(grid, z=z)
    expected = oracles.verification_points_full_pass(moved)
    assert expected.tobytes() != first.tobytes()
    assert sb.annulus_verification_points(moved).tobytes() == expected.tobytes()


def fresh_rings(grid):
    """The verification rings from `_ring` alone, nothing kept: |zeta| = 1/r
    and r, r = 1 - 6 * 2 pi / n."""
    r = 1.0 - 6.0 * (2.0 * np.pi / grid.n)
    return _ring(grid.curve, grid.n, 1.0 / r), _ring(grid.curve, grid.n, r)


def test_verification_points_are_copies_of_the_kept_points(cardioid):
    grid = sb.sample(cardioid, 1024)
    first = sb.annulus_verification_points(grid, 32)
    expected = first.copy()
    first[:] = 0.0
    again = sb.annulus_verification_points(grid, 32)
    assert again is not first and same_bits(again, expected)
    # 33 points are 16 pairs, as 32 are; 16 points are a search of their own
    assert same_bits(sb.annulus_verification_points(grid, 33), expected)
    assert same_bits(sb.annulus_verification_points(grid, 16),
                     oracles.verification_points_full_pass(grid, 16))


@pytest.mark.parametrize("n", [1024, 4096])
def test_kept_rings_and_points_match_a_fresh_grid(n, cardioid):
    for curve in (cardioid, sb.build_polynomial_curve(QUARTIC, 0.72)):
        grid = sb.sample(curve, n)
        pts = sb.annulus_verification_points(grid)
        rings = sb.bundles._kept(grid, sb.bundles._verification_rings)
        assert sb.bundles._kept(grid, sb.bundles._verification_rings) is rings
        assert same_bits(sb.annulus_verification_points(grid), pts)
        new = sb.sample(curve, n)
        assert same_bits(sb.annulus_verification_points(new), pts)
        for ring, fresh in zip(rings, fresh_rings(new)):
            assert ring.t is grid.t
            assert (ring.n, ring.radius, ring.weight, ring.exclusion_band) == \
                (fresh.n, fresh.radius, fresh.weight, fresh.exclusion_band)
            for name in ("t", "zeta", "z", "dz"):
                assert same_bits(getattr(ring, name), getattr(fresh, name)), name


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("coeffs, rho", [([0.1 + 0.05j, 1], 0.5), ([0, 1, 0.3], 0.7),
                                         (QUARTIC, 0.72)])
def test_verify_transition_with_kept_rings_is_bit_identical(monkeypatch, coeffs, rho, n):
    curve = sb.build_polynomial_curve(coeffs, rho)
    grid = sb.sample(curve, n)
    pts = sb.annulus_verification_points(grid)
    bundles = (sb.exp_schwarz_bundle(curve), sb.schwarz_pole_bundle(curve, 3),
               sb.schwarz_pole_bundle(curve, 0.3 + 0.1j), sb.tangent_power_bundle(curve, -1))
    sections = [sb.canonical_section(bundle, grid) for bundle in bundles]
    kept = [[sb.verify_transition(section, bundle, pts) for _ in range(2)]
            for section, bundle in zip(sections, bundles)]
    # the uncached path: every call builds its rings anew
    monkeypatch.setattr(sb.bundles, "_kept", lambda grid, build, *args: build(grid, *args))
    for (first, second), section, bundle in zip(kept, sections, bundles):
        uncached = sb.verify_transition(section, bundle, pts)
        assert first.hex() == second.hex() == uncached.hex()
        assert uncached < 1e-9


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("name", sorted(SECTION_CURVES))
def test_verify_transition_unwraps_each_ring_once(monkeypatch, name, n):
    # per call on both rings: no unwrap for exp-Schwarz (its own log), one
    # per ring for a pole outside or inside (adjusted at it, Chern class 1),
    # and for T^1 one per ring for the density (the root of g is a closed form)
    curve = sb.build_polynomial_curve(*SECTION_CURVES[name])
    grid = sb.sample(curve, n)
    pts = sb.annulus_verification_points(grid)
    cases = ((sb.exp_schwarz_bundle(curve), 0), (sb.schwarz_pole_bundle(curve, 3), 2),
             (sb.schwarz_pole_bundle(curve, 0.3 + 0.1j), 2),
             (sb.tangent_power_bundle(curve, -1), 2))
    sections = [sb.canonical_section(bundle, grid) for bundle, _ in cases]
    assert [section.chern for section in sections] == [0, 0, 1, 1]
    calls = []
    unwrap = sb.bundles.unwrap_log
    monkeypatch.setattr(sb.bundles, "unwrap_log", lambda *a: calls.append(a) or unwrap(*a))
    for section, (bundle, expected) in zip(sections, cases):
        calls.clear()
        assert sb.verify_transition(section, bundle, pts) < 1e-9
        assert len(calls) == expected


def test_unplaceable_rings_are_refused_on_every_call():
    # the ring radius 1 - 12 pi / 1024 = 0.963 is too close to rho = 0.95
    thin = sb.build_circle(0, 1, rho=0.95)
    grid = sb.sample(thin, 1024)
    bundle = sb.exp_schwarz_bundle(thin)
    section = sb.canonical_section(bundle, grid)
    for _ in range(2):
        with pytest.raises(NearBoundaryError, match="validated annulus"):
            sb.verify_transition(section, bundle, [0.1, 3.0])
        with pytest.raises(NearBoundaryError, match="validated annulus"):
            sb.annulus_verification_points(grid)


def test_kept_rings_still_detect_wrong_sections(monkeypatch, cardioid):
    grid = sb.sample(cardioid, 1024)
    pts = sb.annulus_verification_points(grid, 32)
    exp_bundle = sb.exp_schwarz_bundle(cardioid)
    section = sb.canonical_section(exp_bundle, grid)
    assert sb.verify_transition(section, exp_bundle, pts) < 1e-12
    wrong = sb.canonical_section(sb.schwarz_pole_bundle(cardioid, 3), grid)
    off = dataclasses.replace(section, density=section.density + 1e-8 * np.sin(3 * grid.t))

    def no_ring(*args):
        raise AssertionError("a verification ring was rebuilt")

    monkeypatch.setattr(sb.bundles, "_ring", no_ring)
    assert sb.verify_transition(wrong, exp_bundle, pts) > 1.0  # about 3.4
    assert sb.verify_transition(off, exp_bundle, pts) > 1e-9   # about 3.6e-9


def test_kept_geometry_is_the_same_under_racing_threads(cardioid):
    # eight threads build a fresh grid's rings and points at once, switching
    # every microsecond: a race may build them twice, never differently
    grid = sb.sample(cardioid, 1024)
    bundle = sb.exp_schwarz_bundle(cardioid)
    section = sb.canonical_section(bundle, grid)

    def check(_):
        pts = sb.annulus_verification_points(grid)
        return pts.tobytes(), sb.verify_transition(section, bundle, pts).hex()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(check, range(32), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    fresh = sb.sample(cardioid, 1024)
    want = sb.annulus_verification_points(fresh)
    want = (want.tobytes(), sb.verify_transition(
        sb.canonical_section(bundle, fresh), bundle, want).hex())
    assert len(results) == 32 and set(results) == {want}
