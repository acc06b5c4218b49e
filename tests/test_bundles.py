import dataclasses
import functools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import oracles
from oracles import EPS, same_bits
import schwarzbundles as sb
from schwarzbundles.curve import _ring, clear_rows
from schwarzbundles.errors import (
    AdjustmentPointNotInteriorError,
    BranchUnresolvedError,
    NearBoundaryError,
    NoHolomorphicSectionError,
    ParseError,
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
    assert same_bits(section.density,
                     sb.canonical_section(bundle, disk_grid, a=0.3 + 0.2j).density)


CARDIOID_ZONE_POLE = complex(sb.build_polynomial_curve([0, 1, 0.3], 0.7).phi(0.9))


@pytest.mark.parametrize("name, pole, decisions, passes, adjustment", [
    ("disk", 0.3 + 0.2j, 1, 0, 0.3 + 0.2j),  # interior pole: one side decision
    ("disk", 3, 2, 0, 0j),                    # exterior pole, then the conformal center
    ("disk", None, 1, 0, 0j),
    # interior, between the edges of the cardioid's nodes' annulus
    ("cardioid", CARDIOID_ZONE_POLE, 1, 1, CARDIOID_ZONE_POLE),
])
def test_each_adjustment_candidate_is_located_once(monkeypatch, request, name, pole,
                                                   decisions, passes, adjustment):
    # each candidate takes one `sides` decision; one clear of the nodes'
    # annulus takes no kernel pass, any other one pass over itself alone
    grid = request.getfixturevalue(name + "_grid")
    clear = np.logical_or(*clear_rows(grid, [c for c in (pole, 0j) if c is not None]))
    assert clear.all() == (passes == 0)
    calls, kernel_passes = [], []
    sides, kernel_sums = sb.curve.sides, sb.curve.kernel_sums
    monkeypatch.setattr(sb.curve, "sides", lambda *a: calls.append(a) or sides(*a))
    monkeypatch.setattr(sb.curve, "kernel_sums",
                        lambda *a: kernel_passes.append(a) or kernel_sums(*a))
    bundle = sb.LineBundle(grid.curve, lambda grid: grid.z - 0.1, pole=pole)  # Chern class 1
    section = sb.canonical_section(bundle, grid)
    assert section.chern == 1 and section.adjustment == adjustment
    assert len(calls) == decisions and len(kernel_passes) == passes
    assert all(np.size(call[1]) == 1 for call in calls + kernel_passes)


def test_a_class_one_pole_in_the_band_is_refused(disk):
    # at n = 256 the pole 0.99 lies in the band: as the default adjustment
    # point it is refused, not replaced by the conformal center
    bundle = sb.schwarz_pole_bundle(disk, 0.99)
    assert bundle.chern == 1
    with pytest.raises(NearBoundaryError, match="exclusion band"):
        sb.canonical_section(bundle, sb.sample(disk, 256))


def test_a_bundle_refuses_a_grid_of_another_curve(disk, disk_grid, cardioid):
    # on the cardioid's grid the disk's bundles would be sections of other
    # bundles (and the pole bundle would keep the disk's Chern class)
    grid = sb.sample(cardioid, 512)
    pts = sb.annulus_verification_points(disk_grid, 32)
    for make in (sb.exp_schwarz_bundle, lambda c: sb.schwarz_pole_bundle(c, 0.5),
                 lambda c: sb.tangent_power_bundle(c, -1)):
        bundle = make(disk)
        for call in (lambda: sb.chern_class(bundle, grid),
                     lambda: sb.canonical_section(bundle, grid),
                     lambda: sb.verify_transition(sb.canonical_section(bundle, disk_grid),
                                                  make(cardioid), pts)):
            with pytest.raises(ParseError, match="not on the bundle's curve"):
                call()
        # a curve built again from equal coefficients is the same curve
        twin = make(sb.build_circle(0, 1))
        section = sb.canonical_section(twin, disk_grid)
        assert sb.verify_transition(section, twin, pts) < 1e-9


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
    # the adjustment point w = 0.9 lies in the inner ring's band at n = 512,
    # but its preimage lies inside the ring (0.9 < r = 0.926): the built-in
    # pole and its custom twin place it by that preimage alike, so both are
    # checked at every n and agree. At n = 512 the ring's 512 nodes alias the
    # series of the root 0.9, 0.972^n: about 4.9e-9
    pole = sb.schwarz_pole_bundle(disk, 0.9)
    custom = sb.custom_bundle(disk, lambda z: 1.0 / (1.0 / z - 0.9))  # S = 1/z on the disk
    for n, bound in ((512, 1e-8), (1024, 1e-12), (4096, 1e-12)):
        grid = sb.sample(disk, n)
        pts = sb.annulus_verification_points(grid, 32)
        value = sb.verify_transition(sb.canonical_section(pole, grid), pole, pts)
        assert value <= bound
        twin = sb.verify_transition(sb.canonical_section(custom, grid, a=0.9), custom, pts)
        assert abs(twin - value) <= 1e-12
    # a = 0.93 is interior and off the band at n = 512, but its preimage lies
    # beyond the inner ring, and a = r on it: both kinds refuse them, with
    # the same text
    grid = sb.sample(disk, 512)
    pts = sb.annulus_verification_points(grid, 32)
    inner = sb.bundles._kept(grid, sb.bundles._ring_modes)[1][0]
    for a in (0.93, inner):
        for bundle in (pole, custom):
            section = sb.canonical_section(bundle, grid, a=a)
            with pytest.raises(NearBoundaryError, match="not strictly inside the ring"):
                sb.verify_transition(section, bundle, pts)
    # the lambda12 pole 1/conj(w) ~ 1.053 lies inside the outer ring (1.08):
    # the built-in series does not converge there, the custom ring winds;
    # both refusals name the ring
    outer = sb.bundles._kept(grid, sb.bundles._ring_modes)[0][0]
    pts = sb.annulus_verification_points(grid)
    for bundle in (sb.schwarz_pole_bundle(disk, 0.95),
                   sb.custom_bundle(disk, lambda z: 1.0 / (1.0 / z - 0.95))):
        section = sb.canonical_section(bundle, grid, a=0)
        with pytest.raises(NearBoundaryError, match="zero or pole") as refusal:
            sb.verify_transition(section, bundle, pts)
        assert f"|zeta| = {outer:.6g};" in str(refusal.value)
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
    # C sums the canonical section's density. At z the kernel pass sums
    # (none that `clear_rows` places on this degree-2 map): at interior w
    # the section's Cauchy sum bit for bit, plus log|z - w|^2 at interior z;
    # at exterior w the density less its constant and node-0 anchor, whose
    # sum at exterior z is 0 to rounding, within the kernel's bound of it
    grid = cardioid_grid
    zs = [0.2 - 0.1j, cardioid.phi(1.1 * np.exp(1.8j)), cardioid.phi(1.2 * np.exp(2.5j))]
    assert not clear_rows(grid, zs)[0].any() and cardioid.degree == 2
    seen = set()
    for w in (2.5, -1.0 + 1.5j, 1e11, 0.4 + 0.2j, 0.0):
        interior = sb.locate(grid, w) is sb.Location.INTERIOR
        section = sb.canonical_section(sb.schwarz_pole_bundle(cardioid, w), grid)
        assert section.chern == int(interior)
        for z in zs:
            tv = sb.double_cauchy(grid, z, w)
            want = sb.cauchy_integral(grid, section.density, z)
            z_inside = tv.quadrant[0] is sb.Location.INTERIOR
            seen.add((z_inside, interior))
            if z_inside and interior:
                assert abs(tv.C - want - np.log(abs(z - w) ** 2)) <= 4 * EPS * abs(tv.C)
            elif interior:
                assert same_bits(tv.C, want)
            elif not z_inside:
                assert abs(tv.C - want) <= oracles.kernel_row_bound(
                    grid, section.density * grid.dz, z)
    assert len(seen) == 4


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
    # a custom bundle with the Schwarz pole's node values on the disk, where
    # S = conj z: its class is unwrapped, the built-in pole's is stored
    g16 = sb.sample(disk, 16)
    pole = 0.95 * complex(g16.z[3])  # transition pole hugs the curve
    bundle = sb.custom_bundle(disk, lambda z: 1.0 / (np.conjugate(z) - np.conjugate(pole)))
    with pytest.raises(BranchUnresolvedError):
        sb.chern_class(bundle, g16)
    assert sb.chern_class(bundle, disk_grid) == 1
    builtin = sb.schwarz_pole_bundle(disk, pole)
    assert sb.chern_class(builtin, g16) == sb.chern_class(builtin, disk_grid) == 1


@pytest.mark.parametrize("build", [
    lambda curve: sb.schwarz_pole_bundle(curve, float("nan")),
    lambda curve: sb.schwarz_pole_bundle(curve, complex(np.inf, 1.0)),
    lambda curve: sb.tangent_power_bundle(curve, 1.5),
    lambda curve: sb.tangent_power_bundle(curve, 0.5),
], ids=["nan-pole", "infinite-pole", "power-1.5", "power-0.5"])
def test_bundle_parameters_are_refused_at_construction(disk, build):
    # not at the first use, and a non-integer power is not truncated
    with pytest.raises(ParseError):
        build(disk)


@pytest.mark.parametrize("m", [1.5, 1.9, 2.0])
def test_m_differential_match_refuses_a_power_that_is_not_an_integer(disk, m):
    # f1 = 1 and f2 = conj(i z) match for m = 1; a float m is not truncated to it
    grid = sb.sample(disk, 64)
    with pytest.raises(ParseError, match="not an integer"):
        sb.verify_m_differential_match(
            lambda z: 1.0, lambda z: np.conjugate(1j * z), disk, grid, m)


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
        closed_root = grid.dz[0] / sb.curve._pullback_tangent(curve, grid.zeta[:1])[0]
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
        got = sb.curve._pullback_tangent(curve, zeta)
        assert got.shape == zeta.shape
        assert np.count_nonzero(np.abs(got - fine) > np.abs(got + fine)) == 0
    # scalar and 2-D points give the values of the flat array
    point = sb.curve._pullback_tangent(curve, zeta[7])
    assert np.shape(point) == () and abs(point - got[7]) <= 4 * oracles.EPS * abs(got[7])
    assert same_bits(sb.curve._pullback_tangent(curve, zeta[:4000].reshape(40, 100)),
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


def custom_twins(curve):
    """Custom bundles of exp(S) and T, with S and T from the Newton
    inversion of the nodes: unwrapped on every ring."""
    return (sb.custom_bundle(curve, lambda z: np.exp(sb.schwarz_near(curve, z))),
            sb.custom_bundle(curve, lambda z: sb.holomorphic_tangent(curve, z)))


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("name", sorted(SECTION_CURVES))
def test_verify_transition_unwraps_each_ring_once(monkeypatch, name, n):
    # per call on both rings: a custom bundle's ring density is one unwrap
    # of its transition per ring; a built-in bundle's (exp-Schwarz, a pole
    # outside or inside, T^1) is its Laurent modes, with no unwrap and no
    # transition value
    curve = sb.build_polynomial_curve(*SECTION_CURVES[name])
    grid = sb.sample(curve, n)
    pts = sb.annulus_verification_points(grid)
    cases = [(bundle, 0) for bundle in (
        sb.exp_schwarz_bundle(curve), sb.schwarz_pole_bundle(curve, 3),
        sb.schwarz_pole_bundle(curve, 0.3 + 0.1j), sb.tangent_power_bundle(curve, -1))]
    cases += [(bundle, 2) for bundle in custom_twins(curve)]
    sections = [sb.canonical_section(bundle, grid) for bundle, _ in cases]
    assert [section.chern for section in sections] == [0, 0, 1, 1, 0, 1]
    calls, transitions = [], []
    unwrap = sb.bundles.unwrap_log
    monkeypatch.setattr(sb.bundles, "unwrap_log", lambda *a: calls.append(a) or unwrap(*a))
    transition = sb.LineBundle.transition_at_nodes
    monkeypatch.setattr(sb.LineBundle, "transition_at_nodes",
                        lambda self, g: transitions.append(g) or transition(self, g))
    for section, (bundle, expected) in zip(sections, cases):
        calls.clear()
        transitions.clear()
        assert sb.verify_transition(section, bundle, pts) < 1e-9
        assert len(calls) == len(transitions) == expected


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


def section_pairs(curve, grid):
    """The four built-in bundle kinds that have a section, with it."""
    bundles = (sb.exp_schwarz_bundle(curve), sb.schwarz_pole_bundle(curve, 3),
               sb.schwarz_pole_bundle(curve, 0.3 + 0.1j), sb.tangent_power_bundle(curve, -1))
    return [(sb.canonical_section(bundle, grid), bundle) for bundle in bundles]


@pytest.mark.parametrize("n_points", [2, 32, 64])
@pytest.mark.parametrize("n", [512, 1024, 4096])
@pytest.mark.parametrize("name", sorted(SECTION_CURVES))
def test_kept_point_sides_equal_a_fresh_pass(name, n, n_points):
    curve = sb.build_polynomial_curve(*SECTION_CURVES[name])
    grid = sb.sample(curve, n)
    pts = sb.annulus_verification_points(grid, n_points)
    assert same_bits(sb.bundles._point_sides(grid, pts), sb.curve.off_band(grid, pts)[0])
    # a fresh grid of the same curve and n has no kept search: its sides come
    # from a pass at the points, and every value has the same bits
    new = sb.sample(curve, n)
    for (section, bundle), (fresh, _) in zip(section_pairs(curve, grid),
                                              section_pairs(curve, new)):
        assert sb.verify_transition(section, bundle, pts).hex() == \
            sb.verify_transition(fresh, bundle, pts).hex()
    assert (sb.bundles._search_points, n_points // 2) not in new.__dict__["_kept"]


def test_other_points_get_their_own_side_pass(monkeypatch, cardioid):
    grid = sb.sample(cardioid, 1024)
    pts = sb.annulus_verification_points(grid, 32)
    bundle = sb.exp_schwarz_bundle(cardioid)
    section = sb.canonical_section(bundle, grid)
    value = sb.verify_transition(section, bundle, pts)
    calls, passes = [], []
    sides, kernel_sums = sb.curve.sides, sb.curve.kernel_sums
    monkeypatch.setattr(sb.curve, "sides", lambda *a: calls.append(a) or sides(*a))
    monkeypatch.setattr(sb.curve, "kernel_sums",
                        lambda *a: passes.append(a) or kernel_sums(*a))
    assert sb.verify_transition(section, bundle, pts.copy()).hex() == value.hex()
    assert not calls and not passes
    ulp = pts.copy()
    ulp[5] = complex(np.nextafter(ulp[5].real, np.inf), ulp[5].imag)
    assert sb.verify_transition(section, bundle, ulp).hex() == value.hex()
    # one decision, whose pass takes the points the nodes' annulus leaves
    outside, inside = clear_rows(grid, ulp)
    assert len(calls) == len(passes) == 1
    assert same_bits(passes[0][1], ulp[~(outside | inside)])
    on_node = pts.copy()
    on_node[3] = grid.z[0]
    with pytest.raises(NearBoundaryError, match="exclusion band"):
        sb.verify_transition(section, bundle, on_node)
    nan = pts.copy()
    nan[3] = np.nan
    with pytest.raises(ParseError, match="finite"):
        sb.verify_transition(section, bundle, nan)


def test_no_verification_points_are_refused(cardioid):
    # a section of the pole bundle checked against exp(S): 32 points find it
    # wrong, and no points must not pass it
    grid = sb.sample(cardioid, 512)
    bundle = sb.exp_schwarz_bundle(cardioid)
    wrong = sb.canonical_section(sb.schwarz_pole_bundle(cardioid, 3), grid)
    pts = sb.annulus_verification_points(grid, 32)
    value = sb.verify_transition(wrong, bundle, pts)
    assert value > 1.0  # about 3.65
    for empty in ([], np.empty(0, complex)):
        with pytest.raises(ParseError, match="no verification points"):
            sb.verify_transition(wrong, bundle, empty)
    # a 2-D batch with a point on each side checks both rings
    assert sb.verify_transition(wrong, bundle, [[pts[0]], [pts[20]]]).hex() == value.hex()


@functools.cache
def proof_grid(name, n):
    """(curve, grid) of a SECTION_CURVES curve at n."""
    curve = sb.build_polynomial_curve(*SECTION_CURVES[name])
    return curve, sb.sample(curve, n)


@st.composite
def adjustment_draws(draw):
    """(name, n, a): a = phi(s e^{i theta}) on a SECTION_CURVES curve, s in
    [0, 1) or within four node spacings of the inner verification ring."""
    name = draw(st.sampled_from(sorted(SECTION_CURVES)))
    n = 2 ** draw(st.integers(8, 12))
    curve, grid = proof_grid(name, n)
    inner = sb.bundles._kept(grid, sb.bundles._ring_modes)[1][0]
    s = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(-4.0, 4.0).map(lambda u: inner + u * 2.0 * np.pi / n)))
    theta = draw(st.floats(0.0, 2.0 * np.pi))
    return name, n, complex(curve.phi(s * np.exp(1j * theta)))


def class_one_sections(name, n, a):
    """The T^1 sections adjusted at a of the built-in bundle and of its
    custom twin, or None where a is refused."""
    curve, grid = proof_grid(name, n)
    pairs = []
    for bundle in (sb.tangent_power_bundle(curve, -1), custom_twins(curve)[1]):
        try:
            pairs.append((sb.canonical_section(bundle, grid, a=a), bundle))
        except (NearBoundaryError, AdjustmentPointNotInteriorError):
            return None
    return pairs


def outcome(check, *args):
    """The value, or the refusal's class and message."""
    try:
        return check(*args)
    except NearBoundaryError as exc:
        return type(exc), str(exc)


@settings(max_examples=60)
@given(draw=adjustment_draws())
def test_side_pass_placement_implies_the_modes_placement(draw):
    # wherever the inner ring's side pass puts the adjustment point inside
    # the ring and off its band, its preimage lies inside the ring: the modes
    # place every point the side pass placed
    name, n, a = draw
    curve, grid = proof_grid(name, n)
    pairs = class_one_sections(*draw)
    if pairs is None:
        return
    ring = sb.bundles._kept(grid, sb.bundles._verification_rings)[1]
    near, inside, _ = sb.curve.sides(ring, [a])
    series = pairs[0][1].modes(1, a)
    if inside[0] and not near[0]:
        assert series.point < ring.radius


@settings(max_examples=60)
@given(draw=adjustment_draws())
def test_placed_adjustment_point_gives_the_ring_pass_outcome(draw):
    # the built-in T^1 section's check against its custom twin's, which
    # unwraps each ring: both place the adjustment point by its preimage, so
    # they agree in outcome, the values to 1e-12 and a refusal in class and
    # text; where the ring-pass oracle's side pass places the point, the
    # twin answers as the oracle does
    pairs = class_one_sections(*draw)
    if pairs is None:
        return
    (section, bundle), (twin_section, twin) = pairs
    try:
        points = sb.annulus_verification_points(section.grid, 32)
    except NearBoundaryError:  # the annulus is too thin for points at this n
        return
    twin_value = outcome(sb.verify_transition, twin_section, twin, points)
    value = outcome(sb.verify_transition, section, bundle, points)
    oracle = outcome(oracles.verify_transition_ring_pass, twin_section, twin, points)
    if isinstance(value, float):
        assert isinstance(twin_value, float) and abs(value - twin_value) <= 1e-12
    else:
        assert twin_value == value
    if isinstance(oracle, float):
        assert twin_value == pytest.approx(oracle, abs=1e-13)


def test_class_one_check_makes_no_kernel_pass(monkeypatch, cardioid):
    # a section has no distance to carry, and the adjustment point is placed
    # on each ring by its preimage: a class-1 check makes no kernel pass, for
    # a built-in bundle and a custom one alike, whether the section came from
    # canonical_section, by hand or by dataclasses.replace
    grid = sb.sample(cardioid, 1024)
    pts = sb.annulus_verification_points(grid, 32)
    assert [f.name for f in dataclasses.fields(sb.SectionPair)] == \
        ["grid", "density", "chern", "adjustment", "normalization"]
    calls = []
    kernel_sums = sb.curve.kernel_sums
    for bundle in (sb.schwarz_pole_bundle(cardioid, 0.3 + 0.1j), custom_twins(cardioid)[1]):
        section = sb.canonical_section(bundle, grid)
        by_hand = sb.SectionPair(grid, section.density, 1, section.adjustment,
                                 section.normalization)
        moved = dataclasses.replace(section, adjustment=section.adjustment + 0.01)
        monkeypatch.setattr(sb.curve, "kernel_sums",
                            lambda *a: calls.append(a) or kernel_sums(*a))
        for other in (section, by_hand, moved):
            calls.clear()
            value = sb.verify_transition(other, bundle, pts)
            assert not calls
            assert (value < 1e-9) == (other is not moved)
        monkeypatch.setattr(sb.curve, "kernel_sums", kernel_sums)


def test_custom_class_one_check_finds_a_user_points_roots_once(monkeypatch, cardioid):
    # a custom class-1 check places a user adjustment point on both rings
    # and adjusts both ring densities from one series: one root finding of
    # phi - a per call, where each ring's density found them again
    grid = sb.sample(cardioid, 1024)
    pts = sb.annulus_verification_points(grid, 32)
    bundle = custom_twins(cardioid)[1]
    section = sb.canonical_section(bundle, grid, a=0.1 + 0.05j)
    calls = []
    pole_roots = sb.laurent.pole_roots
    monkeypatch.setattr(sb.laurent, "pole_roots", lambda *a: calls.append(a) or pole_roots(*a))
    for _ in range(2):
        calls.clear()
        assert sb.verify_transition(section, bundle, pts) < 1e-9
        assert len(calls) == 1 and calls[0][1] == section.adjustment


def test_adjustment_point_in_the_ring_band_is_placed_by_its_preimage(monkeypatch, disk):
    # the pole 0.9 on the disk at n = 512 lies in the inner ring's band, its
    # preimage inside the ring: the built-in pole and its custom twin answer
    # alike with no kernel pass (about 4.9e-9, the ring's aliasing of the
    # root 0.9), where the ring-pass oracle's side pass refuses the point
    grid = sb.sample(disk, 512)
    pts = sb.annulus_verification_points(grid, 32)
    twin = sb.custom_bundle(disk, lambda z: 1.0 / (1.0 / z - 0.9))
    twin_section = sb.canonical_section(twin, grid, a=0.9)
    with pytest.raises(NearBoundaryError, match="not strictly inside the ring"):
        oracles.verify_transition_ring_pass(twin_section, twin, pts)
    calls = []
    kernel_sums = sb.curve.kernel_sums
    monkeypatch.setattr(sb.curve, "kernel_sums",
                        lambda *a: calls.append(a) or kernel_sums(*a))
    bundle = sb.schwarz_pole_bundle(disk, 0.9)
    section = sb.canonical_section(bundle, grid)
    calls.clear()
    value = sb.verify_transition(section, bundle, pts)
    assert 1e-9 < value <= 1e-8
    assert abs(sb.verify_transition(twin_section, twin, pts) - value) <= 1e-12
    assert not calls


@pytest.mark.parametrize("coeffs, rho", [([0, 1, 0.3], 0.7), (QUARTIC, 0.72), (SKEWED, 0.7)])
def test_kept_ring_tangent_powers_equal_the_closed_form(coeffs, rho):
    curve = sb.build_polynomial_curve(coeffs, rho)
    grid = sb.sample(curve, 1024)
    for ring in sb.bundles._kept(grid, sb.bundles._verification_rings):
        for m in (-1, 1, 2, 3):
            assert same_bits(sb.tangent_power_bundle(curve, m).transition_at_nodes(ring),
                             sb.curve._pullback_tangent(curve, ring.zeta) ** (-m))
        assert ring._tangent is ring._tangent


def test_tangent_section_verifies_with_no_pullback(monkeypatch, cardioid):
    # T^1's section and its check are the modes of log T: the closed-form
    # tangent is evaluated on no grid, the curve's or a ring's
    grid = sb.sample(cardioid, 1024)
    pts = sb.annulus_verification_points(grid, 32)
    bundle = sb.tangent_power_bundle(cardioid, -1)
    calls = []
    tangent = sb.curve._pullback_tangent
    monkeypatch.setattr(sb.curve, "_pullback_tangent",
                        lambda *a: calls.append(a) or tangent(*a))
    section = sb.canonical_section(bundle, grid)
    first = sb.verify_transition(section, bundle, pts)
    assert sb.verify_transition(section, bundle, pts).hex() == first.hex()
    assert not calls and first < 1e-12


@pytest.mark.parametrize("n", [512, 1024, 4096])
@pytest.mark.parametrize("coeffs, rho", [([0, 1], 0.5), ([0, 1, 0.3], 0.7), (QUARTIC, 0.72)])
def test_grids_keep_the_schwarz_function_and_the_unit_tangent(coeffs, rho, n):
    # on the curve grid and both verification rings: S as the curve gives
    # it and T as the closed form, bit for bit
    curve = sb.build_polynomial_curve(coeffs, rho)
    grid = sb.sample(curve, n)
    for ring in (grid, *sb.bundles._kept(grid, sb.bundles._verification_rings)):
        assert same_bits(ring._schwarz, curve.phi_reflected(ring.zeta))
        assert same_bits(ring._tangent, sb.curve._pullback_tangent(curve, ring.zeta))
        assert ring._schwarz is ring._schwarz and ring._tangent is ring._tangent


def test_kept_arrays_are_read_only(cardioid):
    grid = sb.sample(cardioid, 512)
    sb.annulus_verification_points(grid, 32)
    outer, _ = sb.bundles._kept(grid, sb.bundles._verification_rings)
    (_, scale, weight), _ = sb.bundles._kept(grid, sb.bundles._ring_modes)
    points, inside = sb.bundles._kept(grid, sb.bundles._search_points, 16)
    for kept in (grid._schwarz, grid._tangent, outer._tangent, *grid._node_parts,
                 scale, weight, points, inside):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = kept[1]


def test_schwarz_function_is_evaluated_once_per_grid(monkeypatch, cardioid):
    # exp-Schwarz and two pole bundles, sections and transition checks on one
    # grid: their modes evaluate S on no grid; the transitions, asked for
    # their values, form S on the curve grid and on each ring once
    grid = sb.sample(cardioid, 1024)
    pts = sb.annulus_verification_points(grid, 32)
    rings = sb.bundles._kept(grid, sb.bundles._verification_rings)
    bundles = (sb.exp_schwarz_bundle(cardioid), sb.schwarz_pole_bundle(cardioid, 3),
               sb.schwarz_pole_bundle(cardioid, 0.3 + 0.1j))
    calls = []
    reflected = sb.curve.ConformalMapCurve.phi_reflected
    monkeypatch.setattr(sb.curve.ConformalMapCurve, "phi_reflected",
                        lambda self, zeta: calls.append(zeta.shape) or reflected(self, zeta))
    first = [sb.verify_transition(sb.canonical_section(b, grid), b, pts) for b in bundles]
    assert not calls and max(first) < 1e-12
    for _ in range(2):
        for b in bundles:
            for g in (grid, *rings):
                b.transition_at_nodes(g)
    assert len(calls) == 3


def test_section_density_is_not_the_kept_schwarz_function(cardioid):
    grid = sb.sample(cardioid, 512)
    for bundle in (sb.exp_schwarz_bundle(cardioid), sb.schwarz_pole_bundle(cardioid, 3)):
        density = sb.canonical_section(bundle, grid).density
        assert density.flags.writeable
        assert not np.shares_memory(density, grid._schwarz)


# Laurent modes against the unwrap of the transition (`oracles.node_log_by_unwrap`)

TAYLOR6 = ([0, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 720], 0.6)
# the cardioid turned by 0.7 and moved: a1 = e^{0.7i} puts arg a1 into T's constant
MODE_CURVES = {"cardioid": ([0, 1, 0.3], 0.7), "quartic": (QUARTIC, 0.72), "taylor-6": TAYLOR6,
               "turned": ([0.1 - 0.05j, np.exp(0.7j), 0.3 * np.exp(0.7j)], 0.7)}


def mode_cases(curve):
    """(label, bundle, c, a) of every built-in constructor: exp-Schwarz, a
    pole outside, at the conformal center, inside (adjusted at itself and at
    a user point), and T^1 (at the center and a user point) and T^2."""
    inner = complex(curve.phi(0.3 * np.exp(1j)))
    user = complex(curve.phi(0.2 * np.exp(-2j)))
    center = curve.conformal_center
    outside = sb.schwarz_pole_bundle(curve, complex(curve.phi(1.6 * np.exp(2j))))
    return (("exp-schwarz", sb.exp_schwarz_bundle(curve), 0, None),
            ("pole outside", outside, 0, None),
            ("pole at a0", sb.schwarz_pole_bundle(curve, center), 1, center),
            ("pole inside", sb.schwarz_pole_bundle(curve, inner), 1, inner),
            ("pole inside, user a", sb.schwarz_pole_bundle(curve, inner), 1, user),
            ("T^1", sb.tangent_power_bundle(curve, -1), 1, center),
            ("T^1, user a", sb.tangent_power_bundle(curve, -1), 1, user),
            ("T^2", sb.tangent_power_bundle(curve, -2), 2, center))


def test_series_terms_are_the_least_whose_tail_fits():
    # weight q^M/(1 - q) <= EPS < weight q^(M - 1)/(1 - q), both ways, over
    # ratios from 1e-6 to 1 - 1e-6 and weights from 0.5 to 40
    for q in np.concatenate([10.0 ** -np.arange(1, 7), 1.0 - 10.0 ** -np.arange(1, 7)]):
        for weight in (0.5, 1.0, 3.0, 40.0):
            m = sb.laurent.terms(q, weight)
            tail = lambda k: weight * q ** k / (1.0 - q)
            assert tail(m) <= oracles.EPS * (1.0 + 1e-9), (q, weight, m)
            assert m == 1 or tail(m - 1) > oracles.EPS * (1.0 - 1e-9), (q, weight, m)


def mod_two_pi_i(d):
    """d with its imaginary part taken mod 2 pi into [-pi, pi)."""
    return d.real + 1j * ((d.imag + np.pi) % (2 * np.pi) - np.pi)


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("name", sorted(MODE_CURVES))
def test_mode_densities_equal_the_unwrap_on_the_curve_and_both_rings(name, n):
    curve = sb.build_polynomial_curve(*MODE_CURVES[name])
    grid = sb.sample(curve, n)
    r = 1.0 - 6.0 * (2.0 * np.pi / n)
    for label, bundle, c, a in mode_cases(curve):
        assert bundle.chern == c, label
        for g in (grid, _ring(curve, n, 1.0 / r), _ring(curve, n, r)):
            modes = sb.bundles._node_log(bundle, g, c, a)
            unwrapped = oracles.node_log_by_unwrap(bundle, g, c, a)
            assert np.abs(mod_two_pi_i(modes - unwrapped)).max() <= 1e-13, (label, g.radius)


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("name", sorted(MODE_CURVES))
def test_builtin_checks_equal_the_ring_path(name, n):
    # each built-in section's check from its modes, against the same check
    # through ring grids and unwraps of the same lambda12 (the custom path),
    # and against the package's check of a custom bundle of exp(S) and T
    curve = sb.build_polynomial_curve(*MODE_CURVES[name])
    grid = sb.sample(curve, n)
    try:
        pts = sb.annulus_verification_points(grid, 32)
    except NearBoundaryError:  # the annulus is too thin for points at this n
        return
    for label, bundle, c, a in mode_cases(curve):
        section = sb.canonical_section(bundle, grid, a=a)
        value = sb.verify_transition(section, bundle, pts)
        ring_path = oracles.verify_transition_ring_pass(section, bundle, pts)
        assert abs(value - ring_path) <= 1e-12 and value <= 1e-11, (label, value, ring_path)
    for bundle, twin in zip((sb.exp_schwarz_bundle(curve), sb.tangent_power_bundle(curve, -1)),
                            custom_twins(curve)):
        values = [sb.verify_transition(sb.canonical_section(b, grid), b, pts)
                  for b in (bundle, twin)]
        assert abs(values[0] - values[1]) <= 1e-12, values


def test_anchor_puts_a_phase_of_pi_on_one_branch():
    # node 0's phase within a few ulps of pi, on either side of the cut, and
    # exactly at -pi: every route lands on the same branch, near +pi
    for phase in (np.pi, np.nextafter(np.pi, 4.0), np.nextafter(np.pi, 0.0),
                  np.pi - 4e-16, np.pi + 4e-16, -np.pi, -np.pi + 4e-16, -np.pi - 4e-16):
        log = np.array([0.5 + 1j * phase, 0.1 + 0.2j])
        got = sb.laurent.anchored(log.copy())
        assert abs(got[0].imag - np.pi) <= 1e-15 and got[1] - got[0] == log[1] - log[0]
    # a custom bundle's unwrap takes the same rule: -1 - 0i has the
    # principal phase -pi, and its section's density the phase pi
    disk = sb.build_circle(0, 1)
    bundle = sb.custom_bundle(disk, lambda z: complex(-1.0, -0.0))
    assert np.angle(bundle.transition_at_nodes(sb.sample(disk, 64))[0]) == -np.pi
    density = sb.canonical_section(bundle, sb.sample(disk, 64)).density
    assert np.all(density == complex(0.0, np.pi))
    # elsewhere the anchor is the principal branch of node 0
    for phase in (0.0, 3.0, -3.0, 5.0, -5.0, 40.0):
        got = sb.laurent.anchored(np.array([1j * phase]))[0].imag
        assert -np.pi < got <= np.pi and abs(np.exp(1j * got) - np.exp(1j * phase)) < 1e-14


def test_tangent_square_at_a_real_node_takes_one_branch_on_every_route():
    # with real coefficients T = i at node 0, so T^2 (z - a0)^{-2} is a
    # negative real there: the modes and the unwrap of its node values, the
    # built-in section and a custom one, anchor node 0 at the same phase pi
    curve = sb.build_polynomial_curve(*TAYLOR6)
    bundle = sb.tangent_power_bundle(curve, -2)
    twin = sb.custom_bundle(curve, lambda z: sb.holomorphic_tangent(curve, z) ** 2)
    for n in (256, 1024, 4096):
        grid = sb.sample(curve, n)
        value = bundle.transition_at_nodes(grid)[0] * (grid.z[0] - curve.conformal_center) ** -2
        assert value.real < 0.0 and abs(value.imag) <= 1e-15 * abs(value)
        densities = [sb.canonical_section(b, grid).density for b in (bundle, twin)]
        densities.append(sb.laurent.anchored(oracles.node_log_by_unwrap(bundle, grid, 2, 0j)))
        for density in densities:
            assert abs(density[0].imag - np.pi) <= 1e-12
        assert max(np.abs(d - densities[0]).max() for d in densities[1:]) <= 1e-12


def test_roots_on_or_beside_the_curve_are_refused(disk):
    # a pole on a node is a root of phi - w on |zeta| = 1, an unresolved
    # branch; a zero or pole of lambda12 between the curve and a ring (1/conj
    # w between r and 1, or between 1 and 1/r) has a series that does not
    # converge at that ring
    grid = sb.sample(disk, 512)
    for node in (1.0, 1j, -1.0):  # |zeta| = 1 exactly: class 0, no branch
        with pytest.raises(BranchUnresolvedError, match="not finite"):
            sb.canonical_section(sb.schwarz_pole_bundle(disk, node), grid)
    pts = sb.annulus_verification_points(grid, 32)
    r = 1.0 - 6.0 * (2.0 * np.pi / 512)
    for w, a in ((0.5 * (1.0 + 1.0 / r), None), (0.5 * (1.0 + r), 0j)):
        bundle = sb.schwarz_pole_bundle(disk, w)
        section = sb.canonical_section(bundle, grid, a=a)
        with pytest.raises(NearBoundaryError, match="zero or pole of lambda12 lies between"):
            sb.verify_transition(section, bundle, pts)
    # the adjustment point's preimage just outside the inner ring
    bundle = sb.tangent_power_bundle(disk, -1)
    section = sb.canonical_section(bundle, grid, a=1.005 * r)
    with pytest.raises(NearBoundaryError, match="adjustment point .* not strictly inside"):
        sb.verify_transition(section, bundle, pts)


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_near_roots_take_their_logs_at_the_nodes(n, disk, cardioid):
    # roots whose series would need n terms or more (the disk's poles 1.03
    # and 1.003, on the curve and on rings either side of it, and the
    # cardioid's 1.301, a hair outside the curve, whose node values the
    # unwrap itself resolves only to about 1.3e-13), and S of a degree-20
    # map with more modes than nodes, give the unwrapped density
    taylor = sb.build_polynomial_curve([1.0 / np.prod(np.arange(1.0, k + 1)) if k else 0.0
                                        for k in range(21)], 0.6)
    cases = [(sb.schwarz_pole_bundle(disk, w), radius, 1e-13)
             for w in (1.03, 1.003) for radius in (1.0, 0.999, 1.001)]
    cases += [(sb.schwarz_pole_bundle(cardioid, 1.301), 1.0, 1e-12),
              (sb.exp_schwarz_bundle(taylor), 1.0, 1e-13)]
    for bundle, radius, tol in cases:
        assert bundle.chern == 0
        g = _ring(bundle.curve, n, radius)
        got = sb.bundles._node_log(bundle, g, 0, None)
        want = oracles.node_log_by_unwrap(bundle, g, 0, None)
        assert np.abs(mod_two_pi_i(got - want)).max() <= tol, (bundle.pole, radius)
