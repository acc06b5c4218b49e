"""Hypothesis strategies shared by the property suites.

`certified_curves` draws polynomial maps that the coefficient certificate
(`curve._certified`) accepts by construction: sum_{j>=2} j|a_j| rho^(1-j) =
beta |a1| with beta < 1 makes |phi'(zeta) - a1| < |a1| on |zeta| <= 1/rho,
so phi is univalent there and no draw is refused.
"""

import cmath
import math

from hypothesis import strategies as st

import schwarzbundles as sb

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def certified_curves(draw, max_degree=6):
    """A curve phi = a0 + a1 zeta + ... + aN zeta^N, N from 1 to max_degree:
    a0 in [-3, 3]^2, |a1| in [0.5, 2], rho in [0.5, 0.9] and beta in [0,
    0.9], the budget beta |a1| shared among the a_j, j >= 2, at random
    shares and phases, |a_j| = share_j beta |a1| rho^(j-1)/j."""
    degree = draw(st.integers(1, max_degree))
    rho = draw(st.floats(0.5, 0.9, **finite))
    beta = draw(st.floats(0.0, 0.9, **finite))
    a0 = complex(draw(st.floats(-3.0, 3.0, **finite)), draw(st.floats(-3.0, 3.0, **finite)))
    a1 = draw(st.floats(0.5, 2.0, **finite)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    shares = draw(st.lists(st.floats(0.0, 1.0, **finite), min_size=degree - 1,
                           max_size=degree - 1))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi, **finite), min_size=degree - 1,
                           max_size=degree - 1))
    total = sum(shares) or 1.0
    budget = beta * abs(a1)
    coeffs = [a0, a1] + [budget * (share / total) * rho ** (j - 1) / j * cmath.exp(1j * phase)
                         for j, share, phase in zip(range(2, degree + 1), shares, phases)]
    return sb.build_polynomial_curve(coeffs, rho)
