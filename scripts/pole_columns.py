"""The rational fit's Schwarz-pole sample columns by three routes, and its
F matrix by three: their time and their agreement.

The fit's F (`quaddom._exterior_f_matrix`, `modes F`) is the Taylor modes
of log(phi - z) at m <= n pullback nodes, one unwrap and one FFT over all
samples, and one real product; the table gives its m. It replaced one
unwrap of the sample columns' node values 1/(S - conj w) at all n nodes
(`unwrap`) summed in one kernel pass (`kernel F`). The Laurent modes of
the same columns, -log conj(a0 - w) + sum_m conj(p_m) zeta^-m/m with p_m
the power sums of the inverse preimages of w, need no unwrap; they come
here from Newton's identities on b_l = a_l/(a0 - w) (`power_sums`), or
from the roots themselves by one batched companion eigenvalue call. F can
also be taken per sample w from the closed rows of `double_cauchy_batch`,
one root finding per sample, with no kernel pass (`closed F`): the two
other routes' F are compared with it. The inputs are the `sweep`
workload's fits: 12 samples on the cardioid and 24 on the quartic at n =
512, on rings at 1.6 and 2.4 times the curve's largest node modulus. The
columns' modes count is the least whose tail is within EPS at the bound
sigma = max(rho, L_out/(L_out + g)) of the inverse preimages' moduli, g
the samples' least distance to the nodes less L_in pi/n. Each row gives
the best time of `rounds` over 50 calls of each route, the largest
difference mod 2 pi i of the modes' columns from the unwrapped ones, and
the largest difference of the kernel and modes F from the closed F,
relative to its largest entry.

Usage: python scripts/pole_columns.py [rounds]   (default 5)
"""

import sys
import timeit

import numpy as np

import schwarzbundles as sb
from schwarzbundles import laurent, quaddom, transforms

CURVES = (("cardioid", [0, 1, 0.3], 0.7, 12),
          ("quartic", [0, 1, 0.1, 0.04, 0.02], 0.75, 24))


def samples(grid, count):
    """Two rings of exterior samples, as the `sweep` workload draws them."""
    scale = np.abs(grid.z).max()
    half = count // 2
    return np.concatenate([1.6 * scale * np.exp(2j * np.pi * (np.arange(half) + 0.3) / half),
                           2.4 * scale * np.exp(2j * np.pi * (np.arange(count - half) + 0.7)
                                                / (count - half))])


def modes_columns(grid, zs, power_sums, count):
    """The columns from the power sums (count, m) of the inverse preimages."""
    a0 = grid.curve.coeffs[0]
    bins = np.zeros((grid.n, zs.size), dtype=complex)
    bins[grid.n - count:] = (np.conjugate(power_sums) / np.arange(1.0, count + 1)[:, None])[::-1]
    return np.fft.ifft(bins, axis=0, norm="forward") - np.log(np.conjugate(a0 - zs))


def power_sums(b, count):
    """(count, m) power sums p_j = sum_i u_i^j, j = 1 ... count, over the
    roots u_i of u^N + b_1 u^(N-1) + ... + b_N, one column of b (N, m) per
    sample: Newton's identities p_j = -sum_{l<j} b_l p_{j-l} - j b_j (b_l
    = 0 past N)."""
    degree = b.shape[0]
    table = np.zeros((degree + count, b.shape[1]), dtype=b.dtype)  # row N - 1 + j: p_j
    reverse = -b[::-1]
    for j in range(1, count + 1):
        table[degree - 1 + j] = (reverse * table[j - 1:j - 1 + degree]).sum(axis=0)
        if j <= degree:
            table[degree - 1 + j] -= j * b[j - 1]
    return table[degree:]


def newton(grid, zs, count):
    a = np.array(grid.curve.coeffs[:grid.curve.degree + 1])
    return modes_columns(grid, zs, power_sums(np.multiply.outer(a[1:], 1.0 / (a[0] - zs)),
                                              count), count)


def eigenvalues(grid, zs, count):
    a = np.array(grid.curve.coeffs[:grid.curve.degree + 1])
    degree = a.size - 1
    companion = np.zeros((zs.size, degree, degree), dtype=complex)
    companion[:, 0] = -np.multiply.outer(1.0 / (a[0] - zs), a[1:])
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
    u = np.linalg.eigvals(companion)  # (m, N) inverse preimages
    powers = np.cumprod(np.broadcast_to(u, (count, *u.shape)), axis=0)
    return modes_columns(grid, zs, powers.sum(axis=2), count)


def unwrapped(grid, zs):
    return laurent.anchored(transforms.unwrap_log(transforms._pole_transition(grid, zs))[0])


def kernel_f(grid, zs):
    return np.exp(sb.kernel_sums(grid, zs, unwrapped(grid, zs))[2])


def closed_f(grid, zs):
    return np.exp(np.stack([sb.double_cauchy_batch(grid, zs, w) for w in zs], axis=1))


def best(route, rounds):
    return 1e6 * min(timeit.repeat(route, number=50, repeat=rounds)) / 50


def main(rounds):
    print(f"best of {rounds} rounds of 50 calls, us per call; difference mod 2 pi i, "
          "and relative to the closed F")
    print(f"{'curve':9s} {'w':>3s} {'terms':>5s} {'unwrap':>8s} {'newton':>8s} "
          f"{'eigvals':>8s} {'newton diff':>12s} {'eigvals diff':>12s} "
          f"{'kernel F':>8s} {'modes F':>8s} {'closed F':>8s} {'m':>4s} "
          f"{'kernel diff':>11s} {'modes diff':>10s}")
    for name, coeffs, rho, count in CURVES:
        curve = sb.build_polynomial_curve(coeffs, rho)
        grid = sb.sample(curve, 512)
        zs = samples(grid, count)
        _, l_in, l_out = curve._dphi_bounds
        gap = sb.kernel_sums(grid, zs)[0].min() - l_in * np.pi / grid.n
        terms = laurent.terms(max(curve.rho, l_out / (l_out + gap)), curve.degree)
        columns = unwrapped(grid, zs)
        row = [f"{name:9s} {count:3d} {terms:5d}"]
        diffs = []
        for route in (lambda: unwrapped(grid, zs), lambda: newton(grid, zs, terms),
                      lambda: eigenvalues(grid, zs, terms)):
            row.append(f"{best(route, rounds):8.1f}")
            d = route() - columns
            diffs.append(np.abs(d.real + 1j * ((d.imag + np.pi) % (2 * np.pi) - np.pi)).max())
        row.append(f"{diffs[1]:12.2e} {diffs[2]:12.2e}")
        closed = closed_f(grid, zs)
        routes = (lambda: kernel_f(grid, zs), lambda: quaddom._exterior_f_matrix(grid, zs),
                  lambda: closed_f(grid, zs))
        row.extend(f"{best(route, rounds):8.1f}" for route in routes)
        row.append(f"{quaddom._mode_nodes(curve, zs, grid.n):4d}")
        row.extend(f"{np.abs(route() - closed).max() / np.abs(closed).max():{width}.2e}"
                   for route, width in zip(routes[:2], (11, 10)))
        print(" ".join(row))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
