"""Grid size and wall time of `moments --kmin 0 --kmax K` and `moments --kmin -K
--kmax K` on the unit disk and the cardioid phi = zeta + 0.3 zeta^2, run
in-process through `cli.main` on curve files written to a temporary
directory. The moments of nonnegative order come from the map's
coefficients, so with --kmin 0 adaptive refinement stops at its first grid
(n = 256) whatever K is; the negative orders are trapezoidal sums, which
alias while n <= K, so that range starts refining at the least power of two
above K and refines further. The time includes
loading the file.

Usage: python scripts/moment_orders.py [K ...]   (default K = 64 300 1000 4095)
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from schwarzbundles import cli

ORDERS = (64, 300, 1000, 4095)
CURVES = {"disk": {"kind": "conformal", "coeffs": [[0, 0], [1, 0]], "rho": 0.5},
          "cardioid": {"kind": "conformal", "coeffs": [[0, 0], [1, 0], [0.3, 0]],
                       "rho": 0.7}}


def run(path, k_min, k_max):
    """(grid n, seconds) of one `moments` call; n is "exit c" for a call
    that exits with code c. The cardioid's negative orders do so from
    K = 300 on, where |z|^-K on its nodes (|z| >= 0.7) is so large that
    rounding misses the absolute tolerance (exit 1) or overflows (exit 2)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["moments", str(path), "--kmin", str(k_min), "--kmax", str(k_max)])
    elapsed = time.perf_counter() - start
    if code != cli.EXIT_OK:
        return f"exit {code}", elapsed
    return json.loads(out.getvalue())["n"], elapsed


def main(orders):
    print(f"{'curve':>9s} {'K':>6s} {'n':>6s} {'seconds':>8s} {'n, -K':>7s} {'seconds':>8s}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in CURVES.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(spec))
            for k_max in orders:
                n, elapsed = run(path, 0, k_max)
                n_both, elapsed_both = run(path, -k_max, k_max)
                print(f"{name:>9s} {k_max:6d} {n:>6} {elapsed:8.3f} {n_both:>7} {elapsed_both:8.3f}")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or ORDERS)
