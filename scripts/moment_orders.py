"""Grid size and wall time of `moments --kmin 0 --kmax K` on the unit disk and
the cardioid phi = zeta + 0.3 zeta^2, run in-process through `cli.main` on
curve files written to a temporary directory. The moments of nonnegative
order come from the map's coefficients, so adaptive refinement stops at its
first grid (n = 256) whatever K is; the time includes loading the file.

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


def run(path, k_max):
    """(grid n, seconds) of one `moments` call."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["moments", str(path), "--kmin", "0", "--kmax", str(k_max)])
    elapsed = time.perf_counter() - start
    if code != cli.EXIT_OK:
        raise SystemExit(f"moments --kmax {k_max} on {path.name} exited {code}")
    return json.loads(out.getvalue())["n"], elapsed


def main(orders):
    print(f"{'curve':>9s} {'K':>6s} {'n':>6s} {'seconds':>8s}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in CURVES.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(spec))
            for k_max in orders:
                n, elapsed = run(path, k_max)
                print(f"{name:>9s} {k_max:6d} {n:6d} {elapsed:8.3f}")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or ORDERS)
