"""Wall time of the CLI verbs that validate a polygon: `validate` and
`quadrature --kind corner` on the regular n-gon with vertices e^{2 pi i j/n},
run in-process through `cli.main` on a curve file written to a temporary
directory, standard output discarded. Each time is the best of the given
number of rounds and includes loading the file.

Usage: python scripts/polygon_timing.py [rounds] [n ...]
       (default 1 round, n = 100 300 1000 4000)
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from schwarzbundles import cli

SIZES = (100, 300, 1000, 4000)
VERBS = (("validate", ["validate"]),
         ("corner", ["quadrature", "--kind", "corner", "--f", "0;0;1"]))


def best(argv, rounds):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        times.append(time.perf_counter() - start)
        if code != cli.EXIT_OK:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
    return min(times)


def main(rounds, sizes):
    print(f"best of {rounds} rounds, seconds per call")
    print(f"{'n':>6s} " + " ".join(f"{name:>10s}" for name, _ in VERBS))
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            a = np.exp(2j * np.pi * np.arange(n) / n)
            path = Path(tmp) / f"polygon{n}.json"
            path.write_text(json.dumps({"kind": "polygon",
                                        "vertices": [[v.real, v.imag] for v in a]}))
            row = [best(argv[:1] + [str(path)] + argv[1:], rounds) for _, argv in VERBS]
            print(f"{n:6d} " + " ".join(f"{t:10.4f}" for t in row))


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    main(args[0] if args else 1, args[1:] or SIZES)
