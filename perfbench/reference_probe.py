"""A fixed piece of work that measures how fast the host runs right now.

Usage: python3 perfbench/reference_probe.py

It never imports degelliptic.  It imports the numpy and scipy modules the
package uses and does a fixed amount of the kinds of work the workloads do
(a sparse LU solve, vectorised bisection on a few thousand points, a plain
Python loop), then prints ``ready``.  run.py times it from its start until
that line arrives, in alternation with the set-ups and rounds, and scales
the workload's times by it, so that a change of the program moves the
scaled times and a slower host does not.
"""

import sys

import numpy as np
import scipy.interpolate  # noqa: F401  (the imports are part of the work)
import scipy.sparse as sp
import scipy.sparse.linalg as sla


def main() -> int:
    n = 48
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    lap = (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsc()
    x = sla.spsolve(lap, np.ones(n * n))

    y = np.linspace(0.1, 5.0, 4000)
    for _ in range(3):
        lo, hi = np.zeros_like(y), np.full_like(y, 3.0)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            below = mid * np.exp(mid) < y
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)

    total = 0.0
    for i in range(100_000):
        total += (i * 7 % 13) * 0.5

    if not (np.all(x > 0) and np.all(hi - lo < 1e-9) and total == 299_996.0):
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
