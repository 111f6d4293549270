"""Reference values computed outside arcwave, with mpmath at 30 digits.

The dispersion relation, the resonant partner k1 and the two-mode cross
kernel of the u_{-1} equation are those of the repository's oracle scripts,
imported from ``scripts/``: ``derive_kernel_oracles.py`` (``omega``,
``nontrivial_zero``, ``ext``, the route of its triad stability ratios) and
``derive_reference_values.py`` (``omega_d``, whose findroot calls give the
critical Bond numbers).  So the benchmark never compares arcwave with
itself.  Nothing here imports numpy or arcwave.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from derive_kernel_oracles import ext, nontrivial_zero, omega  # noqa: E402
from derive_reference_values import omega_d  # noqa: E402


def critical_bonds(k0: float) -> tuple[float, float]:
    """(b0, b1): d omega/dk(k0, b0) = 1 and 2 omega(k0/2, b1) = omega(k0, b1)."""
    k0 = mp.mpf(k0)
    b1 = mp.findroot(lambda b: 2 * omega(k0 / 2, b) - omega(k0, b), mp.mpf("0.24"))
    b0 = mp.findroot(lambda b: omega_d(k0, b, 1) - 1, mp.mpf("0.224"))
    return float(b0), float(b1)


def k1_of_b(k0: float, b: float) -> float:
    """The resonant partner k1 > k0 of k0 for b in (0, b0)."""
    return float(nontrivial_zero(mp.mpf(k0), mp.mpf(b)))


def triad_ratio(k0: float, b: float, k1: float) -> float:
    """Stability ratio c(k0, k1-k0 -> k1) / c(k0, -k1 -> k0-k1), real part."""
    k0, b, k1 = mp.mpf(k0), mp.mpf(b), mp.mpf(k1)
    return float(mp.re(ext(-1, k0, k1 - k0, b) / ext(-1, k0, -k1, b)))


def triad_ratio_spread(k0: float, b: float, k1: float, window: float) -> float:
    """Largest relative change of the triad ratio when k1 moves by +/- window."""
    ratio = triad_ratio(k0, b, k1)
    return max(abs(triad_ratio(k0, b, k1 + s * window) - ratio) for s in (-1.0, 1.0)) / abs(ratio)


def least_squares_slope(xs: list[float], ys: list[float]) -> float:
    """Slope of the ordinary least-squares line through (xs, ys)."""
    n = len(xs)
    if n < 2:
        raise ValueError("a slope needs at least two points")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


if __name__ == "__main__":
    # the reference table behind the bond-sweep checks, at the unjittered
    # Bond numbers
    import workloads

    b0, b1 = critical_bonds(workloads.K0)
    print(f"k0 = {workloads.K0}: b0 = {b0!r}  b1 = {b1!r}")
    print(f"{'b':>8} {'k1':>22} {'triad ratio':>22} {'ratio tol':>10}")
    for b in workloads.BOND_ANCHORS:
        if b >= b0:
            print(f"{b:8.4g}   (no resonant partner: stable, ratio None)")
            continue
        k1 = k1_of_b(workloads.K0, b)
        spread = triad_ratio_spread(workloads.K0, b, k1, workloads.RATIO_K1_WINDOW)
        print(f"{b:8.4g} {k1!r:>22} {triad_ratio(workloads.K0, b, k1)!r:>22} {spread:10.3g}")
