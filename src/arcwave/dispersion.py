"""Closed-form linear symbols of the capillary-gravity water-wave problem.

The dispersion relation on the branch used throughout is

    omega(k, b) = sgn(k) * sqrt((k + b k^3) * tanh k),

with Bond number b >= 0.  The companion multiplier

    sigma(k, b) = sqrt((k + b k^3) / tanh k),   sigma(0, b) = 1,

is even and positive, and K0 has the purely imaginary odd symbol
``-i tanh(k)``.

Near k = 0 every formula above is a 0/0-flavoured quotient, so this module
switches to Taylor expansions there: for |k| < 0.05 in omega, omega' and
sigma, and for |k| < 0.1 in omega'' and omega''', whose closed forms
subtract O(1/k) terms to leave an O(k) result; for b > 1 both cuts shrink
by sqrt(b), since the series' remainder grows like (b k^2)^8.  The series
run through k^15 (sigma's through k^14); in particular d_k omega(0, b) = 1
exactly.  All functions accept scalars or arrays.

``omega``, ``omega_deriv``, ``sigma`` and ``sigma_inv`` evaluate the same
closed forms by one of two routes.  A Python float (``np.float64`` included)
or int goes through ``math`` and returns a float: this is the route of the
Newton iterations in ``resonance``, at about a hundredth of the cost of a
numpy call.  Anything else, 0-d arrays included, goes through
numpy on one path: the closed form on every point, then the series written
over the points below the cut.  omega itself forms no sech^2: only the
derivatives use it.  ``math`` and numpy may round tanh, cosh and powers
differently, so the routes agree to within two ulps of the terms a closed
form sums (for omega'' and omega''' near their zeros that is many ulps of
the result), and a root solved on scalars may sit an ulp away from one
solved on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

__all__ = ["omega", "omega_deriv", "sigma", "sigma_inv", "k0_symbol", "ModelParams"]

#: |k| below which the Taylor series replaces the closed form, per
#: derivative order of omega (sigma uses order 0's)
_SERIES_CUT = (0.05, 0.05, 0.1, 0.1)
#: above this |k| math.cosh overflows; sech^2 has long since underflowed to 0
_COSH_MAX = 710.0


def _scalar_sech2(a: float) -> float:
    if a > _COSH_MAX:
        return 0.0
    c = math.cosh(a)
    return 1.0 / (c * c)  # c ** 2 would raise OverflowError past |k| = 355


#: elementary functions of the two routes: numpy on arrays, math on floats
_ARRAY = SimpleNamespace(tanh=np.tanh, sqrt=np.sqrt, sech2=lambda a: 1.0 / np.cosh(a) ** 2)
_SCALAR = SimpleNamespace(tanh=math.tanh, sqrt=math.sqrt, sech2=_scalar_sech2)


def _radial(k, b: float, order: int, series, closed, odd: bool):
    """An even or odd function of k, evaluated from a = |k|.

    ``series(a, b, order)`` serves a < _SERIES_CUT[order] (divided by
    sqrt(b) when b > 1) and ``closed(a, b, order, route)`` the rest.  A
    Python float or int takes the scalar route and returns a float; anything
    else is evaluated as a float64 array (a 0-d array still returns a float):
    the closed form on every point, then the series over the points below
    the cut.  Each element's value is the same either way.
    """
    cut = _SERIES_CUT[order]
    if b > 1.0:
        cut /= math.sqrt(b)
    if isinstance(k, (float, int)):
        x = float(k)
        a = abs(x)
        out = series(a, b, order) if a < cut else closed(a, b, order, _SCALAR)
        return ((x > 0.0) - (x < 0.0)) * out if odd else out
    arr = np.asarray(k, dtype=np.float64)
    # a 0-d array runs through the 1-d loops, as one element of an array
    x = arr.reshape(1) if arr.ndim == 0 else arr
    a = np.abs(x)
    # below the cut the closed forms meet 0/0 at k = 0 and cancellation near
    # it, and cosh overflows far out (sech^2 is then 0); the series replaces
    # the former
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = closed(a, b, order, _ARRAY)
    small = a < cut
    if small.any():
        out[small] = series(a[small], b, order)
    if odd:
        out = np.sign(x) * out
    return float(out[0]) if arr.ndim == 0 else out


def _G_and_derivs(a, b: float, upto: int, route) -> list:
    """G = (k + b k^3) tanh k and its k-derivatives at a = |k| past the series cut."""
    T = route.tanh(a)
    poly = a + b * a**3
    out = [poly * T]
    if upto == 0:
        return out
    S = route.sech2(a)
    dpoly = 1.0 + 3.0 * b * a**2
    out.append(dpoly * T + poly * S)
    if upto >= 2:
        out.append(6.0 * b * a * T + 2.0 * dpoly * S - 2.0 * poly * S * T)
    if upto >= 3:
        out.append(
            6.0 * b * T
            + 18.0 * b * a * S
            - 6.0 * dpoly * S * T
            + poly * (4.0 * S * T**2 - 2.0 * S**2)
        )
    return out


#: Taylor series near k = 0, sum_n c_n(b) k^n over n = p, p + 2, ..., p + 14,
#: as (p, c_p, c_{p+2}, ...); each c_n is a polynomial in b listed from b^0
#: up (exact rationals from sympy series of sqrt((k + b k^3) tanh k) and
#: sqrt((k + b k^3) / tanh k))
_TAYLOR = {
    "omega": (1, (
        (1.0,),
        (-1 / 6, 1 / 2),
        (19 / 360, -1 / 12, -1 / 8),
        (-55 / 3024, 19 / 720, 1 / 48, 1 / 16),
        (11813 / 1814400, -55 / 6048, -19 / 2880, -1 / 96, -5 / 128),
        (-2117 / 887040, 11813 / 3628800, 55 / 24192, 19 / 5760, 5 / 768, 7 / 256),
        (64604977 / 72648576000, -2117 / 1774080, -11813 / 14515200, -55 / 48384,
         -19 / 9216, -7 / 1536, -21 / 1024),
        (-263101079 / 784604620800, 64604977 / 145297152000, 2117 / 7096320,
         11813 / 29030400, 275 / 387072, 133 / 92160, 7 / 2048, 33 / 2048),
    )),
    "sigma": (0, (
        (1.0,),
        (1 / 6, 1 / 2),
        (-1 / 40, 1 / 12, -1 / 8),
        (79 / 15120, -1 / 80, -1 / 48, 1 / 16),
        (-2339 / 1814400, 79 / 30240, 1 / 320, 1 / 96, -5 / 128),
        (677 / 1900800, -2339 / 3628800, -79 / 120960, -1 / 640, -5 / 768, 7 / 256),
        (-308963 / 2905943040, 677 / 3801600, 2339 / 14515200, 79 / 241920,
         1 / 1024, 7 / 1536, -21 / 1024),
        (131301607 / 3923023104000, -308963 / 5811886080, -677 / 15206400,
         -2339 / 29030400, -79 / 387072, -7 / 10240, -7 / 2048, 33 / 2048),
    )),
}


@lru_cache(maxsize=64)
def _series_coeffs(name: str, b: float, order: int) -> tuple[int, tuple[float, ...]]:
    """The order-th derivative of a ``_TAYLOR`` series at Bond number b.

    Returns (parity, coefficients): the derivative is k^parity times a
    polynomial in k^2 whose coefficients are listed highest first.
    """
    p, table = _TAYLOR[name]
    out = []
    for j, poly in enumerate(table):
        n = p + 2 * j
        if n < order:
            continue
        c = 0.0
        for coeff in reversed(poly):
            c = c * b + coeff
        out.append(math.perm(n, order) * c)
    return (p - order) % 2, tuple(reversed(out))


def _series(name: str, x, b: float, order: int):
    """Horner evaluation in x^2, the same operations on floats and arrays."""
    parity, coeffs = _series_coeffs(name, b, order)
    x2 = x * x
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x2 + c
    return x * acc if parity else acc


def _omega_series(x, b: float, order: int):
    return _series("omega", x, b, order)


def _omega_closed(x, b: float, order: int, route):
    G = _G_and_derivs(x, b, order, route)
    w = route.sqrt(G[0])
    if order == 0:
        return w
    if order == 1:
        return G[1] / (2.0 * w)
    if order == 2:
        return G[2] / (2.0 * w) - G[1] ** 2 / (4.0 * G[0] * w)
    return (
        G[3] / (2.0 * w)
        - 3.0 * G[1] * G[2] / (4.0 * G[0] * w)
        + 3.0 * G[1] ** 3 / (8.0 * G[0] ** 2 * w)
    )


def _sigma_series(x, b: float, order: int):
    return _series("sigma", x, b, order)


def _sigma_closed(x, b: float, order: int, route):
    return route.sqrt((x + b * x**3) / route.tanh(x))


def omega(k, b: float):
    """Dispersion relation sgn(k)*sqrt((k + b k^3) tanh k); odd in k."""
    return _radial(k, b, 0, _omega_series, _omega_closed, odd=True)


def omega_deriv(k, b: float, order: int):
    """Analytic k-derivative of ``omega`` of the given order (1, 2, or 3).

    At k = 0 the Taylor limit is returned: omega'(0,b) = 1, omega''(0,b) = 0,
    omega'''(0,b) = 3(b - 1/3).
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    # parity: omega odd => omega' even, omega'' odd, omega''' even
    return _radial(k, b, order, _omega_series, _omega_closed, odd=order == 2)


def sigma(k, b: float):
    """Even positive multiplier sqrt((k + b k^3)/tanh k), with sigma(0,b)=1."""
    return _radial(k, b, 0, _sigma_series, _sigma_closed, odd=False)


def sigma_inv(k, b: float):
    """1 / sigma(k, b); bounded by 1 since sigma >= 1 for b >= 0."""
    return 1.0 / sigma(k, b)


def k0_symbol(k):
    """Symbol of the operator K0: the odd, purely imaginary ``-i tanh(k)``.

    A Python float or int takes the ``math`` route, anything else numpy's;
    either way a scalar returns a complex.
    """
    if isinstance(k, (float, int)):
        return -1j * math.tanh(k)
    arr = np.asarray(k, dtype=np.float64)
    out = -1j * np.tanh(arr)
    return complex(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ModelParams:
    """Carrier wavenumber, Bond number, and the derived linear constants.

    omega0 is the carrier frequency and cg the group velocity
    d_k omega(k0, b).  The modulation equation's dispersion coefficient
    omega''(k0)/2 is ``nls.nls_coefficients``' ``half_omega2``.
    """

    k0: float
    b: float

    def __post_init__(self) -> None:
        if not (self.k0 > 0.0):
            raise ValueError(f"k0 must be positive, got {self.k0}")
        if self.b < 0.0:
            raise ValueError(f"b must be nonnegative, got {self.b}")

    @cached_property
    def omega0(self) -> float:
        w = omega(self.k0, self.b)
        assert w > 0.0
        return w

    @cached_property
    def cg(self) -> float:
        return omega_deriv(self.k0, self.b, 1)
