"""Closed-form linear symbols of the capillary-gravity water-wave problem.

The dispersion relation on the branch used throughout is

    omega(k, b) = sgn(k) * sqrt((k + b k^3) * tanh k),

with Bond number b >= 0.  The companion multiplier

    sigma(k, b) = sqrt((k + b k^3) / tanh k),   sigma(0, b) = 1,

is even and positive, and K0 has the purely imaginary odd symbol
``-i tanh(k)``.

Near k = 0 every formula above is a 0/0-flavoured quotient, so this module
switches to Taylor expansions for |k| < 0.05; in particular
d_k omega(0, b) = 1 exactly.  All functions accept scalars or arrays.

``omega``, ``omega_deriv``, ``sigma`` and ``sigma_inv`` evaluate the same
closed forms by one of two routes.  A Python float (``np.float64`` included)
or int goes through ``math`` and returns a float: this is the route of every
Brent and Newton iteration in ``resonance``, at about a hundredth of the
cost of a numpy call.  Anything else, 0-d arrays included, is masked between
the series and the closed form with numpy.  ``math`` and numpy may round
tanh, cosh and powers differently, so the routes agree to within two ulps of
the terms a closed form sums (for omega'' and omega''' near their zeros that
is many ulps of the result), and a root solved on scalars may sit an ulp
away from one solved on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

__all__ = ["omega", "omega_deriv", "sigma", "sigma_inv", "k0_symbol", "ModelParams"]

_SMALL_K = 0.05
#: above this |k| math.cosh overflows; sech^2 has long since underflowed to 0
_COSH_MAX = 710.0


def _array_sech2(a: np.ndarray) -> np.ndarray:
    # sech^2 underflows to 0 for large |k|; the overflow inside cosh is benign
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(a) ** 2


def _scalar_sech2(a: float) -> float:
    if a > _COSH_MAX:
        return 0.0
    c = math.cosh(a)
    return 1.0 / (c * c)  # c ** 2 would raise OverflowError past |k| = 355


#: elementary functions of the two routes: numpy on arrays, math on floats
_ARRAY = SimpleNamespace(tanh=np.tanh, sqrt=np.sqrt, sech2=_array_sech2)
_SCALAR = SimpleNamespace(tanh=math.tanh, sqrt=math.sqrt, sech2=_scalar_sech2)


def _radial(k, b: float, order: int, series, closed, odd: bool):
    """An even or odd function of k, evaluated from a = |k|.

    ``series(a, b, order)`` serves a < _SMALL_K and ``closed(a, b, order,
    route)`` the rest.  A Python float or int takes the scalar route and
    returns a float; anything else is masked between the two branches as a
    float64 array (a 0-d array still returns a float).
    """
    if isinstance(k, (float, int)):
        x = float(k)
        a = abs(x)
        out = series(a, b, order) if a < _SMALL_K else closed(a, b, order, _SCALAR)
        return ((x > 0.0) - (x < 0.0)) * out if odd else out
    arr = np.asarray(k, dtype=np.float64)
    a = np.abs(arr)
    out = np.empty_like(a)
    small = a < _SMALL_K
    if np.any(small):
        out[small] = series(a[small], b, order)
    if np.any(~small):
        out[~small] = closed(a[~small], b, order, _ARRAY)
    if odd:
        out = np.sign(arr) * out
    return float(out) if arr.ndim == 0 else out


def _G_and_derivs(a, b: float, upto: int, route) -> list:
    """G = (k + b k^3) tanh k and d/dk-derivatives, for a = |k| >= _SMALL_K."""
    T = route.tanh(a)
    S = route.sech2(a)
    poly = a + b * a**3
    dpoly = 1.0 + 3.0 * b * a**2
    out = [poly * T]
    if upto >= 1:
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


def _series_coeffs(b: float) -> tuple[float, float]:
    """Taylor coefficients of omega = k + c3 k^3 + c5 k^5 + O(k^7) near 0."""
    c3 = 0.5 * (b - 1.0 / 3.0)
    c5 = 0.5 * (2.0 / 15.0 - b / 3.0) - 0.125 * (b - 1.0 / 3.0) ** 2
    return c3, c5


def _omega_series(x, b: float, order: int):
    c3, c5 = _series_coeffs(b)
    if order == 0:
        return x + c3 * x**3 + c5 * x**5
    if order == 1:
        return 1.0 + 3.0 * c3 * x**2 + 5.0 * c5 * x**4
    if order == 2:
        return 6.0 * c3 * x + 20.0 * c5 * x**3
    return 6.0 * c3 + 60.0 * c5 * x**2


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
    # sigma = 1 + s2 k^2 + s4 k^4 + O(k^6)
    s2 = 0.5 * (b + 1.0 / 3.0)
    s4 = 0.5 * (b / 3.0 - 1.0 / 45.0) - 0.125 * (b + 1.0 / 3.0) ** 2
    return 1.0 + s2 * x**2 + s4 * x**4


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
    """Symbol of the operator K0: the odd, purely imaginary ``-i tanh(k)``."""
    arr = np.asarray(k, dtype=np.float64)
    out = -1j * np.tanh(arr)
    return complex(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ModelParams:
    """Carrier wavenumber, Bond number, and the derived linear constants.

    omega0 is the carrier frequency, cg the group velocity d_k omega(k0, b),
    and omega2 the second derivative at the carrier (the dispersion
    coefficient of the modulation equation is omega2/2).
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

    @cached_property
    def omega2(self) -> float:
        return omega_deriv(self.k0, self.b, 2)
