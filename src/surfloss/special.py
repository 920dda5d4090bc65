"""Complete elliptic integrals of the first kind.

The scalar ellipk iterates the arithmetic-geometric mean; the vectorized
ellipk_grid evaluates the Cephes routine of scipy.special.  Both take the
parameter m = k^2 (not the modulus) and accept negative arguments, which
the axisymmetric potential kernels need.  Negative m is
evaluated through the imaginary-modulus transformation
    K(m) = K(m/(m-1)) / sqrt(1-m),   m < 0,
which maps onto a parameter in [0, 1).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ellipk as _cephes_ellipk

_AGM_RTOL = 1e-15
_AGM_MAX_ITER = 40


def _agm(b0: float) -> float:
    """Arithmetic-geometric mean of (1, b0), b0 > 0."""
    a, b = 1.0, b0
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def ellipk(m: float) -> float:
    """K(m) with parameter m = k^2, m < 1.  Negative m allowed."""
    if m >= 1.0:
        raise ValueError(f"ellipk requires m < 1, got m = {m}")
    if m < 0.0:
        return ellipk(m / (m - 1.0)) / math.sqrt(1.0 - m)
    return math.pi / (2.0 * _agm(math.sqrt(1.0 - m)))


def _ellipk_nonpositive(m) -> np.ndarray:
    """Vectorized K(m) for m <= 0, without a domain check.

    The imaginary-modulus transformation maps m onto m/(m-1) in [0, 1),
    where the Cephes routine takes over.
    """
    return _cephes_ellipk(m / (m - 1.0)) / np.sqrt(1.0 - m)


def ellipk_grid(m) -> np.ndarray:
    """Vectorized K(m) over an array of parameters, all < 1."""
    m = np.asarray(m, dtype=float)
    if np.any(m >= 1.0):
        raise ValueError("ellipk_grid requires m < 1 everywhere")
    neg = m < 0.0
    k = _cephes_ellipk(np.where(neg, m / (m - 1.0), m))
    return np.where(neg, k / np.sqrt(1.0 - m), k)


def ellipkp(m: float) -> float:
    """Complementary integral K'(k) = K(1-m) for parameter m = k^2."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"ellipkp requires 0 <= m < 1, got m = {m}")
    return ellipk(1.0 - m)


def ck_ratio(a_over_b: float) -> float:
    """K(k)/K'(k) for modulus k = a/b in (0, 1).

    This is the capacitance kernel of the coplanar-strip conformal map.
    """
    if not 0.0 < a_over_b < 1.0:
        raise ValueError(f"ck_ratio requires 0 < a/b < 1, got {a_over_b}")
    m = a_over_b * a_over_b
    return ellipk(m) / ellipk(1.0 - m)


def ck_ratio_log_approx(a_over_b: float) -> float:
    """Logarithmic approximation to ck_ratio.

    Good to better than 1% over a/b in [0.1, 0.9]; the exact elliptic
    ratio is authoritative everywhere, this form is for cross-checks.
    """
    if not 0.0 < a_over_b < 1.0:
        raise ValueError(f"ck_ratio_log_approx requires 0 < a/b < 1, got {a_over_b}")
    rk = math.sqrt(a_over_b)
    return math.log(2.0 * (1.0 + rk) / (1.0 - rk)) / math.pi
