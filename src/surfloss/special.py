"""Complete elliptic integrals of the first kind.

Both forms take the parameter m = k^2, not the modulus.  The scalar
ellipk, used by the closed forms, iterates the arithmetic-geometric mean,
    K(m) = pi / (2 AGM(1, sqrt(1-m))),   m < 1   (DLMF 19.8.5),
which holds for negative m as it stands.  The vectorized
_ellipk_nonpositive, used by the axisymmetric potential kernels at m <= 0,
evaluates the Cephes routine of scipy.special through the
imaginary-modulus transformation
    K(m) = K(m/(m-1)) / sqrt(1-m),   m < 0,
which maps onto a parameter in [0, 1).  That form loses accuracy as m
falls (about 1e-10 relative at m = -1e8), and the benchmark reference
values are recorded with it.
"""

from __future__ import annotations

import math

import numpy as np

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
    return math.pi / (2.0 * _agm(math.sqrt(1.0 - m)))


def _ellipk_nonpositive(m) -> np.ndarray:
    """Vectorized K(m) for m <= 0, without a domain check.

    The imaginary-modulus transformation maps m onto m/(m-1) in [0, 1),
    where the Cephes routine takes over.
    """
    from scipy.special import ellipk as _cephes_ellipk
    return _cephes_ellipk(m / (m - 1.0)) / np.sqrt(1.0 - m)


def ellipkp(m: float) -> float:
    """Complementary integral K'(k) = K(1-m) for parameter m = k^2.

    Where m > 0 but 1 - m rounds to 1 (m below 2^-54), K' is its
    asymptote ln(4/k), whose next term is about m/4 relative (DLMF
    19.12.1).  K'(0) is infinite, and ellipk(1) raises for it.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"ellipkp requires 0 <= m < 1, got m = {m}")
    if 0.0 < m and 1.0 - m == 1.0:
        return math.log(4.0 / math.sqrt(m))
    return ellipk(1.0 - m)


def ck_ratio(a_over_b: float) -> float:
    """K(k)/K'(k) for modulus k = a/b in (0, 1).

    This is the capacitance kernel of the coplanar-strip conformal map.
    """
    if not 0.0 < a_over_b < 1.0:
        raise ValueError(f"ck_ratio requires 0 < a/b < 1, got {a_over_b}")
    m = a_over_b * a_over_b
    return ellipk(m) / ellipkp(m)

