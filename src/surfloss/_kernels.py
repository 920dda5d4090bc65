"""Hot solver kernels: potential matrices and fields, vectorized in NumPy.

Everything takes SI inputs and returns potential-matrix entries in volts
per coulomb (per unit length for the planar kernel).  The ring kernel
evaluates K(m) at m <= 0 through the Cephes routine of scipy.special,
special._ellipk_nonpositive (the closed forms use the scalar AGM
special.ellipk instead); the flat-wire kernel is the ring kernel at half
radius.  The wire matrices subtract a mirror image in the same pass.
"""

from __future__ import annotations

import numpy as np

from .constants import EPS0
from .special import _ellipk_nonpositive

_TWO_PI_EPS = 2.0 * np.pi * EPS0
_RING_NORM = 2.0 * np.pi**2 * EPS0

# 16-point Gauss-Legendre rule on (-1, 1)
_GAUSS_X = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763745, 0.09501250983763745,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499,
])
_GAUSS_W = np.array([
    0.027152459411754037, 0.062253523938647706, 0.09515851168249259,
    0.12462897125553403, 0.14959598881657676, 0.16915651939500262,
    0.1826034150449236, 0.18945061045506859, 0.18945061045506859,
    0.1826034150449236, 0.16915651939500262, 0.14959598881657676,
    0.12462897125553403, 0.09515851168249259, 0.062253523938647706,
    0.027152459411754037,
])

#: near-field off-diagonal entries are re-integrated when closer than this
#: many combined widths
NEAR_FACTOR = 2.5


def planar_matrix(x, y, w, rows=slice(None)):
    """2-D logarithmic potential matrix for line-charge strip elements.

    Off-diagonal entries use the point kernel ln(1/rho)/(2 pi eps),
    evaluated in place as ln(rho^2)/(-4 pi eps) in the buffer that held
    rho^2; the self entries are the uniform-strip self term
    (ln(2/w) + 3/2)/(2 pi eps).  rows picks the elements whose rows are
    built, each against every element; the default is the square matrix.
    """
    x = np.asarray(x, float); y = np.asarray(y, float); w = np.asarray(w, float)
    m = x[rows, None] - x[None, :]
    m *= m
    dy = y[rows, None] - y[None, :]
    dy *= dy
    m += dy
    with np.errstate(divide="ignore"):
        np.log(m, out=m)
    m /= -2.0 * _TWO_PI_EPS
    own = np.arange(len(x))[rows]
    m[np.arange(len(own)), own] = (np.log(2.0 / w[own]) + 1.5) / _TWO_PI_EPS
    return m


def _ring_kernel(rho, ri, rj):
    return _ellipk_nonpositive(-4.0 * ri * rj / rho**2) / (_RING_NORM * rho)


def _ring_self(r, w):
    """Average self potential of a ring band: split the log singularity
    analytically, integrate the remainder by fixed Gauss quadrature."""
    asym = (np.log(8.0 * r / w) + 1.5) / (2.0 * _RING_NORM * r)
    u = 0.5 * w[:, None] * (_GAUSS_X[None, :] + 1.0)        # (N, 16) in (0, w)
    rem = _ring_kernel(u, r[:, None], r[:, None]) \
        - np.log(8.0 * r[:, None] / u) / (2.0 * _RING_NORM * r[:, None])
    integral = 0.5 * w * np.sum(_GAUSS_W[None, :] * (w[:, None] - u) * rem, axis=1)
    return asym + 2.0 * integral / w**2


def ring_matrix(z, r, w, mirror=False):
    """Axisymmetric ring-charge potential matrix with self/near treatment.

    The kernel and its near-field average are symmetric in (i, j), so only
    the pairs i < j are evaluated and the result is mirrored.  mirror
    subtracts each ring's image in z = 0, K(hypot(z_i + z_j, r_i - r_j)),
    which is also symmetric, on the same pairs and on the diagonal.
    """
    z = np.asarray(z, float); r = np.asarray(r, float); w = np.asarray(w, float)
    n = len(z)
    ii, jj = np.triu_indices(n, 1)
    ri, rj = r[ii], r[jj]
    dz = z[ii] - z[jj]
    upper = _ring_kernel(np.hypot(dz, ri - rj), ri, rj)
    # near pairs: average the kernel over both element extents
    near = np.nonzero(np.abs(dz) < NEAR_FACTOR * (w[ii] + w[jj]))[0]
    if len(near):
        ni, nj = ii[near], jj[near]
        zi = z[ni][:, None] + 0.5 * w[ni][:, None] * _GAUSS_X[None, :]
        zj = z[nj][:, None] + 0.5 * w[nj][:, None] * _GAUSS_X[None, :]
        du = zi[:, :, None] - zj[:, None, :]
        rr = np.hypot(du, (r[ni] - r[nj])[:, None, None])
        kv = _ring_kernel(rr, r[ni][:, None, None], r[nj][:, None, None])
        upper[near] = np.einsum("i,j,pij->p", _GAUSS_W, _GAUSS_W, kv) / 4.0
    diag = _ring_self(r, w)
    if mirror:
        upper -= _ring_kernel(np.hypot(z[ii] + z[jj], ri - rj), ri, rj)
        diag -= _ring_kernel(np.abs(z + z), r, r)
    m = np.empty((n, n))
    m[ii, jj] = upper
    m[jj, ii] = upper
    m[np.diag_indices(n)] = diag
    return m


def ring_mutual(z1, r1, z2, r2):
    """Plain ring kernel between two distinct ring sets (image terms)."""
    z1 = np.asarray(z1, float); z2 = np.asarray(z2, float)
    r1 = np.asarray(r1, float); r2 = np.asarray(r2, float)
    rho = np.hypot(z1[:, None] - z2[None, :], r1[:, None] - r2[None, :])
    return _ring_kernel(rho, r1[:, None], r2[None, :])


def flatwire_matrix(y, rbar, w, mirror=False):
    """Thin-strip wire potential matrix (edge-loaded transverse profile).

    A flat strip of half-width rbar has the potential of a ring of radius
    rbar/2, so every entry is the ring kernel at half radius.  Not
    symmetric: column j uses the source half-width rbar[j].  mirror
    subtracts each element's image in y = 0, K(|y_i + y_j|).
    """
    y = np.asarray(y, float); w = np.asarray(w, float)
    rh = np.asarray(rbar, float) / 2.0
    n = len(y)
    dy = np.abs(y[:, None] - y[None, :])
    np.fill_diagonal(dy, 1.0)
    m = _ring_kernel(dy, rh[None, :], rh[None, :])
    m[np.diag_indices(n)] = _ring_self(rh, w)
    ii, jj = np.nonzero(dy < NEAR_FACTOR * (w[:, None] + w[None, :]))
    off = ii != jj
    ii, jj = ii[off], jj[off]
    if len(ii):
        yi = y[ii][:, None] + 0.5 * w[ii][:, None] * _GAUSS_X[None, :]
        yj = y[jj][:, None] + 0.5 * w[jj][:, None] * _GAUSS_X[None, :]
        dd = np.abs(yi[:, :, None] - yj[:, None, :])
        rj = rh[jj][:, None, None]
        kv = _ring_kernel(dd, rj, rj)
        m[ii, jj] = np.einsum("i,j,pij->p", _GAUSS_W, _GAUSS_W, kv) / 4.0
    if mirror:
        m -= _ring_kernel(np.abs(y[:, None] + y[None, :]), rh[None, :],
                          rh[None, :])
    return m


def flatwire_mutual(y1, y2, rbar2):
    """Plain flat-wire kernel between two element sets (image terms): the
    ring kernel at the source's half radius."""
    y1 = np.asarray(y1, float); y2 = np.asarray(y2, float)
    rh = np.asarray(rbar2, float)[None, :] / 2.0
    dy = np.abs(y1[:, None] - y2[None, :])
    return _ring_kernel(dy, rh, rh)


def segment_field(px, py, mx, my, tx, ty, w, q):
    """E at points (px, py) from uniformly charged 2-D segments.

    Segments have midpoints (mx, my), unit tangents (tx, ty), lengths w,
    and total line charges q.  Closed form per segment: the along-segment
    part is the log of the end-distance ratio, the normal part the angle
    the segment subtends, taken as one arctan2 of the cross and dot
    products of the two end vectors.  The segments are summed by
    matrix-vector products.
    """
    px = np.asarray(px, float); py = np.asarray(py, float)
    lam = np.asarray(q, float) / np.asarray(w, float)
    ax = mx - 0.5 * w * tx; ay = my - 0.5 * w * ty
    rx = px[:, None] - ax[None, :]
    ry = py[:, None] - ay[None, :]
    u = rx * tx[None, :] + ry * ty[None, :]
    v = ry * tx[None, :] - rx * ty[None, :]
    u2 = u - w[None, :]
    vv = v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log((u * u + vv) / (u2 * u2 + vv))
        angle = np.sign(v) * np.arctan2(w[None, :] * np.abs(v), vv + u * u2)
    lam_u = lam / (4.0 * np.pi * EPS0)
    lam_v = lam / _TWO_PI_EPS
    ex = log_ratio @ (lam_u * tx) - angle @ (lam_v * ty)
    ey = log_ratio @ (lam_u * ty) + angle @ (lam_v * tx)
    return ex, ey
