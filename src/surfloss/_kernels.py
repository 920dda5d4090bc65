"""Hot solver kernels: potential matrices and fields, vectorized in NumPy.

Everything takes SI inputs and returns potential-matrix entries in volts
per coulomb (per unit length for the planar kernel).  The ring kernel
evaluates K(m) at m <= 0 through the Cephes routine of scipy.special,
special._ellipk_nonpositive (the closed forms use the scalar AGM
special.ellipk instead); the flat-wire kernel is the ring kernel at half
radius.  The wire matrices subtract a mirror image in the same pass.

The layers that build large temporaries run in blocks of about
BLOCK_ENTRIES doubles each (512 KB), so every temporary stays in cache:
segment_field by blocks of field points, the wire matrices by blocks of
rows and their near-pair quadrature by blocks of pairs (16 x 16 points
each), and bem.solver.solve folds the planar matrix by blocks of rows.
Blocking only reorders the loops: every entry is computed by the same
operations in the same order, so the results do not depend on the block
size.
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

#: doubles per block of a blocked layer (1 << 16 is 512 KB)
BLOCK_ENTRIES = 1 << 16


def row_blocks(n_rows, row_len):
    """Slices over n_rows rows of row_len entries each, about BLOCK_ENTRIES
    entries and at least one row per slice.

    A slice of 8 rows or more holds a multiple of 8, so a BLAS
    matrix-vector kernel that takes rows in groups (OpenBLAS sums groups
    of 4 in another order than a lone row) groups them as in one block.
    """
    step = max(BLOCK_ENTRIES // max(row_len, 1), 1)
    if step >= 8:
        step -= step % 8
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


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


def _near_average(kernel, ci, wi, cj, wj):
    """Kernel averaged over both extents of each element pair (centers c,
    widths w) by a 16 x 16 Gauss rule, in blocks of pairs.

    kernel(p, du) gives the kernel for the pairs of slice p at the point
    offsets du, shaped (pairs, 16, 16).
    """
    out = np.empty(len(ci))
    for p in row_blocks(len(ci), _GAUSS_X.size ** 2):
        ui = ci[p, None] + 0.5 * wi[p, None] * _GAUSS_X[None, :]
        uj = cj[p, None] + 0.5 * wj[p, None] * _GAUSS_X[None, :]
        kv = kernel(p, ui[:, :, None] - uj[:, None, :])
        out[p] = np.einsum("i,j,pij->p", _GAUSS_W, _GAUSS_W, kv) / 4.0
    return out


def ring_matrix(z, r, w, mirror=False):
    """Axisymmetric ring-charge potential matrix with self/near treatment.

    The kernel and its near-field average are symmetric in (i, j), so only
    the pairs i < j are evaluated and the result is mirrored.  mirror
    subtracts each ring's image in z = 0, K(hypot(z_i + z_j, r_i - r_j)),
    which is also symmetric, on the same pairs and on the diagonal.
    Rows are built in blocks, each against the columns from the block's
    first row on; the entries below the diagonal are then copied from
    above it.
    """
    z = np.asarray(z, float); r = np.asarray(r, float); w = np.asarray(w, float)
    n = len(z)
    diag = _ring_self(r, w)
    m = np.empty((n, n))
    for s in row_blocks(n, n):
        lo = s.start
        k = np.arange(s.stop - lo)
        zi, ri, zj, rj = z[s, None], r[s, None], z[None, lo:], r[None, lo:]
        dz = zi - zj
        rho = np.hypot(dz, ri - rj)
        rho[k, k] = 1.0                 # the diagonal takes the self term
        blk = m[s, lo:]
        blk[...] = _ring_kernel(rho, ri, rj)
        blk[k, k] = diag[s]
        # near pairs i < j: average the kernel over both element extents
        a, b = np.nonzero(np.triu(np.abs(dz) < NEAR_FACTOR
                                  * (w[s, None] + w[None, lo:]), 1))
        ni, nj = lo + a, lo + b
        dr, rn, rm = r[ni] - r[nj], r[ni], r[nj]
        blk[a, b] = _near_average(
            lambda p, du: _ring_kernel(np.hypot(du, dr[p, None, None]),
                                       rn[p, None, None], rm[p, None, None]),
            z[ni], w[ni], z[nj], w[nj])
        if mirror:
            # on the diagonal hypot(2z, 0) is exactly |2z|
            blk -= _ring_kernel(np.hypot(zi + zj, ri - rj), ri, rj)
        m[s, :lo] = m[:lo, s].T         # below the diagonal, from above it
        sq = m[s, s]
        below = np.tri(len(k), k=-1, dtype=bool)
        sq[below] = sq.T[below]
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
    subtracts each element's image in y = 0, K(|y_i + y_j|).  Rows are
    built in blocks.
    """
    y = np.asarray(y, float); w = np.asarray(w, float)
    rh = np.asarray(rbar, float) / 2.0
    n = len(y)
    diag = _ring_self(rh, w)
    m = np.empty((n, n))
    for s in row_blocks(n, n):
        k = np.arange(s.stop - s.start)
        dy = np.abs(y[s, None] - y[None, :])
        dy[k, s.start + k] = 1.0        # the diagonal takes the self term
        blk = m[s]
        blk[...] = _ring_kernel(dy, rh[None, :], rh[None, :])
        blk[k, s.start + k] = diag[s]
        a, jj = np.nonzero(dy < NEAR_FACTOR * (w[s, None] + w[None, :]))
        off = s.start + a != jj
        a, jj = a[off], jj[off]
        ii, rj = s.start + a, rh[jj]
        blk[a, jj] = _near_average(
            lambda p, du: _ring_kernel(np.abs(du), rj[p, None, None],
                                       rj[p, None, None]),
            y[ii], w[ii], y[jj], w[jj])
        if mirror:
            blk -= _ring_kernel(np.abs(y[s, None] + y[None, :]), rh[None, :],
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
    matrix-vector products, for blocks of points.
    """
    px = np.asarray(px, float); py = np.asarray(py, float)
    lam = np.asarray(q, float) / np.asarray(w, float)
    ax = mx - 0.5 * w * tx; ay = my - 0.5 * w * ty
    lam_u = lam / (4.0 * np.pi * EPS0)
    lam_v = lam / _TWO_PI_EPS
    ux, uy, vx, vy = lam_u * tx, lam_u * ty, lam_v * tx, lam_v * ty
    ex = np.empty(len(px)); ey = np.empty(len(px))
    for s in row_blocks(len(px), len(w)):
        rx = px[s, None] - ax[None, :]
        ry = py[s, None] - ay[None, :]
        u = rx * tx[None, :] + ry * ty[None, :]
        v = ry * tx[None, :] - rx * ty[None, :]
        u2 = u - w[None, :]
        vv = v * v
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.log((u * u + vv) / (u2 * u2 + vv))
            angle = np.sign(v) * np.arctan2(w[None, :] * np.abs(v), vv + u * u2)
        ex[s] = log_ratio @ ux - angle @ vy
        ey[s] = log_ratio @ uy + angle @ vx
    return ex, ey
