"""Hot solver kernels: potential matrices and fields, vectorized in NumPy.

Everything takes SI inputs and returns potential-matrix entries in volts
per coulomb (per unit length for the planar kernel).  The ring kernel
takes the squared distance rho^2 = dz^2 + dr^2, so no caller forms a
hypot, and evaluates K(m) at m = -4 r r' / rho^2 <= 0 through the Cephes
routine of scipy.special, special._ellipk_nonpositive (the closed forms
use the scalar AGM special.ellipk instead), with its temporaries written
in place.  The flat-wire kernel is the ring kernel at half radius, so
one builder, _wire_matrix, makes both wire matrices, each for one wire
of a differential pair less its image in the plane of symmetry.  A near
pair i > j that is a twin of (j, i) copies its entry; a matrix of twins
only (rings, a straight strip) is built from the diagonal on.

The layers that build large temporaries run in blocks sized by
BLOCK_ENTRIES doubles (512 KB), so they stay in cache.  segment_field
takes blocks of field points whose temporaries together hold about
BLOCK_ENTRIES doubles, reused in place from block to block.  The wire
matrices take blocks of rows and their near-pair quadrature blocks of
pairs (16 x 16 points each), and bem.solver.solve builds and folds the
lower triangle of its reduced planar matrix by blocks of rows, each
against the columns up to its last row and of at most BLOCK_ENTRIES
doubles per temporary.  Blocking only reorders the loops: every entry is
computed by the same operations in the same order, so the results do
not depend on the block size.
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

#: temporaries of one segment_field block, each points x segments
_FIELD_BUFFERS = 6


def row_blocks(n_rows, row_len, most=None):
    """Slices over n_rows rows of row_len entries each, about BLOCK_ENTRIES
    entries and at least one row per slice, and at most `most` (>= 1)
    rows if given."""
    step = max(BLOCK_ENTRIES // max(row_len, 1), 1)
    if most is not None:
        step = min(step, most)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def planar_matrix(x, y, w, rows=slice(None), cols=slice(None)):
    """2-D logarithmic potential matrix for line-charge strip elements.

    Off-diagonal entries use the point kernel ln(1/rho)/(2 pi eps),
    evaluated in place as ln(rho^2)/(-4 pi eps) in the buffer that held
    rho^2; the self entries are the uniform-strip self term
    (ln(2/w) + 3/2)/(2 pi eps).  rows picks the elements whose rows are
    built and cols the elements of their columns, an element possibly more
    than once; the defaults give the square matrix.  A row takes the self
    term wherever its own element is among the columns, so each entry is
    the one the square matrix holds for that row and column.
    """
    x = np.asarray(x, float); y = np.asarray(y, float); w = np.asarray(w, float)
    every = np.arange(len(x))
    own, col = every[rows], every[cols]
    m = x[own, None] - x[None, col]
    m *= m
    dy = y[own, None] - y[None, col]
    dy *= dy
    m += dy
    with np.errstate(divide="ignore"):
        np.log(m, out=m)
    m /= -2.0 * _TWO_PI_EPS
    row_of = np.full(len(x), -1)        # element -> its row, or -1
    row_of[own] = np.arange(len(own))
    at = np.flatnonzero(row_of[col] >= 0)
    i = row_of[col[at]]
    m[i, at] = ((np.log(2.0 / w[own]) + 1.5) / _TWO_PI_EPS)[i]
    return m


def _ring_kernel(rho2, ri, rj):
    """Potential of ring rj at ring ri, a squared distance rho2 apart:
    K(m) / (2 pi^2 eps rho) at m = -4 ri rj / rho2, with the temporaries
    reused in place.  sqrt(rho2) is exactly |rho| where rho2 is the
    rounded square of one offset, as on a strip or a constant radius."""
    m = np.divide(-4.0 * ri * rj, rho2)
    k = _ellipk_nonpositive(m)
    den = np.sqrt(rho2, out=m)
    den *= _RING_NORM
    k /= den
    return k


def _ring_self(r, w):
    """Average self potential of a ring band: split the log singularity
    analytically, integrate the remainder by fixed Gauss quadrature."""
    asym = (np.log(8.0 * r / w) + 1.5) / (2.0 * _RING_NORM * r)
    u = 0.5 * w[:, None] * (_GAUSS_X[None, :] + 1.0)        # (N, 16) in (0, w)
    rem = _ring_kernel(u * u, r[:, None], r[:, None]) \
        - np.log(8.0 * r[:, None] / u) / (2.0 * _RING_NORM * r[:, None])
    integral = 0.5 * w * np.sum(_GAUSS_W[None, :] * (w[:, None] - u) * rem, axis=1)
    return asym + 2.0 * integral / w**2


def _near_average(ci, wi, cj, wj, ri, rj, dr2):
    """Ring kernel between radii ri and rj, averaged over both extents of
    each element pair (centers c, widths w) by a 16 x 16 Gauss rule, in
    blocks of pairs; dr2 is each pair's squared radial offset, added to
    the squared offsets along the axis in place."""
    out = np.empty(len(ci))
    for p in row_blocks(len(ci), _GAUSS_X.size ** 2):
        ui = ci[p, None] + 0.5 * wi[p, None] * _GAUSS_X[None, :]
        uj = cj[p, None] + 0.5 * wj[p, None] * _GAUSS_X[None, :]
        du = ui[:, :, None] - uj[:, None, :]
        rho2 = np.multiply(du, du, out=du)
        rho2 += dr2[p, None, None]
        kv = _ring_kernel(rho2, ri[p, None, None], rj[p, None, None])
        out[p] = np.einsum("i,j,pij->p", _GAUSS_W, _GAUSS_W, kv) / 4.0
    return out


def _wire_matrix(z, r, w, own_radius):
    """One wire's potential matrix, less each element's image in z = 0.

    Entry (i, j) is the ring kernel between radii r_i and r_j (own_radius)
    or two rings of the source radius r_j, at the squared distance
    dz^2 + dr^2, dr the difference of those radii; the image term is the
    same at z_i + z_j.  The diagonal takes the self term, near pairs the
    kernel averaged over both element extents.  A near pair i > j is a
    twin of (j, i) when own_radius or r_i == r_j: the same Gauss grid
    transposed, with the same image term.  Twins are not averaged but copy
    (j, i) once the block's image is subtracted.  If every pair i > j is a
    twin, each block of rows is built against the columns from its first
    row on, and the entries below the diagonal are copied from above.
    """
    n = len(z)
    symmetric = own_radius or np.all(r == r[:1])
    diag = _ring_self(r, w)
    m = np.empty((n, n))
    for s in row_blocks(n, n):
        lo = s.start if symmetric else 0
        k = np.arange(s.stop - s.start)
        kd = s.start - lo + k           # the diagonal's columns in the block
        zi, zj, rj = z[s, None], z[None, lo:], r[None, lo:]
        ri = r[s, None] if own_radius else rj
        dz = zi - zj
        a, b = np.nonzero(np.abs(dz) < NEAR_FACTOR
                          * (w[s, None] + w[None, lo:]))
        dr2 = ri - rj
        dr2 *= dr2
        rho2 = np.multiply(dz, dz, out=dz)
        rho2 += dr2
        rho2[k, kd] = 1.0               # the diagonal takes the self term
        blk = m[s, lo:]
        blk[...] = _ring_kernel(rho2, ri, rj)
        blk[k, kd] = diag[s]
        ii, jj = s.start + a, lo + b
        twin = (ii > jj) & (own_radius | (r[ii] == r[jj]))
        avg = (ii != jj) & ~twin
        ai, aj = ii[avg], jj[avg]
        rn, rm = r[ai if own_radius else aj], r[aj]
        pair_dr2 = rn - rm
        pair_dr2 *= pair_dr2
        blk[a[avg], b[avg]] = _near_average(z[ai], w[ai], z[aj], w[aj],
                                            rn, rm, pair_dr2)
        # the image; on the diagonal dr2 is 0 and sqrt((2z)^2) exactly |2z|
        zs = zi + zj
        zs *= zs
        zs += dr2
        blk -= _ring_kernel(zs, ri, rj)
        if symmetric:                   # below the diagonal, from above it
            m[s, :lo] = m[:lo, s].T
            sq = m[s, s]
            below = np.tri(len(k), k=-1, dtype=bool)
            sq[below] = sq.T[below]
        else:
            blk[a[twin], b[twin]] = m[jj[twin], ii[twin]]
    return m


def ring_matrix(z, r, w):
    """Axisymmetric ring-charge potential matrix with self/near treatment,
    less each ring's image in z = 0: the ring kernel at the squared
    distance dz^2 + dr^2, dr = r_i - r_j, the image term at
    (z_i + z_j)^2 + dr^2.  Both are symmetric in (i, j), and so is the
    matrix, exactly."""
    return _wire_matrix(np.asarray(z, float), np.asarray(r, float),
                        np.asarray(w, float), True)


def ring_mutual(z1, r1, z2, r2):
    """Plain ring kernel between two distinct ring sets (image terms)."""
    z1 = np.asarray(z1, float); z2 = np.asarray(z2, float)
    r1 = np.asarray(r1, float); r2 = np.asarray(r2, float)
    dz = z1[:, None] - z2[None, :]
    dr = r1[:, None] - r2[None, :]
    return _ring_kernel(dz * dz + dr * dr, r1[:, None], r2[None, :])


def flatwire_matrix(y, rbar, w):
    """Thin-strip wire potential matrix (edge-loaded transverse profile),
    less each element's image in y = 0.

    A flat strip of half-width rbar has the potential of a ring of radius
    rbar/2, so every entry is the ring kernel at half radius and squared
    distance (y_i - y_j)^2.  Not symmetric: column j uses the source
    half-width rbar[j], except on a straight strip, where it is exactly
    symmetric.  The image term is the kernel at (y_i + y_j)^2.
    """
    return _wire_matrix(np.asarray(y, float), np.asarray(rbar, float) / 2.0,
                        np.asarray(w, float), False)


def flatwire_mutual(y1, y2, rbar2):
    """Plain flat-wire kernel between two element sets (image terms): the
    ring kernel at the source's half radius."""
    y1 = np.asarray(y1, float); y2 = np.asarray(y2, float)
    rh = np.asarray(rbar2, float)[None, :] / 2.0
    dy = y1[:, None] - y2[None, :]
    return _ring_kernel(dy * dy, rh, rh)


def segment_field(px, py, mx, my, tx, ty, w, q):
    """E at points (px, py) from uniformly charged 2-D segments.

    Segments have midpoints (mx, my), unit tangents (tx, ty), lengths w,
    and total line charges q.  Closed form per segment: the along-segment
    part is the log of the end-distance ratio, the normal part the angle
    the segment subtends, taken as one arctan2 of the cross and dot
    products of the two end vectors.  The segments are summed by one dot
    product per point (vecdot), for blocks of points.  A BLAS
    matrix-vector product would sum a lone row in another order than a
    group of rows, so its result would depend on the block size.

    The _FIELD_BUFFERS temporaries of a block are preallocated once and
    reused in place (out=), and a block's rows are sized so that all of
    them together hold about BLOCK_ENTRIES doubles.
    """
    px = np.asarray(px, float); py = np.asarray(py, float)
    lam = np.asarray(q, float) / np.asarray(w, float)
    ax = mx - 0.5 * w * tx; ay = my - 0.5 * w * ty
    lam_u = lam / (4.0 * np.pi * EPS0)
    lam_v = lam / _TWO_PI_EPS
    ux, uy, vx, vy = lam_u * tx, lam_u * ty, lam_v * tx, lam_v * ty
    ex = np.empty(len(px)); ey = np.empty(len(px))
    blocks = row_blocks(len(px), _FIELD_BUFFERS * len(w))
    buf = np.empty((_FIELD_BUFFERS, blocks[0].stop if blocks else 0, len(w)))
    for s in blocks:
        b0, b1, b2, b3, b4, b5 = buf[:, :s.stop - s.start]
        rx, ry = b0, b1
        np.subtract(px[s, None], ax, out=rx)
        np.subtract(py[s, None], ay, out=ry)
        u = np.multiply(rx, tx, out=b2)               # u = rx tx + ry ty
        u += np.multiply(ry, ty, out=b3)
        v = np.multiply(ry, tx, out=b3)               # v = ry tx - rx ty
        v -= np.multiply(rx, ty, out=b0)
        u2 = np.subtract(u, w, out=b1)
        vv = np.multiply(v, v, out=b0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # log((u^2 + v^2) / (u2^2 + v^2)) as log1p(w (2u - w) / (u2^2 +
            # v^2)), since u^2 - u2^2 = w (2u - w): far from a short
            # segment the ratio is near 1, and its log would lose digits
            log_ratio = np.multiply(u, 2.0, out=b4)
            log_ratio -= w
            log_ratio *= w
            den = np.multiply(u2, u2, out=b5)
            den += vv
            log_ratio /= den
            np.log1p(log_ratio, out=log_ratio)
            # sign(v) * arctan2(w |v|, v^2 + u u2)
            dot = np.multiply(u, u2, out=b5)
            dot += vv
            angle = np.abs(v, out=b2)
            angle *= w
            np.arctan2(angle, dot, out=angle)
            angle *= np.sign(v, out=v)
        ex[s] = np.vecdot(log_ratio, ux) - np.vecdot(angle, vy)
        ey[s] = np.vecdot(log_ratio, uy) + np.vecdot(angle, vx)
    return ex, ey
