"""Kernel math checks and kernel values frozen from the AGM implementation."""

import math
from functools import partial

import numpy as np
import pytest

from surfloss import _kernels as kern
from surfloss.constants import EPS0
from surfloss.special import _ellipk_nonpositive


def test_ellipk_nonpositive_matches_cephes():
    m = np.array([-1e4, -1.0, -1e-8, 0.0])
    vals = _ellipk_nonpositive(m)
    from scipy.special import ellipk as scipy_ellipk
    assert np.allclose(vals, scipy_ellipk(m), rtol=1e-12)


def test_planar_kernel_definition():
    # two elements at distance rho: M_12 = ln(1/rho)/(2 pi eps)
    rho = 3.7e-6
    m = kern.planar_matrix(np.array([0.0, rho]), np.zeros(2),
                           np.array([1e-7, 1e-7]))
    assert m[0, 1] == pytest.approx(math.log(1 / rho) / (2 * math.pi * EPS0),
                                    rel=1e-14)
    assert m[0, 1] == m[1, 0]


def test_planar_self_term():
    w = 2.5e-7
    m = kern.planar_matrix(np.zeros(1), np.zeros(1), np.array([w]))
    assert m[0, 0] == pytest.approx((math.log(2 / w) + 1.5)
                                    / (2 * math.pi * EPS0), rel=1e-14)


def test_ring_far_field():
    # rho >> sqrt(ri rj): M -> 1/(4 pi eps rho)
    m = kern.ring_mutual([0.0], [1e-7], [2.0], [1e-7])
    assert m[0, 0] == pytest.approx(1.0 / (4 * math.pi * EPS0 * 2.0), rel=1e-9)


def test_flat_far_field():
    m = kern.flatwire_mutual([0.0], [2.0], [1e-7])
    assert m[0, 0] == pytest.approx(1.0 / (4 * math.pi * EPS0 * 2.0), rel=1e-9)


def test_flat_vs_ring_factor_four():
    # the flat kernel is the ring kernel with half the radius: the factor 4
    # in the ellipk argument is absent
    y = np.array([0.4e-6, 2e-6, 9e-6])
    rb = np.full(3, 0.3e-6)
    flat = kern.flatwire_mutual(y, np.zeros(3), rb)
    ring = kern.ring_mutual(y, rb / 2, np.zeros(3), rb / 2)
    assert np.allclose(flat, ring, rtol=1e-13)


def test_flat_strip_matrix_is_ring_matrix_at_half_radius():
    # a constant-width strip: every entry, near-field averages and self
    # terms included, is the ring entry at radius rbar/2
    from surfloss.bem.mesh import wire_strip
    mesh = wire_strip(20e-6, lambda y: np.full_like(y, 0.2e-6), y0=0.04e-6,
                      n=150)
    y, rb, w = mesh.pos[:, 0], mesh.pos[:, 1], mesh.width
    np.testing.assert_allclose(kern.flatwire_matrix(y, rb, w),
                               kern.ring_matrix(y, rb / 2, w),
                               rtol=1e-14, atol=0)


def test_matrix_symmetry():
    rng = np.random.default_rng(7)
    z = np.sort(rng.uniform(1e-6, 5e-5, 40))
    r = rng.uniform(1e-7, 2e-6, 40)
    w = np.full(40, 5e-7)
    m = kern.ring_matrix(z, r, w)
    assert np.max(np.abs(m - m.T)) / np.max(np.abs(m)) < 1e-12


def test_segment_field_point_charge_limit():
    # far from a short segment the field is the line-charge field q/(2 pi eps r)
    q = 1e-12
    ex, ey = kern.segment_field(np.array([0.3]), np.array([0.0]),
                                np.array([0.0]), np.array([0.0]),
                                np.array([1.0]), np.array([0.0]),
                                np.array([1e-6]), np.array([q]))
    assert ex[0] == pytest.approx(q / (2 * math.pi * EPS0 * 0.3), rel=1e-9)
    assert abs(ey[0]) < 1e-12 * abs(ex[0])


def test_ring_matrix_exact_symmetry():
    # a graded tapered wire mesh: near pairs, self terms and far pairs
    from surfloss.bem.mesh import wire_rings
    mesh = wire_rings(20e-6, lambda y: 0.2 * y, y0=0.02e-6, n=120)
    m = kern.ring_matrix(mesh.pos[:, 0], mesh.pos[:, 1], mesh.width)
    assert np.array_equal(m, m.T)


# Four rings, three of them within the near-field distance of each other,
# and the values the kernels gave for them when K(m) was computed by
# vectorized AGM iteration.
_FROZEN_Z = np.array([0.3, 0.8, 1.5, 6.3]) * 1e-6
_FROZEN_R = np.array([0.1, 0.15, 0.2, 0.3]) * 1e-6
_FROZEN_W = np.full(4, 0.4e-6)
_FROZEN = {
    "ring_matrix": [
        [6.143834899053239e+16, 1.8564713667572196e+16, 7494308726386712.0, 1495849945951285.5],
        [1.856471366757218e+16, 4.872880467519676e+16, 1.2664665502734502e+16, 1631072845968034.2],
        [7494308726386711.0, 1.2664665502734492e+16, 4.077110949920461e+16, 1867155866200333.5],
        [1495849945951285.5, 1631072845968034.2, 1867155866200333.5, 3.116314960682468e+16],
    ],
    "ring_mutual": [
        [1.4587318312426438e+16, 8063817526244218.0, 4955135042170524.0, 1360190365082540.2],
        [8063817526244218.0, 5568802874656120.0, 3884841469330259.0, 1264442975873097.8],
        [4955135042170524.0, 3884841469330259.0, 2982667233034655.0, 1151021998533474.2],
        [1360190365082540.2, 1264442975873097.8, 1151021998533474.2, 712893912439702.1],
    ],
    "flatwire_matrix": [
        [8.645918489349277e+16, 1.976565530260937e+16, 7577437830515602.0, 1496990409653122.0],
        [2.022732318209207e+16, 7.1383681007865704e+16, 1.3290142162547292e+16, 1632886909264179.2],
        [7620321811727081.0, 1.3440564018626224e+16, 6.14383489905324e+16, 1870582108176983.2],
        [1497821292370402.0, 1633796591301385.2, 1871594739575724.0, 4.872880467519677e+16],
    ],
    "flatwire_mutual": [
        [1.4876825048766018e+16, 8132911155254333.0, 4977779685127903.0, 1361047704444162.5],
        [8153698456712559.0, 5604937995648054.0, 3900275641955291.5, 1265287931255266.8],
        [4989238314901448.0, 3903486035851495.5, 2992530170744078.0, 1151824455951070.0],
        [1361672127933640.8, 1265711150419435.8, 1152060909544299.8, 713196702560955.9],
    ],
}


def test_frozen_kernel_values():
    # the wire matrices subtract the image in the plane of symmetry: they
    # are the frozen plain matrices less the frozen mutual matrices to the
    # image
    z, r, w = _FROZEN_Z, _FROZEN_R, _FROZEN_W
    want = {name: np.array(values) for name, values in _FROZEN.items()}
    want["ring_matrix"] -= want["ring_mutual"]
    want["flatwire_matrix"] -= want["flatwire_mutual"]
    got = {
        "ring_matrix": kern.ring_matrix(z, r, w),
        "ring_mutual": kern.ring_mutual(z, r, -z, r),
        "flatwire_matrix": kern.flatwire_matrix(z, r, w),
        "flatwire_mutual": kern.flatwire_mutual(z, -z, r),
    }
    for name in _FROZEN:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=0,
                                   err_msg=name)


def test_mirror_subtracts_image_in_one_pass():
    # the image half of a mirrored solve, subtracted inside the matrix
    # build, equals the plain matrix (the one-block reference copy below)
    # minus the mutual matrix to the image
    from surfloss.analytic import taper_halfwidth
    from surfloss.bem.mesh import wire_rings, wire_strip
    rings = wire_rings(20e-6, lambda y: 0.2 * y, y0=0.02e-6, n=120)
    strip = wire_strip(20e-6, lambda y: taper_halfwidth(y, 0.1e-6, 0.2, 0.1e-6),
                       y0=0.02e-6, n=120)
    cases = [(rings.pos[:, 0], rings.pos[:, 1], rings.width, strip.pos[:, 0],
              strip.pos[:, 1], strip.width),
             (_FROZEN_Z, _FROZEN_R, _FROZEN_W, _FROZEN_Z, _FROZEN_R, _FROZEN_W)]
    for z, r, w, y, rb, wy in cases:
        ring = kern.ring_matrix(z, r, w)
        assert np.array_equal(ring, _ring_matrix_one_block(z, r, w)[0]
                              - kern.ring_mutual(z, r, -z, r))
        assert np.array_equal(ring, ring.T)
        flat = kern.flatwire_matrix(y, rb, wy)
        assert np.array_equal(flat, _flatwire_matrix_one_block(y, rb, wy)[0]
                              - kern.flatwire_mutual(y, -y, rb))


def test_planar_matrix_matches_hypot_form():
    # elements scattered over the plane, then on one line y = 3 um (a thin
    # strip), where the kernel skips dy
    rng = np.random.default_rng(11)
    x = rng.uniform(-1e-4, 1e-4, 300)
    w = rng.uniform(1e-9, 1e-6, 300)
    off = ~np.eye(300, dtype=bool)
    for y in (rng.uniform(-1e-4, 1e-4, 300), np.full(300, 3e-6)):
        m = kern.planar_matrix(x, y, w)
        dx, dy = x[:, None] - x[None, :], y[:, None] - y[None, :]
        rho = np.hypot(dx, dy)[off]
        np.testing.assert_allclose(m[off],
                                   np.log(1.0 / rho) / (2 * math.pi * EPS0),
                                   rtol=1e-15, atol=0)
        # bit for bit ln(dx^2 + dy^2) / (-4 pi eps), dy^2 = 0 on one line
        assert np.array_equal(m[off], np.log((dx * dx + dy * dy)[off])
                              / (-4.0 * np.pi * EPS0))
        assert np.array_equal(m, m.T)


def test_planar_matrix_column_selection_is_the_square_matrix():
    # rows and an index array of columns, an element more than once and
    # the rows' own elements among them: each entry, self terms included,
    # is the square matrix's, bit for bit
    rng = np.random.default_rng(12)
    x, y = rng.uniform(-1e-4, 1e-4, (2, 40))
    w = rng.uniform(1e-9, 1e-6, 40)
    rows = np.array([3, 17, 0, 39])
    cols = np.array([5, 17, 3, 17, 0, 39, 39, 8, 3])
    square = kern.planar_matrix(x, y, w)
    got = kern.planar_matrix(x, y, w, rows, cols)
    assert np.array_equal(got, square[np.ix_(rows, cols)])
    assert np.array_equal(kern.planar_matrix(x, y, w, rows),
                          square[rows])


# Three charged segments (along x, along y, at 45 degrees) and field points
# off every segment's line, on segment 0's line inside it and beyond both
# of its ends, and on segment 1's line inside it and beyond its end.  The
# values were given by the form with two arctan2 per segment and summed
# per point.
_SEG_MX = np.array([0.0, 3e-6, -2e-6])
_SEG_MY = np.array([0.0, 1e-6, 2e-6])
_SEG_TX = np.array([1.0, 0.0, math.sqrt(0.5)])
_SEG_TY = np.array([0.0, 1.0, math.sqrt(0.5)])
_SEG_W = np.array([2e-6, 1e-6, 0.5e-6])
_SEG_Q = np.array([1e-12, -2e-12, 0.5e-12])
_SEG_PX = np.array([0.5e-6, 0.3e-6, -3e-6, 4e-6, 3e-6, 3e-6])
_SEG_PY = np.array([-1.5e-6, 0.0, 0.0, 0.0, 1.2e-6, 5e-6])
_SEG_EX = [11092.634367649714, 19430.67181135406, -2206.028264848469,
           -12724.814344138249, 6987.172527454262, 2878.7307963451453]
_SEG_EY = [-4507.112983442783, 2297.731580616473, -2646.2452076420786,
           16725.619012349005, -28504.67162357526, -5597.290897699407]


def test_segment_field_frozen_values():
    ex, ey = kern.segment_field(_SEG_PX, _SEG_PY, _SEG_MX, _SEG_MY, _SEG_TX,
                                _SEG_TY, _SEG_W, _SEG_Q)
    np.testing.assert_allclose(ex, _SEG_EX, rtol=1e-14, atol=0)
    np.testing.assert_allclose(ey, _SEG_EY, rtol=1e-14, atol=0)


def test_segment_field_far_from_a_short_segment_keeps_its_digits():
    # one 4 nm segment along x from the origin (q = w, so lam = 1) and
    # points 50-620 um away: the along-segment field is log(|r - a|^2 /
    # |r - b|^2) / (4 pi eps0), a log of a ratio near 1.  The reference
    # takes the ratio minus 1 exactly, w (2u - w) / ((u - w)^2 + v^2), and
    # rounds it once into log1p
    from fractions import Fraction
    w = 4e-9
    r = np.geomspace(50e-6, 620e-6, 7)
    angles = np.radians([0.0, 30.0, 60.0, 150.0])
    px = np.outer(r, np.cos(angles)).ravel()
    py = np.outer(r, np.sin(angles)).ravel()
    ex, _ = kern.segment_field(px, py, np.array([0.5 * w]), np.array([0.0]),
                               np.array([1.0]), np.array([0.0]),
                               np.array([w]), np.array([w]))
    got = ex * (4.0 * np.pi * EPS0)
    for x, y, g in zip(px, py, got):
        u, v, fw = Fraction(x), Fraction(y), Fraction(w)
        want = math.log1p(float(fw * (2 * u - fw) / ((u - fw) ** 2 + v * v)))
        assert abs(g / want - 1.0) <= 1e-14


def _squared_form(dz, dr, ri, rj):
    """The shipped ring kernel at the offsets (dz, dr)."""
    return kern._ring_kernel(dz * dz + dr * dr, ri, rj)


def _hypot_form(dz, dr, ri, rj):
    """The ring kernel written with the distance rho = hypot(dz, dr):
    K(-4 ri rj / rho^2) / (2 pi^2 eps rho)."""
    rho = np.hypot(dz, dr)
    return _ellipk_nonpositive(-4.0 * ri * rj / rho**2) \
        / (2.0 * math.pi**2 * EPS0 * rho)


def _ring_self_by(pair_kernel, r, w):
    """_ring_self with the kernel pair_kernel at the offsets (u, 0)."""
    norm = 2.0 * math.pi**2 * EPS0
    asym = (np.log(8.0 * r / w) + 1.5) / (2.0 * norm * r)
    u = 0.5 * w[:, None] * (kern._GAUSS_X[None, :] + 1.0)
    rem = pair_kernel(u, 0.0, r[:, None], r[:, None]) \
        - np.log(8.0 * r[:, None] / u) / (2.0 * norm * r[:, None])
    integral = 0.5 * w * np.sum(kern._GAUSS_W[None, :] * (w[:, None] - u)
                                * rem, axis=1)
    return asym + 2.0 * integral / w**2


def test_ring_matrix_matches_hypot_form():
    # the squared-distance kernel against one written with hypot(dz, dr):
    # a few ulp apart on a taper, where dr != 0, and bit for bit at a
    # constant radius, where dz*dz + 0 is dz*dz and sqrt(dz*dz) is |dz|
    from surfloss.bem.mesh import wire_rings
    for radius_fn, exact in ((lambda y: 0.2 * y, False),
                             (lambda y: np.full_like(y, 0.2e-6), True)):
        mesh = wire_rings(20e-6, radius_fn, y0=0.04e-6, n=130)
        z, r, w = mesh.pos[:, 0], mesh.pos[:, 1], mesh.width
        want, near = _ring_matrix_one_block(z, r, w, mirror=True,
                                            pair_kernel=_hypot_form)
        want_mutual = _hypot_form(z[:, None] + z[None, :],
                                  r[:, None] - r[None, :], r[:, None],
                                  r[None, :])
        got = kern.ring_matrix(z, r, w)
        got_mutual = kern.ring_mutual(z, r, -z, r)
        assert near > 0
        if exact:
            assert np.array_equal(got, want)
            assert np.array_equal(got_mutual, want_mutual)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            np.testing.assert_allclose(got_mutual, want_mutual, rtol=1e-13,
                                       atol=0)


def test_straight_strip_matrix_is_exactly_symmetric():
    from surfloss.bem.mesh import wire_strip
    mesh = wire_strip(20e-6, lambda y: np.full_like(y, 0.2e-6), y0=0.04e-6,
                      n=150)
    m = kern.flatwire_matrix(mesh.pos[:, 0], mesh.pos[:, 1], mesh.width)
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("entries", [5000, kern.BLOCK_ENTRIES])
def test_straight_strip_averages_each_near_pair_once(monkeypatch, entries):
    # every near pair i > j of a constant-width strip is a twin of (j, i):
    # only the pairs i < j reach the Gauss average
    from surfloss.bem.mesh import wire_strip
    mesh = wire_strip(20e-6, lambda y: np.full_like(y, 0.2e-6), y0=0.04e-6,
                      n=150)
    y, w = mesh.pos[:, 0], mesh.width
    near = np.abs(y[:, None] - y[None, :]) \
        < kern.NEAR_FACTOR * (w[:, None] + w[None, :])
    ii, jj = np.nonzero(np.triu(near, 1))
    seen = []
    average = kern._near_average

    def counting(ci, wi, cj, wj, *ring):
        seen.append((ci, cj))
        return average(ci, wi, cj, wj, *ring)

    monkeypatch.setattr(kern, "_near_average", counting)
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", entries)
    kern.flatwire_matrix(y, mesh.pos[:, 1], w)
    ci = np.concatenate([c for c, _ in seen])
    cj = np.concatenate([c for _, c in seen])
    # y rises with the element index, so the pairs i < j have y_i < y_j
    assert np.all(ci < cj)
    assert np.array_equal(np.sort(ci), np.sort(y[ii]))
    assert np.array_equal(np.sort(cj), np.sort(y[jj]))


def test_straight_strip_evaluates_each_far_pair_once(monkeypatch):
    # a constant-width strip is built like a ring mesh: each block of rows
    # against the columns from its first row on, for the kernel and for the
    # image, and the entries below the diagonal are copied from above it
    mesh = _straight_wires(150)[1]
    n = mesh.n
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", 5000)      # 33 rows a block
    entries = []
    ring_kernel = kern._ring_kernel

    def counting(rho2, ri, rj):
        if rho2.ndim == 2:              # not a near pair's 16 x 16 grid
            entries.append(rho2.size)
        return ring_kernel(rho2, ri, rj)

    monkeypatch.setattr(kern, "_ring_kernel", counting)
    kern.flatwire_matrix(mesh.pos[:, 0], mesh.pos[:, 1], mesh.width)
    self_term = n * kern._GAUSS_X.size
    # the pairs i <= j, and each block's square below its diagonal
    upper = sum((b.stop - b.start) * (n - b.start)
                for b in kern.row_blocks(n, n))
    assert len(kern.row_blocks(n, n)) == 5 and upper < 0.61 * n * n
    assert sum(entries) - self_term == 2 * upper    # the kernel and the image


# --------------------------------------------------------------------------
# blocked layers: the output does not depend on the block size

def _ring_matrix_one_block(z, r, w, mirror=False, pair_kernel=_squared_form):
    """ring_matrix as one block: the pairs i < j gathered by triu_indices,
    with the kernel pair_kernel(dz, dr, ri, rj)."""
    n = len(z)
    ii, jj = np.triu_indices(n, 1)
    ri, rj = r[ii], r[jj]
    dz = z[ii] - z[jj]
    upper = pair_kernel(dz, ri - rj, ri, rj)
    near = np.nonzero(np.abs(dz) < kern.NEAR_FACTOR * (w[ii] + w[jj]))[0]
    ni, nj = ii[near], jj[near]
    zi = z[ni][:, None] + 0.5 * w[ni][:, None] * kern._GAUSS_X[None, :]
    zj = z[nj][:, None] + 0.5 * w[nj][:, None] * kern._GAUSS_X[None, :]
    kv = pair_kernel(zi[:, :, None] - zj[:, None, :],
                     (r[ni] - r[nj])[:, None, None], r[ni][:, None, None],
                     r[nj][:, None, None])
    upper[near] = np.einsum("i,j,pij->p", kern._GAUSS_W, kern._GAUSS_W,
                            kv) / 4.0
    diag = _ring_self_by(pair_kernel, r, w)
    if mirror:
        upper -= pair_kernel(z[ii] + z[jj], ri - rj, ri, rj)
        diag -= pair_kernel(z + z, 0.0, r, r)
    m = np.empty((n, n))
    m[ii, jj] = upper
    m[jj, ii] = upper
    m[np.diag_indices(n)] = diag
    return m, len(near)


def _flatwire_matrix_one_block(y, rbar, w, mirror=False):
    """flatwire_matrix as one block of all rows; a twin (i > j, equal
    half-widths) copies its entry from (j, i) after the image is
    subtracted."""
    rh = rbar / 2.0
    n = len(y)
    dy = y[:, None] - y[None, :]
    np.fill_diagonal(dy, 1.0)
    m = _squared_form(dy, 0.0, rh[None, :], rh[None, :])
    m[np.diag_indices(n)] = kern._ring_self(rh, w)
    ii, jj = np.nonzero(np.abs(dy) < kern.NEAR_FACTOR
                        * (w[:, None] + w[None, :]))
    off = ii != jj
    ii, jj = ii[off], jj[off]
    twin = (ii > jj) & (rh[ii] == rh[jj])
    ti, tj = ii[twin], jj[twin]
    ii, jj = ii[~twin], jj[~twin]
    yi = y[ii][:, None] + 0.5 * w[ii][:, None] * kern._GAUSS_X[None, :]
    yj = y[jj][:, None] + 0.5 * w[jj][:, None] * kern._GAUSS_X[None, :]
    rj = rh[jj][:, None, None]
    kv = _squared_form(yi[:, :, None] - yj[:, None, :], 0.0, rj, rj)
    m[ii, jj] = np.einsum("i,j,pij->p", kern._GAUSS_W, kern._GAUSS_W, kv) / 4.0
    if mirror:
        m -= _squared_form(y[:, None] + y[None, :], 0.0, rh[None, :],
                           rh[None, :])
    m[ti, tj] = m[tj, ti]
    return m, len(ii)


def _segment_field_one_block(px, py, mx, my, tx, ty, w, q):
    """segment_field as one block of all points."""
    lam = q / w
    ax = mx - 0.5 * w * tx; ay = my - 0.5 * w * ty
    rx = px[:, None] - ax[None, :]
    ry = py[:, None] - ay[None, :]
    u = rx * tx[None, :] + ry * ty[None, :]
    v = ry * tx[None, :] - rx * ty[None, :]
    u2 = u - w[None, :]
    vv = v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log1p((2.0 * u - w[None, :]) * w[None, :]
                             / (u2 * u2 + vv))
        angle = np.sign(v) * np.arctan2(w[None, :] * np.abs(v), vv + u * u2)
    lam_u = lam / (4.0 * np.pi * EPS0)
    lam_v = lam / (2.0 * np.pi * EPS0)
    return (np.vecdot(log_ratio, lam_u * tx) - np.vecdot(angle, lam_v * ty),
            np.vecdot(log_ratio, lam_u * ty) + np.vecdot(angle, lam_v * tx))


def _tapered_wires(n):
    from surfloss.analytic import taper_halfwidth
    from surfloss.bem.mesh import wire_rings, wire_strip
    rings = wire_rings(20e-6, lambda y: 0.2 * y, y0=0.02e-6, n=n)
    strip = wire_strip(20e-6, lambda y: taper_halfwidth(y, 0.1e-6, 0.2, 0.1e-6),
                       y0=0.02e-6, n=n)
    return rings, strip


def _straight_wires(n):
    from surfloss.bem.mesh import wire_rings, wire_strip
    rings = wire_rings(20e-6, lambda y: np.full_like(y, 0.1e-6), y0=0.02e-6,
                       n=n)
    strip = wire_strip(20e-6, lambda y: np.full_like(y, 0.2e-6), y0=0.04e-6,
                       n=n)
    return rings, strip


#: block sizes that end blocks mid-array: one row or pair per block (1, 7,
#: 300), 38 rows and 19 pairs per block (5000), and the shipped size
BLOCK_SIZES = [1, 7, 300, 5000, kern.BLOCK_ENTRIES]


@pytest.mark.parametrize("entries", BLOCK_SIZES)
@pytest.mark.parametrize("mirror", [False, True])
def test_wire_matrices_do_not_depend_on_block_size(monkeypatch, entries,
                                                   mirror):
    # the reference subtracts the image in its own pass (mirror), or is
    # the plain one-block matrix less the mutual matrix to the image; the
    # meshes are tapered and straight wires of 130 elements (a straight
    # strip is built from the diagonal on, like rings) and the first 1 and
    # 2 elements of the tapered ones
    cases = []
    for rings, strip in (_tapered_wires(130), _straight_wires(130)):
        assert rings.n == strip.n == 130
        cases.append((rings.pos[:, 0], rings.pos[:, 1], rings.width,
                      strip.pos[:, 0], strip.pos[:, 1], strip.width))
    cases += [tuple(a[:n] for a in cases[0]) for n in (1, 2)]
    for z, r, wr, y, rb, wf in cases:
        want_ring, near_ring = _ring_matrix_one_block(z, r, wr, mirror)
        want_flat, near_flat = _flatwire_matrix_one_block(y, rb, wf, mirror)
        if not mirror:
            want_ring -= kern.ring_mutual(z, r, -z, r)
            want_flat -= kern.flatwire_mutual(y, -y, rb)
        if len(z) == 130:
            assert near_ring % 16 and near_flat % 16
        with monkeypatch.context() as mp:
            mp.setattr(kern, "BLOCK_ENTRIES", entries)
            got_ring = kern.ring_matrix(z, r, wr)
            got_flat = kern.flatwire_matrix(y, rb, wf)
        assert np.array_equal(got_ring, want_ring)
        assert np.array_equal(got_flat, want_flat)


def _field_cases():
    """name -> segment_field arguments.  All but the last case take their
    points on y = 0, as verify does."""
    from surfloss.bem import mesh as meshes
    from surfloss.bem import solve

    def args(mesh, px, q, py=0.0, lift=0.0):
        """Points (px, py), the mesh's segments moved up by lift."""
        return (px, np.zeros_like(px) + py, mesh.pos[:, 0],
                mesh.pos[:, 1] + lift, mesh.tangent[:, 0],
                mesh.tangent[:, 1], mesh.width, q)

    rng = np.random.default_rng(5)
    # 1222 segments of a solved coax; 601 points across the gap
    coax = meshes.concat([meshes.circle(10e-6, 306, electrode=0),
                          meshes.circle(100e-6, 916, electrode=1)])
    coax_q = solve(coax, {0: 1.0, 1: 0.0}).charge
    across = np.linspace(-99e-6, 99e-6, 601)
    # 206 segments of two thin strips on y = 0: points in the gaps and
    # beyond, and the midpoints of 9 elements, where v = 0 and dot < 0;
    # no point is an element's end, where the field is infinite
    strips = meshes.concat([
        meshes.thin_strip(-60e-6, -20e-6, 5e-9, 1e-6, electrode=0),
        meshes.thin_strip(20e-6, 60e-6, 5e-9, 1e-6, electrode=1)])
    strips_q = rng.uniform(-1e-12, 1e-12, strips.n)
    gaps = np.concatenate([np.linspace(-19e-6, 19e-6, 301),
                           60e-6 + np.geomspace(1e-9, 1e-4, 100),
                           strips.pos[::23, 0]])
    # 601 segments: a square film, a thin strip on y = 0 beside it, and a
    # circle; the film's centre and points beyond the film, among them
    # inside the strip
    film = meshes.concat([
        meshes.film_cross_section(10e-6, 1e-6, 0.0125e-6, 0.25e-6,
                                  edge="square"),
        meshes.thin_strip(20e-6, 40e-6, 5e-9, 1e-6, electrode=1),
        meshes.circle(100e-6, 240, electrode=2)])
    beyond = 10e-6 + np.geomspace(1e-9, 80e-6, 200)
    return {
        "coax": args(coax, across, coax_q),
        "strips on y = 0": args(strips, gaps, strips_q),
        # parallel to the points' line, not on it
        "strips at y = 2 um": args(strips, gaps, strips_q, lift=2e-6),
        "film, strip and circle": args(
            film, np.concatenate([-beyond[::-1], [0.0], beyond]),
            rng.uniform(-1e-12, 1e-12, film.n)),
        # y varies from point to point
        "coax, points on y = x / 2": args(coax, across, coax_q,
                                          py=0.5 * across),
    }


@pytest.mark.parametrize("entries", [1, 7, 300, 1 << 14, kern.BLOCK_ENTRIES])
def test_segment_field_does_not_depend_on_block_size(monkeypatch, entries):
    # 1, 7 and 300 entries hold less than one row: one point per block;
    # 1 << 14 gives 2, 15 and 5 points per block, which 601, 410 and 401
    # are not multiples of.  The reference takes every point in one block,
    # with sign(v) arctan2(w |v|, dot) and v formed from ry for every point
    cases = _field_cases()
    px, _, mx, my, _, ty, w, _ = cases["strips on y = 0"]
    assert not (my.any() or ty.any())       # the segments lie on the line
    assert np.sum(np.abs(px[:, None] - mx) < 0.5 * w) == 9
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", entries)
    for args in cases.values():
        want = _segment_field_one_block(*args)
        got = kern.segment_field(*args)
        for g, e in zip(got, want):
            assert np.array_equal(g, e)


def _traced_peak(fn, *args, **kwargs):
    import tracemalloc
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_layers_stay_within_a_few_blocks_of_memory():
    block = 8 * kern.BLOCK_ENTRIES                    # bytes
    rng = np.random.default_rng(1)
    seg = [rng.uniform(-1.0, 1.0, 600) for _ in range(2)] \
        + [rng.uniform(-1.0, 1.0, 1222) for _ in range(4)] \
        + [rng.uniform(0.01, 0.02, 1222), rng.uniform(-1.0, 1.0, 1222)]
    # segment_field's temporaries share one block between them
    assert _traced_peak(kern.segment_field, *seg) < 2 * block
    from surfloss.bem.mesh import wire_rings
    rings = wire_rings(100e-6, lambda y: np.full_like(y, 0.1e-6),
                       y0=0.02e-6, n=680)
    z, r, w = rings.pos[:, 0], rings.pos[:, 1], rings.width
    assert rings.n == 680
    kern.ring_matrix(z[:20], r[:20], w[:20])     # SciPy's import is not traced
    assert _traced_peak(kern.ring_matrix, z, r, w) \
        < 8 * rings.n ** 2 + 16 * block


def test_coax_symmetry_check_holds_a_few_blocks_not_the_matrix():
    # by pairs of 256-row blocks the check holds two blocks and their
    # difference, never the 1600 x 1600 matrix (20 MB)
    from surfloss.bem import mesh as meshes, suites
    m = meshes.concat([meshes.circle(10e-6, 400, electrode=0),
                       meshes.circle(100e-6, 1200, electrode=1)])
    assert m.n == 1600
    assert _traced_peak(suites._max_asymmetry, m.n,
                        partial(kern.planar_matrix, *m.pos.T, m.width)) \
        < 4 * 8 * kern.BLOCK_ENTRIES


def test_coax_suite_peaks_at_its_doubled_solve():
    # the doubled mesh's 800^2 reduced matrix and its Cholesky copy, about
    # 10 MiB, set the peak; a symmetry check holding the full matrix would
    # not fit under it
    from surfloss.bem import suites
    suites.suite_coax(mesh_scale=0.25)          # imports are not traced
    assert _traced_peak(suites.suite_coax) < 16 * 2 ** 20


#: (BLOCK_ENTRIES, n_rows, row_len, most, rows per block)
ROW_BLOCK_CASES = [
    (1 << 16, 601, 1222, None, 53), (1 << 16, 100, 680, None, 96),
    (300, 5, 1222, None, 1), (5000, 125, 125, None, 40),
    (1000, 80, 320, None, 3), (7, 9, 1, None, 7), (1 << 16, 601, 1222, 76, 53),
    (1 << 16, 601, 1222, 38, 38), (1 << 16, 80, 320, 10, 10),
    (300, 5, 1222, 2, 1)]


@pytest.mark.parametrize(
    "entries, n_rows, row_len, most, step", ROW_BLOCK_CASES,
    ids=["-".join(str(v) for v in case if v is not None)
         for case in ROW_BLOCK_CASES])
def test_row_blocks_cover_rows_in_whole_groups(monkeypatch, entries, n_rows,
                                               row_len, most, step):
    # about BLOCK_ENTRIES entries per block, at most `most` rows if given,
    # and at least one row
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", entries)
    blocks = kern.row_blocks(n_rows, row_len, most)
    assert [b.stop - b.start for b in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert 0 < blocks[-1].stop - blocks[-1].start <= step
    assert np.array_equal(np.concatenate([np.arange(b.start, b.stop)
                                          for b in blocks]), np.arange(n_rows))
