"""Kernel math checks and kernel values frozen from the AGM implementation."""

import math

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
    rng = np.random.default_rng(11)
    x = rng.uniform(-1e-4, 1e-4, 300)
    y = rng.uniform(-1e-4, 1e-4, 300)
    w = rng.uniform(1e-9, 1e-6, 300)
    m = kern.planar_matrix(x, y, w)
    off = ~np.eye(300, dtype=bool)
    rho = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])[off]
    np.testing.assert_allclose(m[off], np.log(1.0 / rho) / (2 * math.pi * EPS0),
                               rtol=1e-15, atol=0)
    assert np.array_equal(m, m.T)


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


# --------------------------------------------------------------------------
# blocked layers: the output does not depend on the block size

def _ring_matrix_one_block(z, r, w, mirror=False):
    """ring_matrix as one block: the pairs i < j gathered by triu_indices."""
    n = len(z)
    ii, jj = np.triu_indices(n, 1)
    ri, rj = r[ii], r[jj]
    dz = z[ii] - z[jj]
    upper = kern._ring_kernel(np.hypot(dz, ri - rj), ri, rj)
    near = np.nonzero(np.abs(dz) < kern.NEAR_FACTOR * (w[ii] + w[jj]))[0]
    ni, nj = ii[near], jj[near]
    zi = z[ni][:, None] + 0.5 * w[ni][:, None] * kern._GAUSS_X[None, :]
    zj = z[nj][:, None] + 0.5 * w[nj][:, None] * kern._GAUSS_X[None, :]
    rr = np.hypot(zi[:, :, None] - zj[:, None, :],
                  (r[ni] - r[nj])[:, None, None])
    kv = kern._ring_kernel(rr, r[ni][:, None, None], r[nj][:, None, None])
    upper[near] = np.einsum("i,j,pij->p", kern._GAUSS_W, kern._GAUSS_W,
                            kv) / 4.0
    diag = kern._ring_self(r, w)
    if mirror:
        upper -= kern._ring_kernel(np.hypot(z[ii] + z[jj], ri - rj), ri, rj)
        diag -= kern._ring_kernel(np.abs(z + z), r, r)
    m = np.empty((n, n))
    m[ii, jj] = upper
    m[jj, ii] = upper
    m[np.diag_indices(n)] = diag
    return m, len(near)


def _flatwire_matrix_one_block(y, rbar, w, mirror=False):
    """flatwire_matrix as one block of all rows."""
    rh = rbar / 2.0
    n = len(y)
    dy = np.abs(y[:, None] - y[None, :])
    np.fill_diagonal(dy, 1.0)
    m = kern._ring_kernel(dy, rh[None, :], rh[None, :])
    m[np.diag_indices(n)] = kern._ring_self(rh, w)
    ii, jj = np.nonzero(dy < kern.NEAR_FACTOR * (w[:, None] + w[None, :]))
    off = ii != jj
    ii, jj = ii[off], jj[off]
    yi = y[ii][:, None] + 0.5 * w[ii][:, None] * kern._GAUSS_X[None, :]
    yj = y[jj][:, None] + 0.5 * w[jj][:, None] * kern._GAUSS_X[None, :]
    rj = rh[jj][:, None, None]
    kv = kern._ring_kernel(np.abs(yi[:, :, None] - yj[:, None, :]), rj, rj)
    m[ii, jj] = np.einsum("i,j,pij->p", kern._GAUSS_W, kern._GAUSS_W, kv) / 4.0
    if mirror:
        m -= kern._ring_kernel(np.abs(y[:, None] + y[None, :]), rh[None, :],
                               rh[None, :])
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
        log_ratio = np.log((u * u + vv) / (u2 * u2 + vv))
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


#: block sizes that end blocks mid-array: one row or pair per block (1, 7,
#: 300), 40 rows and 16 pairs per block (5000), and the shipped size
BLOCK_SIZES = [1, 7, 300, 5000, kern.BLOCK_ENTRIES]


@pytest.mark.parametrize("entries", BLOCK_SIZES)
@pytest.mark.parametrize("mirror", [False, True])
def test_wire_matrices_do_not_depend_on_block_size(monkeypatch, entries,
                                                   mirror):
    # the reference subtracts the image in its own pass (mirror), or is
    # the plain one-block matrix less the mutual matrix to the image
    rings, strip = _tapered_wires(125)
    assert rings.n == strip.n == 125
    z, r, y, rb = rings.pos[:, 0], rings.pos[:, 1], strip.pos[:, 0], \
        strip.pos[:, 1]
    want_ring, near_ring = _ring_matrix_one_block(z, r, rings.width, mirror)
    want_flat, near_flat = _flatwire_matrix_one_block(y, rb, strip.width,
                                                      mirror)
    if not mirror:
        want_ring -= kern.ring_mutual(z, r, -z, r)
        want_flat -= kern.flatwire_mutual(y, -y, rb)
    assert near_ring % 16 and near_flat % 16
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", entries)
    got_ring = kern.ring_matrix(z, r, rings.width)
    got_flat = kern.flatwire_matrix(y, rb, strip.width)
    assert np.array_equal(got_ring, want_ring)
    assert np.array_equal(got_flat, want_flat)


def _coax_field_case():
    # 1222 segments of a solved coax; 601 points along y = 0 across the gap
    from surfloss.bem import mesh as meshes
    from surfloss.bem import solve
    mesh = meshes.concat([meshes.circle(10e-6, 306, electrode=0),
                          meshes.circle(100e-6, 916, electrode=1)])
    sol = solve(mesh, {0: 1.0, 1: 0.0})
    px = np.linspace(-99e-6, 99e-6, 601)
    return (px, np.zeros_like(px), mesh.pos[:, 0], mesh.pos[:, 1],
            mesh.tangent[:, 0], mesh.tangent[:, 1], mesh.width, sol.charge)


@pytest.mark.parametrize("entries", [1, 7, 300, 1 << 14, kern.BLOCK_ENTRIES])
def test_segment_field_does_not_depend_on_block_size(monkeypatch, entries):
    # 300 entries hold less than one row of 1222 segments: one point per
    # block; 1 << 14 gives 13 points per block, which 601 is not a multiple of
    args = _coax_field_case()
    want = _segment_field_one_block(*args)
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", entries)
    got = kern.segment_field(*args)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


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


@pytest.mark.parametrize("entries, n_rows, row_len, step", [
    (1 << 16, 601, 1222, 53), (1 << 16, 100, 680, 96), (300, 5, 1222, 1),
    (5000, 125, 125, 40), (1000, 80, 320, 3), (7, 9, 1, 7)])
def test_row_blocks_cover_rows_in_whole_groups(monkeypatch, entries, n_rows,
                                               row_len, step):
    # about BLOCK_ENTRIES entries per block and at least one row
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", entries)
    blocks = kern.row_blocks(n_rows, row_len)
    assert [b.stop - b.start for b in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert 0 < blocks[-1].stop - blocks[-1].start <= step
    assert np.array_equal(np.concatenate([np.arange(b.start, b.stop)
                                          for b in blocks]), np.arange(n_rows))
