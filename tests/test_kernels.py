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
    y, rb, w = mesh.pos[:, 0], mesh.halfwidth, mesh.width
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
    z, r, w = _FROZEN_Z, _FROZEN_R, _FROZEN_W
    got = {
        "ring_matrix": kern.ring_matrix(z, r, w),
        "ring_mutual": kern.ring_mutual(z, r, -z, r),
        "flatwire_matrix": kern.flatwire_matrix(z, r, w),
        "flatwire_mutual": kern.flatwire_mutual(z, -z, r),
    }
    for name, want in _FROZEN.items():
        np.testing.assert_allclose(got[name], want, rtol=1e-12, atol=0,
                                   err_msg=name)


def test_mirror_subtracts_image_in_one_pass():
    # the image half of a mirrored solve, subtracted inside the matrix
    # build, equals the plain matrix minus the mutual matrix to the image
    from surfloss.analytic import taper_halfwidth
    from surfloss.bem.mesh import wire_rings, wire_strip
    rings = wire_rings(20e-6, lambda y: 0.2 * y, y0=0.02e-6, n=120)
    strip = wire_strip(20e-6, lambda y: taper_halfwidth(y, 0.1e-6, 0.2, 0.1e-6),
                       y0=0.02e-6, n=120)
    cases = [(rings.pos[:, 0], rings.pos[:, 1], rings.width, strip.pos[:, 0],
              strip.halfwidth, strip.width),
             (_FROZEN_Z, _FROZEN_R, _FROZEN_W, _FROZEN_Z, _FROZEN_R, _FROZEN_W)]
    for z, r, w, y, rb, wy in cases:
        ring = kern.ring_matrix(z, r, w, mirror=True)
        assert np.array_equal(ring, kern.ring_matrix(z, r, w)
                              - kern.ring_mutual(z, r, -z, r))
        assert np.array_equal(ring, ring.T)
        flat = kern.flatwire_matrix(y, rb, wy, mirror=True)
        assert np.array_equal(flat, kern.flatwire_matrix(y, rb, wy)
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
