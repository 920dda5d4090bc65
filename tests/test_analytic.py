"""Closed-form structure physics: section integrals, energies, wires,
taper optimization, and the corner-field model."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from surfloss import DielectricStack, Ribbon, Coplanar, EPS0, TaperedWire
from surfloss import _quadpack, analytic
from surfloss.geometry import MAX_TAPER_SLOPE

from paper_forms import edge_enhancement, fit_crossover, ribbon_inner_outer

UM = 1e-6
STACK = DielectricStack()


# ---------------------------------------------------------------- flat coax

def test_flat_coax_center_value():
    assert analytic.flat_coax_field(0.0, 10 * UM, 100 * UM) == pytest.approx(
        analytic.flat_coax_center_field(10 * UM, 100 * UM), rel=1e-12)


def test_flat_coax_voltage_integral():
    rbar, shield = 10 * UM, 100 * UM
    val, _ = quad(lambda x: analytic.flat_coax_field(x, rbar, shield),
                  rbar * (1 + 1e-13), shield, points=[rbar * 1.0001], limit=400)
    assert abs(val - 1.0) < (rbar / shield) ** 2


def test_flat_coax_energy_bracket():
    # rbar = 50 um, t = 0.1 um: log term 7.6, metal bracket 12.6
    pair = analytic.flat_coax_energies(50 * UM, 500 * UM, 0.1 * UM)
    ef = analytic.flat_coax_center_field(50 * UM, 500 * UM)
    bracket = pair.u_metal / (ef**2 * 50 * UM)
    assert bracket == pytest.approx(math.log(2000.0) + 5.0, rel=1e-12)
    assert bracket == pytest.approx(12.6, rel=1e-3)


def test_flat_coax_energy_ratio():
    # frozen by direct evaluation: 2*(ln400+c_m)/(ln400+c_s-2*rbar/R)
    pair = analytic.flat_coax_energies(10 * UM, 100 * UM, 0.1 * UM)
    assert pair.u_metal / pair.u_substrate == pytest.approx(2.9742, rel=1e-4)


def test_flat_coax_domain():
    with pytest.raises(ValueError):
        analytic.flat_coax_energies(10 * UM, 100 * UM, 20 * UM)
    for edge in (10 * UM, -10 * UM):
        with pytest.raises(ValueError):
            analytic.flat_coax_field(edge, 10 * UM, 100 * UM)


# ---------------------------------------------------------------- corners

def test_corner_energy_constant_via_quadrature():
    # 8 corner sides at (2 r/t)^(2p) integrate to the t-independent constant
    # 2/(1 + 2p), which is 6 at the shipped exponent p = -1/3
    t = 0.1 * UM
    p = analytic.CORNER_EXPONENT
    integral, _ = quad(lambda r: (2 * r / t) ** (2 * p), 0.0, t / 2,
                       points=[t / 4], limit=200)
    constant = 0.5 * 8.0 * integral / t
    assert constant == pytest.approx(6.0, rel=1e-8)


def test_corner_split_mode():
    # the air side takes 1.5 and the substrate side 0.5 of the corner
    # constant, so the two sides together keep the plain split's 2 * c_m
    assert analytic.C_M_AIR == 7.5
    assert analytic.C_M_SUBSTRATE == 2.5
    assert analytic.C_M_AIR + analytic.C_M_SUBSTRATE \
        == 2 * analytic.C_M_DEFAULT


def test_edge_enhancement_discussion_values():
    e = edge_enhancement(50 * UM, 0.1 * UM)
    assert e.ratio == pytest.approx(4.0, rel=0.02)
    assert e.log_term == pytest.approx(7.6, rel=0.02)
    assert 0.28 < e.corner_share < 0.45     # "about 1/3" in the source model


# ---------------------------------------------------------------- ribbon

def test_ribbon_section_identity():
    # the inner and outer integrals sum to the shipped center integral
    for a, b, t in [(50, 100, 0.1), (2.5, 4.5, 0.1), (10, 11, 0.05)]:
        s_i, s_o = ribbon_inner_outer(a * UM, b * UM, t * UM)
        s_c = analytic.surface_sum(a * UM, b * UM, t * UM, 0.0) / (a * UM)
        assert s_c == pytest.approx(s_i + s_o, rel=1e-12)


def test_ribbon_capacitance_anchor():
    c = analytic.ribbon_capacitance(Ribbon(50 * UM, 100 * UM, 1391 * UM,
                                           0.1 * UM), STACK)
    assert c == pytest.approx(100e-15, rel=5e-3)


def test_ribbon_surface_integral_vs_quadrature():
    # S_a(c=0)/a equals the exact conformal center-section integral
    a, b, t = 50 * UM, 100 * UM, 0.1 * UM
    f = lambda x: b**2 / abs((x**2 - a**2) * (x**2 - b**2))
    exact, _ = quad(f, a + t / 2, b - t / 2, limit=400)
    assert analytic.surface_sum(a, b, t, 0.0) / a == pytest.approx(exact, rel=2e-4)


def test_ribbon_forms_take_k_from_the_parameter_of_ck_ratio(monkeypatch):
    # at this a/b, (a/b)**2 and (a/b)*(a/b) differ in the last bit, and so
    # do their K; the ribbon's capacitance (ck_ratio), its energies, the
    # ribbon-with-ground energies and strip_field all square a/b as k * k
    from surfloss import RibbonWithGround, special
    a, b, t, ell = 73.976 * UM, 159.945 * UM, 0.1 * UM, 1391 * UM
    k = a / b
    assert k ** 2 != k * k
    assert special.ellipk(k ** 2) != special.ellipk(k * k)
    params, plain = [], special.ellipk

    def ellipk(m):
        params.append(m)
        return plain(m)

    monkeypatch.setattr(special, "ellipk", ellipk)
    special.ck_ratio(k)
    assert params[0] == k * k
    monkeypatch.setattr(analytic, "ellipk", ellipk)
    for form in (lambda: analytic.ribbon_energies(Ribbon(a, b, ell, t), 5.0),
                 lambda: analytic.ribbon_ground_energies(
                     RibbonWithGround(a, b, 2 * b, ell, t), 5.0),
                 lambda: analytic.strip_field(0.5 * a, a, b)):
        params.clear()
        form()
        assert params[0] == k * k


def self_participation(spec, stack):
    """Participations when the ribbon supplies all the qubit capacitance,
    at L = C_ribbon/eps0."""
    return analytic.participation(
        spec, stack, analytic.ribbon_capacitance(spec, stack) / EPS0)


def test_ribbon_self_capacitance_table_one():
    stack = DielectricStack(eps_s=10, eps_ma=10, eps_ms=10, eps_sa=10,
                            t_ma=3e-9, t_ms=3e-9, t_sa=3e-9,
                            tan_ma=0.002, tan_ms=0.002, tan_sa=0.002)
    spec = Ribbon(2.5 * UM, 4.5 * UM, 1e-3, 0.1 * UM)
    bd = self_participation(spec, stack)
    assert bd.p_ms * 0.002 == pytest.approx(5.93e-6, rel=0.02)
    assert bd.p_sa * 0.002 == pytest.approx(3.57e-6, rel=0.02)
    assert bd.p_ma * 0.002 == pytest.approx(0.060e-6, rel=0.02)


def test_ribbon_self_capacitance_length_invariance():
    # the self-capacitance participation does not depend on the length
    stack = DielectricStack()
    p1 = self_participation(Ribbon(50 * UM, 100 * UM, 1e-3, 0.1 * UM), stack)
    p2 = self_participation(Ribbon(50 * UM, 100 * UM, 3e-3, 0.1 * UM), stack)
    assert p1.p_ms == pytest.approx(p2.p_ms, rel=1e-12)


# ---------------------------------------------------------------- coplanar

def test_coplanar_capacitance_anchor():
    c = analytic.coplanar_capacitance(Coplanar(50 * UM, 100 * UM, 1138 * UM,
                                               0.1 * UM), STACK)
    assert c == pytest.approx(100e-15, rel=5e-3)


def test_ribbon_coplanar_duality():
    # equal participations when each carries the full qubit capacitance
    rb = Ribbon(50 * UM, 100 * UM, 1391 * UM, 0.1 * UM)
    cp = Coplanar(50 * UM, 100 * UM, 1138 * UM, 0.1 * UM)
    b_r = analytic.participation(rb, STACK,
                                 analytic.capacitance(rb, STACK) / EPS0)
    b_c = analytic.participation(cp, STACK,
                                 analytic.capacitance(cp, STACK) / EPS0)
    assert b_c.p_ms == pytest.approx(b_r.p_ms, rel=1e-9)
    assert b_c.p_sa == pytest.approx(b_r.p_sa, rel=1e-9)


def test_single_ended_doubles_but_self_participation_fixed():
    cp = Coplanar(50 * UM, 100 * UM, 1138 * UM, 0.1 * UM)
    se = Coplanar(50 * UM, 100 * UM, 1138 * UM, 0.1 * UM, single_ended=True)
    length = 11.3e-3
    b_d = analytic.participation(cp, STACK, length)
    b_s = analytic.participation(se, STACK, length)
    assert b_s.p_ms == pytest.approx(2 * b_d.p_ms, rel=1e-12)
    assert analytic.capacitance(se, STACK) == pytest.approx(
        2 * analytic.capacitance(cp, STACK), rel=1e-12)
    # at own capacitance the doubling cancels
    p_d = analytic.participation(cp, STACK, analytic.capacitance(cp, STACK) / EPS0)
    p_s = analytic.participation(se, STACK, analytic.capacitance(se, STACK) / EPS0)
    assert p_s.p_ms == pytest.approx(p_d.p_ms, rel=1e-12)


def test_coplanar_gap_divergence():
    # capacitance grows logarithmically as the gap closes
    caps = [analytic.coplanar_capacitance(
        Coplanar(50 * UM, b * UM, 1138 * UM, 0.001 * UM), STACK)
        for b in (60.0, 51.0, 50.1, 50.01)]
    assert all(c2 > c1 for c1, c2 in zip(caps, caps[1:]))
    # one decade of gap adds about ln(10)/pi to K/K'
    gap_step = (caps[3] - caps[2]) / (caps[2] - caps[1])
    assert gap_step == pytest.approx(1.0, abs=0.25)
    assert caps[3] > 1.3 * caps[0]


# ---------------------------------------------------------------- ribbon with ground

def test_ribbon_ground_far_limit():
    from surfloss import RibbonWithGround
    rb = Ribbon(50 * UM, 100 * UM, 1391 * UM, 0.1 * UM)
    rwg = RibbonWithGround(50 * UM, 100 * UM, 100e-3, 1391 * UM, 0.1 * UM)
    assert analytic.ribbon_ground_capacitance(rwg, STACK) == pytest.approx(
        analytic.ribbon_capacitance(rb, STACK), rel=1e-5)
    length = 11.3e-3
    b_rwg = analytic.participation(rwg, STACK, length)
    b_r = analytic.participation(rb, STACK, length)
    # the 0.98/0.95 fit prefactors remain once the coplanar terms die off
    # (the substrate one decays only logarithmically in c)
    assert b_rwg.p_ms == pytest.approx(0.98 * b_r.p_ms, rel=1e-3)
    assert b_rwg.p_sa == pytest.approx(0.95 * b_r.p_sa, rel=2e-2)
    nearer = analytic.participation(
        RibbonWithGround(50 * UM, 100 * UM, 200 * UM, 1391 * UM, 0.1 * UM),
        STACK, length)
    assert abs(b_rwg.p_sa - 0.95 * b_r.p_sa) < abs(nearer.p_sa - 0.95 * b_r.p_sa)


def test_ribbon_ground_monotone_capacitance():
    from surfloss import RibbonWithGround
    caps = [analytic.ribbon_ground_capacitance(
        RibbonWithGround(25 * UM, 100 * UM, 100 * UM * (1 + g), 1e-3, 0.1 * UM),
        STACK) for g in (0.1, 0.3, 1.0, 3.0)]
    assert all(c1 > c2 for c1, c2 in zip(caps, caps[1:]))


# ---------------------------------------------------------------- wires

def test_straight_wire_zero_length_limit():
    rb = 0.1 * UM
    u = analytic.straight_wire_energy_quadrature(rb, 2.001 * rb, 0.1 * UM)
    assert 0 < u < 1e-2


def test_straight_wire_fit_vs_quadrature_at_table_geometry():
    # at d/rbar = 500 the closed form sits ~3% above the integral
    rb, d, t = 0.1 * UM, 50 * UM, 0.1 * UM
    fit = analytic.straight_wire_energy_fit(rb, d, t)
    exact = analytic.straight_wire_energy_quadrature(rb, d, t)
    assert fit / exact == pytest.approx(1.030, abs=0.01)


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form tapered-wire energy is 2.20-2.97 times direct "
           "quadrature of its own line integral at r0 = t = 0.1 um over "
           "S in [0.05, 0.45] and d in [5, 200] um (2.24 at the shipped "
           "S = 0.4, d = 50 um); no 5% agreement holds anywhere on that grid")
def test_tapered_wire_fit_vs_quadrature():
    r0, t = 0.1 * UM, 0.1 * UM
    ratios = {}
    for slope in np.linspace(0.05, 0.45, 9):
        for d in (5, 10, 20, 50, 100, 200):
            fit = analytic.tapered_wire_energy_fit(r0, slope, d * UM, t)
            quadr = analytic.tapered_wire_energy_quadrature(r0, slope, d * UM, t)
            ratios[slope, d] = fit / quadr
    for (slope, d), r in ratios.items():
        assert abs(r - 1.0) <= 0.05, f"S = {slope:.2f}, d = {d} um: {r:.3f}"


def test_taper_integrand_optima():
    # frozen from an independent bounded-minimizer oracle
    expected = {10: 0.4031, 100: 0.4352, 1000: 0.4550}
    for y_over_t, target in expected.items():
        t = 0.1 * UM
        y = y_over_t * t
        f = lambda r: (math.log(4 * r / t) + 5.0) / (r * math.log(4 * y / r) ** 2)
        # r/y minimizing the line-energy integrand, by the shipped minimizer
        mine, _ = analytic.golden_section_min(lambda q: f(q * y), 1e-3, 0.95)
        oracle = minimize_scalar(f, bounds=(1e-3 * y, 0.95 * y),
                                 method="bounded",
                                 options={"xatol": 1e-16}).x / y
        assert mine == pytest.approx(oracle, abs=1e-4)
        assert mine == pytest.approx(target, abs=5e-4)


def test_taper_optimum_slope():
    opt = analytic.optimize_taper_slope(0.1 * UM, 50 * UM, 0.1 * UM)
    assert 0.40 <= opt.slope <= 0.45
    # broad minimum: monotone decrease toward the cap
    u16 = analytic.tapered_wire_energy_quadrature(0.1 * UM, 0.16, 50 * UM, 0.1 * UM)
    u28 = analytic.tapered_wire_energy_quadrature(0.1 * UM, 0.28, 50 * UM, 0.1 * UM)
    assert u16 > u28 > opt.energy


def test_tapered_quadrature_rejects_pole_in_domain():
    # r0 >= 20t puts the pole of 1/ln(4y/r0)^2 at y = r0/4 inside [5t, d]
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pole"):
            analytic.tapered_wire_energy_quadrature(2 * UM, 0.28, 50 * UM,
                                                    0.02 * UM)
        # just below 20t the pole sits under the lower limit 5t
        u = analytic.tapered_wire_energy_quadrature(0.39 * UM, 0.28, 50 * UM,
                                                    0.02 * UM)
    assert math.isfinite(u) and u > 0


def _per_node_integrand(r0, slope, t):
    """The tapered-wire integrand with every node computing 5t, max() and
    both logarithms: the reference the shipped one must equal bit for bit."""
    def integrand(y):
        r = max(r0, (y - 5.0 * t) * slope)
        return 2.0 * (math.log(4 * r / t) + analytic.C_M_DEFAULT) \
            / (4.0 * r * math.log(4 * y / r) ** 2)
    return integrand


def _per_node_quadrature(r0, slope, d, t):
    y_kink = 5.0 * t + r0 / slope
    pts = [y_kink] if 5.0 * t < y_kink < d else None
    reference = _per_node_integrand(r0, slope, t)
    return _quadpack.quad(lambda ys: [reference(y) for y in ys], 5.0 * t, d,
                          400, pts)


def _shipped_integrand(r0, slope, d, t):
    """The panel integrand tapered_wire_energy_quadrature hands to quad."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_quadpack, "quad",
                   lambda f, a, b, limit, points=None: seen.append(f) or 0.0)
        analytic.tapered_wire_energy_quadrature(r0, slope, d, t)
    return seen[0]


def _assert_per_node_values(r0, slope, d, t):
    assert analytic.tapered_wire_energy_quadrature(r0, slope, d, t) \
        == _per_node_quadrature(r0, slope, d, t)
    # both branches: the kink and the floats either side of it
    shipped = _shipped_integrand(r0, slope, d, t)
    reference = _per_node_integrand(r0, slope, t)
    kink = 5.0 * t + r0 / slope
    ys = [kink]
    for toward in (-math.inf, math.inf):
        y = kink
        for _ in range(3):
            y = math.nextafter(y, toward)
            ys.append(y)
    for y in ys:
        assert shipped([y])[0] == reference(y), y


# Hypothesis formats a failing example with black, whose import of
# mypy_extensions warns; that must not hide the failure itself
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=60, derandomize=True, deadline=None)
@given(log_r0=st.floats(-8.5, -5.0), log_t=st.floats(-1.6, 0.0),
       slope=st.floats(1e-3, MAX_TAPER_SLOPE), log_kink=st.floats(0.001, 3.0),
       log_beyond=st.floats(0.001, 2.0))
def test_tapered_integrand_equals_its_per_node_form(log_r0, log_t, slope,
                                                    log_kink, log_beyond):
    # a valid wire, whose kink 5t + r0/S lies inside (5t, d), and the same
    # wire at a slope the taper scan may try, whose kink lies beyond d
    r0 = 10 ** log_r0
    t = 2 * r0 * 10 ** log_t
    d = 5 * t + (r0 / slope) * 10 ** log_kink
    spec = TaperedWire(r0, slope, d, t)
    assume(not spec.validate())
    _assert_per_node_values(r0, slope, d, t)
    shallow = r0 / (d - 5 * t) * 10 ** -log_beyond
    assert 5.0 * t + r0 / shallow > d
    _assert_per_node_values(r0, shallow, d, t)


@pytest.mark.parametrize("r0, slope, d, t, error, text", [
    pytest.param(2 * UM, 0.28, 50 * UM, 0.02 * UM, ValueError,
                 "tapered-wire energy diverges: the integrand has a pole at "
                 "y = r0/4 = 5e-07 m inside [5t, d]; need r0 < 20*t",
                 id="pole"),
    pytest.param(0.1 * UM, 0.3, 0.1 * UM, 0.1 * UM, ValueError,
                 "quadrature needs a < b, got a = 5e-07, b = 1e-07",
                 id="d-under-5t"),
    pytest.param(0.0, 0.3, 50 * UM, 0.1 * UM, ValueError,
                 "math domain error", id="r0-zero"),
    pytest.param(1e3 * UM, 0.3, 50 * UM, -0.1 * UM, ValueError,
                 "math domain error", id="t-negative"),
    pytest.param(1e3 * UM, 0.3, 50 * UM, 0.0, ZeroDivisionError,
                 "float division by zero", id="t-zero"),
])
def test_tapered_quadrature_errors(r0, slope, d, t, error, text):
    with pytest.raises(error) as info:
        analytic.tapered_wire_energy_quadrature(r0, slope, d, t)
    assert type(info.value) is error and str(info.value) == text


def test_taper_optimum_small_distance():
    # d = 5 um: straight and tapered closed forms within 15%
    u_s = analytic.straight_wire_energy_fit(0.1 * UM, 5 * UM, 0.1 * UM)
    u_t = analytic.tapered_wire_energy_fit(0.1 * UM, 0.4, 5 * UM, 0.1 * UM)
    assert abs(u_s / u_t - 1.0) < 0.15


def test_wire_crossover_near_ten_microns():
    d_star = fit_crossover(0.1 * UM, 0.1 * UM, slope=0.4)
    assert 7 * UM < d_star < 14 * UM
    # tapered strictly below straight for d >= 10 um
    for d in np.linspace(10 * UM, 200 * UM, 12):
        assert analytic.tapered_wire_energy_fit(0.1 * UM, 0.4, d, 0.1 * UM) < \
            analytic.straight_wire_energy_fit(0.1 * UM, d, 0.1 * UM)


def test_wire_capacitances():
    from surfloss import StraightWire, TaperedWire
    c_sw = analytic.straight_wire_capacitance(
        StraightWire(0.1 * UM, 50 * UM, 0.1 * UM), STACK)
    assert c_sw == pytest.approx(
        4.1 * 6.35 * EPS0 * 50 * UM / math.log(500.0), rel=1e-12)
    c_tw = analytic.tapered_wire_capacitance(
        TaperedWire(0.1 * UM, 0.4, 50 * UM, 0.1 * UM), STACK)
    assert c_tw == pytest.approx(
        3.5 * 6.35 * EPS0 * math.sqrt(0.4) * 50 * UM, rel=1e-12)


def test_wire_field_forms():
    # round-wire form has ln(2y/r), flat form ln(4y/rbar)
    y, r = 10 * UM, 0.1 * UM
    assert analytic.wire_field(y, r, flat=False) == pytest.approx(
        0.5 / (r * math.log(2 * y / r)), rel=1e-12)
    assert analytic.wire_field(y, r, flat=True) == pytest.approx(
        0.5 / (r * math.log(4 * y / r)), rel=1e-12)
