"""Stack/structure validation, design assembly, and the participation
scaling laws."""

import numpy as np
import pytest

from surfloss import (Coplanar, DielectricStack, ParallelPlate, Ribbon,
                      RibbonWithGround, StraightWire, TaperedWire,
                      ValidationError, assemble_design, capacitance_to_length,
                      interface_weights, EPS0)
from surfloss import analytic

STACK = DielectricStack()
UM = 1e-6

PLATE = ParallelPlate(5 * UM, 100 * UM, 1130 * UM)
RIBBON = Ribbon(50 * UM, 100 * UM, 1391 * UM, 0.1 * UM)
COPLANAR = Coplanar(50 * UM, 100 * UM, 1138 * UM, 0.1 * UM)
WIRE = StraightWire(0.1 * UM, 50 * UM, 0.1 * UM)
TAPER = TaperedWire(0.1 * UM, 0.4, 50 * UM, 0.1 * UM)
RWG = RibbonWithGround(50 * UM, 100 * UM, 150 * UM, 1000 * UM, 0.1 * UM)
SINGLE = Coplanar(50 * UM, 100 * UM, 1138 * UM, 0.1 * UM, single_ended=True)


def test_capacitance_to_length_anchor():
    assert capacitance_to_length(100e-15) == pytest.approx(11.3e-3, rel=1e-3)


def test_capacitance_to_length_identity():
    assert capacitance_to_length(EPS0) == pytest.approx(1.0, rel=1e-15)


def test_capacitance_to_length_derived():
    # 2 pF / eps0 = 225.88 mm
    assert capacitance_to_length(2e-12) == pytest.approx(0.225881813, rel=1e-8)


def test_interface_weights_default():
    w = interface_weights(STACK)
    assert w[0] == pytest.approx(0.10204, rel=1e-4)
    assert w[1] == pytest.approx(13.968, rel=1e-4)
    assert w[2] == pytest.approx(3.8, rel=1e-12)


def test_interface_weights_vacuum():
    stack = DielectricStack(eps_s=1, eps_ma=1, eps_ms=1, eps_sa=1)
    assert interface_weights(stack) == (1.0, 1.0, 1.0)


def test_interface_weights_table_one():
    stack = DielectricStack(eps_s=10, eps_ma=10, eps_ms=10, eps_sa=10)
    assert interface_weights(stack) == pytest.approx((0.1, 10.0, 10.0))


def test_validation_collects_all_problems():
    bad_ribbon = Ribbon(a=-1.0, b=-2.0, length=0.0, t=0.0)
    with pytest.raises(ValidationError) as exc:
        assemble_design([bad_ribbon], STACK)
    text = "\n".join(exc.value.problems)
    assert "ribbon.a" in text and "ribbon.b" in text
    assert "ribbon.length" in text and "ribbon.t" in text


def test_empty_design_rejected():
    with pytest.raises(ValidationError):
        assemble_design([], STACK)


def test_singleton_assembly_matches_standalone():
    design = assemble_design([RIBBON], STACK)
    own_l = analytic.ribbon_capacitance(RIBBON, STACK) / EPS0
    bd = analytic.participation(RIBBON, STACK, own_l)
    assert design.breakdowns[0].p_ms == pytest.approx(bd.p_ms, rel=1e-12)
    assert design.length == pytest.approx(own_l, rel=1e-12)


def test_assembly_ribbon_plus_wire():
    # oracle: recompute the parts at the combined L
    design = assemble_design([RIBBON, WIRE], STACK)
    c_r = analytic.ribbon_capacitance(RIBBON, STACK)
    c_w = analytic.straight_wire_capacitance(WIRE, STACK)
    assert design.capacitance == pytest.approx(c_r + c_w, rel=1e-12)
    assert design.capacitance > 100e-15
    shared_l = (c_r + c_w) / EPS0
    for spec, bd in zip((RIBBON, WIRE), design.breakdowns):
        ref = analytic.participation(spec, STACK, shared_l)
        assert bd.p_ms == pytest.approx(ref.p_ms, rel=1e-12)
    # participations rescaled relative to the 100 fF table convention
    table = assemble_design([RIBBON, WIRE], STACK, target_capacitance=100e-15)
    ratio = design.breakdowns[0].p_ms / table.breakdowns[0].p_ms
    assert ratio == pytest.approx(100e-15 / (c_r + c_w), rel=1e-12)


def test_target_capacitance_sets_length():
    design = assemble_design([RIBBON, WIRE], STACK, target_capacitance=100e-15)
    assert design.length == pytest.approx(11.3e-3, rel=1e-3)


def test_total_loss_additivity():
    stack = DielectricStack(tan_ma=1e-3, tan_ms=2e-3, tan_sa=3e-3)
    design = assemble_design([RIBBON, COPLANAR, TAPER], stack,
                             target_capacitance=100e-15)
    parts = [analytic.participation(s, stack, design.length)
             for s in (RIBBON, COPLANAR, TAPER)]
    for p in parts:
        assert p.loss_tangent == (p.p_ma * stack.tan_ma + p.p_ms * stack.tan_ms
                                  + p.p_sa * stack.tan_sa)
    assert design.total_loss_tangent == pytest.approx(
        sum(p.loss_tangent for p in parts), rel=1e-12)


def test_oxide_thickness_linearity():
    thick = DielectricStack(t_ma=4e-9, t_ms=4e-9, t_sa=4e-9)
    length = capacitance_to_length(100e-15)
    for spec in (PLATE, RIBBON, COPLANAR, WIRE, TAPER):
        b1 = analytic.participation(spec, STACK, length)
        b2 = analytic.participation(spec, thick, length)
        for attr in ("p_ma", "p_ms", "p_sa"):
            v1, v2 = getattr(b1, attr), getattr(b2, attr)
            if v1:
                assert v2 / v1 == pytest.approx(2.0, rel=1e-12)


def _scaled(spec, factor):
    kw = {}
    for name in spec._fields:
        val = getattr(spec, name)
        kw[name] = val * factor if isinstance(val, float) and name != "slope" \
            else val
    return type(spec)(**kw)


@pytest.mark.parametrize("spec", [
    PLATE, RIBBON, COPLANAR,
    RibbonWithGround(25 * UM, 100 * UM, 150 * UM, 1000 * UM, 0.1 * UM),
])
def test_inverse_size_scale_law(spec):
    # scaling all structure lengths by D (oxides fixed) divides p by D when
    # the structure carries the full qubit capacitance
    factor = 3.0
    big = _scaled(spec, factor)
    l1 = analytic.capacitance(spec, STACK) / EPS0
    l2 = analytic.capacitance(big, STACK) / EPS0
    assert l2 / l1 == pytest.approx(factor, rel=1e-9)
    b1 = analytic.participation(spec, STACK, l1)
    b2 = analytic.participation(big, STACK, l2)
    for attr in ("p_ma", "p_ms", "p_sa"):
        v1, v2 = getattr(b1, attr), getattr(b2, attr)
        if v1:
            assert v2 / v1 == pytest.approx(1.0 / factor, rel=1e-9)


def test_wire_participation_grows_with_length():
    # wires break the 1/D law: participation increases with d at fixed L
    length = capacitance_to_length(100e-15)
    p = [analytic.participation(StraightWire(0.1 * UM, d * UM, 0.1 * UM),
                                STACK, length).p_ms for d in (20, 50, 100)]
    assert p[0] < p[1] < p[2]


def test_wire_closed_forms_direct():
    # straight-wire participation equals its closed form exactly
    length = capacitance_to_length(100e-15)
    bd = analytic.participation(WIRE, STACK, length)
    rb, d, t = WIRE.half_width, WIRE.d, WIRE.t
    log2 = np.log(d / rb) ** 2
    p_factor = 0.5 * (np.log(4 * rb / t) + 5.0) / log2
    expected = (STACK.eps_s**2 / STACK.eps_ms) * STACK.t_ms / length \
        * (d / rb) * p_factor
    assert bd.p_ms == pytest.approx(expected, rel=1e-12)
    bd_t = analytic.participation(TAPER, STACK, length)
    pre = np.log(TAPER.d / TAPER.r0) / TAPER.slope
    pf = 0.68 * (np.log(4 * TAPER.slope * TAPER.d / TAPER.t) + 5.0) \
        / np.log(4 / TAPER.slope) ** 2
    expected_t = (STACK.eps_s**2 / STACK.eps_ms) * STACK.t_ms / length * pre * pf
    assert bd_t.p_ms == pytest.approx(expected_t, rel=1e-12)


def test_slope_cap_rejected():
    bad = TaperedWire(0.1 * UM, 0.5, 50 * UM, 0.1 * UM)
    with pytest.raises(ValidationError) as exc:
        assemble_design([bad], STACK)
    assert any("slope" in p for p in exc.value.problems)


def test_metal_energy_exceeds_substrate():
    # u_metal > u_substrate for like geometry (higher corner constant, and
    # the substrate integral carries an extra 1/2).  With unit weights and
    # oxides p_MA is the metal energy and p_SA/2 the substrate energy.
    unit = DielectricStack(eps_s=1, eps_ma=1, eps_ms=1, eps_sa=1,
                           t_ma=1, t_ms=1, t_sa=1)
    for spec in (RIBBON, COPLANAR):
        bd = analytic.participation(spec, unit, 11.3e-3)
        assert bd.p_ma > bd.p_sa / 2


# (p_ma, p_ms, p_sa, capacitance) at L = 11.3 mm on the default stack,
# recorded before the per-type functions were reduced to their breakdown
FROZEN_PARTICIPATIONS = {
    ("plate", False): (8.16326530612245e-05, 0.0, 0.0, 1.0005232228463998e-13),
    ("plate", True): (8.16326530612245e-05, 0.0, 0.0, 1.0005232228463998e-13),
    ("ribbon", False): (1.037260199570475e-06, 0.00014199054871920233,
                        2.7434359200102946e-05, 1.0004812158273419e-13),
    ("ribbon", True): (1.258267233276751e-06, 0.00011173689587515018,
                       2.7434359200102946e-05, 1.0004812158273419e-13),
    ("coplanar", False): (1.0370844771078056e-06, 0.0001419664940712875,
                          2.7429711539696816e-05, 1.0003117240998345e-13),
    ("coplanar", True): (1.2580540699672754e-06, 0.00011171796650475461,
                         2.7429711539696816e-05, 1.0003117240998345e-13),
    ("single", False): (2.074168954215611e-06, 0.000283932988142575,
                        5.485942307939363e-05, 2.000623448199669e-13),
    ("single", True): (2.516108139934551e-06, 0.00022343593300950922,
                       5.485942307939363e-05, 2.000623448199669e-13),
    ("rwg", False): (1.0174399309673646e-06, 0.00013927735215012255,
                     2.813676550216704e-05, 8.066792428884892e-14),
    ("rwg", True): (1.2366484415673444e-06, 0.00010926989913409137,
                    2.813676550216704e-05, 8.066792428884892e-14),
    ("wire", False): (7.465981755470705e-07, 0.00010220182425063849,
                      1.3001105377799563e-05, 1.854652586739731e-15),
    ("wire", True): (1.0388639768591748e-06, 6.219355870902458e-05,
                     1.3001105377799563e-05, 1.854652586739731e-15),
    ("taper", False): (4.205048921549961e-07, 5.756291468709742e-05,
                       9.47016791595026e-06, 6.222866720976107e-15),
    ("taper", True): (5.104746964488104e-07, 4.524694817731719e-05,
                      9.47016791595026e-06, 6.222866720976107e-15),
}
FROZEN_SPECS = {"plate": PLATE, "ribbon": RIBBON, "coplanar": COPLANAR,
                "single": SINGLE, "rwg": RWG, "wire": WIRE, "taper": TAPER}


@pytest.mark.parametrize("name, corner_split", list(FROZEN_PARTICIPATIONS))
def test_participation_frozen_values(name, corner_split):
    bd = analytic.participation(FROZEN_SPECS[name], STACK, 11.3e-3,
                                corner_split=corner_split)
    assert (bd.p_ma, bd.p_ms, bd.p_sa, bd.capacitance) \
        == FROZEN_PARTICIPATIONS[name, corner_split]


@pytest.mark.parametrize("spec", [RIBBON, COPLANAR, RWG, WIRE, TAPER],
                         ids=["ribbon", "coplanar", "ribbon_with_ground",
                              "straight_wire", "tapered_wire"])
def test_participation_is_the_energy_split(spec):
    # with unit weights, oxides and length the participations are the
    # structure's surface energies: the metal energy on MA and MS (at the
    # corner-split constants 7.5 and 2.5 with corner_split), twice the
    # substrate energy on SA
    unit = DielectricStack(eps_s=1.0, eps_ma=1.0, eps_ms=1.0, eps_sa=1.0,
                           t_ma=1.0, t_ms=1.0, t_sa=1.0)
    energies = analytic.CLOSED_FORMS[type(spec)].energies
    bd = analytic.participation(spec, unit, 1.0)
    assert bd.p_ma == bd.p_ms == energies(spec, 5.0).u_metal
    assert bd.p_sa == 2 * energies(spec, 5.0).u_substrate
    split = analytic.participation(spec, unit, 1.0, corner_split=True)
    assert split.p_ma == energies(spec, 7.5).u_metal
    assert split.p_ms == energies(spec, 2.5).u_metal
    assert split.p_sa == bd.p_sa
