"""Closed-form fields, surface energies, capacitances, and participations.

Surface energies are reported normalized as u = U/(eps0 V^2): per unit
length for the flat-coax reference, over the whole structure for the design
structures (the per-length forms times the length, totals for the junction
wires).  Each film structure has one energy function,
``<type>_energies(spec, c_m)``, whose metal energy carries the corner
constant c_m in its edge logarithm.  ``participation`` applies the one
interface split: the metal-air and metal-substrate interfaces each see half
of the metal surface energy, the substrate-air interface the full
substrate-line energy, with the optional corner split re-weighting the
air/substrate sides of the film corners.  The loss tangent of a structure
is its participations weighted by the stack's interface loss tangents.

The closed forms, ``flat_coax_field`` among them, run on ``math`` alone.
The array helpers (``strip_field``, ``wire_field`` and ``taper_halfwidth``)
import NumPy when called, so a design analysis loads no NumPy.  The wire
quadratures call ``_quadpack.quad``, a Python transcription of the
QUADPACK routines behind SciPy's ``quad`` with bit-identical results, and
the taper optimizer scans slopes from ``linspace``, a float transcription
of NumPy's, so `taper` and `sweep` load neither NumPy nor SciPy.

``CLOSED_FORMS`` is the one registry of structure types: its row for a
spec class lists every closed form the type has, and ``STRUCTURE_TYPES``,
the INI ``type`` name of each class, is derived from it.
"""

import math
from typing import Callable, NamedTuple, Optional

from .constants import EPS0
from .geometry import (Coplanar, DielectricStack, ParallelPlate,
                       ParticipationBreakdown, Ribbon, RibbonWithGround,
                       StraightWire, TaperedWire,
                       MAX_TAPER_SLOPE, interface_weights)
from .special import ck_ratio, ellipk, ellipkp_modulus

#: default corner corrections for a square film edge
C_M_DEFAULT = 5.0
C_S_DEFAULT = 1.6

#: the metal corner constant split into its air and substrate sides (the
#: film sits on the substrate, so the air side collects both top corners
#: plus the outside of the bottom corner); ``participation`` uses them in
#: place of the plain U/2 split when the corner split is requested
C_M_AIR = 1.5 * C_M_DEFAULT
C_M_SUBSTRATE = 0.5 * C_M_DEFAULT

#: corner-field power-law exponent for a 90 degree metal corner
CORNER_EXPONENT = -1.0 / 3.0


class SurfaceEnergyPair(NamedTuple):
    """Metal/substrate surface energies normalized as U/(eps0 V^2)."""

    u_metal: float
    u_substrate: float


# --------------------------------------------------------------------------
# flat coax (the thickness-correction reference geometry)

def flat_coax_center_field(rbar: float, R: float) -> float:
    """E_f/V of a flat coax: thin film of width 2*rbar inside radius R."""
    if R <= 2 * rbar:
        raise ValueError("flat coax formula needs R > 2*rbar")
    return 1.0 / (rbar * math.log(2.0 * R / rbar))


def flat_coax_field(x: float, rbar: float, R: float) -> float:
    """|E(x)|/V of the flat coax along the film plane (metal or substrate)."""
    ef = flat_coax_center_field(rbar, R)
    if abs(x) == rbar:
        raise ValueError("field diverges at the film edge x = +-rbar")
    return ef * math.sqrt(rbar / abs(rbar + x)) \
        * math.sqrt(rbar / abs(rbar - x))


def flat_coax_energies(rbar: float, R: float, t: float,
                       c_m: float = C_M_DEFAULT,
                       c_s: float = C_S_DEFAULT) -> SurfaceEnergyPair:
    """Flat-coax surface energies per unit length, edge cutoff t/2."""
    if t >= rbar:
        raise ValueError("flat coax energies need t < rbar")
    ef = flat_coax_center_field(rbar, R)
    log_term = math.log(4.0 * rbar / t)
    if log_term + min(c_m, c_s) <= 0:
        raise ValueError("cutoff degenerate: ln(4*rbar/t) + c must be > 0")
    u_m = ef**2 * rbar * (log_term + c_m)
    u_s = ef**2 * (rbar / 2.0) * (log_term + c_s - 2.0 * rbar / R)
    return SurfaceEnergyPair(u_m, u_s)


# --------------------------------------------------------------------------
# conformal section integrals shared by the strip capacitors

def _edge_log(x: float, t: float) -> float:
    """ln(4x/t), the edge logarithm of a film edge at x, also where 4x/t
    overflows."""
    q = 4 * x / t
    return math.log(q) if q < math.inf \
        else math.log(4.0) + math.log(x) - math.log(t)


def surface_sum(a: float, b: float, t: float, c: float) -> float:
    """Dimensionless surface integral S_a(c); S_a(c)/a is the center integral
    with the corner correction c added to each edge logarithm."""
    gap_log = math.log((b - a) / (b + a))
    return ((_edge_log(a, t) + c + gap_log)
            + (a / b) * (_edge_log(b, t) + c + gap_log)) \
        / (2.0 * (1.0 - a * a / (b * b)))


def surface_sum_outer(b: float, c_gnd: float, t: float, c: float) -> float:
    """Outer-metal integral S_ao of a coplanar section between b and c_gnd."""
    gap_log = math.log((c_gnd - b) / (c_gnd + b))
    return (gap_log + (b / c_gnd) * (_edge_log(c_gnd, t) + c)) \
        / (2.0 * (1.0 - b * b / (c_gnd * c_gnd)))


def strip_field(x, a: float, b: float):
    """|E(x)|/V of the conformal ribbon solution for a differential volt,
    normalized by 1/(2K).  Valid on all three sections of the plane.
    """
    import numpy as np
    mod = a / b                 # the modulus, squared as in ck_ratio
    k = ellipk(mod * mod)
    x = np.asarray(x, dtype=float)
    denom = np.abs((x * x - a * a) * (x * x - b * b))
    if np.any(denom == 0.0):
        raise ValueError("field diverges at the strip edges")
    out = (0.5 / k) * b / np.sqrt(denom)
    return out if out.shape else float(out)


# --------------------------------------------------------------------------
# the structures

def parallel_plate_capacitance(spec: ParallelPlate,
                               stack: DielectricStack) -> float:
    # a vacuum gap, so the stack does not enter; the 1/2 is the series pair
    # of the differential design
    return 0.5 * EPS0 * spec.length * spec.w / spec.s


def _eps_eff(stack: DielectricStack) -> float:
    """Effective permittivity of a film on the substrate, half in air."""
    return 0.5 * (stack.eps_s + 1.0)


def ribbon_capacitance(spec: Ribbon, stack: DielectricStack) -> float:
    return _eps_eff(stack) * EPS0 * spec.length / ck_ratio(spec.a / spec.b)


def coplanar_capacitance(spec: Coplanar, stack: DielectricStack) -> float:
    c = 2.0 * _eps_eff(stack) * EPS0 * spec.length \
        * ck_ratio(spec.a / spec.b)
    return 2.0 * c if spec.single_ended else c


def ribbon_ground_capacitance(spec: RibbonWithGround, stack: DielectricStack) -> float:
    base = ribbon_capacitance(Ribbon(spec.a, spec.b, spec.length, spec.t), stack)
    return base / (1.0 - (spec.edge_point / spec.c) ** 2) ** 0.23


def straight_wire_capacitance(spec: StraightWire, stack: DielectricStack) -> float:
    return 4.1 * _eps_eff(stack) * EPS0 * spec.d \
        / math.log(spec.d / spec.half_width)


def tapered_wire_capacitance(spec: TaperedWire, stack: DielectricStack) -> float:
    return 3.5 * _eps_eff(stack) * EPS0 * math.sqrt(spec.slope) * spec.d


def ribbon_energies(spec: Ribbon, c_m: float,
                    c_s: float = C_S_DEFAULT) -> SurfaceEnergyPair:
    """Differential ribbon surface energies over its length."""
    a, b, t, ell = spec.a, spec.b, spec.t, spec.length
    mod = a / b                 # the modulus, squared as in ck_ratio
    k = ellipk(mod * mod)
    return SurfaceEnergyPair(ell * surface_sum(a, b, t, c_m) / (2.0 * k * k * a),
                             ell * surface_sum(a, b, t, c_s) / (4.0 * k * k * a))


def coplanar_energies(spec: Coplanar, c_m: float) -> SurfaceEnergyPair:
    """Differential (or single-ended) coplanar surface energies."""
    a, b, t, ell = spec.a, spec.b, spec.t, spec.length
    kp = ellipkp_modulus(a, b)
    mult = 2.0 if spec.single_ended else 1.0
    return SurfaceEnergyPair(
        mult * ell * surface_sum(a, b, t, c_m) / (kp * kp * a),
        mult * ell * surface_sum(a, b, t, C_S_DEFAULT) / (2.0 * kp * kp * a))


def ribbon_ground_energies(spec: RibbonWithGround, c_m: float,
                           c_s: float = C_S_DEFAULT) -> SurfaceEnergyPair:
    """Fitted ribbon-with-ground surface energies over its length.

    Fit model: ribbon-like inner term plus a coplanar-like term between the
    ribbon outer edge b and the ground at c.
    """
    a, b, c, t, ell = spec.a, spec.b, spec.c, spec.t, spec.length
    mod = a / b                 # the modulus, squared as in ck_ratio
    k = ellipk(mod * mod)
    kp_bc = ellipkp_modulus(b, c)
    u_m = (0.98 * surface_sum(a, b, t, c_m) / (2 * k * k * a)
           + 1.70 * surface_sum_outer(b, c, t, c_m) / (2 * kp_bc * kp_bc * b))
    u_s = (0.95 * surface_sum(a, b, t, c_s) / (4 * k * k * a)
           + 0.80 * surface_sum(b, c, t, c_s) / (4 * kp_bc * kp_bc * b))
    return SurfaceEnergyPair(ell * u_m, ell * u_s)


# --------------------------------------------------------------------------
# junction wires

def wire_field(y, half_width, flat: bool):
    """Envelope field |E(y)|/V of a differential junction wire.

    flat=True is the thin-film form with ln(4y/rbar); False the round-wire
    form with ln(2y/r).  half_width may be an array for tapered profiles.
    """
    import numpy as np
    y = np.asarray(y, dtype=float)
    r = np.broadcast_to(np.asarray(half_width, dtype=float), y.shape)
    factor = 4.0 if flat else 2.0
    out = 0.5 / (r * np.log(factor * y / r))
    return out if out.shape else float(out)


def straight_wire_energy_quadrature(rbar: float, d: float, t: float) -> float:
    """U/(eps0 V^2) of both straight wires by direct quadrature from 2*rbar,
    at the corner constant C_M_DEFAULT."""
    # imported on first use: analyze never integrates, and its start-up
    # does not load the module
    from ._quadpack import quad
    log = math.log
    coef = (log(4 * rbar / t) + C_M_DEFAULT) / (2.0 * rbar)
    return coef * quad(lambda ys: [1.0 / log(4.0 * y / rbar) ** 2
                                   for y in ys],
                       2 * rbar, d, 200)


def taper_halfwidth(y, r0: float, slope: float, t: float):
    """Taper profile r(y) = max(r0, (y - 5t)*slope)."""
    import numpy as np
    y = np.asarray(y, dtype=float)
    out = np.maximum(r0, (y - 5.0 * t) * slope)
    return out if out.shape else float(out)


def tapered_wire_energy_quadrature(r0: float, slope: float, d: float,
                                   t: float) -> float:
    """U/(eps0 V^2) of both tapered wires at the corner constant
    C_M_DEFAULT; the line integral starts at y = 5t.

    The integrand is 2 (ln(4r/t) + C_M) / (4r ln(4y/r)^2) at the half-width
    r = max(r0, (y - 5t) S), evaluated over each 21-node panel that
    ``_quadpack.quad`` hands it.  Its per-quadrature constants, 5t and, for
    the nodes below the kink where r = r0, the numerator
    2 (ln(4 r0/t) + C_M) and 4 r0, are computed once per call, as the same
    floats in the same operation order as at each node, so every value is
    bit for bit that of the per-node form.

    Raises ValueError when the pole of 1/ln(4y/r0)^2 at y = r0/4 lies in
    [5t, d], that is for r0 >= 20t (and r0 <= 4d): the integral diverges.
    """
    if 5.0 * t <= r0 / 4.0 <= d:
        raise ValueError(
            f"tapered-wire energy diverges: the integrand has a pole at "
            f"y = r0/4 = {r0 / 4.0:.4g} m inside [5t, d]; need r0 < 20*t")
    log = math.log
    c_m = C_M_DEFAULT
    five_t = 5.0 * t
    top_r0 = 2.0 * (log(4 * r0 / t) + c_m)
    four_r0 = 4.0 * r0

    def integrand(ys: list[float]) -> list[float]:
        out = []
        for y in ys:
            r = (y - five_t) * slope
            if r > r0:      # where max(r0, r) returns r, NaN included
                out.append(2.0 * (log(4.0 * r / t) + c_m)
                           / (4.0 * r * log(4.0 * y / r) ** 2))
            else:
                out.append(top_r0 / (four_r0 * log(4.0 * y / r0) ** 2))
        return out

    y_kink = five_t + r0 / slope
    pts = [y_kink] if five_t < y_kink < d else None
    from ._quadpack import quad
    return quad(integrand, five_t, d, 400, pts)


def tapered_wire_energy_fit(r0: float, slope: float, d: float, t: float,
                            c: float = C_M_DEFAULT) -> float:
    """Closed-form metal energy U/(eps0 V^2) of both tapered wires."""
    return 0.68 * (math.log(d / r0) / slope) * (math.log(4 * slope * d / t) + c) \
        / math.log(4.0 / slope) ** 2


def straight_wire_energy_fit(rbar: float, d: float, t: float,
                             c: float = C_M_DEFAULT) -> float:
    """Closed-form metal energy U/(eps0 V^2) of both straight wires."""
    return 0.5 * (math.log(4 * rbar / t) + c) * (d / rbar) / math.log(d / rbar) ** 2


def straight_wire_energies(spec: StraightWire, c_m: float) -> SurfaceEnergyPair:
    """Straight junction-wire surface energies (fit formulas)."""
    rb, d, t = spec.half_width, spec.d, spec.t
    return SurfaceEnergyPair(
        straight_wire_energy_fit(rb, d, t, c_m),
        0.25 * (math.log(4 * rb / t) + C_S_DEFAULT) * (d / rb)
        / math.log(d / rb) ** 2)


def tapered_wire_energies(spec: TaperedWire, c_m: float) -> SurfaceEnergyPair:
    """Tapered junction-wire surface energies (fit formulas)."""
    r0, s, d, t = spec.r0, spec.slope, spec.d, spec.t
    return SurfaceEnergyPair(
        tapered_wire_energy_fit(r0, s, d, t, c_m),
        0.29 * (math.log(d / r0) / s) * (math.log(4 * s * d / t) + C_S_DEFAULT)
        / math.log(4.0 / s) ** 2)


# --------------------------------------------------------------------------
# taper optimization

def linspace(start: float, stop: float, num: int) -> list[float]:
    """num >= 1 evenly spaced floats from start to stop, bit for bit those
    of ``numpy.linspace(start, stop, num)``: its operations in its order."""
    div = num - 1
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        # a subnormal span, where the step underflows
        out = [i / div * delta + start for i in range(num)]
    else:
        out = [i * step + start for i in range(num)]
    out[-1] = stop
    return out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f: Callable[[float], float], lo: float,
                       hi: float) -> tuple[float, float]:
    """Golden-section minimizer for a unimodal scalar function, down to a
    bracket 1e-4 of its bound."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > 1e-4 * max(abs(a), abs(b), 1e-30):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


class TaperOptimum(NamedTuple):
    slope: float
    energy: float               # U/(eps0 V^2) at the optimum
    slopes: tuple[float, ...]   # sampled curve
    energies: tuple[float, ...]


def optimize_taper_slope(r0: float, d: float, t: float) -> TaperOptimum:
    """Minimize the numerically integrated tapered metal line energy over
    S, sampled at 41 slopes from 0.05 to the slope cap and then refined."""
    if d <= 5 * t:
        raise ValueError("taper optimization needs d > 5*t")
    f = lambda s: tapered_wire_energy_quadrature(r0, s, d, t)
    slopes = tuple(linspace(0.05, MAX_TAPER_SLOPE, 41))
    energies = tuple(f(s) for s in slopes)
    # refine around the first best sample, honoring the slope cap
    i = energies.index(min(energies))
    lo = slopes[max(i - 1, 0)]
    hi = slopes[min(i + 1, len(slopes) - 1)]
    s_opt, u_opt = golden_section_min(f, lo, hi)
    if u_opt > energies[i]:
        s_opt, u_opt = slopes[i], energies[i]
    return TaperOptimum(s_opt, u_opt, slopes, energies)


# --------------------------------------------------------------------------
# dispatch

class ClosedForms(NamedTuple):
    """The closed forms of one structure type.

    capacitance(spec, stack) and energies(spec, c_m); a plate pair has no
    film edges and only a metal-air interface, so it has no energies, and
    ``participation`` states its metal-air term.  A junction-wire type
    also has wire_energy(spec), the metal energy U/(eps0 V^2) of the wire
    pair by quadrature.
    """

    capacitance: Callable
    energies: Optional[Callable]
    wire_energy: Optional[Callable] = None


#: spec class -> its closed forms; a new structure type is its spec class
#: and one row here.  The wire quadratures are looked up when called, so a
#: wrapper installed on this module sees these calls too.
CLOSED_FORMS = {
    ParallelPlate: ClosedForms(parallel_plate_capacitance, None),
    Ribbon: ClosedForms(ribbon_capacitance, ribbon_energies),
    Coplanar: ClosedForms(coplanar_capacitance, coplanar_energies),
    RibbonWithGround: ClosedForms(ribbon_ground_capacitance,
                                  ribbon_ground_energies),
    StraightWire: ClosedForms(
        straight_wire_capacitance, straight_wire_energies,
        lambda w: straight_wire_energy_quadrature(w.r0, w.d, w.t)),
    TaperedWire: ClosedForms(
        tapered_wire_capacitance, tapered_wire_energies,
        lambda w: tapered_wire_energy_quadrature(w.r0, w.slope, w.d, w.t)),
}

#: INI ``type`` name -> spec class; a spec's default label is its type name
STRUCTURE_TYPES = {cls._field_defaults["label"]: cls for cls in CLOSED_FORMS}


def _closed_forms(spec) -> ClosedForms:
    try:
        return CLOSED_FORMS[type(spec)]
    except KeyError:
        raise TypeError(f"unknown structure type {type(spec)!r}") from None


def capacitance(spec, stack: DielectricStack) -> float:
    """Capacitance of any structure (SI farads)."""
    return _closed_forms(spec).capacitance(spec, stack)


def participation(spec, stack: DielectricStack, length: float,
                  corner_split: bool = False) -> ParticipationBreakdown:
    """Participation breakdown of any structure at a shared design length.

    Metal-air and metal-substrate each take the structure's metal energy,
    substrate-air twice its substrate energy, each times its dielectric
    weight and oxide thickness over the length.  With corner_split the
    metal energy is taken at C_M_AIR and C_M_SUBSTRATE instead of at
    C_M_DEFAULT on both.  The loss tangent is
    p_ma*tan_ma + p_ms*tan_ms + p_sa*tan_sa.
    """
    forms = _closed_forms(spec)
    energies = forms.energies
    w_ma, w_ms, w_sa = interface_weights(stack)
    if energies is None:
        p_ma = w_ma * stack.t_ma * spec.length * spec.w / (spec.s**2 * length)
        p_ms = p_sa = 0.0
    else:
        if corner_split:
            pair = energies(spec, C_M_AIR)
            s_ms = energies(spec, C_M_SUBSTRATE).u_metal
        else:
            pair = energies(spec, C_M_DEFAULT)
            s_ms = pair.u_metal
        p_ma = w_ma * stack.t_ma * pair.u_metal / length
        p_ms = w_ms * stack.t_ms * s_ms / length
        p_sa = w_sa * stack.t_sa * (2.0 * pair.u_substrate) / length
    return ParticipationBreakdown(
        spec.label, p_ma, p_ms, p_sa, forms.capacitance(spec, stack),
        p_ma * stack.tan_ma + p_ms * stack.tan_ms + p_sa * stack.tan_sa)
