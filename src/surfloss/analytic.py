"""Closed-form fields, surface energies, capacitances, and participations.

Surface energies are reported normalized as u = U/(eps0 V^2): per unit
length for the translationally invariant capacitor structures, total for
the junction wires.  The metal-air and metal-substrate interfaces each see
half of a structure's metal surface energy; the substrate-air interface
sees the full substrate-line energy.  That split is centralized in
_breakdown_from_energies, together with the optional corner-split
refinement that re-weights the air/substrate sides of the film corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import EPS0
from .geometry import (Coplanar, DielectricStack, ParallelPlate,
                       ParticipationBreakdown, Ribbon, RibbonWithGround,
                       StraightWire, StructureSpec, TaperedWire,
                       MAX_TAPER_SLOPE, interface_weights)
from .special import ck_ratio, ellipk, ellipkp

#: default corner corrections for a square film edge
C_M_DEFAULT = 5.0
C_S_DEFAULT = 1.6

#: corner-field power-law exponent for a 90 degree metal corner
CORNER_EXPONENT = -1.0 / 3.0


@dataclass(frozen=True)
class SurfaceEnergyPair:
    """Metal/substrate surface energies normalized as U/(eps0 V^2)."""

    u_metal: float
    u_substrate: float


def corner_split_mode(c_m: float) -> tuple[float, float]:
    """Refined split of the metal corner constant into air/substrate sides.

    The film sits on the substrate, so the air side collects both top
    corners plus the outside of the bottom corner; used in place of the
    plain U/2 split when requested.
    """
    if c_m < 0:
        raise ValueError("c_m must be >= 0")
    return 1.5 * c_m, 0.5 * c_m


def _breakdown_from_energies(label: str, stack: DielectricStack, length: float,
                             u_metal_of_c: Callable[[float], float],
                             u_substrate: float, cap: float,
                             c_m: float = C_M_DEFAULT,
                             corner_split: bool = False) -> ParticipationBreakdown:
    """Assemble p_MA/p_MS/p_SA from normalized surface energies.

    s_i below is the bare geometry integral of |E0/V|^2 over interface i;
    the MA and MS brackets each take U/2, SA takes the full substrate U.
    """
    if corner_split:
        c_air, c_sub = corner_split_mode(c_m)
        s_ma = u_metal_of_c(c_air)
        s_ms = u_metal_of_c(c_sub)
    else:
        s_ma = s_ms = u_metal_of_c(c_m)
    s_sa = 2.0 * u_substrate
    w_ma, w_ms, w_sa = interface_weights(stack)
    return ParticipationBreakdown(
        label=label,
        p_ma=w_ma * stack.t_ma * s_ma / length,
        p_ms=w_ms * stack.t_ms * s_ms / length,
        p_sa=w_sa * stack.t_sa * s_sa / length,
        capacitance=cap,
    )


# --------------------------------------------------------------------------
# coax and flat coax (the thickness-correction reference geometries)

def coax_fields_and_energies(r: float, R: float):
    """Round coax: center field and metal/substrate surface energies.

    Returns (E_c/V, SurfaceEnergyPair).
    """
    if not 0 < r < R:
        raise ValueError(f"coax requires 0 < r < R, got r={r}, R={R}")
    e_c = 1.0 / (r * math.log(R / r))        # |E| at the inner surface, per volt
    u_m = e_c**2 * r * math.pi
    u_s = e_c**2 * r * (1.0 - r / R)
    return e_c, SurfaceEnergyPair(u_m, u_s)


def flat_coax_center_field(rbar: float, R: float) -> float:
    """E_f/V of a flat coax: thin film of width 2*rbar inside radius R."""
    if R <= 2 * rbar:
        raise ValueError("flat coax formula needs R > 2*rbar")
    return 1.0 / (rbar * math.log(2.0 * R / rbar))


def flat_coax_field(x, rbar: float, R: float):
    """|E(x)|/V of the flat coax along the film plane (metal or substrate)."""
    ef = flat_coax_center_field(rbar, R)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(np.abs(x) - rbar) == 0.0):
        raise ValueError("field diverges at the film edge x = +-rbar")
    out = ef * np.sqrt(rbar / np.abs(rbar + x)) * np.sqrt(rbar / np.abs(rbar - x))
    return out if out.shape else float(out)


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


def corner_field(e_at_cutoff: float, r_c: float, t: float) -> float:
    """Corner field below the t/2 matching point, |E| ~ r_c^(-1/3)."""
    if not 0 < r_c <= t / 2:
        raise ValueError("corner field is defined for 0 < r_c <= t/2")
    return e_at_cutoff * (r_c / (t / 2.0)) ** CORNER_EXPONENT


def corner_energy_constant(p: float = CORNER_EXPONENT) -> float:
    """Constant replacing the corner bands in the metal energy; 6 at p=-1/3."""
    return 2.0 / (1.0 + 2.0 * p)


@dataclass(frozen=True)
class EdgeEnhancement:
    ratio: float          # flat-film metal energy over round-coax metal energy
    log_term: float       # ln(4*rbar/t)
    corner_share: float   # c_m / (ln + c_m)


def edge_enhancement(rbar: float, t: float, c_m: float = C_M_DEFAULT) -> EdgeEnhancement:
    """How much extra metal surface energy a flat film has over a round wire."""
    log_term = math.log(4.0 * rbar / t)
    bracket = log_term + c_m
    return EdgeEnhancement(bracket / math.pi, log_term, c_m / bracket)


# --------------------------------------------------------------------------
# conformal section integrals shared by the strip capacitors

def ribbon_sections(a: float, b: float, t: float) -> tuple[float, float, float]:
    """(S_i, S_c, S_o): inner / center / outer integrals of the strip field.

    Logarithmic edge divergences are cut off at t/2; S_c = S_i + S_o holds
    exactly in these forms.
    """
    gap_log = math.log((b - a) / (b + a))
    denom = 2.0 * (1.0 - a * a / (b * b))
    s_i = (math.log(4 * a / t) / a + gap_log / b) / denom
    s_o = (gap_log / a + math.log(4 * b / t) / b) / denom
    s_c = ((math.log(4 * a / t) + gap_log) / a
           + (math.log(4 * b / t) + gap_log) / b) / denom
    return s_i, s_c, s_o


def surface_sum(a: float, b: float, t: float, c: float) -> float:
    """Dimensionless surface integral S_a(c); S_a(c)/a is the center integral
    with the corner correction c added to each edge logarithm."""
    gap_log = math.log((b - a) / (b + a))
    return ((math.log(4 * a / t) + c + gap_log)
            + (a / b) * (math.log(4 * b / t) + c + gap_log)) \
        / (2.0 * (1.0 - a * a / (b * b)))


def surface_sum_outer(b: float, c_gnd: float, t: float, c: float) -> float:
    """Outer-metal integral S_ao of a coplanar section between b and c_gnd."""
    gap_log = math.log((c_gnd - b) / (c_gnd + b))
    return (gap_log + (b / c_gnd) * (math.log(4 * c_gnd / t) + c)) \
        / (2.0 * (1.0 - b * b / (c_gnd * c_gnd)))


def strip_field(x, a: float, b: float, kprime: bool = False):
    """|E(x)|/V of the conformal strip solution for a differential volt.

    kprime=False gives the ribbon normalization 1/(2K); True the coplanar
    1/(2K').  Valid on all three sections of the plane.
    """
    k = ellipk(1.0 - (a / b) ** 2) if kprime else ellipk((a / b) ** 2)
    x = np.asarray(x, dtype=float)
    denom = np.abs((x * x - a * a) * (x * x - b * b))
    if np.any(denom == 0.0):
        raise ValueError("field diverges at the strip edges")
    out = (0.5 / k) * b / np.sqrt(denom)
    return out if out.shape else float(out)


# --------------------------------------------------------------------------
# the structures

def parallel_plate_capacitance(spec: ParallelPlate) -> float:
    # the 1/2 is the series pair of the differential design
    return 0.5 * EPS0 * spec.length * spec.w / spec.s


def ribbon_capacitance(spec: Ribbon, stack: DielectricStack) -> float:
    eps_eff = 0.5 * (stack.eps_s + 1.0)
    return eps_eff * EPS0 * spec.length / ck_ratio(spec.a / spec.b)


def coplanar_capacitance(spec: Coplanar, stack: DielectricStack) -> float:
    eps_eff = 0.5 * (stack.eps_s + 1.0)
    c = 2.0 * eps_eff * EPS0 * spec.length * ck_ratio(spec.a / spec.b)
    return 2.0 * c if spec.single_ended else c


def ribbon_ground_capacitance(spec: RibbonWithGround, stack: DielectricStack) -> float:
    base = ribbon_capacitance(Ribbon(spec.a, spec.b, spec.length, spec.t), stack)
    x_e = spec.b - 0.15 * (spec.b - 1.2 * spec.a)
    return base / (1.0 - (x_e / spec.c) ** 2) ** 0.23


def straight_wire_capacitance(spec: StraightWire, stack: DielectricStack) -> float:
    eps_eff = 0.5 * (stack.eps_s + 1.0)
    return 4.1 * eps_eff * EPS0 * spec.d / math.log(spec.d / spec.half_width)


def tapered_wire_capacitance(spec: TaperedWire, stack: DielectricStack) -> float:
    eps_eff = 0.5 * (stack.eps_s + 1.0)
    return 3.5 * eps_eff * EPS0 * math.sqrt(spec.slope) * spec.d


def parallel_plate(spec: ParallelPlate, stack: DielectricStack,
                   length: float) -> ParticipationBreakdown:
    """Vacuum-gap plate pair: only the metal-air interface participates."""
    w_ma, _, _ = interface_weights(stack)
    p_ma = w_ma * stack.t_ma * spec.length * spec.w / (spec.s**2 * length)
    return ParticipationBreakdown(spec.label, p_ma, 0.0, 0.0,
                                  parallel_plate_capacitance(spec))


def ribbon(spec: Ribbon, stack: DielectricStack, length: float,
           corner_split: bool = False, c_m: float = C_M_DEFAULT,
           c_s: float = C_S_DEFAULT) -> ParticipationBreakdown:
    """Differential ribbon participations."""
    a, b, t, ell = spec.a, spec.b, spec.t, spec.length
    k = ellipk((a / b) ** 2)
    u_m = lambda c: ell * surface_sum(a, b, t, c) / (2.0 * k * k * a)
    u_s = ell * surface_sum(a, b, t, c_s) / (4.0 * k * k * a)
    return _breakdown_from_energies(spec.label, stack, length, u_m, u_s,
                                    ribbon_capacitance(spec, stack),
                                    c_m=c_m, corner_split=corner_split)


def ribbon_self_capacitance_participation(spec: Ribbon, stack: DielectricStack,
                                          corner_split: bool = False,
                                          c_m: float = C_M_DEFAULT,
                                          c_s: float = C_S_DEFAULT) -> ParticipationBreakdown:
    """Participations when the ribbon supplies all the qubit capacitance.

    Equivalent to evaluating at L = C_ribbon/eps0; the K*K' geometric-mean
    form then appears in every interface.
    """
    length = ribbon_capacitance(spec, stack) / EPS0
    return ribbon(spec, stack, length, corner_split=corner_split,
                  c_m=c_m, c_s=c_s)


def coplanar(spec: Coplanar, stack: DielectricStack, length: float,
             corner_split: bool = False, c_m: float = C_M_DEFAULT,
             c_s: float = C_S_DEFAULT) -> ParticipationBreakdown:
    """Differential (or single-ended) coplanar participations."""
    a, b, t, ell = spec.a, spec.b, spec.t, spec.length
    kp = ellipkp((a / b) ** 2)
    mult = 2.0 if spec.single_ended else 1.0
    u_m = lambda c: mult * ell * surface_sum(a, b, t, c) / (kp * kp * a)
    u_s = mult * ell * surface_sum(a, b, t, c_s) / (2.0 * kp * kp * a)
    return _breakdown_from_energies(spec.label, stack, length, u_m, u_s,
                                    coplanar_capacitance(spec, stack),
                                    c_m=c_m, corner_split=corner_split)


def ribbon_ground_energies(a: float, b: float, c: float, t: float,
                           c_m: float = C_M_DEFAULT,
                           c_s: float = C_S_DEFAULT) -> SurfaceEnergyPair:
    """Fitted ribbon-with-ground surface energies per unit length.

    Fit model: ribbon-like inner term plus a coplanar-like term between the
    ribbon outer edge b and the ground at c.
    """
    k = ellipk((a / b) ** 2)
    kp_bc = ellipkp((b / c) ** 2)
    u_m = (0.98 * surface_sum(a, b, t, c_m) / (2 * k * k * a)
           + 1.70 * surface_sum_outer(b, c, t, c_m) / (2 * kp_bc * kp_bc * b))
    u_s = (0.95 * surface_sum(a, b, t, c_s) / (4 * k * k * a)
           + 0.80 * surface_sum(b, c, t, c_s) / (4 * kp_bc * kp_bc * b))
    return SurfaceEnergyPair(u_m, u_s)


def ribbon_with_ground(spec: RibbonWithGround, stack: DielectricStack,
                       length: float, corner_split: bool = False,
                       c_m: float = C_M_DEFAULT,
                       c_s: float = C_S_DEFAULT) -> ParticipationBreakdown:
    """Fitted ribbon-with-ground participations."""
    a, b, c, t, ell = spec.a, spec.b, spec.c, spec.t, spec.length
    u_m = lambda cc: ell * ribbon_ground_energies(a, b, c, t, cc, c_s).u_metal
    u_s = ell * ribbon_ground_energies(a, b, c, t, c_m, c_s).u_substrate
    return _breakdown_from_energies(spec.label, stack, length, u_m, u_s,
                                    ribbon_ground_capacitance(spec, stack),
                                    c_m=c_m, corner_split=corner_split)


# --------------------------------------------------------------------------
# junction wires

def wire_field(y, half_width, flat: bool = True):
    """Envelope field |E(y)|/V of a differential junction wire.

    flat=True is the thin-film form with ln(4y/rbar); False the round-wire
    form with ln(2y/r).  half_width may be an array for tapered profiles.
    """
    y = np.asarray(y, dtype=float)
    r = np.broadcast_to(np.asarray(half_width, dtype=float), y.shape)
    factor = 4.0 if flat else 2.0
    out = 0.5 / (r * np.log(factor * y / r))
    return out if out.shape else float(out)


def _quad(f, a: float, b: float, **kwargs) -> float:
    """scipy's quad, raising ValueError where it would warn that the
    integral did not converge."""
    from scipy.integrate import quad
    val, _, _, *msg = quad(f, a, b, full_output=1, **kwargs)
    if msg:
        raise ValueError("wire line-energy quadrature did not converge: "
                         + msg[0].splitlines()[0])
    return val


def straight_wire_energy_quadrature(rbar: float, d: float, t: float,
                                    c: float = C_M_DEFAULT) -> float:
    """U/(eps0 V^2) of both straight wires by direct quadrature from 2*rbar."""
    coef = (math.log(4 * rbar / t) + c) / (2.0 * rbar)
    return coef * _quad(lambda y: 1.0 / math.log(4 * y / rbar) ** 2,
                        2 * rbar, d, limit=200)


def taper_halfwidth(y, r0: float, slope: float, t: float):
    """Taper profile r(y) = max(r0, (y - 5t)*slope)."""
    y = np.asarray(y, dtype=float)
    out = np.maximum(r0, (y - 5.0 * t) * slope)
    return out if out.shape else float(out)


def tapered_wire_energy_quadrature(r0: float, slope: float, d: float, t: float,
                                   c: float = C_M_DEFAULT) -> float:
    """U/(eps0 V^2) of both tapered wires; the line integral starts at y = 5t.

    Raises ValueError when the pole of 1/ln(4y/r0)^2 at y = r0/4 lies in
    [5t, d], that is for r0 >= 20t (and r0 <= 4d): the integral diverges.
    """
    if 5.0 * t <= r0 / 4.0 <= d:
        raise ValueError(
            f"tapered-wire energy diverges: the integrand has a pole at "
            f"y = r0/4 = {r0 / 4.0:.4g} m inside [5t, d]; need r0 < 20*t")
    def integrand(y: float) -> float:
        r = max(r0, (y - 5.0 * t) * slope)
        return 2.0 * (math.log(4 * r / t) + c) / (4.0 * r * math.log(4 * y / r) ** 2)

    y_kink = 5.0 * t + r0 / slope
    pts = [y_kink] if 5.0 * t < y_kink < d else None
    return _quad(integrand, 5.0 * t, d, points=pts, limit=400)


def straight_wire(spec: StraightWire, stack: DielectricStack, length: float,
                  corner_split: bool = False, c_m: float = C_M_DEFAULT,
                  c_s: float = C_S_DEFAULT) -> ParticipationBreakdown:
    """Straight junction-wire participations (fit formulas)."""
    rb, d, t = spec.half_width, spec.d, spec.t
    u_m = lambda c: straight_wire_energy_fit(rb, d, t, c)
    u_s = 0.25 * (math.log(4 * rb / t) + c_s) * (d / rb) / math.log(d / rb) ** 2
    return _breakdown_from_energies(spec.label, stack, length, u_m, u_s,
                                    straight_wire_capacitance(spec, stack),
                                    c_m=c_m, corner_split=corner_split)


def tapered_wire(spec: TaperedWire, stack: DielectricStack, length: float,
                 corner_split: bool = False, c_m: float = C_M_DEFAULT,
                 c_s: float = C_S_DEFAULT) -> ParticipationBreakdown:
    """Tapered junction-wire participations (fit formulas)."""
    r0, s, d, t = spec.r0, spec.slope, spec.d, spec.t
    u_m = lambda c: tapered_wire_energy_fit(r0, s, d, t, c)
    u_s = 0.29 * (math.log(d / r0) / s) * (math.log(4 * s * d / t) + c_s) \
        / math.log(4.0 / s) ** 2
    return _breakdown_from_energies(spec.label, stack, length, u_m, u_s,
                                    tapered_wire_capacitance(spec, stack),
                                    c_m=c_m, corner_split=corner_split)


def tapered_wire_energy_fit(r0: float, slope: float, d: float, t: float,
                            c: float = C_M_DEFAULT) -> float:
    """Closed-form metal energy U/(eps0 V^2) of both tapered wires."""
    return 0.68 * (math.log(d / r0) / slope) * (math.log(4 * slope * d / t) + c) \
        / math.log(4.0 / slope) ** 2


def straight_wire_energy_fit(rbar: float, d: float, t: float,
                             c: float = C_M_DEFAULT) -> float:
    """Closed-form metal energy U/(eps0 V^2) of both straight wires."""
    return 0.5 * (math.log(4 * rbar / t) + c) * (d / rbar) / math.log(d / rbar) ** 2


def wire_energy_crossover(r0: float, t: float, slope: float = 0.4,
                          c: float = C_M_DEFAULT) -> float:
    """Wire length d where the tapered closed-form energy drops below straight.

    Bracketed away from d ~ 5t where the taper model degenerates.
    """
    from scipy.optimize import brentq
    f = lambda d: straight_wire_energy_fit(r0, d, t, c) \
        - tapered_wire_energy_fit(r0, slope, d, t, c)
    lo, hi = 20.0 * max(t, r0), 1e5 * max(t, r0)
    return brentq(f, lo, hi)


# --------------------------------------------------------------------------
# taper optimization

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-4) -> tuple[float, float]:
    """Golden-section minimizer for a unimodal scalar function."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol * max(abs(a), abs(b), 1e-30):
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


@dataclass(frozen=True)
class TaperOptimum:
    slope: float
    energy: float               # U/(eps0 V^2) at the optimum
    slopes: np.ndarray          # sampled curve
    energies: np.ndarray


def optimize_taper_slope(r0: float, d: float, t: float,
                         c_m: float = C_M_DEFAULT) -> TaperOptimum:
    """Minimize the numerically integrated tapered metal line energy over
    S, sampled at 41 slopes from 0.05 to the slope cap and then refined."""
    if d <= 5 * t:
        raise ValueError("taper optimization needs d > 5*t")
    f = lambda s: tapered_wire_energy_quadrature(r0, s, d, t, c_m)
    slopes = np.linspace(0.05, MAX_TAPER_SLOPE, 41)
    energies = np.array([f(s) for s in slopes])
    # refine around the best sample, honoring the slope cap
    i = int(np.argmin(energies))
    lo = slopes[max(i - 1, 0)]
    hi = slopes[min(i + 1, len(slopes) - 1)]
    s_opt, u_opt = golden_section_min(f, lo, hi)
    if u_opt > energies[i]:
        s_opt, u_opt = float(slopes[i]), float(energies[i])
    return TaperOptimum(s_opt, u_opt, slopes, energies)


def optimal_halfwidth_ratio(y_over_t: float, c_m: float = C_M_DEFAULT) -> float:
    """r/y minimizing the wire line-energy integrand at fixed distance y."""
    f = lambda ratio: (math.log(4 * ratio * y_over_t) + c_m) \
        / (ratio * math.log(4.0 / ratio) ** 2)
    r, _ = golden_section_min(f, 1e-3, 0.95, tol=1e-10)
    return r


# --------------------------------------------------------------------------
# dispatch

#: closed forms of each structure type: spec class -> (capacitance(spec,
#: stack), participation(spec, stack, length, corner_split, c_m, c_s))
CLOSED_FORMS = {
    ParallelPlate: (lambda spec, stack: parallel_plate_capacitance(spec),
                    lambda spec, stack, length, *_:
                        parallel_plate(spec, stack, length)),
    Ribbon: (ribbon_capacitance, ribbon),
    Coplanar: (coplanar_capacitance, coplanar),
    RibbonWithGround: (ribbon_ground_capacitance, ribbon_with_ground),
    StraightWire: (straight_wire_capacitance, straight_wire),
    TaperedWire: (tapered_wire_capacitance, tapered_wire),
}

#: junction-wire types: spec class -> (quadrature, closed form) metal energy
#: U/(eps0 V^2) of the wire pair.  The energy functions are looked up when
#: called, so a wrapper installed on this module sees these calls too.
WIRE_ENERGIES = {
    StraightWire: lambda w: (straight_wire_energy_quadrature(w.r0, w.d, w.t),
                             straight_wire_energy_fit(w.r0, w.d, w.t)),
    TaperedWire: lambda w: (
        tapered_wire_energy_quadrature(w.r0, w.slope, w.d, w.t),
        tapered_wire_energy_fit(w.r0, w.slope, w.d, w.t)),
}


def _closed_forms(spec: StructureSpec):
    try:
        return CLOSED_FORMS[type(spec)]
    except KeyError:
        raise TypeError(f"unknown structure type {type(spec)!r}") from None


def capacitance(spec: StructureSpec, stack: DielectricStack) -> float:
    """Capacitance of any structure (SI farads)."""
    return _closed_forms(spec)[0](spec, stack)


def participation(spec: StructureSpec, stack: DielectricStack, length: float,
                  corner_split: bool = False,
                  c_m: float = C_M_DEFAULT, c_s: float = C_S_DEFAULT
                  ) -> ParticipationBreakdown:
    """Participation breakdown of any structure at a shared design length."""
    return _closed_forms(spec)[1](spec, stack, length, corner_split, c_m, c_s)
