"""Two-level-state observables: saturation curves, maximum splitting
spectra, and splitting densities.

Splitting sizes follow the measured junction-capacitor reference (74 MHz
at 2 pF with a 2 nm gap), scaled by 1/sqrt(C) and by the local field per
volt.  Spectra pair each surface patch's S_max with its area; sorting by
descending S_max and accumulating area gives the observability curve, with
one splitting expected per (0.5/um^2/GHz)^-1 of area-bandwidth product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import EPS0
from .geometry import Coplanar, DielectricStack, ParallelPlate, Ribbon
from .special import ellipk, ellipkp
from . import analytic

#: measured reference: S_max = 74 MHz at C = 2 pF across a 2 nm junction gap
REF_SPLITTING_HZ = 74e6
REF_CAPACITANCE = 2e-12
REF_GAP = 2e-9

#: density of the largest splittings (between S_max/3 and S_max)
DENSITY_PER_UM2_GHZ = 0.5

#: oxide thickness at which the splitting density above is quoted
DENSITY_REF_THICKNESS = 2e-9

#: observability threshold for the default 2 GHz measurement span
OBSERVABLE_AREA_UM2 = 1.0

#: fewest wire patches that give a converged spectrum
MIN_SECTIONS = 10_000


def saturate(e_sq, e_s: float):
    """TLS-saturated field square: E^2 -> E^2/sqrt(1 + E^2/E_s^2)."""
    if e_s <= 0:
        raise ValueError("saturation field must be > 0")
    e_sq = np.asarray(e_sq, dtype=float)
    out = e_sq / np.sqrt(1.0 + e_sq / e_s**2)
    return out if out.shape else float(out)


def s_max_prefactor(capacitance: float) -> float:
    """Splitting per unit (E/V) in Hz*m at a given qubit capacitance."""
    if capacitance <= 0:
        raise ValueError("capacitance must be > 0")
    return REF_SPLITTING_HZ * math.sqrt(REF_CAPACITANCE / capacitance) * REF_GAP


def s_max(e_over_v: float, capacitance: float) -> float:
    """Maximum splitting (Hz) for a TLS sitting in field e_over_v [1/m]."""
    return s_max_prefactor(capacitance) * e_over_v


@dataclass(frozen=True)
class TlsSpectrum:
    """Descending splitting sizes vs cumulative effective area."""

    s_hz: np.ndarray          # descending
    area_um2: np.ndarray      # increasing
    label: str = ""

    def area_at(self, s: float) -> float:
        """Cumulative area carrying splittings of at least s."""
        if not (self.s_hz[-1] <= s <= self.s_hz[0]):
            raise ValueError(f"splitting {s} Hz outside the tabulated range")
        return float(np.interp(-s, -self.s_hz, self.area_um2))

    def s_at_area(self, area: float) -> float:
        """Splitting size at a given cumulative area."""
        if not (self.area_um2[0] <= area <= self.area_um2[-1]):
            raise ValueError(f"area {area} um^2 outside the tabulated range")
        return float(np.interp(area, self.area_um2, self.s_hz))

    def s_at_spacing(self, spacing_hz: float) -> float:
        """Splitting size at which the average spectral spacing equals spacing_hz."""
        area = 1.0 / (DENSITY_PER_UM2_GHZ * spacing_hz / 1e9)
        return self.s_at_area(area)


def splitting_density(spectrum: TlsSpectrum, s1: float, s2: float) -> float:
    """Expected splittings per GHz with sizes between s1 and s2 (s1 < s2)."""
    if not s1 < s2:
        raise ValueError("need s1 < s2")
    a1 = spectrum.area_at(s1)
    a2 = spectrum.area_at(s2)
    return DENSITY_PER_UM2_GHZ * abs(a1 - a2)


def _spectrum_from_patches(s_values, areas_um2, label) -> TlsSpectrum:
    order = np.argsort(-np.asarray(s_values))
    s_sorted = np.asarray(s_values)[order]
    a_sorted = np.cumsum(np.asarray(areas_um2)[order])
    return TlsSpectrum(s_sorted, a_sorted, label)


# --------------------------------------------------------------------------

def ribbon_tls_profile(spec: Ribbon, stack: DielectricStack,
                       capacitance: float, n: int = 4000) -> TlsSpectrum:
    """S_max map of the ribbon metal-substrate interface near the inner edge.

    The field is the conformal strip solution down to the half-thickness
    matching point and the corner power law below; the effective area is
    r_c times both electrode lengths, scaled by the oxide thickness.
    """
    a, b, t, ell = spec.a, spec.b, spec.t, spec.length
    weight = stack.eps_s / stack.eps_ms
    pre = s_max_prefactor(capacitance)
    area_per_m = 2.0 * ell * (stack.t_ms / DENSITY_REF_THICKNESS)   # m^2 per m of r_c

    r_lo = 0.02 / (area_per_m * 1e12)           # start around A ~ 0.02 um^2
    r_hi = 0.45 * (b - a)
    r_c = np.geomspace(r_lo, r_hi, n)
    e_cut = analytic.strip_field(a + t / 2, a, b)
    e = np.where(r_c >= t / 2,
                 analytic.strip_field(a + np.maximum(r_c, t / 2), a, b),
                 e_cut * (np.maximum(r_c, 1e-300) / (t / 2)) ** analytic.CORNER_EXPONENT)
    s = pre * weight * e
    area = area_per_m * r_c * 1e12              # um^2
    # already monotone: S decreasing with r_c, area increasing
    return TlsSpectrum(s, area, spec.label)


def wire_tls_spectrum(spec, capacitance: float,
                      stack: Optional[DielectricStack] = None,
                      sections: int = 100_000) -> TlsSpectrum:
    """S_max spectrum of a junction-wire pair's metal-substrate face.

    The wire is split into ~`sections` patches: log-spaced slices along the
    length, transverse bins following the thin-film profile outside t/2 of
    each edge, and corner sub-bins below.  Patches are sorted by descending
    S_max and their areas accumulated.
    """
    if stack is None:
        stack = DielectricStack()
    weight = stack.eps_s / stack.eps_ms
    if type(spec) not in analytic.WIRE_ENERGIES:
        raise TypeError("wire spectrum needs a StraightWire or TaperedWire")
    r0, d, t = spec.r0, spec.d, spec.t
    if sections < MIN_SECTIONS:
        raise ValueError(f"use at least {MIN_SECTIONS} sections for a "
                         "converged spectrum")

    n_edge = 40      # transverse bins outside the corner region
    n_corner = 12    # corner sub-bins below t/2
    n_y = max(sections // (2 * (n_edge + n_corner)), 200)

    y_edges = np.geomspace(2 * r0, d, n_y + 1)
    y = 0.5 * (y_edges[:-1] + y_edges[1:])
    dy = np.diff(y_edges)
    rb = analytic.taper_halfwidth(y, r0, spec.slope, t)
    pre = s_max_prefactor(capacitance)
    e_env = analytic.wire_field(y, rb, flat=True)

    # transverse bins by distance from the edge, log-spaced t/2 .. rb per slice
    u = np.linspace(0.0, 1.0, n_edge + 1)
    delta_edges = (t / 2) * (2.0 * rb[:, None] / t) ** u[None, :]
    delta = 0.5 * (delta_edges[:, :-1] + delta_edges[:, 1:])
    ddelta = np.diff(delta_edges, axis=1)
    prof = np.sqrt(rb[:, None] / (2.0 * rb[:, None] - delta)) \
        * np.sqrt(rb[:, None] / delta)
    s_face = pre * weight * e_env[:, None] * prof
    # 2 wires, both +-x halves
    a_face = 4.0 * dy[:, None] * ddelta

    # corner sub-bins: r_c in [t/200, t/2], field ~ r_c^(-1/3)
    rc_edges = np.geomspace(t / 200, t / 2, n_corner + 1)
    rc = 0.5 * (rc_edges[:-1] + rc_edges[1:])
    drc = np.diff(rc_edges)
    e_cut = e_env * np.sqrt(rb / (2 * rb - t / 2)) * np.sqrt(rb / (t / 2))
    s_corner = pre * weight * e_cut[:, None] \
        * (rc[None, :] / (t / 2)) ** analytic.CORNER_EXPONENT
    # 2 wires, 2 edges per face
    a_corner = 4.0 * dy[:, None] * drc[None, :]

    thickness_scale = stack.t_ms / DENSITY_REF_THICKNESS
    s_all = np.concatenate([s_face.ravel(), s_corner.ravel()])
    a_all = np.concatenate([a_face.ravel(), a_corner.ravel()]) \
        * thickness_scale * 1e12
    return _spectrum_from_patches(s_all, a_all, spec.label)


def parallel_plate_splitting(spec: ParallelPlate, stack: DielectricStack,
                             capacitance: float) -> tuple[float, float]:
    """(S_max, effective area in um^2) for the vacuum-gap plate pair.

    The oxide field is the gap field reduced by eps_MA, i.e. an effective
    separation s*eps_MA; the area scales with the oxide thickness.
    """
    d_eff = spec.s * stack.eps_ma
    s_val = s_max(1.0 / d_eff, capacitance)
    area = spec.length * spec.w * (stack.t_ma / DENSITY_REF_THICKNESS) * 1e12
    return s_val, area


# --------------------------------------------------------------------------
# saturation sweeps (single-ended coplanar resonator test structures)

@dataclass(frozen=True)
class SaturationCurve:
    e_s: np.ndarray              # saturation field grid [V/m]
    energy: np.ndarray           # J/m at the drive voltage
    kind: str                    # 'surface' | 'volume'
    label: str
    marker: tuple = ()           # (E_s, energy) characteristic crossover


def _coplanar_field_fn(spec: Coplanar, volts: float):
    """|E(x)| on the plane for a single-ended coplanar at `volts`."""
    kp = ellipkp((spec.a / spec.b) ** 2)
    b = spec.b

    def f(x):
        return volts * b / (kp * np.sqrt(np.abs((x**2 - spec.a**2)
                                                * (x**2 - b**2))))
    return f


def coplanar_saturated_surface_energy(spec: Coplanar, e_s: float,
                                      volts: float = 1.0,
                                      n: int = 1200) -> float:
    """(eps0/2) * saturated E^2 over the metal surfaces, per unit length."""
    a, b, t = spec.a, spec.b, spec.t
    f = _coplanar_field_fn(spec, volts)
    xi = a - np.geomspace(t / 2, a * (1 - 1e-9), n // 2)
    xo = b + np.geomspace(t / 2, 200 * b, n // 2)
    total = 0.0
    for xs in (np.sort(xi), xo):
        e2 = saturate(f(xs) ** 2, e_s)
        total += float(np.trapezoid(e2, xs))
    # 2 faces and the +-x symmetry
    return 0.5 * EPS0 * 4.0 * total


def coplanar_saturated_volume_energy(spec: Coplanar, e_s: float,
                                     volts: float = 1.0,
                                     n: int = 160) -> float:
    """(eps0/2) * saturated E^2 over the whole plane, per unit length."""
    a, b = spec.a, spec.b
    kp = ellipkp((a / b) ** 2)
    y = np.geomspace(1e-5 * a, 100 * b, n)
    x = np.unique(np.concatenate([
        np.linspace(0, 1.2 * b, n),
        a + np.geomspace(1e-5 * a, b, n // 2), a - np.geomspace(1e-5 * a, a, n // 2),
        b + np.geomspace(1e-5 * a, 100 * b, n), b - np.geomspace(1e-5 * a, b - a, n // 2),
    ]))
    x = x[x >= 0]
    zz = x[None, :] + 1j * y[:, None]
    e2 = (volts * b / kp) ** 2 / np.abs((zz**2 - a**2) * (zz**2 - b**2))
    sat = saturate(e2, e_s)
    line = np.trapezoid(sat, x, axis=1)
    integral = np.trapezoid(line, y)
    # quadrant symmetry in x and y
    return 0.5 * EPS0 * 4.0 * float(integral)


def saturation_sweep(specs, e_s_grid, volts: float = 1.0):
    """Surface and volume saturation curves for single-ended coplanar specs."""
    curves = []
    e_s_grid = np.asarray(e_s_grid, dtype=float)
    for spec in specs:
        if not isinstance(spec, Coplanar) or not spec.single_ended:
            raise ValueError("saturation sweeps take single-ended coplanar specs")
        surf = np.array([coplanar_saturated_surface_energy(spec, es, volts)
                         for es in e_s_grid])
        vol = np.array([coplanar_saturated_volume_energy(spec, es, volts)
                        for es in e_s_grid])
        kp = ellipkp((spec.a / spec.b) ** 2)
        e_center = volts / (2 * spec.a * kp) * 2.0      # single-ended field at x=0
        u_single = 2.0 * EPS0 * volts**2 \
            * analytic.surface_sum(spec.a, spec.b, spec.t, analytic.C_M_DEFAULT) \
            / (kp * kp * spec.a)
        label = f"{spec.label}(a={spec.a*1e6:g}um)"
        curves.append(SaturationCurve(e_s_grid, surf, "surface", label,
                                      marker=(3.0 * e_center, u_single)))
        curves.append(SaturationCurve(e_s_grid, vol, "volume", label))
    return curves
