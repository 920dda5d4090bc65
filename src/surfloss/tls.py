"""Two-level-state observables: maximum splitting spectra per structure.

Splitting sizes follow the measured junction-capacitor reference (74 MHz
at 2 pF with a 2 nm gap), scaled by 1/sqrt(C) and by the local field per
volt.  Spectra pair each surface patch's S_max with its area; sorting by
descending S_max and accumulating area gives the observability curve, with
one splitting expected per (0.5/um^2/GHz)^-1 of area-bandwidth product.
``TLS_MODELS`` maps each structure type with a TLS model to its spectrum:
WIRE_SLICES x 52 patches for a wire, one for the plate's uniform field.
"""

import math
from typing import NamedTuple

import numpy as np

from .geometry import (DielectricStack, ParallelPlate, Ribbon, StraightWire,
                       TaperedWire)
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

#: log-spaced slices of 52 patches along each wire.  More slices refine
#: only the length, as the 40 face and 12 corner bins across it stay fixed:
#: 10 and 100 times as many print the same `tls` summary at up to 8 times
#: the time and memory, and 200 slices print a coarser one
WIRE_SLICES = 961


def s_max_prefactor(capacitance: float) -> float:
    """Splitting per unit (E/V) in Hz*m at a given qubit capacitance."""
    if capacitance <= 0:
        raise ValueError("capacitance must be > 0")
    return REF_SPLITTING_HZ * math.sqrt(REF_CAPACITANCE / capacitance) * REF_GAP


def s_max(e_over_v: float, capacitance: float) -> float:
    """Maximum splitting (Hz) for a TLS sitting in field e_over_v [1/m]."""
    return s_max_prefactor(capacitance) * e_over_v


class TlsSpectrum(NamedTuple):
    """Descending splitting sizes vs cumulative effective area."""

    s_hz: np.ndarray          # descending
    area_um2: np.ndarray      # increasing

    def s_at_area(self, area: float) -> float:
        """Splitting size at a given cumulative area."""
        if not (self.area_um2[0] <= area <= self.area_um2[-1]):
            raise ValueError(f"area {area} um^2 outside the tabulated range")
        return float(np.interp(area, self.area_um2, self.s_hz))


def spacing_area(spacing_hz: float) -> float:
    """Cumulative area (um^2) at one splitting per spacing_hz on average."""
    return 1.0 / (DENSITY_PER_UM2_GHZ * spacing_hz / 1e9)


def _spectrum_from_patches(s_values: np.ndarray,
                           areas_um2: np.ndarray) -> TlsSpectrum:
    order = np.argsort(-s_values)
    a_sorted = areas_um2[order]
    np.cumsum(a_sorted, out=a_sorted)
    return TlsSpectrum(s_values[order], a_sorted)


# --------------------------------------------------------------------------

def ribbon_tls_profile(spec: Ribbon, stack: DielectricStack,
                       capacitance: float) -> TlsSpectrum:
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
    r_c = np.geomspace(r_lo, r_hi, 4000)
    e_cut = analytic.strip_field(a + t / 2, a, b)
    e = np.where(r_c >= t / 2,
                 analytic.strip_field(a + np.maximum(r_c, t / 2), a, b),
                 e_cut * (np.maximum(r_c, 1e-300) / (t / 2)) ** analytic.CORNER_EXPONENT)
    s = pre * weight * e
    area = area_per_m * r_c * 1e12              # um^2
    # already monotone: S decreasing with r_c, area increasing
    return TlsSpectrum(s, area)


def wire_tls_spectrum(spec, stack: DielectricStack,
                      capacitance: float) -> TlsSpectrum:
    """S_max spectrum of a junction-wire pair's metal-substrate face.

    The wire is split into WIRE_SLICES x 52 patches: log-spaced slices
    along the length, each with 40 transverse bins following the thin-film
    profile outside t/2 of each edge and 12 corner sub-bins below.  Patches
    are sorted by descending S_max and their areas accumulated.
    """
    weight = stack.eps_s / stack.eps_ms
    forms = analytic.CLOSED_FORMS.get(type(spec))
    if forms is None or forms.wire_energy is None:
        raise TypeError("wire spectrum needs a StraightWire or TaperedWire")
    r0, d, t = spec.r0, spec.d, spec.t

    n_edge = 40      # transverse bins outside the corner region
    n_corner = 12    # corner sub-bins below t/2
    n_y = WIRE_SLICES

    y_edges = np.geomspace(2 * r0, d, n_y + 1)
    y = 0.5 * (y_edges[:-1] + y_edges[1:])
    dy = np.diff(y_edges)
    rb = analytic.taper_halfwidth(y, r0, spec.slope, t)
    pre = s_max_prefactor(capacitance)
    e_env = analytic.wire_field(y, rb, flat=True)

    # every patch goes straight into one pair of arrays, the face bins of
    # all slices first, then their corner sub-bins; the per-slice temporaries
    # are freed before the sort, which needs its own copies
    n_face = n_y * n_edge
    s_all = np.empty(n_face + n_y * n_corner)
    a_all = np.empty_like(s_all)
    s_face = s_all[:n_face].reshape(n_y, n_edge)
    a_face = a_all[:n_face].reshape(n_y, n_edge)

    # transverse bins by distance from the edge, log-spaced t/2 .. rb per slice
    u = np.linspace(0.0, 1.0, n_edge + 1)
    delta_edges = (t / 2) * (2.0 * rb[:, None] / t) ** u[None, :]
    delta = 0.5 * (delta_edges[:, :-1] + delta_edges[:, 1:])
    # 2 wires, both +-x halves
    np.multiply(4.0 * dy[:, None], np.diff(delta_edges, axis=1), out=a_face)
    del delta_edges
    prof = np.sqrt(rb[:, None] / (2.0 * rb[:, None] - delta)) \
        * np.sqrt(rb[:, None] / delta)
    del delta
    np.multiply(pre * weight * e_env[:, None], prof, out=s_face)
    del prof

    # corner sub-bins: r_c in [t/200, t/2], field ~ r_c^(-1/3)
    rc_edges = np.geomspace(t / 200, t / 2, n_corner + 1)
    rc = 0.5 * (rc_edges[:-1] + rc_edges[1:])
    drc = np.diff(rc_edges)
    e_cut = e_env * np.sqrt(rb / (2 * rb - t / 2)) * np.sqrt(rb / (t / 2))
    np.multiply(pre * weight * e_cut[:, None],
                (rc[None, :] / (t / 2)) ** analytic.CORNER_EXPONENT,
                out=s_all[n_face:].reshape(n_y, n_corner))
    # 2 wires, 2 edges per face
    np.multiply(4.0 * dy[:, None], drc[None, :],
                out=a_all[n_face:].reshape(n_y, n_corner))

    a_all *= stack.t_ms / DENSITY_REF_THICKNESS
    a_all *= 1e12
    return _spectrum_from_patches(s_all, a_all)


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
# dispatch; each row looks its spectrum function up when called, so a
# wrapper installed on this module sees these calls too

def _plate_spectrum(spec: ParallelPlate, stack: DielectricStack,
                    capacitance: float) -> TlsSpectrum:
    s_val, area = parallel_plate_splitting(spec, stack, capacitance)
    return TlsSpectrum(np.array([s_val]), np.array([area]))


#: TLS models: spec class -> spectrum(spec, stack, capacitance)
TLS_MODELS = {
    Ribbon: lambda spec, stack, c: ribbon_tls_profile(spec, stack, c),
    StraightWire: lambda spec, stack, c: wire_tls_spectrum(spec, stack, c),
    TaperedWire: lambda spec, stack, c: wire_tls_spectrum(spec, stack, c),
    ParallelPlate: _plate_spectrum,
}
