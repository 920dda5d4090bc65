"""Formulas the tests quote that the library does not ship.

`edge_enhancement` and the inner/outer strip integrals of
`ribbon_inner_outer` are discussion formulas of the source model; no
command evaluates them, so they live here for the criteria that state
them.  `fit_crossover` and `area_at` read shipped results: the first
bisects the shipped wire-energy fits, the second interpolates a shipped
TLS spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np

from surfloss.analytic import (C_M_DEFAULT, straight_wire_energy_fit,
                               tapered_wire_energy_fit)


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


def ribbon_inner_outer(a: float, b: float, t: float) -> tuple[float, float]:
    """(S_i, S_o): inner / outer integrals of the strip field, logarithmic
    edge divergences cut off at t/2.  Their sum is the center integral
    S_c = surface_sum(a, b, t, 0)/a."""
    gap_log = math.log((b - a) / (b + a))
    denom = 2.0 * (1.0 - a * a / (b * b))
    s_i = (math.log(4 * a / t) / a + gap_log / b) / denom
    s_o = (gap_log / a + math.log(4 * b / t) / b) / denom
    return s_i, s_o


def fit_crossover(r0: float, t: float, slope: float) -> float:
    """Wire length d where the tapered closed-form metal energy drops below
    the straight one, by bisection in log d over [20, 1e5] * max(t, r0)."""
    excess = lambda d: straight_wire_energy_fit(r0, d, t) \
        - tapered_wire_energy_fit(r0, slope, d, t)
    lo, hi = 20.0 * max(t, r0), 1e5 * max(t, r0)
    assert excess(lo) < 0.0 < excess(hi)
    while hi / lo - 1.0 > 1e-12:
        mid = math.sqrt(lo * hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def area_at(spectrum, s: float) -> float:
    """Cumulative area of a TLS spectrum carrying splittings of at least s."""
    assert spectrum.s_hz[-1] <= s <= spectrum.s_hz[0]
    return float(np.interp(-s, -spectrum.s_hz, spectrum.area_um2))
