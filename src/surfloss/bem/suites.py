"""Formula-vs-solver verification suites.

Each suite runs surface-charge solves against the closed-form predictions
and returns a list of Check records (target, computed, tolerance, pass).
The solver side of every pairing was validated independently against
exact references (round coax, conformal strip integrals, prolate-spheroid
capacitance), so these suites measure the quality of the fits as much as
the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .. import _quadpack, analytic
from .. import _kernels as kern
from ..constants import EPS0, SUITES
from . import mesh as meshes
from .mesh import MeshCapError
from .solver import metal_surface_energy, solve, substrate_line_energy

@dataclass(frozen=True)
class Check:
    name: str
    target: float
    computed: float
    tol: float        # _abs passes on |computed - target| <= tol, _rel
                      # on |computed/target - 1| <= tol
    passed: bool
    note: str = ""


def _rel(name, computed, target, tol) -> Check:
    err = abs(computed / target - 1.0)
    return Check(name, target, computed, tol, err <= tol)


def _abs(name, computed, target, tol, note="") -> Check:
    return Check(name, target, computed, tol, abs(computed - target) <= tol, note)


# --------------------------------------------------------------------------

def _max_asymmetry(n, block) -> float:
    """max |M_ij - M_ji| over the n x n matrix M whose entries of rows and
    cols block(rows, cols) returns.  Rows are split into blocks of
    isqrt(BLOCK_ENTRIES) (loop blocking); each pair of blocks I >= J builds
    M_IJ and M_JI, a diagonal block once, and only the two blocks and
    their difference are held at a time."""
    def pair(rows, cols):
        b = block(rows, cols)
        diff = b - (b if cols is rows else block(cols, rows)).T
        return float(np.max(np.abs(diff, out=diff)))

    spans = kern.row_blocks(n, math.isqrt(kern.BLOCK_ENTRIES))
    return max(pair(rows, cols)
               for i, rows in enumerate(spans) for cols in spans[:i + 1])


def suite_coax(mesh_scale: float = 1.0) -> list[Check]:
    """Gold standard: round coax capacitance against 2*pi*eps/ln(R/r)."""
    r, radius_out = 10e-6, 100e-6
    n_in = meshes.element_count(400 * mesh_scale)
    n_out = meshes.element_count(1200 * mesh_scale)
    c_exact = 2.0 * math.pi * EPS0 / math.log(radius_out / r)

    def solve_coax(ni, no):
        m = meshes.concat([meshes.circle(r, ni, electrode=0),
                           meshes.circle(radius_out, no, electrode=1)])
        return solve(m, {0: 1.0, 1: 0.0})

    sol = solve_coax(n_in, n_out)
    c_bem = sol.charge_of(0)
    checks = [_rel("coax capacitance vs closed form", c_bem, c_exact, 5e-3)]

    # the planar matrix of the first solve, compared with its transpose a
    # pair of blocks at a time, so the n x n matrix is never held
    sym = _max_asymmetry(sol.mesh.n, partial(kern.planar_matrix,
                                             *sol.mesh.pos.T, sol.mesh.width))
    checks.append(_abs("potential matrix symmetry", sym, 0.0, 1e-12))

    c2 = solve_coax(2 * n_in, 2 * n_out).charge_of(0)
    checks.append(_rel("mesh-doubling capacitance drift", c2, c_bem, 5e-3))
    return checks


def suite_flat_coax(mesh_scale: float = 1.0) -> list[Check]:
    """Thin-film coax: surface fields and metal energy vs the conformal form."""
    rbar, shield, t = 10e-6, 100e-6, 0.1e-6
    strip = meshes.thin_strip(-rbar, rbar, t / (20 * mesh_scale), 1e-6,
                              electrode=0)
    outer = meshes.circle(shield, meshes.element_count(1000 * mesh_scale),
                          electrode=1)
    m = meshes.concat([strip, outer])
    sol = solve(m, {0: 1.0, 1: 0.0})

    n_strip = strip.n
    x = m.pos[:n_strip, 0]
    e_bem = np.abs(sol.charge[:n_strip] / m.width[:n_strip]) / (2.0 * EPS0)
    inside = np.abs(x) < rbar - t / 2
    field = partial(analytic.flat_coax_field, rbar=rbar, R=shield)
    e_th = np.array([field(v) for v in x[inside].tolist()])
    err_metal = float(np.max(np.abs(e_bem[inside] / e_th - 1.0)))
    checks = [_abs("metal surface field max rel err (beyond t/2)", err_metal,
                   0.0, 0.03)]

    xs = rbar + np.geomspace(t / 2, 0.5 * shield - rbar, 80)
    ex, ey = sol.field_at(xs, np.zeros_like(xs))
    e_sub = np.hypot(ex, ey)
    err_sub = float(np.max(np.abs(e_sub / [field(v) for v in xs.tolist()]
                                  - 1.0)))
    checks.append(_abs("substrate field max rel err (t/2 .. R/2)", err_sub,
                       0.0, 0.03))

    u_bem = metal_surface_energy(sol, cutoff=t / 2, electrode=0)
    u_th = EPS0 * analytic.flat_coax_energies(rbar, shield, t, 0.0, 0.0).u_metal
    checks.append(_rel("metal surface energy vs log form (c=0)",
                       u_bem / EPS0, u_th / EPS0, 0.03))

    vint = _quadpack.quad(field, rbar * (1 + 1e-12), shield, 200,
                          [rbar * 1.001])
    checks.append(_abs("voltage integral of the flat-coax field", vint, 1.0,
                       (rbar / shield) ** 2))
    return checks


# --------------------------------------------------------------------------

def _film_solve(rbar, shield, t, edge, mesh_scale, hfac):
    """One film cross-section solve at minimum element t/hfac; returns the
    metal constant c_m it gives on its own and the solution."""
    h_min = t / hfac
    film = meshes.film_cross_section(rbar, t, h_min, rbar / 40, edge=edge,
                                     electrode=0)
    outer = meshes.circle(shield, meshes.element_count(900 * mesh_scale),
                          electrode=1)
    m = meshes.concat([film, outer])
    sol = solve(m, {0: 1.0, 1: 0.0})
    ef = analytic.flat_coax_center_field(rbar, shield)
    u_m = metal_surface_energy(sol, electrode=0)
    return u_m / (EPS0 * ef**2 * rbar) - math.log(4 * rbar / t), sol


def _metal_corner_constant(rbar, shield, t, edge, mesh_scale):
    """(c_m, finer solve, its minimum element): c_m from two refinements,
    Richardson-extrapolated in h^(1/3)."""
    fine = 80 * mesh_scale
    c1, _ = _film_solve(rbar, shield, t, edge, mesh_scale, 40 * mesh_scale)
    c2, sol = _film_solve(rbar, shield, t, edge, mesh_scale, fine)
    ratio = 2.0 ** (1.0 / 3.0)
    return (c2 * ratio - c1) / (ratio - 1.0), sol, t / fine


def extract_corner_constants(rbar: float, shield: float, t: float,
                             edge: str = "square", mesh_scale: float = 1.0
                             ) -> tuple[float, float]:
    """(c_m, c_s) for one film thickness by inverting the edge-energy forms.

    The metal constant uses two mesh refinements and Richardson
    extrapolation in h^(1/3) (the corner power-law convergence rate); the
    substrate constant integrates the midplane field, which is finite at
    the film face, and uses the finer mesh directly.
    """
    c_m, sol, h_min = _metal_corner_constant(rbar, shield, t, edge, mesh_scale)
    ef = analytic.flat_coax_center_field(rbar, shield)
    smin = h_min / 2
    s = np.geomspace(smin, shield - rbar - 1e-9, 600)
    xs = rbar + s
    ex, ey = sol.field_at(xs, np.zeros_like(xs))
    e2 = ex**2 + ey**2
    integral = float(np.trapezoid(e2, xs)) + float(e2[0]) * smin
    u_s = 0.5 * EPS0 * 2.0 * integral
    c_s = u_s / (EPS0 * ef**2 * rbar / 2) - math.log(4 * rbar / t) \
        + 2 * rbar / shield
    return c_m, c_s


DEFAULT_T_OVER_RBAR = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)


def suite_corner(mesh_scale: float = 1.0) -> list[Check]:
    """Extract the corner corrections over thickness; compare edge styles."""
    rbar, shield = 10e-6, 100e-6      # film half-width, shield radius
    cm_sq, cs_sq = np.array([
        extract_corner_constants(rbar, shield, trb * rbar, "square", mesh_scale)
        for trb in DEFAULT_T_OVER_RBAR]).T
    # only c_m is compared across edge styles, so the rounded edge skips
    # the substrate field evaluation
    cm_semi = np.array([
        _metal_corner_constant(rbar, shield, trb * rbar, "semicircle",
                               mesh_scale)[0]
        for trb in DEFAULT_T_OVER_RBAR])
    c_m, c_s = analytic.C_M_DEFAULT, analytic.C_S_DEFAULT
    worst_cm = cm_sq[np.argmax(np.abs(cm_sq - c_m))]
    worst_cs = cs_sq[np.argmax(np.abs(cs_sq - c_s))]
    diff = float(np.max(cm_semi - cm_sq))
    return [
        _abs("square-edge c_m over t/rbar sweep", float(worst_cm), c_m, 0.5),
        _abs("square-edge c_s over t/rbar sweep", float(worst_cs), c_s, 0.3),
        _abs("c_m variation across sweep", float(cm_sq.max() - cm_sq.min()),
             0.0, 0.6, note="slowly varying"),
        Check("semicircular-edge c_m strictly below square", 0.0, diff, 0.0,
              diff < 0.0, note="rounded edges lower the correction"),
    ]


# --------------------------------------------------------------------------

def _rwg_mesh(a, b, c_gnd, t, h_edge, h_max, extent):
    strips = [
        meshes.thin_strip(a, b, h_edge, h_max, electrode=0, cutoff=t / 2),
        meshes.thin_strip(-b, -a, h_edge, h_max, electrode=1, cutoff=t / 2),
    ]
    if c_gnd is not None:
        strips.append(meshes.thin_strip(c_gnd, c_gnd + extent, h_edge,
                                        extent / 30, electrode=2,
                                        cutoff=t / 2))
        strips.append(meshes.thin_strip(-c_gnd - extent, -c_gnd, h_edge,
                                        extent / 30, electrode=3,
                                        cutoff=t / 2))
    return meshes.concat(strips)


def ribbon_ground_point(a, b, c_gnd, t, mesh_scale: float = 1.0):
    """One solve: returns (C, U_metal, U_substrate) per unit length, V = 1."""
    h_edge = 4e-9 / mesh_scale
    h_max = (b - a) / (60 * mesh_scale)
    extent = 20 * b
    m = _rwg_mesh(a, b, c_gnd, t, h_edge, h_max, extent)
    volts = {0: 0.5, 1: -0.5}
    if c_gnd is not None:
        volts.update({2: 0.0, 3: 0.0})
    sol = solve(m, volts)
    cap = sol.charge_of(0)
    u_m = metal_surface_energy(sol, cutoff=t / 2)
    # inner gap once; the outer gap doubled for the left/right symmetry
    outer_end = c_gnd if c_gnd is not None else math.inf
    u_s = substrate_line_energy(sol, -a, a, cutoff=t / 2)
    u_s += 2.0 * substrate_line_energy(sol, b, outer_end, cutoff=t / 2)
    return cap, u_m, u_s


RWG_GAPS = (0.1, 0.3, 1.0, 3.0)
RWG_A = (25e-6, 50e-6, 70e-6)


def suite_ribbon_ground(mesh_scale: float = 1.0) -> list[Check]:
    """Plain ribbon against the conformal capacitance, then the ground-plane
    sweep against the fitted capacitance and surface-loss forms (c = 0)."""
    b, t = 100e-6, 0.1e-6
    stack_vac = analytic.DielectricStack(eps_s=1.0)      # vacuum convention
    checks = []

    a = 50e-6
    cap, u_m, u_s = ribbon_ground_point(a, b, None, t, mesh_scale)
    # a unit-length ribbon: its capacitance and energies are per unit length
    ribbon = analytic.Ribbon(a, b, 1.0, t)
    c_exact = analytic.ribbon_capacitance(ribbon, stack_vac)
    checks.append(_rel("plain ribbon capacitance vs conformal", cap, c_exact, 0.01))
    plain = analytic.ribbon_energies(ribbon, 0.0, 0.0)
    u_m_th = EPS0 * plain.u_metal
    u_s_th = EPS0 * plain.u_substrate
    checks.append(_rel("plain ribbon metal energy vs conformal", u_m, u_m_th, 0.02))
    checks.append(_rel("plain ribbon substrate energy vs conformal", u_s, u_s_th,
                       0.02))

    errs_c, errs_m, errs_s = [], [], []
    for a in RWG_A:
        for g in RWG_GAPS:
            c_gnd = b * (1 + g)
            cap, u_m, u_s = ribbon_ground_point(a, b, c_gnd, t, mesh_scale)
            spec = analytic.RibbonWithGround(a, b, c_gnd, 1.0, t)
            c_fit = analytic.ribbon_ground_capacitance(spec, stack_vac)
            fit = analytic.ribbon_ground_energies(spec, 0.0, 0.0)
            u_m_fit = EPS0 * fit.u_metal
            u_s_fit = EPS0 * fit.u_substrate
            errs_c.append(abs(cap / c_fit - 1.0))
            errs_m.append(abs(u_m / u_m_fit - 1.0))
            errs_s.append(abs(u_s / u_s_fit - 1.0))
    checks.append(_abs("capacitance fit max rel err over sweep",
                       float(max(errs_c)), 0.0, 0.05))
    checks.append(_abs("metal loss fit max rel err over sweep",
                       float(max(errs_m)), 0.0, 0.05))
    checks.append(_abs("substrate loss fit max rel err over sweep",
                       float(max(errs_s)), 0.0, 0.05))
    return checks


# --------------------------------------------------------------------------

def _wire_pair(d, r0, slope, mesh_scale, flat):
    """Mesh and solve of a differential wire pair at +-0.5 V: one wire is
    meshed, the other is its image (see `solve`).  A
    flat wire follows taper_halfwidth from r0 at slope S (straight at
    S = 0); a round one is straight of radius r0 or the cone r = S*y."""
    if flat or not slope:
        rf = lambda y: analytic.taper_halfwidth(y, r0, slope, r0)
    else:
        rf = lambda y: slope * y
    mesh, n = (meshes.wire_strip, 280) if flat else (meshes.wire_rings, 340)
    m = mesh(d, rf, y0=r0 / 5, n=meshes.element_count(n * mesh_scale))
    return m, solve(m, {0: 0.5})


def wire_field_profile(d: float, r0: float, slope: float = 0.0,
                       mesh_scale: float = 1.0, flat: bool = False):
    """Solve a differential wire pair; returns (y, E/V, E_formula/V)."""
    m, sol = _wire_pair(d, r0, slope, mesh_scale, flat)
    y, width = m.pos.T
    return y, sol.surface_field(), analytic.wire_field(y, width, flat=flat)


def _window_rel_err(e, e_th, win) -> float:
    """max |e/e_th - 1| over the profile elements inside a check window."""
    if not win.any():
        raise MeshCapError("no mesh element inside the check window; "
                           "increase mesh_scale")
    return float(np.max(np.abs(e[win] / e_th[win] - 1.0)))


def suite_cyl_wire(mesh_scale: float = 1.0) -> list[Check]:
    """Round junction wire: ring-kernel solve vs the coax-like field form."""
    r0, d = 0.1e-6, 100e-6
    checks = []
    for slope, tag in ((0.0, "straight"), (0.2, "tapered S=0.2")):
        y, e, e_th = wire_field_profile(d, r0, slope, mesh_scale)
        err = _window_rel_err(e, e_th, (y >= 2 * r0) & (y <= 0.9 * d))
        checks.append(_abs(f"{tag} field max rel err over [2r, 0.9d]", err,
                           0.0, 0.05, note="end uptick is outside the formula"))
        err_core = _window_rel_err(e, e_th, (y >= 2 * r0) & (y <= 0.25 * d))
        checks.append(_abs(f"{tag} field max rel err over [2r, 0.25d]", err_core,
                           0.0, 0.05))
    # capacitance of the straight pair vs the fitted form (vacuum convention)
    d2 = 50e-6
    _, sol = _wire_pair(d2, r0, 0.0, mesh_scale, flat=False)
    wire = analytic.StraightWire(half_width=r0, d=d2, t=r0)
    c_fit = analytic.straight_wire_capacitance(
        wire, analytic.DielectricStack(eps_s=1.0))
    # the charge at +0.5 V over the differential drive of 1 V
    checks.append(_rel("straight wire capacitance vs 4.1 fit",
                       sol.charge_of(0), c_fit, 0.07))
    # far-field limit of the ring kernel
    far = kern.ring_mutual([0.0], [1e-7], [1.0], [1e-7])[0, 0]
    checks.append(_rel("ring kernel far-field 1/(4 pi eps rho)", far,
                       1.0 / (4 * math.pi * EPS0), 1e-6))
    return checks


def suite_flat_wire(mesh_scale: float = 1.0) -> list[Check]:
    """Thin-film junction wire: strip-kernel solve vs the envelope formula."""
    r0, d = 0.1e-6, 50e-6
    y, e, e_th = wire_field_profile(d, r0, 0.0, mesh_scale, flat=True)
    err = _window_rel_err(e, e_th, (y >= 4 * r0) & (y <= 0.4 * d))
    checks = [_abs("straight flat wire envelope max rel err [4r, 0.4d]", err,
                   0.0, 0.10)]
    # kernel relation: flat strip of halfwidth rbar == ring of radius rbar/2
    ys = np.array([0.3e-6, 1e-6, 7e-6])
    rb = np.full(3, 0.2e-6)
    mf = kern.flatwire_mutual(ys, np.zeros(3), rb)
    mr = kern.ring_mutual(ys, rb / 2, np.zeros(3), rb / 2)
    checks.append(_abs("flat kernel equals ring kernel at half radius",
                       float(np.max(np.abs(mf / mr - 1.0))), 0.0, 1e-12))
    far = kern.flatwire_mutual([0.0], [1.0], [1e-7])[0, 0]
    checks.append(_rel("flat kernel far-field 1/(4 pi eps y)", far,
                       1.0 / (4 * math.pi * EPS0), 1e-6))
    return checks


# --------------------------------------------------------------------------

_SUITE_FN = {
    "coax": suite_coax,
    "flat-coax": suite_flat_coax,
    "corner": suite_corner,
    "ribbon-ground": suite_ribbon_ground,
    "cyl-wire": suite_cyl_wire,
    "flat-wire": suite_flat_wire,
}


def run_suite(name: str, mesh_scale: float = 1.0) -> list[Check]:
    if name not in _SUITE_FN:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return _SUITE_FN[name](mesh_scale)
