"""Solver validation against exact references, plus the fast pieces of the
verification suites (the full sweeps run in the acceptance module)."""

import math
import warnings

import numpy as np
import pytest

from surfloss.constants import EPS0
from surfloss import analytic
from surfloss.bem import MeshCapError, SolverError, assemble, solve
from surfloss.bem import mesh as meshes
from surfloss.bem.suites import (_rwg_mesh, extract_corner_constants,
                                 ribbon_ground_point, run_suite, suite_coax,
                                 wire_field_profile)

UM = 1e-6


def test_coax_suite_passes():
    for check in suite_coax(mesh_scale=0.6):
        assert check.passed, check


def test_prolate_spheroid_capacitance():
    # exact closed form validates the ring kernel end to end
    a_ax, b_eq = 50 * UM, 0.5 * UM
    ecc = math.sqrt(1 - (b_eq / a_ax) ** 2)
    c_exact = 8 * math.pi * EPS0 * a_ax * ecc / math.log((1 + ecc) / (1 - ecc))
    n = 300
    th_edges = np.arange(n + 1) * math.pi / n
    th = 0.5 * (th_edges[:-1] + th_edges[1:])
    z = a_ax * np.cos(th)
    r = b_eq * np.sin(th)
    ze = a_ax * np.cos(th_edges)
    re = b_eq * np.sin(th_edges)
    w = np.hypot(np.diff(ze), np.diff(re))
    m = meshes.Mesh("ring", np.stack([z, r], 1), w, np.zeros(n, int),
                    np.full(n, "body", object))
    sol = solve(m, {0: 1.0})
    assert sol.capacitance == pytest.approx(c_exact, rel=2e-3)


def test_thin_ribbon_capacitance_and_energies():
    # infinitely thin ribbon against the exact conformal results
    cap, u_m, u_s = ribbon_ground_point(50 * UM, 100 * UM, None, 0.1 * UM,
                                        mesh_scale=0.8)
    from surfloss.special import ck_ratio
    assert cap == pytest.approx(EPS0 / ck_ratio(0.5), rel=0.01)
    k = analytic.ellipk(0.25)
    u_m_th = EPS0 * analytic.surface_sum(50 * UM, 100 * UM, 0.1 * UM, 0.0) \
        / (2 * k * k * 50 * UM)
    assert u_m == pytest.approx(u_m_th, rel=0.02)
    assert u_s == pytest.approx(u_m_th / 2, rel=0.02)


def test_corner_constant_single_point():
    c_m, c_s = extract_corner_constants(10 * UM, 100 * UM, 1 * UM, "square")
    assert c_m == pytest.approx(5.0, abs=0.5)
    assert c_s == pytest.approx(1.6, abs=0.3)
    c_m_semi, _ = extract_corner_constants(10 * UM, 100 * UM, 1 * UM,
                                           "semicircle")
    assert c_m_semi < c_m


def test_antisymmetric_charge_on_symmetric_mesh():
    # differential strips produce an antisymmetric charge vector
    strips = [meshes.thin_strip(50 * UM, 100 * UM, 5e-9, 2 * UM, electrode=0),
              meshes.thin_strip(-100 * UM, -50 * UM, 5e-9, 2 * UM, electrode=1)]
    m = meshes.concat(strips)
    sol = solve(m, {0: 0.5, 1: -0.5})
    n = strips[0].n
    q_pos = sol.charge[:n]
    q_neg = sol.charge[n:][::-1]
    assert np.allclose(q_pos, -q_neg, rtol=1e-9)
    assert abs(sol.charge.sum()) < 1e-9 * np.abs(sol.charge).sum()


def test_wire_field_core_window():
    # the coax-like form holds a few percent through the core of the wire;
    # the open end pulls away from it (the expected edge-field uptick)
    y, e, e_th = wire_field_profile(100 * UM, 0.1 * UM, 0.0, mesh_scale=0.8)
    core = (y >= 0.2 * UM) & (y <= 30 * UM)
    assert np.max(np.abs(e[core] / e_th[core] - 1.0)) < 0.05
    end = y > 95 * UM
    assert np.all(e[end] / e_th[end] > 1.1)


def test_flat_wire_envelope():
    y, e, e_th = wire_field_profile(50 * UM, 0.1 * UM, 0.0, mesh_scale=0.9,
                                    flat=True)
    win = (y >= 0.4 * UM) & (y <= 20 * UM)
    assert np.max(np.abs(e[win] / e_th[win] - 1.0)) < 0.10


def test_mesh_cap_enforced():
    with pytest.raises(MeshCapError):
        meshes.Mesh("planar", np.zeros((30_000, 2)), np.ones(30_000),
                    np.zeros(30_000, int), np.full(30_000, "x", object))


def test_too_coarse_meshes_rejected():
    with pytest.raises(MeshCapError, match="at least 3 elements"):
        meshes.circle(10 * UM, 2)
    with pytest.raises(MeshCapError, match="no elements"):
        meshes.wire_strip(50 * UM, lambda y: np.full_like(y, 0.1 * UM),
                          y0=0.02 * UM, n=0)


def test_singular_matrix_reported(monkeypatch):
    # rcond = 0 must be reported, not turned into a 1/rcond division, and
    # the SolverError is the only report: no warning reaches stderr
    from surfloss.bem import solver as solver_mod
    monkeypatch.setattr(solver_mod, "assemble",
                        lambda mesh, mirror=False: np.ones((2, 2)))
    m = meshes.Mesh("planar", np.zeros((2, 2)), np.ones(2), np.zeros(2, int),
                    np.full(2, "x", object))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="singular"):
            solve(m, {0: 1.0})


def _dense_cases():
    coax = meshes.concat([
        meshes.circle(10 * UM, 80, electrode=0, side="inner"),
        meshes.circle(100 * UM, 240, electrode=1, side="shield")])
    ribbon = _rwg_mesh(50 * UM, 100 * UM, 130 * UM, 0.1 * UM, 20e-9, 2 * UM,
                       2000 * UM)
    rings = meshes.wire_rings(50 * UM, lambda y: np.full_like(y, 0.1 * UM),
                              y0=0.02 * UM, n=200)
    strip = meshes.wire_strip(50 * UM, lambda y: np.full_like(y, 0.1 * UM),
                              y0=0.02 * UM, n=200)
    return {
        "coax": (coax, {0: 1.0, 1: 0.0}, False),
        "ribbon-ground": (ribbon, {0: 0.5, 1: -0.5, 2: 0.0, 3: 0.0}, False),
        "ring-mirror": (rings, {0: 0.5}, True),
        "flatwire-mirror": (strip, {0: 0.5}, True),
    }


@pytest.mark.parametrize("case", ["coax", "ribbon-ground", "ring-mirror",
                                  "flatwire-mirror"])
def test_solve_matches_dense_solve(case):
    # Cholesky (planar, ring) and LU (flatwire) against a plain dense solve
    # of the same assembled system
    mesh, volts, mirror = _dense_cases()[case]
    v = np.empty(mesh.n)
    for eid, volt in volts.items():
        v[mesh.electrode == eid] = volt
    want = np.linalg.solve(assemble(mesh, mirror=mirror), v)
    sol = solve(mesh, volts, mirror=mirror)
    # normwise: ground elements far from the ribbon carry charges many
    # orders below the largest, and those agree only to the condition
    # number times the rounding error
    assert np.linalg.norm(sol.charge - want) <= 1e-12 * np.linalg.norm(want)
    assert 0.0 < sol.rcond < 1.0


def test_indefinite_matrix_reported(monkeypatch):
    # a symmetric matrix that is not positive definite has no Cholesky
    # factor: one SolverError, no warning and no fallback solve
    from surfloss.bem import solver as solver_mod
    monkeypatch.setattr(solver_mod, "assemble",
                        lambda mesh, mirror=False: np.array([[1.0, 2.0],
                                                             [2.0, 1.0]]))
    m = meshes.Mesh("planar", np.zeros((2, 2)), np.ones(2), np.zeros(2, int),
                    np.full(2, "x", object))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="singular"):
            solve(m, {0: 1.0})


def test_coincident_elements_rejected():
    pos = np.array([[0.0, 0.0], [0.0, 0.0], [5e-6, 0.0]])
    m = meshes.Mesh("planar", pos, np.full(3, 1e-6), np.zeros(3, int),
                    np.full(3, "m", object),
                    tangent=np.tile([1.0, 0.0], (3, 1)))
    with pytest.raises(SolverError):
        solve(m, {0: 1.0})


def test_solution_csv_dump(tmp_path):
    m = meshes.concat([
        meshes.circle(10 * UM, 60, electrode=0, side="inner"),
        meshes.circle(100 * UM, 120, electrode=1, side="shield")])
    sol = solve(m, {0: 1.0, 1: 0.0})
    path = tmp_path / "solution.csv"
    sol.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "position,width,charge,field,side"
    assert len(lines) == m.n + 1
    assert lines[1].endswith("inner")


def test_graded_widths_sum_and_growth():
    w = meshes.graded_widths(1.0, 1e-3, 0.1)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
    assert w[0] < 2e-3 and w[-1] < 2e-3
    growth = w[1:8] / w[:7]
    assert np.all(growth < 1.2001)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope")
