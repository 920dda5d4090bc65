"""Solver validation against exact references, plus the fast pieces of the
verification suites (the full sweeps run in the acceptance module)."""

import math
import warnings

import numpy as np
import pytest

from surfloss.constants import EPS0
from surfloss import _kernels as kern
from surfloss import analytic, cli
from surfloss.bem import (SUITES, ChargeSolution, MeshCapError, SolverError,
                          assemble, solve)
from surfloss.bem import mesh as meshes
from surfloss.bem import solver as solver_mod
from surfloss.bem import suites
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
                        lambda mesh, mirror=False, rows=None: np.ones((2, 2)))
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
                        lambda mesh, mirror=False, rows=None:
                        np.array([[1.0, 2.0], [2.0, 1.0]]))
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


def test_graded_widths_sum_and_growth():
    w = meshes.graded_widths(1.0, 1e-3, 0.1)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
    assert w[0] < 2e-3 and w[-1] < 2e-3
    growth = w[1:8] / w[:7]
    assert np.all(growth < 1.2001)


def _graded_widths_summing(total, h_min, h_max):
    """graded_widths as it was, re-summing both lists on every step."""
    h_min = min(h_min, total / 4)
    h_max = max(h_max, h_min)
    start = [h_min]
    end = [h_min]
    while sum(start) + sum(end) < total:
        if sum(start) <= sum(end):
            start.append(min(start[-1] * meshes.GRADE_RATIO, h_max))
        else:
            end.append(min(end[-1] * meshes.GRADE_RATIO, h_max))
    w = np.array(start + end[::-1])
    return w * (total / w.sum())


@pytest.mark.parametrize("total, h_min, h_max", [
    (1.0, 1e-3, 0.1), (200e-6, 5e-9, 1e-6), (80e-6, 20e-9, 2e-6),
    (1e-6, 1e-6, 1e-6), (3.3e-6, 7e-10, 0.25e-6)])
def test_graded_widths_running_sums_match_summing_loop(total, h_min, h_max):
    assert np.array_equal(meshes.graded_widths(total, h_min, h_max),
                          _graded_widths_summing(total, h_min, h_max))


#: element count of every solve of a verify pass at mesh scale 1
VERIFY_MESH_SIZES = {
    "coax": [1600, 3200], "flat-coax": [1083],
    "corner": [1186, 1222, 1162, 1196, 1142, 1178, 1126, 1158, 1116, 1144,
               1116, 1140, 1230, 1332, 1202, 1304, 1178, 1282, 1154, 1254,
               1130, 1228, 1112, 1208],
    "ribbon-ground": [280, 634, 634, 634, 634, 624, 624, 624, 624, 608, 608,
                      608, 608],
    "cyl-wire": [340, 340, 340], "flat-wire": [280]}


def test_verify_mesh_sizes_are_pinned(monkeypatch):
    sizes = []

    def counting_solve(mesh, voltages, mirror=False):
        sizes.append(mesh.n)
        return solve(mesh, voltages, mirror)

    monkeypatch.setattr(suites, "solve", counting_solve)
    got = {}
    for suite in SUITES:
        sizes = []
        run_suite(suite, mesh_scale=1.0)
        got[suite] = sizes
    assert got == VERIFY_MESH_SIZES


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope")


# --------------------------------------------------------------------------
# solves in the mirror-symmetry subspace

def _drive(mesh, volts):
    v = np.empty(mesh.n)
    for eid, volt in volts.items():
        v[mesh.electrode == eid] = volt
    return v


def _subspace_dim(mesh, chi_x, chi_y):
    """Dimension of the charge subspace of the mirror group {1, x, y, xy}
    with drive signs chi: (1/4) sum over g of chi(g) * (elements g fixes)."""
    on = np.abs(mesh.pos) <= 1e-12 * np.abs(mesh.pos).max()
    fixed = (mesh.n, on[:, 0].sum(), on[:, 1].sum(), (on[:, 0] & on[:, 1]).sum())
    return (fixed[0] + chi_x * fixed[1] + chi_y * fixed[2]
            + chi_x * chi_y * fixed[3]) // 4


def _ribbons():
    return [meshes.thin_strip(50 * UM, 100 * UM, 20e-9, 2 * UM, electrode=0),
            meshes.thin_strip(-100 * UM, -50 * UM, 20e-9, 2 * UM,
                              electrode=1)]


def _nudged_coax():
    mesh = meshes.concat([meshes.circle(10 * UM, 80, electrode=0),
                          meshes.circle(100 * UM, 240, electrode=1)])
    mesh.pos[5, 0] += 1e-9 * np.abs(mesh.pos).max()
    return mesh


def _symmetry_cases():
    """name -> (mesh, drive, (chi_x, chi_y) or None for no symmetry)."""
    shield = meshes.circle(100 * UM, 240, electrode=1)
    return {
        "coax": (meshes.concat([meshes.circle(10 * UM, 80, electrode=0),
                                shield]), {0: 1.0, 1: 0.0}, (1, 1)),
        "flat-coax": (meshes.concat([
            meshes.thin_strip(-10 * UM, 10 * UM, 5e-9, 1 * UM), shield]),
            {0: 1.0, 1: 0.0}, (1, 1)),
        # 111 elements on the top and the bottom line: one of each on x = 0
        "square-film-odd-top": (meshes.concat([
            meshes.film_cross_section(10 * UM, 1 * UM, 0.0125 * UM,
                                      0.25 * UM, edge="square"), shield]),
            {0: 1.0, 1: 0.0}, (1, 1)),
        # n_arc = 105: each rounded end has one element on y = 0
        "semicircle-film-odd-arc": (meshes.concat([
            meshes.film_cross_section(10 * UM, 1 * UM, 0.01 * UM, 0.25 * UM,
                                      edge="semicircle"), shield]),
            {0: 1.0, 1: 0.0}, (1, 1)),
        "ribbon-ground": (_rwg_mesh(50 * UM, 100 * UM, 130 * UM, 0.1 * UM,
                                    20e-9, 2 * UM, 2000 * UM),
                          {0: 0.5, 1: -0.5, 2: 0.0, 3: 0.0}, (-1, 1)),
        # 61 ground elements: the middle one sits on x = 0
        "ground-on-axis": (meshes.concat(_ribbons() + [
            meshes.thin_strip(-20 * UM, 20 * UM, 0.1 * UM, 1 * UM,
                              electrode=2)]),
            {0: 0.5, 1: -0.5, 2: 0.0}, (-1, 1)),
        "nudged-element": (_nudged_coax(), {0: 1.0, 1: 0.0}, None),
        "unbalanced-drive": (meshes.concat(_ribbons()), {0: 1.0, 1: 0.3},
                             None),
    }


def _reduced_solve(monkeypatch, mesh, volts):
    """solve(mesh, volts) and the number of rows it assembled, summed over
    its blocks of rows."""
    built = []

    def counting_assemble(mesh, mirror=False, rows=slice(None)):
        built.append(len(np.arange(mesh.n)[rows]))
        return assemble(mesh, mirror, rows)

    monkeypatch.setattr(solver_mod, "assemble", counting_assemble)
    sol = solve(mesh, volts)
    monkeypatch.undo()
    return sol, sum(built)


@pytest.mark.parametrize("case", list(_symmetry_cases()))
def test_reduced_solve_matches_full_matrix(monkeypatch, case):
    mesh, volts, chi = _symmetry_cases()[case]
    v = _drive(mesh, volts)
    want = np.linalg.solve(assemble(mesh), v)
    sol, unknowns = _reduced_solve(monkeypatch, mesh, volts)
    assert np.linalg.norm(sol.charge - want) <= 1e-12 * np.linalg.norm(want)
    if chi is None:
        assert unknowns == mesh.n
    else:
        assert unknowns == _subspace_dim(mesh, *chi) < mesh.n


@pytest.mark.parametrize("case, axis", [("square-film-odd-top", 0),
                                        ("semicircle-film-odd-arc", 1)])
def test_film_cases_have_axis_elements(case, axis):
    # each film case puts two elements on a mirror axis, so its orbits of
    # size 2 are exercised
    mesh, _, _ = _symmetry_cases()[case]
    on = np.abs(mesh.pos[:, axis]) <= 1e-12 * np.abs(mesh.pos).max()
    assert on.sum() == 2


def test_antisymmetric_drive_zeroes_axis_charges():
    mesh, volts, _ = _symmetry_cases()["ground-on-axis"]
    on_axis = np.abs(mesh.pos[:, 0]) <= 1e-12 * np.abs(mesh.pos).max()
    assert on_axis.sum() == 1
    sol = solve(mesh, volts)
    assert np.all(sol.charge[on_axis] == 0.0)
    assert np.all(sol.charge[~on_axis] != 0.0)


@pytest.mark.parametrize("case", ["semicircle-film-odd-arc", "ribbon-ground"])
def test_reduced_solve_ignores_element_order(monkeypatch, case):
    mesh, volts, _ = _symmetry_cases()[case]
    flipped = meshes.Mesh("planar", mesh.pos[::-1], mesh.width[::-1],
                          mesh.electrode[::-1], mesh.side[::-1],
                          tangent=mesh.tangent[::-1],
                          end_distance=mesh.end_distance[::-1],
                          thin_sheet=mesh.thin_sheet)
    sol, unknowns = _reduced_solve(monkeypatch, mesh, volts)
    sol_f, unknowns_f = _reduced_solve(monkeypatch, flipped, volts)
    assert unknowns_f == unknowns
    assert np.linalg.norm(sol_f.charge[::-1] - sol.charge) \
        <= 1e-12 * np.linalg.norm(sol.charge)


def _dense_solve(mesh, voltages, mirror=False):
    """Reference solve: the full matrix by LAPACK's general dense solver,
    with solve()'s capacitance convention."""
    q = np.linalg.solve(assemble(mesh, mirror=mirror), _drive(mesh, voltages))
    pos_id = max(voltages, key=voltages.get)
    vals = sorted(voltages.values())
    dv = 2.0 * voltages[pos_id] if mirror else vals[-1] - vals[0]
    return ChargeSolution(mesh, q, math.nan,
                          float(q[mesh.electrode == pos_id].sum()) / dv)


@pytest.mark.parametrize("suite", SUITES)
def test_suites_match_full_matrix_solves(monkeypatch, suite):
    # mesh scale 0.55 gives odd element counts: the corner shields (495)
    # keep only y -> -y, and the films and strips have elements on the axes
    got = run_suite(suite, mesh_scale=0.55)
    monkeypatch.setattr(suites, "solve", _dense_solve)
    want = run_suite(suite, mesh_scale=0.55)
    assert [c.name for c in got] == [c.name for c in want]
    for g, w in zip(got, want):
        assert abs(g.computed - w.computed) \
            <= 1e-9 * max(abs(g.computed), abs(w.computed)), g.name


#: exit code and check count of `verify --mesh-scale 0.5` per suite
VERIFY_AT_HALF_SCALE = {"coax": (0, 3), "flat-coax": (4, 4), "corner": (0, 4),
                        "ribbon-ground": (4, 6), "cyl-wire": (4, 6),
                        "flat-wire": (0, 3)}


@pytest.mark.parametrize("suite", SUITES)
def test_verify_runs_clean_under_floating_point_traps(suite, capsys):
    # cli.main runs under np.errstate(raise): a log(0) or 0/0 anywhere in
    # the reduced assembly would exit 3
    code, n_checks = VERIFY_AT_HALF_SCALE[suite]
    assert cli.main(["verify", "--suite", suite, "--mesh-scale", "0.5"]) == code
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == n_checks
    assert all(line.startswith(("[PASS] ", "[FAIL] ")) for line in lines)
    assert ("[FAIL]" in out) == (code == 4)
    assert err == ""


# --------------------------------------------------------------------------
# the planar rows are folded in blocks: the output does not depend on the
# block size

def _reduced_matrix_one_block(mesh, v):
    """solve()'s reduced matrix, with every representative row in one
    block."""
    perms, signs = solver_mod._mirror_group(mesh, v)
    rep = perms.min(axis=0)
    onto_rep = perms == rep
    fixed = onto_rep[signs > 0].any(axis=0) & onto_rep[signs < 0].any(axis=0)
    rows = np.flatnonzero((rep == np.arange(mesh.n)) & ~fixed)
    root = np.sqrt(np.bincount(rep, minlength=mesh.n)[rows])
    b = assemble(mesh, False, rows)
    m = b[:, rows]
    for p, s in zip(perms[1:, rows], signs[1:]):
        m += s * b[:, p]
    m *= root[:, None]
    m *= root / len(perms)
    return m, len(perms)


def _solved_matrix(monkeypatch, mesh, volts):
    """solve(mesh, volts) and the reduced matrix it factored."""
    seen = []

    def keeping_cholesky(m, v, anorm):
        seen.append(m.copy())
        return factor(m, v, anorm)

    factor = solver_mod._solve_cholesky
    monkeypatch.setattr(solver_mod, "_solve_cholesky", keeping_cholesky)
    sol = solve(mesh, volts)
    monkeypatch.setattr(solver_mod, "_solve_cholesky", factor)
    return sol, seen[0]


@pytest.mark.parametrize("entries", [1, 7, 300, 1000, kern.BLOCK_ENTRIES])
@pytest.mark.parametrize("case, order", [("coax", 4), ("nudged-element", 1)])
def test_reduced_planar_matrix_does_not_depend_on_block_size(
        monkeypatch, case, order, entries):
    # 1, 7 and 300 entries give one row per block, 1000 three rows, which
    # neither 80 representatives (coax) nor 320 (nudged) is a multiple of
    mesh, volts, _ = _symmetry_cases()[case]
    want, k = _reduced_matrix_one_block(mesh, _drive(mesh, volts))
    assert k == order
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", mesh.n ** 2)
    want_sol, _ = _solved_matrix(monkeypatch, mesh, volts)
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", entries)
    sol, got = _solved_matrix(monkeypatch, mesh, volts)
    assert np.array_equal(got, want)
    assert np.array_equal(sol.charge, want_sol.charge)
