"""Solver validation against exact references, plus the fast pieces of the
verification suites (the full sweeps run in the acceptance module)."""

import math
import warnings
from functools import partial

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


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
def test_max_asymmetry_is_the_dense_value_exactly(n):
    # n below, at, just above and well past one block of 256 rows
    a = np.random.default_rng(n).standard_normal((n, n))
    got = suites._max_asymmetry(n, lambda rows, cols: a[rows][:, cols])
    assert got == np.max(np.abs(a - a.T))


def test_coax_planar_matrix_is_exactly_symmetric_by_blocks():
    # the first mesh of suite_coax at mesh scale 1
    m = meshes.concat([meshes.circle(10e-6, 400, electrode=0),
                       meshes.circle(100e-6, 1200, electrode=1)])
    assert suites._max_asymmetry(
        m.n, partial(kern.planar_matrix, *m.pos.T, m.width)) == 0.0


def test_prolate_spheroid_capacitance():
    # exact closed form validates the ring kernel end to end.  A ring mesh
    # faces its image in z = 0, so the spheroid is centred at z0 = 1 mm,
    # where the image's potential on it is that of a point charge at
    # 2*z0 to a few parts in 1e6 of the capacitance
    a_ax, b_eq, z0 = 50 * UM, 0.5 * UM, 1e-3
    ecc = math.sqrt(1 - (b_eq / a_ax) ** 2)
    c_exact = 8 * math.pi * EPS0 * a_ax * ecc / math.log((1 + ecc) / (1 - ecc))
    n = 300
    th_edges = np.arange(n + 1) * math.pi / n
    th = 0.5 * (th_edges[:-1] + th_edges[1:])
    z = z0 + a_ax * np.cos(th)
    r = b_eq * np.sin(th)
    ze = a_ax * np.cos(th_edges)
    re = b_eq * np.sin(th_edges)
    w = np.hypot(np.diff(ze), np.diff(re))
    m = meshes.Mesh("ring", np.stack([z, r], 1), w, np.zeros(n, int))
    sol = solve(m, {0: 0.5})
    # the charge Q at 0.5 V has 0.5 = Q/C - Q/(4 pi eps 2 z0), and the
    # pair's capacitance is Q over the differential drive of 1 V
    c_alone = 1.0 / (0.5 / sol.charge_of(0) + 1.0 / (8 * math.pi * EPS0 * z0))
    assert c_alone == pytest.approx(c_exact, rel=2e-3)


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


@pytest.mark.parametrize("flat", [False, True], ids=["ring", "flatwire"])
def test_surface_field_is_charge_per_area(flat):
    # a ring's charge spreads over 2 pi r times its arc length; a flat
    # strip's line charge q/width over 2 pi rbar, the same product
    mesh, sol = suites._wire_pair(50 * UM, 0.1 * UM, 0.2, 0.3, flat)
    r, w = mesh.pos[:, 1], mesh.width
    per_kind = (np.abs(sol.charge / w) / (2 * np.pi * EPS0 * r) if flat
                else np.abs(sol.charge) / (2 * np.pi * r * w * EPS0))
    np.testing.assert_allclose(sol.surface_field(), per_kind, rtol=1e-15,
                               atol=0.0)


def test_surface_field_needs_a_wire_mesh():
    sol = solve(meshes.concat(_ribbons()), {0: 0.5, 1: -0.5})
    with pytest.raises(ValueError, match="wire meshes"):
        sol.surface_field()


def test_flat_wire_envelope():
    y, e, e_th = wire_field_profile(50 * UM, 0.1 * UM, 0.0, mesh_scale=0.9,
                                    flat=True)
    win = (y >= 0.4 * UM) & (y <= 20 * UM)
    assert np.max(np.abs(e[win] / e_th[win] - 1.0)) < 0.10


def test_mesh_cap_enforced():
    with pytest.raises(MeshCapError):
        meshes.Mesh("planar", np.zeros((30_000, 2)), np.ones(30_000),
                    np.zeros(30_000, int))


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
                        lambda mesh, rows, cols: np.ones((len(rows),
                                                          len(cols))))
    m = meshes.Mesh("planar", np.zeros((2, 2)), np.ones(2), np.zeros(2, int))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="singular"):
            solve(m, {0: 1.0})


def _dense_cases():
    coax = meshes.concat([meshes.circle(10 * UM, 80, electrode=0),
                          meshes.circle(100 * UM, 240, electrode=1)])
    ribbon = _rwg_mesh(50 * UM, 100 * UM, 130 * UM, 0.1 * UM, 20e-9, 2 * UM,
                       2000 * UM)
    rings = meshes.wire_rings(50 * UM, lambda y: np.full_like(y, 0.1 * UM),
                              y0=0.02 * UM, n=200)
    strip = meshes.wire_strip(50 * UM, lambda y: np.full_like(y, 0.1 * UM),
                              y0=0.02 * UM, n=200)
    return {
        "coax": (coax, {0: 1.0, 1: 0.0}),
        "ribbon-ground": (ribbon, {0: 0.5, 1: -0.5, 2: 0.0, 3: 0.0}),
        "ring-mirror": (rings, {0: 0.5}),
        "flatwire-mirror": (strip, {0: 0.5}),
    }


@pytest.mark.parametrize("case", ["coax", "ribbon-ground", "ring-mirror",
                                  "flatwire-mirror"])
def test_solve_matches_dense_solve(case):
    # Cholesky (planar, ring) and LU (flatwire) against a plain dense solve
    # of the same assembled system
    mesh, volts = _dense_cases()[case]
    v = np.empty(mesh.n)
    for eid, volt in volts.items():
        v[mesh.electrode == eid] = volt
    want = np.linalg.solve(assemble(mesh), v)
    sol = solve(mesh, volts)
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
                        lambda mesh, rows, cols:
                        np.array([[1.0, 2.0], [2.0, 1.0]])[np.ix_(rows, cols)])
    m = meshes.Mesh("planar", np.zeros((2, 2)), np.ones(2), np.zeros(2, int))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="singular"):
            solve(m, {0: 1.0})


def _solve_assembled(monkeypatch, kind, matrix, volts):
    """solve() on a two-element mesh of the given kind whose assembled
    matrix is `matrix`, with warnings raised as errors."""
    monkeypatch.setattr(solver_mod, "assemble",
                        lambda mesh, rows=slice(None), cols=slice(None):
                        np.array(matrix, float)[rows][:, cols])
    m = meshes.Mesh(kind, np.ones((2, 2)), np.ones(2), np.zeros(2, int))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve(m, volts)


def test_singular_lu_reported_without_a_warning(monkeypatch):
    # an exactly zero LU pivot gives rcond = 0: one SolverError, and no
    # LinAlgWarning on the way
    with pytest.raises(SolverError, match="singular: condition estimate"):
        _solve_assembled(monkeypatch, "flatwire", [[1.0, 2.0], [2.0, 4.0]],
                         {0: 1.0})


@pytest.mark.parametrize("kind", ["flatwire", "ring"])
def test_ill_conditioned_matrix_reported(monkeypatch, kind):
    # LU (flatwire) and Cholesky (ring) both estimate rcond = 1e-14,
    # below RCOND_LIMIT
    with pytest.raises(SolverError, match="ill-conditioned"):
        _solve_assembled(monkeypatch, kind, [[1.0, 0.0], [0.0, 1e-14]],
                         {0: 1.0})


@pytest.mark.parametrize("kind", ["flatwire", "ring"])
def test_nan_drive_fails_the_residual_check(monkeypatch, kind):
    # a NaN voltage gives a NaN residual, which the residual check
    # reports instead of returning NaN charges
    with pytest.raises(SolverError, match="solve residual nan"):
        _solve_assembled(monkeypatch, kind, [[2.0, 1.0], [1.0, 2.0]],
                         {0: math.nan})


@pytest.mark.parametrize("kind, routine", [("flatwire", "dgetrs"),
                                           ("ring", "dpotrs")])
def test_inexact_solve_fails_the_residual_check(monkeypatch, kind, routine):
    # an LU (flatwire) or Cholesky (ring) back substitution whose solution
    # is 1e-6 too large leaves a finite relative residual of 1e-6, which
    # the residual check reports
    from scipy.linalg import lapack
    exact = getattr(lapack, routine)

    def scaled(*args):
        y, *rest = exact(*args)
        return (y * (1.0 + 1e-6), *rest)
    monkeypatch.setattr(lapack, routine, scaled)
    with pytest.raises(SolverError,
                       match=r"^solve residual 1\.00e-06 exceeds 1e-10$"):
        _solve_assembled(monkeypatch, kind, [[2.0, 1.0], [1.0, 2.0]],
                         {0: 1.0})


@pytest.mark.parametrize("kind", ["flatwire", "ring"])
def test_zero_drive_gives_zero_charges(monkeypatch, kind):
    # the residual check compares |r| with the limit times |v|, so a zero
    # drive divides nothing by zero
    sol = _solve_assembled(monkeypatch, kind, [[2.0, 1.0], [1.0, 2.0]],
                           {0: 0.0})
    assert np.array_equal(sol.charge, np.zeros(2))


def test_drive_must_name_every_electrode():
    # an electrode without a voltage would be driven by uninitialized memory
    m = meshes.concat([meshes.circle(10e-6, 40, electrode=0),
                       meshes.circle(100e-6, 120, electrode=1),
                       meshes.circle(200e-6, 120, electrode=2)])
    with pytest.raises(ValueError, match=r"electrodes \[1, 2\]"):
        solve(m, {0: 1.0})


def test_coincident_elements_rejected():
    pos = np.array([[0.0, 0.0], [0.0, 0.0], [5e-6, 0.0]])
    m = meshes.Mesh("planar", pos, np.full(3, 1e-6), np.zeros(3, int),
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


def _cap_peak(build):
    """tracemalloc peak, in bytes, of a build that must stop at the cap."""
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(MeshCapError, match="cap is 20000; coarsen"):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tenth_um(y):
    return np.full_like(y, 0.1 * UM)


@pytest.mark.parametrize("build", [
    lambda: meshes.circle(10 * UM, 10**14),
    lambda: meshes.film_cross_section(10 * UM, 1 * UM, 1e-30, 0.25 * UM,
                                      edge="semicircle"),
    lambda: meshes.wire_rings(50 * UM, _tenth_um, y0=0.02 * UM, n=10**14),
    lambda: meshes.wire_strip(50 * UM, _tenth_um, y0=0.02 * UM, n=10**14),
    lambda: meshes.graded_widths(1.0, 1e-12, 1e-9),
], ids=["circle", "film-arc", "wire-rings", "wire-strip", "graded-widths"])
def test_builders_check_the_cap_before_allocating(build):
    # each would need terabytes, or a Python list of 1e9 widths
    assert _cap_peak(build) < 2e6


@pytest.mark.parametrize("h_min, h_max, at_least", [
    (1e-12, 1e-9, 1e9), (1e-300, 1e-300, 1e300), (0.0, 1e-9, math.inf)])
def test_graded_widths_over_the_cap_counts_the_length_left(h_min, h_max,
                                                           at_least):
    # a unit length takes at least 1/h_max elements; elements of width 0
    # never cover it
    with pytest.raises(MeshCapError) as exc:
        meshes.graded_widths(1.0, h_min, h_max)
    assert float(str(exc.value).split()[2]) >= at_least


@pytest.mark.parametrize("scale", [1e4, 1e5])
def test_ribbon_ground_over_the_cap_stops_early(scale):
    # without its own check, graded_widths grows about 60 * scale widths
    # before the Mesh sees the count: 533 MB at 1e5
    assert _cap_peak(lambda: run_suite("ribbon-ground", mesh_scale=scale)) \
        < 4e6


@pytest.mark.parametrize("scale", ["1e12", "1e300"])
def test_verify_over_the_cap_names_it(scale, capsys):
    assert cli.main(["verify", "--suite", "coax", "--mesh-scale", scale]) == 3
    out, err = capsys.readouterr()
    unknowns = int(400 * float(scale))
    assert (out, err) == ("", f"error[3]: mesh has {unknowns:.6g} unknowns, "
                          "cap is 20000; coarsen the grading or reduce "
                          "mesh_scale\n")


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

    def counting_solve(mesh, voltages):
        sizes.append(mesh.n)
        return solve(mesh, voltages)

    monkeypatch.setattr(suites, "solve", counting_solve)
    got = {}
    for suite in SUITES:
        sizes = []
        run_suite(suite, mesh_scale=1.0)
        got[suite] = sizes
    assert got == VERIFY_MESH_SIZES


def test_suites_dispatch_in_the_order_the_parser_offers():
    # the CLI's parser takes SUITES from constants, without the solver
    from surfloss import constants
    assert suites.SUITES is constants.SUITES
    assert tuple(suites._SUITE_FN) == SUITES


def test_solver_errors_are_numerical_errors():
    # cli.main reports NumericalError as exit 3 without importing the solver
    from surfloss.geometry import NumericalError
    assert issubclass(MeshCapError, NumericalError)
    assert issubclass(SolverError, NumericalError)
    assert issubclass(NumericalError, RuntimeError)


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

    def counting_assemble(mesh, rows=slice(None), cols=slice(None)):
        built.append(len(np.arange(mesh.n)[rows]))
        return assemble(mesh, rows, cols)

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
                          mesh.electrode[::-1], tangent=mesh.tangent[::-1],
                          end_distance=mesh.end_distance[::-1])
    sol, unknowns = _reduced_solve(monkeypatch, mesh, volts)
    sol_f, unknowns_f = _reduced_solve(monkeypatch, flipped, volts)
    assert unknowns_f == unknowns
    assert np.linalg.norm(sol_f.charge[::-1] - sol.charge) \
        <= 1e-12 * np.linalg.norm(sol.charge)


def test_mirror_group_has_distinct_permutations():
    # y -> -y maps every element of a mesh on y = 0 onto itself: the group
    # is {1, x}, not {1, x, 1, x}
    mesh, volts = meshes.concat(_ribbons()), {0: 0.5, 1: -0.5}
    perms, signs, flips = solver_mod._mirror_group(mesh, _drive(mesh, volts))
    assert len(perms) == 2
    assert len({p.tobytes() for p in perms}) == 2
    assert signs.tolist() == [1.0, -1.0]
    assert flips.tolist() == [[1.0, 1.0], [-1.0, 1.0]]
    sol = solve(mesh, volts)
    assert all(np.array_equal(g, w) for g, w in zip(sol.group,
                                                    (perms, signs, flips)))


def test_mirror_group_is_found_once_per_solve(monkeypatch):
    # field_at filters the group its solve found and derives none itself
    calls, in_field_at = [], []
    mirror_group, field_at = solver_mod._mirror_group, ChargeSolution.field_at

    def counting_mirror_group(mesh, v):
        calls.append(mesh.kind)
        return mirror_group(mesh, v)

    def watched_field_at(sol, px, py):
        before = len(calls)
        out = field_at(sol, px, py)
        in_field_at.append(len(calls) - before)
        return out

    monkeypatch.setattr(solver_mod, "_mirror_group", counting_mirror_group)
    monkeypatch.setattr(ChargeSolution, "field_at", watched_field_at)
    for suite in ("coax", "flat-coax", "corner", "ribbon-ground"):
        run_suite(suite, mesh_scale=1.0)
    assert calls == ["planar"] * 40
    assert in_field_at == [0] * 33


def _dense_solve(mesh, voltages):
    """Reference solve: the full matrix by LAPACK's general dense solver."""
    q = np.linalg.solve(assemble(mesh), _drive(mesh, voltages))
    return ChargeSolution(mesh, q, math.nan, solver_mod._mirror_group(mesh, q))


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
# the planar rows are folded in blocks, each against the columns up to its
# last row: the output does not depend on the block size, and the triangle
# the factorization reads is the one a single block against every column
# gives

def _reduced_matrix_one_block(mesh, v):
    """solve()'s reduced matrix, with every representative row in one
    block against every column: (matrix, rows, root, (perms, signs))."""
    perms, signs, _ = solver_mod._mirror_group(mesh, v)
    rep = perms.min(axis=0)
    onto_rep = perms == rep
    fixed = onto_rep[signs > 0].any(axis=0) & onto_rep[signs < 0].any(axis=0)
    rows = np.flatnonzero((rep == np.arange(mesh.n)) & ~fixed)
    root = np.sqrt(np.bincount(rep, minlength=mesh.n)[rows])
    b = assemble(mesh, rows)
    m = b[:, rows]
    for p, s in zip(perms[1:, rows], signs[1:]):
        m += s * b[:, p]
    m *= root[:, None]
    m *= root / len(perms)
    return m, rows, root, (perms, signs)


def _one_block_charges(mesh, v):
    """Element charges from the Cholesky factor of the one-block reduced
    matrix (LAPACK reads its lower triangle), unfolded as solve() does."""
    from scipy.linalg import cho_solve, lapack
    m, rows, root, (perms, signs) = _reduced_matrix_one_block(mesh, v)
    c, info = lapack.dpotrf(m.T, clean=False)
    assert info == 0
    q = np.zeros(mesh.n)
    q[rows] = cho_solve((c, False), root * v[rows], check_finite=False) / root
    rep = perms.min(axis=0)
    plus = (perms == rep)[signs > 0].any(axis=0)
    return np.where(plus, q[rep], -q[rep])


@pytest.mark.parametrize("scale", [0.55, 1.0])
def test_planar_solves_factor_the_one_block_triangle(monkeypatch, scale):
    # every planar solve of a verify pass: bit for bit the charges of the
    # one-block matrix, from at most 0.6 x (reduced rows x n) kernel
    # entries, the count of every reduced row against every element
    planar_matrix, solve_ = kern.planar_matrix, suites.solve
    built, solves = [0], []

    def counting(*args):
        out = planar_matrix(*args)
        built[0] += out.size
        return out

    def keeping_solve(mesh, volts):
        before = built[0]
        sol = solve_(mesh, volts)
        if mesh.kind == "planar":
            solves.append((sol, volts, built[0] - before))
        return sol

    monkeypatch.setattr(kern, "planar_matrix", counting)
    monkeypatch.setattr(suites, "solve", keeping_solve)
    for suite in ("coax", "flat-coax", "corner", "ribbon-ground"):
        run_suite(suite, mesh_scale=scale)
    monkeypatch.undo()
    assert len(solves) == 40
    for sol, volts, entries in solves:
        v = _drive(sol.mesh, volts)
        assert np.array_equal(sol.charge, _one_block_charges(sol.mesh, v))
        rows = _reduced_matrix_one_block(sol.mesh, v)[1]
        assert entries <= 0.6 * len(rows) * sol.mesh.n


def _solved_matrix(monkeypatch, mesh, volts):
    """solve(mesh, volts) and the reduced matrix it factored."""
    seen = []

    def keeping_factor(m, v, symmetric):
        seen.append(m.copy())
        return factor(m, v, symmetric)

    factor = solver_mod._factor_solve
    monkeypatch.setattr(solver_mod, "_factor_solve", keeping_factor)
    sol = solve(mesh, volts)
    monkeypatch.setattr(solver_mod, "_factor_solve", factor)
    return sol, seen[0]


@pytest.mark.parametrize("entries", [1, 7, 300, 1000, kern.BLOCK_ENTRIES])
@pytest.mark.parametrize("case, order", [("coax", 4), ("nudged-element", 1),
                                         ("flat-coax", 4)])
def test_reduced_planar_matrix_does_not_depend_on_block_size(
        monkeypatch, case, order, entries):
    # 1, 7 and 300 entries give one row per block, 1000 three rows, which
    # neither 80 representatives (coax) nor 320 (nudged) is a multiple of;
    # flat-coax's strip lies on y = 0, so its orbits hold each strip
    # element twice.  The reference solve takes every row in one block
    mesh, volts, _ = _symmetry_cases()[case]
    want, _, _, (perms, _) = _reduced_matrix_one_block(mesh, _drive(mesh, volts))
    assert len(perms) == order
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", mesh.n ** 2)
    monkeypatch.setattr(solver_mod, "TRIANGLE_BLOCKS", 1)
    want_sol, one = _solved_matrix(monkeypatch, mesh, volts)
    monkeypatch.undo()
    monkeypatch.setattr(kern, "BLOCK_ENTRIES", entries)
    sol, got = _solved_matrix(monkeypatch, mesh, volts)
    # the lower triangle, which the factorization reads, is the one-block
    # matrix's; the strict upper triangle is its mirror image
    for m in (one, got):
        assert np.array_equal(np.tril(m), np.tril(want))
        assert np.array_equal(m, m.T)
    assert np.array_equal(sol.charge, want_sol.charge)


# --------------------------------------------------------------------------
# field_at sums over one segment per orbit of the reflections that fix its
# points

def _plain_field(sol, px, py):
    """The unfolded field: segment_field over every element."""
    m = sol.mesh
    return kern.segment_field(np.asarray(px, float), np.asarray(py, float),
                              m.pos[:, 0], m.pos[:, 1], m.tangent[:, 0],
                              m.tangent[:, 1], m.width, sol.charge)


def _symmetric_points(mesh):
    """Points that x -> -x and y -> -y map onto the set, at the scale of
    the mesh's median coordinate: much farther out, the log of a ratio
    near 1 leaves each segment's field only about 1e-11 accurate, in the
    folded sum and the plain one alike."""
    scale = float(np.median(np.abs(mesh.pos)))
    x = np.linspace(0.1, 3.0, 15) * scale
    x = np.concatenate([-x[::-1], [0.0], x])
    return np.tile(x, 2), np.repeat([-scale, scale], len(x))


@pytest.mark.parametrize("scale", [0.55, 1.0])
def test_folded_field_matches_the_plain_sum(monkeypatch, scale):
    # every field_at call of a verify pass, and every planar solve of it at
    # points that both reflections map onto the set
    calls, solves = [], []
    field_at, solve_ = ChargeSolution.field_at, suites.solve

    def keeping_field_at(sol, px, py):
        calls.append((sol, px, py))
        return field_at(sol, px, py)

    def keeping_solve(mesh, volts):
        sol = solve_(mesh, volts)
        if mesh.kind == "planar":
            solves.append(sol)
        return sol

    monkeypatch.setattr(ChargeSolution, "field_at", keeping_field_at)
    monkeypatch.setattr(suites, "solve", keeping_solve)
    for suite in ("coax", "flat-coax", "corner", "ribbon-ground"):
        run_suite(suite, mesh_scale=scale)
    monkeypatch.undo()
    assert (len(calls), len(solves)) == (33, 40)
    cases = calls + [(sol, *_symmetric_points(sol.mesh)) for sol in solves]
    folded = 0
    for sol, px, py in cases:
        got = sol.field_at(px, py)
        want = _plain_field(sol, px, py)
        peak = np.max(np.hypot(*want))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-11 * peak
        folded += not all(np.array_equal(g, w) for g, w in zip(got, want))
    assert folded >= len(solves)


def test_fold_evaluates_one_segment_per_orbit(monkeypatch):
    mesh, volts, _ = _symmetry_cases()["coax"]
    sol = solve(mesh, volts)
    pairs = []
    segment_field = kern.segment_field

    def counting(*args):
        pairs.append(len(args[0]) * len(args[2]))
        return segment_field(*args)

    monkeypatch.setattr(kern, "segment_field", counting)
    px, py = _symmetric_points(mesh)
    sol.field_at(px, py)                            # x and y: order 4
    sol.field_at(px[py > 0], py[py > 0])            # x only: order 2
    sol.field_at(np.abs(px[py > 0]) + 1e-7, py[py > 0])   # the identity
    n = len(px) // 2
    assert pairs == [2 * n * mesh.n // 4, n * mesh.n // 2, n * mesh.n]


def test_fold_needs_mirrored_tangents():
    # a segment's field depends on its direction, which the potential
    # matrix does not see: field_at folds by a reflection only where it
    # also maps each tangent onto its image's, up to sign
    mesh, volts, _ = _symmetry_cases()["coax"]
    sol = solve(mesh, volts)
    mesh.tangent[0] = mesh.tangent[0, ::-1]         # turned by 90 degrees
    assert len(sol.group[0]) == 4
    px, py = _symmetric_points(mesh)
    for g, w in zip(sol.field_at(px, py), _plain_field(sol, px, py)):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("case", ["no reflection fixes the points",
                                  "no symmetry in the mesh"])
def test_unfolded_field_is_the_plain_kernel(case):
    if case == "no reflection fixes the points":
        mesh, volts, _ = _symmetry_cases()["square-film-odd-top"]
        px = np.array([11.0, 12.5, 40.0, 15.0]) * UM
        py = np.array([0.0, 0.3, 0.0, -2.0]) * UM
    else:
        mesh, volts, _ = _symmetry_cases()["nudged-element"]
        px, py = _symmetric_points(mesh)
    sol = solve(mesh, volts)
    assert len(sol.group[0]) == (
        4 if case == "no reflection fixes the points" else 1)
    for g, w in zip(sol.field_at(px, py), _plain_field(sol, px, py)):
        assert np.array_equal(g, w)


def test_fold_holds_under_floating_point_traps():
    mesh, volts, _ = _symmetry_cases()["semicircle-film-odd-arc"]
    sol = solve(mesh, volts)
    xs = 10 * UM + np.geomspace(1e-9, 80 * UM, 200)
    px, py = np.concatenate([-xs[::-1], xs]), np.zeros(2 * len(xs))
    want = sol.field_at(px, py)
    with np.errstate(all="raise"):
        got = sol.field_at(px, py)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    plain = _plain_field(sol, px, py)
    assert np.max(np.abs(got[0] - plain[0])) <= 1e-11 * np.max(np.abs(plain[0]))
