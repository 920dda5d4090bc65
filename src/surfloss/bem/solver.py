"""Assemble potential matrices, solve for surface charges, extract
fields, energies, capacitances, and corner constants.

The solves run in vacuum; substrate weighting happens in the analytic
layer ((eps_s+1)/2 for effective capacitance, eps factors in the
participations).  Dense factorizations with a reciprocal-condition
estimate: Cholesky for the symmetric kinds (planar, and ring with or
without its mirror image), whose single-layer log kernel is positive
definite on domains this small; LU for flatwire, whose matrix is not
symmetric.  Systems are capped at 20k unknowns.

Every solve runs in the subspace of the mesh's mirror symmetries.  For a
planar mesh, solve() looks for the reflections x -> -x and y -> -y that
map every element onto one of the same width (positions within 1e-12 of
the mesh extent) and the drive onto plus or minus itself; it then solves
for one element per orbit of images, building only those rows.  Where
there is no such reflection, and for every ring and flat-wire mesh, each
orbit is one element and the reduced system is the full one.  The rcond
and the residual check refer to the reduced system.

The planar rows are built and folded onto the orbits in blocks of about
_kernels.BLOCK_ENTRIES entries, so the n/k x n matrix of representative
rows is never held whole.  Blocking only reorders the loops; the reduced
matrix does not depend on the block size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import _kernels as kern
from ..constants import EPS0
from .mesh import Mesh

RESIDUAL_LIMIT = 1e-10
RCOND_LIMIT = 1e-13
#: a mirror image must land this close to an element, relative to the
#: mesh extent
MIRROR_TOL = 1e-12


class SolverError(RuntimeError):
    pass


def assemble(mesh: Mesh, mirror: bool = False, rows=slice(None)) -> np.ndarray:
    """Potential matrix for a mesh; mirror subtracts the antisymmetric
    image about y=0 (differential wire pairs meshed on one side only).
    rows picks the rows, each against every element; planar meshes build
    only those."""
    if mesh.kind == "planar":
        if mirror:
            raise ValueError("mirror solves are for wire kinds only")
        m = kern.planar_matrix(mesh.pos[:, 0], mesh.pos[:, 1], mesh.width,
                               rows)
    elif mesh.kind == "ring":
        m = kern.ring_matrix(mesh.pos[:, 0], mesh.pos[:, 1], mesh.width,
                             mirror)[rows]
    elif mesh.kind == "flatwire":
        m = kern.flatwire_matrix(mesh.pos[:, 0], mesh.halfwidth, mesh.width,
                                 mirror)[rows]
    else:
        raise ValueError(f"unknown mesh kind {mesh.kind!r}")
    if not np.isfinite(m).all():
        raise SolverError("potential matrix has non-finite entries; "
                          "the mesh contains coincident elements")
    return m


@dataclass
class ChargeSolution:
    """Solved element charges plus bookkeeping for post-processing."""

    mesh: Mesh
    charge: np.ndarray
    rcond: float
    capacitance: float

    def charge_of(self, electrode: int) -> float:
        return float(self.charge[self.mesh.electrode == electrode].sum())

    def surface_field(self) -> np.ndarray:
        """|E|/V just outside each element (V = the solve's drive)."""
        mesh = self.mesh
        sigma = self.charge / mesh.width
        if mesh.kind == "planar":
            return np.abs(sigma) / (2.0 * EPS0 if mesh.thin_sheet else EPS0)
        if mesh.kind == "ring":
            r = mesh.pos[:, 1]
            return np.abs(self.charge) / (2.0 * np.pi * r * mesh.width * EPS0)
        if mesh.kind == "flatwire":
            lam = self.charge / mesh.width
            return np.abs(lam) / (2.0 * np.pi * EPS0 * mesh.halfwidth)
        raise ValueError(mesh.kind)

    def field_at(self, px, py):
        """(Ex, Ey) at off-surface points; planar meshes only."""
        mesh = self.mesh
        if mesh.kind != "planar":
            raise ValueError("off-surface evaluation implemented for planar meshes")
        return kern.segment_field(np.asarray(px, float), np.asarray(py, float),
                                  mesh.pos[:, 0], mesh.pos[:, 1],
                                  mesh.tangent[:, 0], mesh.tangent[:, 1],
                                  mesh.width, self.charge)


def _check_rcond(rcond: float) -> None:
    if rcond == 0.0:
        raise SolverError("potential matrix is singular: condition estimate "
                          "rcond = 0")
    if rcond < RCOND_LIMIT:
        raise SolverError(
            f"potential matrix ill-conditioned: condition estimate {1.0 / rcond:.2e}")


def _solve_cholesky(m, v, anorm):
    from scipy.linalg import cho_solve, lapack

    # upper factor; m is symmetric, and its F-ordered view m.T is copied
    # into the factor's buffer as it lies, without a transpose
    c, info = lapack.dpotrf(m.T, clean=False)
    if info > 0:
        raise SolverError("potential matrix is singular or indefinite: "
                          f"Cholesky factorization failed at pivot {info}")
    rcond = float(lapack.dpocon(c, anorm)[0])
    _check_rcond(rcond)
    return cho_solve((c, False), v, check_finite=False), rcond


def _solve_lu(m, v, anorm):
    from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

    with warnings.catch_warnings():
        # a singular matrix is reported by the rcond check below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(m)
    rcond = float(lapack.dgecon(lu, anorm, norm="1")[0])
    _check_rcond(rcond)
    return lu_solve((lu, piv), v), rcond


def _mirror_group(mesh: Mesh, v: np.ndarray):
    """The reflections x -> -x and y -> -y (and their product) that map a
    planar mesh and its drive onto themselves.

    Returns (perms, signs), identity first: element i's image is element
    perms[g, i], with v[perms[g]] = signs[g] * v.  A reflection counts
    when every image lands within MIRROR_TOL of the mesh extent on an
    element of exactly the same width; the images are paired with the
    elements by sorting both on coordinates rounded to 1e-9 of the extent.
    Other kinds, and planar meshes without either reflection, give the
    identity alone.
    """
    perms, signs = [np.arange(mesh.n)], [1.0]
    if mesh.kind != "planar":
        return np.array(perms), np.array(signs)
    extent = float(np.abs(mesh.pos).max()) or 1.0

    def order(pos):
        key = np.round(pos / (1e-9 * extent))
        return np.lexsort((key[:, 0], key[:, 1]))

    by_pos = order(mesh.pos)
    for flip in ((-1.0, 1.0), (1.0, -1.0)):
        image = mesh.pos * flip
        p = np.empty(mesh.n, int)
        p[order(image)] = by_pos
        if not (np.all(np.abs(mesh.pos[p] - image) <= MIRROR_TOL * extent)
                and np.array_equal(mesh.width[p], mesh.width)):
            continue
        if np.array_equal(v[p], v):
            s = 1.0
        elif np.array_equal(v[p], -v):
            s = -1.0
        else:
            continue
        perms += [g[p] for g in perms]
        signs += [s * t for t in signs]
    return np.array(perms), np.array(signs)


def solve(mesh: Mesh, voltages: dict, mirror: bool = False) -> ChargeSolution:
    """Solve M q = V for the element charges.

    voltages maps electrode id -> potential.  For mirror solves the meshed
    electrode at +V/2 faces an implicit image at -V/2, so the differential
    drive is twice the set potential.

    The unknowns are one charge per orbit of mirror images
    (`_mirror_group`); the rest follow with the drive's sign.  Only the
    representatives' rows are assembled, in blocks of rows
    (`_kernels.row_blocks`); each orbit's columns are summed with their
    signs while the block is in cache, and rows and columns are scaled by
    sqrt(orbit size / group order).  That is M in an orthonormal basis of
    the subspace, so symmetric positive definite when M is.  Ring and
    flat-wire meshes have orbits of one element; their matrix is M as
    assembled.  A
    representative that a reflection with sign -1 fixes carries no
    charge and is dropped.  rcond and the residual are the reduced
    system's; for a symmetric q its residual norm equals the full one.
    """
    n = mesh.n
    v = np.empty(n)
    for eid, volt in voltages.items():
        v[mesh.electrode == eid] = volt
    perms, signs = _mirror_group(mesh, v)
    rep = perms.min(axis=0)         # each orbit is solved at its lowest index
    onto_rep = perms == rep         # [g, i]: g takes element i onto rep[i]
    plus = onto_rep[signs > 0].any(axis=0)
    minus = onto_rep[signs < 0].any(axis=0)
    rows = np.flatnonzero((rep == np.arange(n)) & ~(plus & minus))
    root = np.sqrt(np.bincount(rep, minlength=n)[rows])

    if mesh.kind == "planar":
        m = np.empty((len(rows), len(rows)))
        images = list(zip(perms[1:, rows], signs[1:]))
        scale = root / len(perms)
        for blk in kern.row_blocks(len(rows), n):
            b = assemble(mesh, mirror, rows[blk])
            mb = b[:, rows]
            for p, s in images:
                mb += s * b[:, p]
            mb *= root[blk, None]
            mb *= scale
            m[blk] = mb
    else:                           # one element per orbit: M itself
        m = assemble(mesh, mirror)
    vr = root * v[rows]
    anorm = np.linalg.norm(m, 1)
    if mesh.kind == "flatwire":     # column j uses rbar[j]: not symmetric
        y, rcond = _solve_lu(m, vr, anorm)
    else:
        y, rcond = _solve_cholesky(m, vr, anorm)
    resid = np.linalg.norm(m @ y - vr) / np.linalg.norm(vr)
    if resid > RESIDUAL_LIMIT:
        raise SolverError(f"solve residual {resid:.2e} exceeds {RESIDUAL_LIMIT}")
    q = np.zeros(n)
    q[rows] = y / root
    q = np.where(plus, q[rep], -q[rep])

    vals = sorted(voltages.values())
    pos_id = max(voltages, key=voltages.get)
    q_pos = float(q[mesh.electrode == pos_id].sum())
    if mirror:
        dv = 2.0 * voltages[pos_id]
    else:
        dv = vals[-1] - vals[0] if len(vals) > 1 else vals[-1]
    cap = q_pos / dv if dv else math.nan
    return ChargeSolution(mesh, q, rcond, cap)


# --------------------------------------------------------------------------
# energies

def metal_surface_energy(sol: ChargeSolution, cutoff: float = 0.0,
                         electrodes: Optional[Sequence[int]] = None) -> float:
    """(eps0/2) * integral of E^2 over the metal surfaces, per unit length.

    Elements closer than cutoff to a free contour end are excluded (the
    t/2 convention); thin sheets count both faces.
    """
    mesh = sol.mesh
    if mesh.kind != "planar":
        raise ValueError("metal surface energy implemented for planar meshes")
    keep = mesh.end_distance > cutoff
    if electrodes is not None:
        keep &= np.isin(mesh.electrode, electrodes)
    sigma = sol.charge / mesh.width
    if mesh.thin_sheet:
        # both faces at sigma/2 each
        return float(np.sum((sigma[keep] ** 2) * mesh.width[keep]) / (4.0 * EPS0))
    return float(np.sum((sigma[keep] ** 2) * mesh.width[keep]) / (2.0 * EPS0))


def substrate_line_energy(sol: ChargeSolution, spans,
                          cutoff: float = 0.0) -> float:
    """(eps0/2) * integral of E^2 along y=0 over the given (x0, x1) gaps.

    Half-open spans (x1 = inf) integrate out to where the field has decayed.
    Sampling is geometric from each end, 400 points per span; the cutoff
    trims the approach to metal edges.
    """
    mesh = sol.mesh
    total = 0.0
    scale = float(np.max(np.abs(mesh.pos)))
    for x0, x1 in spans:
        if math.isinf(x1):
            s = np.geomspace(max(cutoff, 1e-12), 50.0 * scale, 400)
            xs = x0 + s
        else:
            half = 0.5 * (x1 - x0)
            lo = min(max(cutoff, 1e-6 * half), 0.5 * half)
            s = np.geomspace(lo, half, 200)
            xs = np.unique(np.concatenate([x0 + s, x1 - s[::-1]]))
        ex, ey = sol.field_at(xs, np.zeros_like(xs))
        total += float(np.trapezoid(ex**2 + ey**2, xs))
    return 0.5 * EPS0 * total
