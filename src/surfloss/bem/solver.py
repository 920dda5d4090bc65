"""Assemble potential matrices, solve for surface charges, extract
fields, energies, capacitances, and corner constants.

The solves run in vacuum; substrate weighting happens in the analytic
layer ((eps_s+1)/2 for effective capacitance, eps factors in the
participations).  Dense factorizations with a reciprocal-condition
estimate: Cholesky for the symmetric kinds (planar, and ring with or
without its mirror image), whose single-layer log kernel is positive
definite on domains this small; LU for flatwire, whose matrix is not
symmetric.  Systems are capped at 20k unknowns.
"""

from __future__ import annotations

import csv
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


class SolverError(RuntimeError):
    pass


def assemble(mesh: Mesh, mirror: bool = False) -> np.ndarray:
    """Potential matrix for a mesh; mirror subtracts the antisymmetric
    image about y=0 (differential wire pairs meshed on one side only)."""
    if mesh.kind == "planar":
        if mirror:
            raise ValueError("mirror solves are for wire kinds only")
        m = kern.planar_matrix(mesh.pos[:, 0], mesh.pos[:, 1], mesh.width)
    elif mesh.kind == "ring":
        m = kern.ring_matrix(mesh.pos[:, 0], mesh.pos[:, 1], mesh.width, mirror)
    elif mesh.kind == "flatwire":
        m = kern.flatwire_matrix(mesh.pos[:, 0], mesh.halfwidth, mesh.width,
                                 mirror)
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

    def to_csv(self, path) -> None:
        field = self.surface_field()
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["position", "width", "charge", "field", "side"])
            for i in range(self.mesh.n):
                wr.writerow([f"{self.mesh.pos[i, 0]:.9e}",
                             f"{self.mesh.width[i]:.9e}",
                             f"{self.charge[i]:.9e}",
                             f"{field[i]:.9e}",
                             self.mesh.side[i]])


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


def solve(mesh: Mesh, voltages: dict, mirror: bool = False) -> ChargeSolution:
    """Solve M q = V for the element charges.

    voltages maps electrode id -> potential.  For mirror solves the meshed
    electrode at +V/2 faces an implicit image at -V/2, so the differential
    drive is twice the set potential.
    """
    m = assemble(mesh, mirror=mirror)
    v = np.empty(mesh.n)
    for eid, volt in voltages.items():
        v[mesh.electrode == eid] = volt
    anorm = np.linalg.norm(m, 1)
    if mesh.kind == "flatwire":     # column j uses rbar[j]: not symmetric
        q, rcond = _solve_lu(m, v, anorm)
    else:
        q, rcond = _solve_cholesky(m, v, anorm)
    resid = np.linalg.norm(m @ q - v) / np.linalg.norm(v)
    if resid > RESIDUAL_LIMIT:
        raise SolverError(f"solve residual {resid:.2e} exceeds {RESIDUAL_LIMIT}")

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
