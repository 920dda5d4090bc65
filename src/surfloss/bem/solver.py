"""Assemble potential matrices, solve for surface charges, extract
fields and energies.

The solves run in vacuum; substrate weighting happens in the analytic
layer ((eps_s+1)/2 for effective capacitance, eps factors in the
participations).  Every solve ends in one dense LAPACK factorization
with a reciprocal-condition estimate and a residual check
(`_factor_solve`): Cholesky (dpotrf, dpocon, dpotrs) for the symmetric
kinds (planar and ring), whose single-layer log kernel is positive
definite on domains this small; LU (dgetrf, dgecon, dgetrs) for
flatwire, whose matrix is not symmetric.  Systems are capped at 20k
unknowns.

Every solve runs in the subspace of the mesh's mirror symmetries.  For a
planar mesh, solve() looks for the reflections x -> -x and y -> -y that
map every element onto one of the same width (positions within 1e-12 of
the mesh extent) and the drive onto plus or minus itself; it then solves
for one element per orbit of images, building only those rows.  Where
there is no such reflection, and for every ring and flat-wire mesh, each
orbit is one element and the reduced system is the full one.  The rcond
and the residual check refer to the reduced system, as it was factored.

The planar rows are built and folded onto the orbits in blocks of rows,
each against the orbits of the columns up to its last row: the lower
triangle of the reduced matrix, which is all the Cholesky factorization
reads, plus each block's own square above the diagonal.  A block holds
at most about _kernels.BLOCK_ENTRIES entries and 1 / TRIANGLE_BLOCKS of
the rows, so that square stays small; the strict upper triangle is
copied from below the diagonal, making the matrix exactly symmetric.
Blocking only reorders the loops; the lower triangle does not depend on
the block size.

ChargeSolution.field_at sums over the same orbits: it filters the group
the solve found (ChargeSolution.group) for the reflections that map its
points onto themselves, evaluates one segment per orbit of those and
adds the reflected fields at the reflected points.  Where no reflection
fixes the points it is the plain sum over every element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import _kernels as kern
from ..constants import EPS0
from ..geometry import NumericalError
from .mesh import Mesh

RESIDUAL_LIMIT = 1e-10
RCOND_LIMIT = 1e-13
#: a mirror image must land this close to an element, relative to the
#: mesh extent
MIRROR_TOL = 1e-12
#: a planar solve builds its reduced matrix in at least this many blocks
#: of rows, each against the columns up to its last row; the part above
#: the diagonal adds about 1 / TRIANGLE_BLOCKS to the triangle, each
#: block costs a kernel call
TRIANGLE_BLOCKS = 16


class SolverError(NumericalError):
    pass


def assemble(mesh: Mesh, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Potential matrix for a mesh; the wire kinds subtract the
    antisymmetric image of the other wire of the pair.  rows picks the
    rows; planar meshes build only those, each against the elements cols
    picks (a column may repeat), and the wire kinds against every
    element."""
    if mesh.kind == "planar":
        m = kern.planar_matrix(mesh.pos[:, 0], mesh.pos[:, 1], mesh.width,
                               rows, cols)
    elif mesh.kind == "ring":
        m = kern.ring_matrix(mesh.pos[:, 0], mesh.pos[:, 1],
                             mesh.width)[rows]
    elif mesh.kind == "flatwire":
        m = kern.flatwire_matrix(mesh.pos[:, 0], mesh.pos[:, 1],
                                 mesh.width)[rows]
    else:
        raise ValueError(f"unknown mesh kind {mesh.kind!r}")
    if not np.isfinite(m).all():
        raise SolverError("potential matrix has non-finite entries; "
                          "the mesh contains coincident elements")
    return m


@dataclass
class ChargeSolution:
    """Solved element charges plus bookkeeping for post-processing.

    rcond is LAPACK's condition estimate.  dpocon gives values that differ
    by up to about 6e-16 relative between runs on the same matrix, so
    compare rcond with a tolerance, never bitwise.  group is the solve's
    mirror group, (perms, signs, flips) from `_mirror_group`.
    """

    mesh: Mesh
    charge: np.ndarray
    rcond: float
    group: tuple

    def charge_of(self, electrode: int) -> float:
        return float(self.charge[self.mesh.electrode == electrode].sum())

    def surface_field(self) -> np.ndarray:
        """|E|/V = |q| / (2 pi eps0 r w) just outside each element of a
        wire mesh (V the drive, r = pos[:, 1] the radius or half-width)."""
        mesh = self.mesh
        if mesh.kind == "planar":
            raise ValueError("surface field implemented for wire meshes")
        return np.abs(self.charge) / (2.0 * np.pi * EPS0 * mesh.pos[:, 1]
                                      * mesh.width)

    def field_at(self, px, py):
        """(Ex, Ey) at off-surface points; planar meshes only.

        The segments are summed in the subspace of the solve's mirror
        group, restricted to the subgroup H of reflections that map the
        point set onto itself exactly and each segment's tangent onto
        its image's (up to direction, within MIRROR_TOL).  The kernel
        runs over one representative per orbit of H, weighted by
        |orbit| / |H|, giving F; then E(p) = sum over h in H of
        s_h M_h F(M_h p), with M_h the reflection and s_h its drive
        sign.  Where H is the identity alone, that is the plain sum over
        every element.
        """
        mesh = self.mesh
        if mesh.kind != "planar":
            raise ValueError("off-surface evaluation implemented for planar meshes")
        px = np.asarray(px, float); py = np.asarray(py, float)
        perms, signs, flips = self.group
        images = {}                 # H less the identity: g -> point images
        for g in range(1, len(perms)):
            # the potential matrix does not see the tangents; the field does
            t, mirrored = mesh.tangent[perms[g]], mesh.tangent * flips[g]
            at = _point_image(px, py, flips[g])
            if at is not None and np.all(np.abs(
                    t[:, 0] * mirrored[:, 1] - t[:, 1] * mirrored[:, 0])
                    <= MIRROR_TOL):
                images[g] = at
        h = [0, *images]
        rep = perms[h].min(axis=0)
        rows = np.flatnonzero(rep == np.arange(mesh.n))
        weight = np.bincount(rep, minlength=mesh.n)[rows] / len(h)
        fx, fy = kern.segment_field(px, py, mesh.pos[rows, 0],
                                    mesh.pos[rows, 1], mesh.tangent[rows, 0],
                                    mesh.tangent[rows, 1], mesh.width[rows],
                                    weight * self.charge[rows])
        ex, ey = fx, fy
        for g, at in images.items():
            ex = ex + signs[g] * flips[g, 0] * fx[at]
            ey = ey + signs[g] * flips[g, 1] * fy[at]
        return ex, ey


def _point_image(px, py, flip):
    """Index of each point's mirror image under flip in the point set, or
    None where some image is not exactly a point of the set."""
    ix, iy = flip[0] * px, flip[1] * py
    at = np.empty(len(px), int)
    at[np.lexsort((ix, iy))] = np.lexsort((px, py))
    if np.array_equal(px[at], ix) and np.array_equal(py[at], iy):
        return at
    return None


def _factor_solve(m, v, symmetric: bool):
    """Solve m y = v by one dense LAPACK factorization; returns (y, rcond).

    symmetric: the upper Cholesky factor (dpotrf, dpocon, dpotrs); m is
    symmetric, and its F-ordered view m.T is copied into the factor's
    buffer as it lies, without a transpose.  Otherwise LU with partial
    pivoting (dgetrf, dgecon, dgetrs).  Raises SolverError where the
    Cholesky factorization fails, where the 1-norm condition estimate
    rcond is 0 or below RCOND_LIMIT, or where the relative residual
    exceeds RESIDUAL_LIMIT or is not a number (a drive with a NaN).
    """
    from scipy.linalg import lapack

    anorm = np.linalg.norm(m, 1)
    if symmetric:
        f, info = lapack.dpotrf(m.T, clean=False)
        if info > 0:
            raise SolverError("potential matrix is singular or indefinite: "
                              f"Cholesky factorization failed at pivot {info}")
        rcond = float(lapack.dpocon(f, anorm)[0])
    else:
        # an exactly zero pivot (info > 0) gives rcond = 0 below
        f, piv, _ = lapack.dgetrf(m)
        rcond = float(lapack.dgecon(f, anorm, norm="1")[0])
    if rcond == 0.0:
        raise SolverError("potential matrix is singular: condition estimate "
                          "rcond = 0")
    if rcond < RCOND_LIMIT:
        raise SolverError(
            f"potential matrix ill-conditioned: condition estimate {1.0 / rcond:.2e}")
    y = lapack.dpotrs(f, v)[0] if symmetric else lapack.dgetrs(f, piv, v)[0]
    r, b = np.linalg.norm(m @ y - v), np.linalg.norm(v)
    if not r <= RESIDUAL_LIMIT * b:
        raise SolverError(f"solve residual {r / b:.2e} exceeds {RESIDUAL_LIMIT}")
    return y, rcond


def _mirror_group(mesh: Mesh, v: np.ndarray):
    """The reflections x -> -x and y -> -y (and their product) that map a
    planar mesh and its drive onto themselves.

    Returns (perms, signs, flips), identity first, with distinct perms:
    element i's image under the reflection (x, y) -> flips[g] * (x, y) is
    element perms[g, i], with v[perms[g]] = signs[g] * v.  A reflection
    counts when every image lands within MIRROR_TOL of the mesh extent on
    an element of exactly the same width and its permutation is not in
    the group yet (y -> -y on a mesh on y = 0 is not); the images are
    paired with the elements by sorting both on coordinates rounded to
    1e-9 of the extent.  Other kinds, and planar meshes without either
    reflection, give the identity alone.
    """
    perms, signs, flips = [np.arange(mesh.n)], [1.0], [np.ones(2)]
    if mesh.kind != "planar":
        return np.array(perms), np.array(signs), np.array(flips)
    extent = float(np.abs(mesh.pos).max()) or 1.0

    def order(pos):
        key = np.round(pos / (1e-9 * extent))
        return np.lexsort((key[:, 0], key[:, 1]))

    by_pos = order(mesh.pos)
    for flip in (np.array([-1.0, 1.0]), np.array([1.0, -1.0])):
        image = mesh.pos * flip
        p = np.empty(mesh.n, int)
        p[order(image)] = by_pos
        if not (np.all(np.abs(mesh.pos[p] - image) <= MIRROR_TOL * extent)
                and np.array_equal(mesh.width[p], mesh.width)) \
                or any(np.array_equal(p, g) for g in perms):
            continue
        if np.array_equal(v[p], v):
            s = 1.0
        elif np.array_equal(v[p], -v):
            s = -1.0
        else:
            continue
        perms += [g[p] for g in perms]
        signs += [s * t for t in signs]
        flips += [flip * f for f in flips]
    return np.array(perms), np.array(signs), np.array(flips)


def _reduced_planar_matrix(mesh, rows, root, perms, signs):
    """The planar potential matrix in the orbit basis of solve(): entry
    (i, j) sums row rows[i] over the orbit of element rows[j], each image
    with its drive sign, and is scaled by root[i] root[j] / group order.

    Rows are built in blocks (`_kernels.row_blocks`, at most 1 /
    TRIANGLE_BLOCKS of them per block), each only against the orbits of
    columns 0 up to its last row: the lower triangle that the Cholesky
    factorization reads, and above the diagonal only the block's own
    square.  A block builds its columns' orbits slot by slot, image g of
    every column in slot g (an element that a reflection fixes fills two
    slots of its orbit), so each image is a strided view; the images are
    summed in the group's order, by np.add or np.subtract, while the
    block is in cache.  The strict upper triangle is copied from below the
    diagonal, block by block, so the matrix is exactly symmetric.
    """
    n, r, k = mesh.n, len(rows), len(perms)
    m = np.empty((r, r))
    orbit = perms[:, rows].T.ravel()    # column j's image g at j * k + g
    folds = [np.add if s > 0 else np.subtract for s in signs[1:]]
    scale = root / k
    blocks = kern.row_blocks(r, n, most=-(-r // TRIANGLE_BLOCKS))
    above = np.tri(blocks[0].stop, k=-1, dtype=bool).T
    for blk in blocks:
        lo, hi = blk.start, blk.stop
        b = assemble(mesh, rows[blk], orbit[:k * hi])
        b = b.reshape(hi - lo, hi, k).transpose(2, 0, 1)
        mb = m[blk, :hi]
        mb[...] = b[0]
        for g, fold in enumerate(folds, 1):
            fold(mb, b[g], out=mb)
        mb *= root[blk, None]
        mb *= scale[:hi]
        m[:lo, blk] = m[blk, :lo].T
        sq, up = m[blk, blk], above[:hi - lo, :hi - lo]
        sq[up] = sq.T[up]
    return m


def solve(mesh: Mesh, voltages: dict) -> ChargeSolution:
    """Solve M q = V for the element charges.

    voltages maps electrode id -> potential and must name every electrode
    of the mesh.  A ring or flat-wire mesh at +V/2 faces its implicit
    image at -V/2.

    The unknowns are one charge per orbit of mirror images
    (`_mirror_group`); the rest follow with the drive's sign.  Only the
    representatives' rows are assembled, each against the orbits of the
    columns up to its block's last row (`_reduced_planar_matrix`); each
    orbit's columns are summed with their signs while the block is in
    cache, and rows and columns are scaled by sqrt(orbit size / group
    order).  That is M in an orthonormal basis of the subspace, so
    symmetric positive definite when M is; its strict upper triangle is
    the mirror image of the lower one, which the factorization reads.
    Ring and flat-wire meshes have orbits of one element; their matrix is
    M as assembled.  A representative that a reflection with sign -1
    fixes carries no charge and is dropped.  rcond and the residual are
    those of the reduced matrix that was factored; for a symmetric q the
    residual norm equals the full one.
    """
    n = mesh.n
    missing = [e for e in np.unique(mesh.electrode).tolist()
               if e not in voltages]
    if missing:
        raise ValueError(f"no voltage given for electrodes {missing}")
    v = np.empty(n)
    for eid, volt in voltages.items():
        v[mesh.electrode == eid] = volt
    perms, signs, flips = _mirror_group(mesh, v)
    rep = perms.min(axis=0)         # each orbit is solved at its lowest index
    onto_rep = perms == rep         # [g, i]: g takes element i onto rep[i]
    plus = onto_rep[signs > 0].any(axis=0)
    minus = onto_rep[signs < 0].any(axis=0)
    rows = np.flatnonzero((rep == np.arange(n)) & ~(plus & minus))
    root = np.sqrt(np.bincount(rep, minlength=n)[rows])

    if mesh.kind == "planar":
        m = _reduced_planar_matrix(mesh, rows, root, perms, signs)
    else:                           # one element per orbit: M itself
        m = assemble(mesh)
    # a flat wire's column j uses rbar[j]: its matrix is not symmetric
    y, rcond = _factor_solve(m, root * v[rows],
                             symmetric=mesh.kind != "flatwire")
    q = np.zeros(n)
    q[rows] = y / root
    q = np.where(plus, q[rep], -q[rep])
    return ChargeSolution(mesh, q, rcond, (perms, signs, flips))


# --------------------------------------------------------------------------
# energies

def metal_surface_energy(sol: ChargeSolution, cutoff: float = 0.0,
                         electrode: Optional[int] = None) -> float:
    """(eps0/2) * integral of E^2 over the metal surfaces, per unit length.

    Elements closer than cutoff to a free contour end are excluded (the
    t/2 convention).  An element with a finite end_distance lies on a
    thin sheet, whose two faces carry sigma/2 each; a closed contour has
    one face.  With electrode set, only that electrode's elements count.
    """
    mesh = sol.mesh
    if mesh.kind != "planar":
        raise ValueError("metal surface energy implemented for planar meshes")
    keep = mesh.end_distance > cutoff
    if electrode is not None:
        keep &= mesh.electrode == electrode
    sigma = sol.charge / mesh.width
    faces = np.where(np.isfinite(mesh.end_distance), 2.0, 1.0)
    return float(np.sum((sigma[keep] ** 2) * mesh.width[keep] / faces[keep])
                 / (2.0 * EPS0))


def substrate_line_energy(sol: ChargeSolution, x0: float, x1: float,
                          cutoff: float = 0.0) -> float:
    """(eps0/2) * integral of E^2 along y=0 over the gap (x0, x1).

    A half-open gap (x1 = inf) integrates out to where the field has
    decayed.  Sampling is geometric from each end, 400 points in all; the
    cutoff trims the approach to metal edges.
    """
    if math.isinf(x1):
        scale = float(np.max(np.abs(sol.mesh.pos)))
        xs = x0 + np.geomspace(max(cutoff, 1e-12), 50.0 * scale, 400)
    else:
        half = 0.5 * (x1 - x0)
        lo = min(max(cutoff, 1e-6 * half), 0.5 * half)
        s = np.geomspace(lo, half, 200)
        xs = np.unique(np.concatenate([x0 + s, x1 - s[::-1]]))
    ex, ey = sol.field_at(xs, np.zeros_like(xs))
    return 0.5 * EPS0 * float(np.trapezoid(ex**2 + ey**2, xs))
