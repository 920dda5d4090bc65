"""Surface-charge (boundary-element) electrostatics.

Three potential kernels: planar 2-D line charges, axisymmetric rings,
and flat thin-film wire strips.  A ring or strip mesh is one wire of a
differential pair; one builder makes both wire matrices and subtracts
the other wire as the image in the plane of symmetry.  A near pair i > j
whose entry equals (j, i)'s (a twin) copies it, and a matrix of twins
only (rings, a straight strip) is built from the diagonal on.  Meshes
grade geometrically into edges; solves are dense, Cholesky for the
symmetric planar and ring kinds and LU for flatwire, with condition
estimates.  A planar mesh that is its own mirror image in x or y
(detected from the element positions, widths and drive, not declared) is
solved for one element per orbit of images, up to 4x fewer unknowns;
otherwise every orbit is one element.  The solution carries that group,
and `ChargeSolution.field_at` filters it for the reflections that fix
its points.  The suites module cross-verifies every closed form in
`surfloss.analytic`.
"""

from .mesh import Mesh, MeshCapError, MAX_UNKNOWNS
from .solver import ChargeSolution, SolverError, assemble, solve, \
    metal_surface_energy, substrate_line_energy
from .suites import SUITES, Check, run_suite, extract_corner_constants

__all__ = [
    "Mesh", "MeshCapError", "MAX_UNKNOWNS", "ChargeSolution", "SolverError",
    "assemble", "solve", "metal_surface_energy", "substrate_line_energy",
    "SUITES", "Check", "run_suite", "extract_corner_constants",
]
