"""Surface-charge meshes for the planar, ring, and flat-wire solvers.

Elements are graded geometrically toward edges and corners (ratio 1.15,
minimum size set from the film thickness or gap) so that the
square-root and corner power-law field divergences are resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

GRADE_RATIO = 1.15

#: dense solves are capped here; refine selectively instead of globally
MAX_UNKNOWNS = 20_000


class MeshCapError(RuntimeError):
    pass


def _check_cap(n) -> None:
    """Reject a mesh of n elements over MAX_UNKNOWNS; the builders call
    this before they allocate n of anything."""
    if n > MAX_UNKNOWNS:
        raise MeshCapError(f"mesh has {n:.6g} unknowns, cap is {MAX_UNKNOWNS}; "
                           "coarsen the grading or reduce mesh_scale")


@dataclass
class Mesh:
    """Element soup for one solve.

    kind 'planar': pos = (x, y) midpoints, tangent set, per-unit-length.
    kind 'ring': pos = (z, r) ring positions, width = surface arc length.
    kind 'flatwire': pos = (y, rbar) centerline and transverse half-width.
    A ring or flatwire mesh is one wire of a pair mirrored in z = 0
    (y = 0), whose other wire is the image and is not meshed.

    end_distance is each element's distance to the nearer end of its
    open contour, inf on a closed one.  An element of an open contour
    lies on a thin sheet with two faces.
    """

    kind: str
    pos: np.ndarray
    width: np.ndarray
    electrode: np.ndarray
    tangent: Optional[np.ndarray] = None
    end_distance: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.end_distance is None:
            self.end_distance = np.full(len(self.width), np.inf)
        if len(self.width) == 0:
            raise MeshCapError("mesh has no elements; increase mesh_scale")
        _check_cap(len(self.width))
        if np.any(self.width <= 0):
            raise ValueError("element widths must be > 0")

    @property
    def n(self) -> int:
        return len(self.width)


def concat(parts: list[Mesh]) -> Mesh:
    """One planar mesh from planar parts, element order kept."""
    def cat(attr):
        return np.concatenate([getattr(p, attr) for p in parts])
    return Mesh("planar", cat("pos"), cat("width"), cat("electrode"),
                tangent=cat("tangent"), end_distance=cat("end_distance"))


def graded_widths(total: float, h_min: float, h_max: float) -> np.ndarray:
    """Element widths summing to total, geometric growth away from both
    ends; MeshCapError as soon as there are more than MAX_UNKNOWNS."""
    if total <= 0:
        raise ValueError("segment length must be > 0")
    h_min = min(h_min, total / 4)
    h_max = max(h_max, h_min)
    start = [h_min]
    end = [h_min]
    s_start = s_end = h_min         # running sums of start and end
    while s_start + s_end < total:
        _check_cap(len(start) + len(end))
        if s_start <= s_end:
            start.append(min(start[-1] * GRADE_RATIO, h_max))
            s_start += start[-1]
        else:
            end.append(min(end[-1] * GRADE_RATIO, h_max))
            s_end += end[-1]
    w = np.array(start + end[::-1])
    return w * (total / w.sum())


def _segment(p0, p1, widths, electrode) -> Mesh:
    p0 = np.asarray(p0, float); p1 = np.asarray(p1, float)
    length = float(np.hypot(*(p1 - p0)))
    s = np.concatenate([[0.0], np.cumsum(widths)])
    mid = 0.5 * (s[:-1] + s[1:])
    t = (p1 - p0) / length
    pos = p0[None, :] + mid[:, None] * t[None, :]
    tan = np.tile(t, (len(widths), 1))
    n = len(widths)
    return Mesh("planar", pos, np.asarray(widths, float),
                np.full(n, electrode, int), tangent=tan,
                end_distance=np.minimum(mid, length - mid))


def line(p0, p1, h_min, h_max, electrode=0) -> Mesh:
    """Straight planar segment from p0 to p1, graded at both ends."""
    length = float(np.hypot(*(np.asarray(p1, float) - np.asarray(p0, float))))
    return _segment(p0, p1, graded_widths(length, h_min, h_max), electrode)


def circle(radius: float, n: int, electrode=0) -> Mesh:
    """Closed circular contour about the origin (solid conductor boundary)."""
    if n < 3:
        raise MeshCapError(f"circle needs at least 3 elements, got {n}; "
                           "increase mesh_scale")
    _check_cap(n)
    th = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    pos = np.stack([radius * np.cos(th), radius * np.sin(th)], axis=1)
    tan = np.stack([-np.sin(th), np.cos(th)], axis=1)
    w = np.full(n, 2.0 * np.pi * radius / n)
    return Mesh("planar", pos, w, np.full(n, electrode, int), tangent=tan)


def thin_strip(x0: float, x1: float, h_min: float, h_max: float,
               electrode=0, cutoff: Optional[float] = None) -> Mesh:
    """Infinitely thin strip on y=0 spanning [x0, x1], graded at both edges.

    With cutoff set, element boundaries are snapped at x0+cutoff and
    x1-cutoff so edge-exclusion sums have no partial-element jitter.
    """
    if cutoff is None:
        return line((x0, 0.0), (x1, 0.0), h_min, h_max, electrode)
    n_sliver = 8
    ws = np.full(n_sliver, cutoff / n_sliver)
    mid = graded_widths(x1 - x0 - 2 * cutoff, h_min, h_max)
    widths = np.concatenate([ws, mid, ws])
    return _segment((x0, 0.0), (x1, 0.0), widths, electrode)


def film_cross_section(rbar: float, t: float, h_min: float, h_max: float,
                       edge: str = "square", electrode=0) -> Mesh:
    """Finite-thickness film contour centered on y=0: |x|<=rbar, |y|<=t/2.

    The midplane matches the substrate-line convention of the round-coax
    cut.  edge is 'square' or 'semicircle' (rounded ends of radius t/2).
    """
    h_side = min(h_max, t / 6)
    parts = []
    if edge == "square":
        parts.append(line((-rbar, t / 2), (rbar, t / 2), h_min, h_max,
                          electrode))
        parts.append(line((rbar, t / 2), (rbar, -t / 2), h_min, h_side,
                          electrode))
        parts.append(line((rbar, -t / 2), (-rbar, -t / 2), h_min, h_max,
                          electrode))
        parts.append(line((-rbar, -t / 2), (-rbar, t / 2), h_min, h_side,
                          electrode))
    elif edge == "semicircle":
        flat = rbar - t / 2
        parts.append(line((-flat, t / 2), (flat, t / 2), h_min, h_max,
                          electrode))
        n_arc = max(int(np.ceil(np.pi * (t / 2) / h_min / 1.5)), 24)
        _check_cap(n_arc)
        th = (np.arange(n_arc) + 0.5) * np.pi / n_arc - np.pi / 2
        w = np.full(n_arc, np.pi * (t / 2) / n_arc)
        pos = np.stack([flat + (t / 2) * np.cos(th), (t / 2) * np.sin(th)], axis=1)
        tan = np.stack([-np.sin(th), np.cos(th)], axis=1)
        right = Mesh("planar", pos, w, np.full(n_arc, electrode, int),
                     tangent=tan)
        parts.append(right)
        parts.append(line((flat, -t / 2), (-flat, -t / 2), h_min, h_max,
                          electrode))
        # the left end is the right one reflected through the origin
        parts.append(Mesh("planar", -right.pos, w, right.electrode,
                          tangent=-right.tangent))
    else:
        raise ValueError(f"unknown edge style {edge!r}")
    mesh = concat(parts)
    mesh.end_distance = np.full(mesh.n, np.inf)  # closed contour
    return mesh


def wire_rings(d: float, radius_fn, y0: float, n: int) -> Mesh:
    """Axisymmetric wire surface from y0 to d, log-spaced with the last 8%
    refined toward the end."""
    d1 = d * (1.0 - 0.08)
    n1, m = max(int(n * 0.8), 16), max(int(n * 0.2), 8)
    _check_cap(n1 + m)
    e1 = np.geomspace(y0, d1, n1 + 1)
    e2 = d - np.geomspace(d - d1, 1e-3 * (d - d1), m + 1)
    edges = np.unique(np.concatenate([e1, e2]))
    z = 0.5 * (edges[:-1] + edges[1:])
    wz = np.diff(edges)
    r = np.asarray(radius_fn(z), float)
    slope = np.gradient(r, z)
    arc = wz * np.sqrt(1.0 + slope**2)
    nel = len(z)
    return Mesh("ring", np.stack([z, r], axis=1), arc, np.zeros(nel, int))


def wire_strip(d: float, halfwidth_fn, y0: float, n: int) -> Mesh:
    """Flat (thin-film) wire centerline mesh from y0 to d; pos holds
    (y, rbar)."""
    _check_cap(n)
    edges = np.geomspace(y0, d, n + 1)
    y = 0.5 * (edges[:-1] + edges[1:])
    w = np.diff(edges)
    rb = np.asarray(halfwidth_fn(y), float)
    return Mesh("flatwire", np.stack([y, rb], axis=1), w,
                np.zeros(len(y), int))
