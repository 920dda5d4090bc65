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


@dataclass
class Mesh:
    """Element soup for one solve.

    kind 'planar': pos = (x, y) midpoints, tangent set, per-unit-length.
    kind 'ring': pos = (z, r) ring positions, width = surface arc length.
    kind 'flatwire': pos = (y, 0) centerline, halfwidth = transverse rbar.
    """

    kind: str
    pos: np.ndarray
    width: np.ndarray
    electrode: np.ndarray
    side: np.ndarray
    tangent: Optional[np.ndarray] = None
    halfwidth: Optional[np.ndarray] = None
    end_distance: np.ndarray = field(default=None)  # type: ignore[assignment]
    thin_sheet: bool = False

    def __post_init__(self):
        if self.end_distance is None:
            self.end_distance = np.full(len(self.width), np.inf)
        if len(self.width) == 0:
            raise MeshCapError("mesh has no elements; increase mesh_scale")
        if len(self.width) > MAX_UNKNOWNS:
            raise MeshCapError(
                f"mesh has {len(self.width)} unknowns, cap is {MAX_UNKNOWNS}; "
                "coarsen the grading or reduce mesh_scale")
        if np.any(self.width <= 0):
            raise ValueError("element widths must be > 0")

    @property
    def n(self) -> int:
        return len(self.width)


def concat(parts: list[Mesh]) -> Mesh:
    """One mesh from parts of one kind; thin_sheet comes from the first."""
    def cat(attr):
        vals = [getattr(p, attr) for p in parts]
        return None if vals[0] is None else np.concatenate(vals)
    return Mesh(parts[0].kind, np.vstack([p.pos for p in parts]), cat("width"),
                cat("electrode"), cat("side"), tangent=cat("tangent"),
                halfwidth=cat("halfwidth"), end_distance=cat("end_distance"),
                thin_sheet=parts[0].thin_sheet)


def graded_widths(total: float, h_min: float, h_max: float) -> np.ndarray:
    """Element widths summing to total, geometric growth away from both ends."""
    if total <= 0:
        raise ValueError("segment length must be > 0")
    h_min = min(h_min, total / 4)
    h_max = max(h_max, h_min)
    start = [h_min]
    end = [h_min]
    s_start = s_end = h_min         # running sums of start and end
    while s_start + s_end < total:
        if s_start <= s_end:
            start.append(min(start[-1] * GRADE_RATIO, h_max))
            s_start += start[-1]
        else:
            end.append(min(end[-1] * GRADE_RATIO, h_max))
            s_end += end[-1]
    w = np.array(start + end[::-1])
    return w * (total / w.sum())


def _segment(p0, p1, widths, electrode, side) -> Mesh:
    p0 = np.asarray(p0, float); p1 = np.asarray(p1, float)
    length = float(np.hypot(*(p1 - p0)))
    s = np.concatenate([[0.0], np.cumsum(widths)])
    mid = 0.5 * (s[:-1] + s[1:])
    t = (p1 - p0) / length
    pos = p0[None, :] + mid[:, None] * t[None, :]
    tan = np.tile(t, (len(widths), 1))
    n = len(widths)
    return Mesh("planar", pos, np.asarray(widths, float),
                np.full(n, electrode, int), np.full(n, side, object),
                tangent=tan, end_distance=np.minimum(mid, length - mid),
                thin_sheet=True)


def line(p0, p1, h_min, h_max, electrode=0, side="metal") -> Mesh:
    """Straight planar segment from p0 to p1, graded at both ends."""
    length = float(np.hypot(*(np.asarray(p1, float) - np.asarray(p0, float))))
    return _segment(p0, p1, graded_widths(length, h_min, h_max), electrode, side)


def circle(radius: float, n: int, electrode=0, side="shield") -> Mesh:
    """Closed circular contour about the origin (solid conductor boundary)."""
    if n < 3:
        raise MeshCapError(f"circle needs at least 3 elements, got {n}; "
                           "increase mesh_scale")
    th = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    pos = np.stack([radius * np.cos(th), radius * np.sin(th)], axis=1)
    tan = np.stack([-np.sin(th), np.cos(th)], axis=1)
    w = np.full(n, 2.0 * np.pi * radius / n)
    return Mesh("planar", pos, w, np.full(n, electrode, int),
                np.full(n, side, object), tangent=tan, thin_sheet=False)


def thin_strip(x0: float, x1: float, h_min: float, h_max: float,
               electrode=0, side="metal", cutoff: Optional[float] = None) -> Mesh:
    """Infinitely thin strip on y=0 spanning [x0, x1], graded at both edges.

    With cutoff set, element boundaries are snapped at x0+cutoff and
    x1-cutoff so edge-exclusion sums have no partial-element jitter.
    """
    if cutoff is None:
        return line((x0, 0.0), (x1, 0.0), h_min, h_max, electrode, side)
    n_sliver = 8
    ws = np.full(n_sliver, cutoff / n_sliver)
    mid = graded_widths(x1 - x0 - 2 * cutoff, h_min, h_max)
    widths = np.concatenate([ws, mid, ws])
    return _segment((x0, 0.0), (x1, 0.0), widths, electrode, side)


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
                          electrode, "top"))
        parts.append(line((rbar, t / 2), (rbar, -t / 2), h_min, h_side,
                          electrode, "edge"))
        parts.append(line((rbar, -t / 2), (-rbar, -t / 2), h_min, h_max,
                          electrode, "bottom"))
        parts.append(line((-rbar, -t / 2), (-rbar, t / 2), h_min, h_side,
                          electrode, "edge"))
    elif edge == "semicircle":
        flat = rbar - t / 2
        parts.append(line((-flat, t / 2), (flat, t / 2), h_min, h_max,
                          electrode, "top"))
        n_arc = max(int(np.ceil(np.pi * (t / 2) / h_min / 1.5)), 24)
        th = (np.arange(n_arc) + 0.5) * np.pi / n_arc - np.pi / 2
        w = np.full(n_arc, np.pi * (t / 2) / n_arc)
        pos = np.stack([flat + (t / 2) * np.cos(th), (t / 2) * np.sin(th)], axis=1)
        tan = np.stack([-np.sin(th), np.cos(th)], axis=1)
        right = Mesh("planar", pos, w, np.full(n_arc, electrode, int),
                     np.full(n_arc, "edge", object), tangent=tan)
        parts.append(right)
        parts.append(line((flat, -t / 2), (-flat, -t / 2), h_min, h_max,
                          electrode, "bottom"))
        # the left end is the right one reflected through the origin
        parts.append(Mesh("planar", -right.pos, w, right.electrode,
                          right.side, tangent=-right.tangent))
    else:
        raise ValueError(f"unknown edge style {edge!r}")
    mesh = concat(parts)
    mesh.thin_sheet = False
    mesh.end_distance = np.full(mesh.n, np.inf)  # closed contour
    return mesh


def wire_rings(d: float, radius_fn, y0: float, n: int = 320) -> Mesh:
    """Axisymmetric wire surface from y0 to d, log-spaced with the last 8%
    refined toward the end."""
    d1 = d * (1.0 - 0.08)
    e1 = np.geomspace(y0, d1, max(int(n * 0.8), 16) + 1)
    m = max(int(n * 0.2), 8)
    e2 = d - np.geomspace(d - d1, 1e-3 * (d - d1), m + 1)
    edges = np.unique(np.concatenate([e1, e2]))
    z = 0.5 * (edges[:-1] + edges[1:])
    wz = np.diff(edges)
    r = np.asarray(radius_fn(z), float)
    slope = np.gradient(r, z)
    arc = wz * np.sqrt(1.0 + slope**2)
    nel = len(z)
    return Mesh("ring", np.stack([z, r], axis=1), arc,
                np.zeros(nel, int), np.full(nel, "wire", object))


def wire_strip(d: float, halfwidth_fn, y0: float, n: int = 280) -> Mesh:
    """Flat (thin-film) wire centerline mesh from y0 to d."""
    edges = np.geomspace(y0, d, n + 1)
    y = 0.5 * (edges[:-1] + edges[1:])
    w = np.diff(edges)
    rb = np.asarray(halfwidth_fn(y), float)
    nel = len(y)
    return Mesh("flatwire", np.stack([y, np.zeros(nel)], axis=1), w,
                np.zeros(nel, int), np.full(nel, "wire", object),
                halfwidth=rb, thin_sheet=True)
