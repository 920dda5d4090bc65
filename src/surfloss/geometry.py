"""Dielectric stacks, capacitor/wire geometry types, and design assembly.

Participation ratios are normalized by the qubit capacitance expressed as
a length L = C/eps0.  A design is a list of structures sharing one L;
capacitances add, and the total loss tangent is the sum of p_i*tan_i over
all structures and interfaces.

A design is resolved in two steps: each structure's closed forms are
evaluated once (``evaluate_design``), then combined at the shared L
(``combine_design``); ``assemble_design`` validates the design first.

Each structure type is a NamedTuple here whose default ``label`` is its
INI ``type`` name; its closed forms are its row in
``analytic.CLOSED_FORMS``, which also gives ``STRUCTURE_TYPES``.
"""

from typing import NamedTuple, Optional

from .constants import EPS0


class ValidationError(ValueError):
    """Carries the full list of collected validation problems."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NumericalError(RuntimeError):
    """A solve that cannot be carried out as asked (a mesh past its cap, a
    singular system); the solver's errors derive from it, so the CLI
    reports them without importing the solver."""


class DielectricStack(NamedTuple):
    """Substrate and interface-oxide dielectric parameters (SI)."""

    INI_KEYS = {"eps_substrate": "eps_s", "eps_ma": "eps_ma",
                "eps_ms": "eps_ms", "eps_sa": "eps_sa", "t_ma_nm": "t_ma",
                "t_ms_nm": "t_ms", "t_sa_nm": "t_sa", "tan_ma": "tan_ma",
                "tan_ms": "tan_ms", "tan_sa": "tan_sa"}

    eps_s: float = 11.7
    eps_ma: float = 9.8
    eps_ms: float = 9.8
    eps_sa: float = 3.8
    t_ma: float = 2e-9
    t_ms: float = 2e-9
    t_sa: float = 2e-9
    tan_ma: float = 0.0
    tan_ms: float = 0.0
    tan_sa: float = 0.0

    def validate(self) -> list[str]:
        bad = []
        for name in ("eps_s", "eps_ma", "eps_ms", "eps_sa"):
            if getattr(self, name) < 1.0:
                bad.append(f"stack.{name}: must be >= 1")
        for name in ("t_ma", "t_ms", "t_sa"):
            if getattr(self, name) <= 0.0:
                bad.append(f"stack.{name}: oxide thickness must be > 0")
        for name in ("tan_ma", "tan_ms", "tan_sa"):
            if getattr(self, name) < 0.0:
                bad.append(f"stack.{name}: loss tangent must be >= 0")
        return bad


def interface_weights(stack: DielectricStack) -> tuple[float, float, float]:
    """Dielectric weights (w_MA, w_MS, w_SA) multiplying the surface energies."""
    return (1.0 / stack.eps_ma, stack.eps_s**2 / stack.eps_ms, stack.eps_sa)


def capacitance_to_length(c: float) -> float:
    """L = C/eps0; expresses a capacitance as a design length."""
    if c <= 0.0:
        raise ValueError(f"capacitance must be > 0, got {c}")
    return c / EPS0


# --------------------------------------------------------------------------
# structure geometries (all lengths in meters)
#
# INI_KEYS maps each INI key of a structure section to its field (the key's
# suffix gives its unit, see ``config``).  Fields without a default are
# required keys, and a field with a bool default is a true/false flag.


def _strip_problems(spec, ground=(), gaps=()) -> list[str]:
    """The rules of the strip types, in this order: 0 < a < b, the ground's
    own problems (ground), length > 0, and the film rule: 0 < t < a, and a
    film thinner than b - a and every further gap it faces (gaps, pairs of
    a gap's name and width); a thicker film drives the edge logarithms of
    the closed forms negative."""
    bad = []
    if spec.a <= 0: bad.append(f"{spec.label}.a: must be > 0")
    if spec.b <= spec.a: bad.append(f"{spec.label}.b: must exceed a")
    bad += ground
    if spec.length <= 0: bad.append(f"{spec.label}.length: must be > 0")
    if not 0 < spec.t < spec.a:
        return bad + [f"{spec.label}.t: need 0 < t < a"]
    return bad + [f"{spec.label}.t: need t < {name}, the gap the film faces"
                  for name, gap in (("b - a", spec.b - spec.a), *gaps)
                  if 0 < gap <= spec.t]


class ParallelPlate(NamedTuple):
    """Differential pair of plates, each w x length at spacing s to ground."""

    INI_KEYS = {"s_um": "s", "w_um": "w", "length_um": "length"}

    s: float
    w: float
    length: float
    label: str = "parallel_plate"

    def validate(self) -> list[str]:
        bad = []
        if self.s <= 0: bad.append(f"{self.label}.s: must be > 0")
        if self.w <= 0: bad.append(f"{self.label}.w: must be > 0")
        if self.length <= 0: bad.append(f"{self.label}.length: must be > 0")
        if not bad and self.s > 0.5 * self.w:
            bad.append(f"{self.label}.s: plate model needs s << w")
        return bad


class Ribbon(NamedTuple):
    """Two differential strips spanning a..b from the centerline."""

    INI_KEYS = {"a_um": "a", "b_um": "b", "length_um": "length", "t_um": "t"}

    a: float
    b: float
    length: float
    t: float
    label: str = "ribbon"

    def validate(self) -> list[str]:
        return _strip_problems(self)


class Coplanar(NamedTuple):
    """Strip of half-width a against a ground plane beyond b."""

    INI_KEYS = {"a_um": "a", "b_um": "b", "length_um": "length",
                "t_um": "t", "single_ended": "single_ended"}

    a: float
    b: float
    length: float
    t: float
    single_ended: bool = False
    label: str = "coplanar"

    def validate(self) -> list[str]:
        return _strip_problems(self)


class RibbonWithGround(NamedTuple):
    """Differential ribbon with a surrounding ground plane beyond +-c."""

    INI_KEYS = {"a_um": "a", "b_um": "b", "c_um": "c",
                "length_um": "length", "t_um": "t"}

    a: float
    b: float
    c: float
    length: float
    t: float
    label: str = "ribbon_with_ground"

    @property
    def edge_point(self) -> float:
        """x_e, where the capacitance fit puts the ribbon's outer edge; the
        fit's (1 - (x_e/c)^2)^0.23 needs the ground beyond it."""
        return self.b - 0.15 * (self.b - 1.2 * self.a)

    def validate(self) -> list[str]:
        ground = []
        if self.c <= self.b:
            ground.append(f"{self.label}.c: must exceed b")
        elif self.b > self.a and self.c <= self.edge_point:
            ground.append(f"{self.label}.c: need c > b - 0.15*(b - 1.2*a), "
                          "the edge point of the capacitance fit")
        return _strip_problems(self, ground, [("c - b", self.c - self.b)])


class StraightWire(NamedTuple):
    """Pair of junction leads, half-width r_bar, length d per side."""

    INI_KEYS = {"half_width_um": "half_width", "d_um": "d", "t_um": "t"}

    half_width: float
    d: float
    t: float
    label: str = "straight_wire"

    #: a straight wire is the zero-slope taper, max(r0, (y - 5t)*0) = r0
    slope = 0.0

    @property
    def r0(self) -> float:
        """Half-width at the junction, named as on a TaperedWire."""
        return self.half_width

    def validate(self) -> list[str]:
        bad = []
        if self.half_width <= 0: bad.append(f"{self.label}.half_width: must be > 0")
        if self.t <= 0: bad.append(f"{self.label}.t: must be > 0")
        if self.d <= 2 * self.half_width:
            bad.append(f"{self.label}.d: need d > 2*half_width")
        if self.t > 2 * self.half_width:
            bad.append(f"{self.label}.t: need t <= 2*half_width")
        return bad


#: largest taper slope; steeper tapers no longer reduce the edge field
MAX_TAPER_SLOPE = 0.45


class TaperedWire(NamedTuple):
    """Junction leads tapering as r(y) = max(r0, (y - 5t)*slope)."""

    INI_KEYS = {"r0_um": "r0", "slope": "slope", "d_um": "d", "t_um": "t"}

    r0: float
    slope: float
    d: float
    t: float
    label: str = "tapered_wire"

    def validate(self) -> list[str]:
        bad = []
        if self.r0 <= 0: bad.append(f"{self.label}.r0: must be > 0")
        if self.t <= 0: bad.append(f"{self.label}.t: must be > 0")
        if not 0.0 < self.slope <= MAX_TAPER_SLOPE:
            bad.append(f"{self.label}.slope: need 0 < slope <= {MAX_TAPER_SLOPE}")
        elif self.d > 5 * self.t \
                and self.slope * (self.d - 5 * self.t) <= self.r0:
            bad.append(f"{self.label}.slope: need slope*(d - 5*t) > r0, or "
                       "the taper does not widen inside the wire")
        if self.d <= 5 * self.t:
            bad.append(f"{self.label}.d: need d > 5*t")
        if self.t > 2 * self.r0:
            bad.append(f"{self.label}.t: need t <= 2*r0")
        if self.t > 0 and self.r0 >= 20 * self.t:
            bad.append(f"{self.label}.r0: need r0 < 20*t; beyond it the line "
                       "energy the wire fits stand for diverges")
        return bad


class ParticipationBreakdown(NamedTuple):
    """Interface participation ratios of one structure at a shared L, and
    the loss tangent they give with the stack's interface loss tangents."""

    label: str
    p_ma: float
    p_ms: float
    p_sa: float
    capacitance: float
    loss_tangent: float


class DesignAssembly(NamedTuple):
    """A multi-structure design resolved at a shared qubit capacitance."""

    breakdowns: tuple
    capacitance: float
    length: float            # L = C/eps0
    total_loss_tangent: float


def validate_design(structures, stack: DielectricStack) -> list[str]:
    problems = list(stack.validate())
    if not structures:
        problems.append("structures: list must not be empty")
    for s in structures:
        own = s.validate()
        problems.extend(own)
        t_metal = getattr(s, "t", None)
        if t_metal is not None and not own:
            for name, tox in (("t_ma", stack.t_ma), ("t_ms", stack.t_ms),
                              ("t_sa", stack.t_sa)):
                if tox >= t_metal:
                    problems.append(
                        f"stack.{name}: oxide must be far thinner than "
                        f"{s.label} metal thickness")
    return problems


def _explained(exc) -> str:
    """An error's text, saying what an overflow, a division by zero or a
    refused allocation means: Python's own text for them ("(34, 'Numerical
    result out of range')", "float division by zero", often none for a
    MemoryError) names no cause."""
    if isinstance(exc, MemoryError):
        return "out of memory" + (f": {exc}" if str(exc) else "")
    if isinstance(exc, OverflowError):
        return f"floating-point overflow: {exc}"
    if isinstance(exc, ZeroDivisionError):
        return ("a denominator underflowed to zero; the inputs are outside "
                "the range of a float")
    return str(exc)


class _labelled:
    """Put the culprit's name (a structure label, a swept param=value)
    first in every line of an error raised inside; labels nest, the
    outermost first.  A ValidationError gets it on each of its problems,
    another ValueError keeps its class, and an arithmetic error becomes a
    FloatingPointError with its text explained (`_explained`); each is
    raised from the original error.  Any other error passes through.

    A class, not a generator context manager: a sweep step of the shipped
    config enters eleven (its own and two per structure), and entering and
    leaving one costs about a third of a generator's (0.4 against 1.1 us,
    one pinned CPU)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return None

    def __exit__(self, cls, exc, tb):
        if isinstance(exc, ValidationError):
            raise ValidationError([f"{self.name}: {p}"
                                   for p in exc.problems]) from exc
        if isinstance(exc, ValueError):
            raise type(exc)(f"{self.name}: {exc}") from exc
        if isinstance(exc, ArithmeticError):
            raise FloatingPointError(
                f"{self.name}: {_explained(exc)}") from exc
        return False


def evaluate_design(structures, stack: DielectricStack,
                    corner_split: bool = False,
                    cache: Optional[dict] = None) -> list:
    """Each structure's closed forms at the stack (`analytic.evaluate`),
    under its label.  Given a cache dict, a form whose full inputs it
    holds is not evaluated again."""
    from . import analytic   # deferred; analytic imports the types above

    values = []
    for s in structures:
        with _labelled(s.label):
            values.append(analytic.evaluate(s, stack, corner_split, cache))
    return values


def combine_design(structures, values, stack: DielectricStack,
                   target_capacitance: Optional[float] = None
                   ) -> DesignAssembly:
    """The design of valid structures from their evaluated closed forms
    (`evaluate_design`): fix L and take each structure's participations at
    it.

    With target_capacitance set, L comes from the target (the usual design
    convention where wires ride on a fixed qubit capacitance); otherwise all
    structure capacitances, wires included, sum into L.
    """
    from . import analytic

    c_total = target_capacitance if target_capacitance is not None \
        else sum(v.capacitance for v in values)
    if c_total <= 0:
        # named by the argument C comes from; a sum can underflow to zero
        name = ("structures" if target_capacitance is None
                else "target_capacitance")
        raise ValidationError([f"{name}: resolved C must be > 0"])
    length = capacitance_to_length(c_total)

    breakdowns = []
    for s, v in zip(structures, values):
        with _labelled(s.label):
            breakdowns.append(analytic.breakdown(s, stack, length, v))
    total_loss = sum(b.loss_tangent for b in breakdowns)
    return DesignAssembly(tuple(breakdowns), c_total, length, total_loss)


def assemble_design(structures, stack: DielectricStack,
                    target_capacitance: Optional[float] = None,
                    corner_split: bool = False) -> DesignAssembly:
    """Resolve a design: validate it, evaluate each structure's closed
    forms once (`evaluate_design`) and combine them at the shared L
    (`combine_design`, which says where L comes from)."""
    problems = validate_design(structures, stack)
    if problems:
        raise ValidationError(problems)
    return combine_design(structures,
                          evaluate_design(structures, stack, corner_split),
                          stack, target_capacitance)
