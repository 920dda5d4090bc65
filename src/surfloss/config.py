"""INI design configs.

Units are fixed per key suffix: *_um (micrometers), *_nm (nanometers),
*_ff (femtofarads), *_ghz (gigahertz); bare keys are dimensionless.
Unknown sections or keys are rejected, and all validation problems are
collected before reporting.

Example::

    [stack]
    eps_substrate = 11.7
    eps_ma = 9.8
    ...
    [targets]
    capacitance_ff = 100
    span_ghz = 2
    [structure.pads]
    type = ribbon
    a_um = 50
    b_um = 100
    length_um = 1391
    t_um = 0.1
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

from .constants import FF, GHZ, NM, UM
from .geometry import (Coplanar, DielectricStack, ParallelPlate, Ribbon,
                       RibbonWithGround, StraightWire, StructureSpec,
                       TaperedWire, ValidationError, validate_design)

_STACK_KEYS = {
    "eps_substrate": ("eps_s", 1.0),
    "eps_ma": ("eps_ma", 1.0),
    "eps_ms": ("eps_ms", 1.0),
    "eps_sa": ("eps_sa", 1.0),
    "t_ma_nm": ("t_ma", NM),
    "t_ms_nm": ("t_ms", NM),
    "t_sa_nm": ("t_sa", NM),
    "tan_ma": ("tan_ma", 1.0),
    "tan_ms": ("tan_ms", 1.0),
    "tan_sa": ("tan_sa", 1.0),
}

_STRUCTURE_KEYS = {
    "parallel_plate": {"s_um": "s", "w_um": "w", "length_um": "length"},
    "ribbon": {"a_um": "a", "b_um": "b", "length_um": "length", "t_um": "t"},
    "coplanar": {"a_um": "a", "b_um": "b", "length_um": "length", "t_um": "t",
                 "single_ended": "single_ended"},
    "ribbon_with_ground": {"a_um": "a", "b_um": "b", "c_um": "c",
                           "length_um": "length", "t_um": "t"},
    "straight_wire": {"half_width_um": "half_width", "d_um": "d", "t_um": "t"},
    "tapered_wire": {"r0_um": "r0", "slope": "slope", "d_um": "d", "t_um": "t"},
}

_STRUCTURE_TYPES = {
    "parallel_plate": ParallelPlate,
    "ribbon": Ribbon,
    "coplanar": Coplanar,
    "ribbon_with_ground": RibbonWithGround,
    "straight_wire": StraightWire,
    "tapered_wire": TaperedWire,
}


@dataclass
class DesignConfig:
    stack: DielectricStack
    structures: list            # [(name, StructureSpec)]
    target_capacitance: Optional[float]   # F, or None
    span_hz: float
    warnings: list = None       # type: ignore[assignment]


def _parse_float(raw: str, where: str, problems: list[str]) -> float:
    try:
        val = float(raw)
    except ValueError:
        problems.append(f"{where}: not a number: {raw!r}")
        return float("nan")
    if not math.isfinite(val):
        problems.append(f"{where}: not a finite number: {raw!r}")
    return val


def load_config(path, clamp_slope: bool = False) -> DesignConfig:
    """Parse and validate a design config; raises ValidationError with the
    full problem list on any error.

    clamp_slope=True turns an over-cap taper slope into a warning and clamps
    it (the taper command optimizes the slope itself anyway).
    """
    from .geometry import MAX_TAPER_SLOPE

    cp = configparser.ConfigParser(interpolation=None)
    read = cp.read(path)
    if not read:
        raise ValidationError([f"config: cannot read {path}"])

    problems: list[str] = []
    stack_kwargs = {}
    if cp.has_section("stack"):
        for key, raw in cp.items("stack"):
            if key not in _STACK_KEYS:
                problems.append(f"stack.{key}: unknown key")
                continue
            field_name, scale = _STACK_KEYS[key]
            stack_kwargs[field_name] = _parse_float(raw, f"stack.{key}",
                                                    problems) * scale

    target_c = None
    span_hz = 2.0 * GHZ
    if cp.has_section("targets"):
        for key, raw in cp.items("targets"):
            if key == "capacitance_ff":
                target_c = _parse_float(raw, "targets.capacitance_ff",
                                        problems) * FF
            elif key == "span_ghz":
                span_hz = _parse_float(raw, "targets.span_ghz", problems) * GHZ
            else:
                problems.append(f"targets.{key}: unknown key")

    structures = []
    warnings_: list[str] = []
    for section in cp.sections():
        if section in ("stack", "targets"):
            continue
        if not section.startswith("structure."):
            problems.append(f"[{section}]: unknown section")
            continue
        name = section.split(".", 1)[1]
        items = dict(cp.items(section))
        stype = items.pop("type", None)
        if stype not in _STRUCTURE_TYPES:
            problems.append(f"{section}.type: unknown structure type {stype!r}")
            continue
        keymap = _STRUCTURE_KEYS[stype]
        kwargs = {}
        for key, raw in items.items():
            if key not in keymap:
                problems.append(f"{section}.{key}: unknown key for {stype}")
                continue
            field_name = keymap[key]
            if field_name == "single_ended":
                kwargs[field_name] = raw.strip().lower() in ("1", "true", "yes")
            elif key.endswith("_um"):
                kwargs[field_name] = _parse_float(raw, f"{section}.{key}",
                                                  problems) * UM
            else:
                kwargs[field_name] = _parse_float(raw, f"{section}.{key}",
                                                  problems)
        missing = set(keymap.values()) - set(kwargs) - {"single_ended"}
        if missing:
            problems.append(f"[{section}]: missing keys for {stype}: "
                            f"{', '.join(sorted(missing))}")
            continue
        kwargs["label"] = name
        if (stype == "tapered_wire" and clamp_slope
                and kwargs.get("slope", 0.0) > MAX_TAPER_SLOPE):
            warnings_.append(
                f"{section}.slope: {kwargs['slope']} exceeds the {MAX_TAPER_SLOPE} "
                "cap (steeper tapers no longer reduce the edge field); clamped")
            kwargs["slope"] = MAX_TAPER_SLOPE
        structures.append((name, _STRUCTURE_TYPES[stype](**kwargs)))

    if problems:
        raise ValidationError(problems)

    stack = DielectricStack(**stack_kwargs)
    problems = validate_design([s for _, s in structures], stack)
    if problems:
        raise ValidationError(problems)
    return DesignConfig(stack, structures, target_c, span_hz, warnings_)
