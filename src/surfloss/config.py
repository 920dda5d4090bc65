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
from dataclasses import MISSING, dataclass, fields
from typing import Optional

from .constants import FF, GHZ, NM, UM
from .geometry import (MAX_TAPER_SLOPE, STRUCTURE_TYPES, DielectricStack,
                       ValidationError, validate_design)

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


def read_config(path) -> configparser.ConfigParser:
    """Read an INI file; raises ValidationError if it cannot be read."""
    cp = configparser.ConfigParser(interpolation=None)
    if not cp.read(path):
        raise ValidationError([f"config: cannot read {path}"])
    return cp


def load_config(path, clamp_slope: bool = False) -> DesignConfig:
    """Read, parse and validate a design config (see parse_config)."""
    return parse_config(read_config(path), clamp_slope)


def parse_config(cp: configparser.ConfigParser,
                 clamp_slope: bool = False) -> DesignConfig:
    """Parse and validate a read config; raises ValidationError with the
    full problem list on any error.

    clamp_slope=True turns an over-cap taper slope into a warning and clamps
    it (the taper command optimizes the slope itself anyway).
    """
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
                span_ghz = _parse_float(raw, "targets.span_ghz", problems)
                if math.isfinite(span_ghz) and span_ghz <= 0:
                    problems.append("targets.span_ghz: must be > 0")
                span_hz = span_ghz * GHZ
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
        if stype not in STRUCTURE_TYPES:
            problems.append(f"{section}.type: unknown structure type {stype!r}")
            continue
        cls = STRUCTURE_TYPES[stype]
        # flags are the fields with a bool default; required, those with none
        flags = {f.name for f in fields(cls) if isinstance(f.default, bool)}
        required = {f.name for f in fields(cls) if f.default is MISSING}
        kwargs = {}
        for key, raw in items.items():
            if key not in cls.INI_KEYS:
                problems.append(f"{section}.{key}: unknown key for {stype}")
                continue
            field_name = cls.INI_KEYS[key]
            if field_name in flags:
                kwargs[field_name] = raw.strip().lower() in ("1", "true", "yes")
            elif key.endswith("_um"):
                kwargs[field_name] = _parse_float(raw, f"{section}.{key}",
                                                  problems) * UM
            else:
                kwargs[field_name] = _parse_float(raw, f"{section}.{key}",
                                                  problems)
        missing = required - set(kwargs)
        if missing:
            problems.append(f"[{section}]: missing keys for {stype}: "
                            f"{', '.join(sorted(missing))}")
            continue
        kwargs["label"] = name
        if clamp_slope and kwargs.get("slope", 0.0) > MAX_TAPER_SLOPE:
            warnings_.append(
                f"{section}.slope: {kwargs['slope']} exceeds the {MAX_TAPER_SLOPE} "
                "cap (steeper tapers no longer reduce the edge field); clamped")
            kwargs["slope"] = MAX_TAPER_SLOPE
        structures.append((name, cls(**kwargs)))

    if problems:
        raise ValidationError(problems)

    stack = DielectricStack(**stack_kwargs)
    problems = validate_design([s for _, s in structures], stack)
    if problems:
        raise ValidationError(problems)
    return DesignConfig(stack, structures, target_c, span_hz, warnings_)
