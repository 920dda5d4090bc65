"""INI design configs.

Units are fixed per key suffix: *_um (micrometers), *_nm (nanometers),
*_ff (femtofarads), *_ghz (gigahertz); bare keys are dimensionless.  The
rule holds in every section, whose record maps its keys to fields by
INI_KEYS.
Unknown sections or keys are rejected.  Problems are reported in two
rounds: first every parse problem (an unknown section, key or structure
type, a missing key, a value that is not a finite number or a true/false
word); then, once every value parses, every range problem of the records.

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

import configparser
import math
from typing import NamedTuple, Optional

from .constants import FF, GHZ, NM, UM
from .analytic import STRUCTURE_TYPES
from .geometry import (MAX_TAPER_SLOPE, DielectricStack, ValidationError,
                       validate_design)

#: key suffix -> the unit a key's value is given in; any other key is read
#: as is
_UNITS = {"_um": UM, "_nm": NM, "_ff": FF, "_ghz": GHZ}


class Targets(NamedTuple):
    """The qubit capacitance every participation is taken at (None: the
    structures' sum) and the span TLS splittings are counted over."""

    INI_KEYS = {"capacitance_ff": "capacitance", "span_ghz": "span"}

    capacitance: Optional[float] = None     # F
    span: float = 2.0 * GHZ                 # Hz

    def validate(self) -> list[str]:
        bad = []
        if self.capacitance is not None and self.capacitance <= 0:
            bad.append("targets.capacitance_ff: must be > 0")
        if self.span <= 0:
            bad.append("targets.span_ghz: must be > 0")
        elif math.isinf(self.span):
            bad.append("targets.span_ghz: overflows in Hz")
        return bad


class DesignConfig(NamedTuple):
    stack: DielectricStack
    structures: list            # specs of STRUCTURE_TYPES, labelled by section
    targets: Targets
    warnings: list


def _parse_float(raw: str, where: str, problems: list[str]) -> float:
    try:
        val = float(raw)
    except ValueError:
        problems.append(f"{where}: not a number: {raw!r}")
        return float("nan")
    if not math.isfinite(val):
        problems.append(f"{where}: not a finite number: {raw!r}")
    return val


def _section_fields(items, cls, section: str, unknown: str,
                    problems: list[str]) -> dict:
    """Field values of one section's (key, raw) items, keyed through
    ``cls.INI_KEYS``; a field with a bool default is a true/false flag,
    given as one of configparser's boolean words in any case."""
    flags = {n for n, v in cls._field_defaults.items() if isinstance(v, bool)}
    kwargs = {}
    for key, raw in items:
        if key not in cls.INI_KEYS:
            problems.append(f"{section}.{key}: {unknown}")
            continue
        field_name = cls.INI_KEYS[key]
        if field_name in flags:
            states = configparser.ConfigParser.BOOLEAN_STATES
            word = raw.strip().lower()
            if word not in states:
                problems.append(f"{section}.{key}: not true or false: {raw!r}")
            kwargs[field_name] = states.get(word, False)
        else:
            scale = _UNITS.get("_" + key.rpartition("_")[2], 1.0)
            kwargs[field_name] = _parse_float(raw, f"{section}.{key}",
                                              problems) * scale
    return kwargs


def read_config(path) -> configparser.ConfigParser:
    """Read an INI file; raises ValidationError if it cannot be read."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        # one line, although the parser's messages span several
        raise ValidationError([f"config: cannot read {path}: "
                               + " ".join(str(exc).split())]) from None
    return cp


def load_config(path, clamp_slope: bool = False) -> DesignConfig:
    """Read, parse and validate a design config (see parse_config)."""
    return parse_config(read_config(path), clamp_slope)


def parse_config(cp: configparser.ConfigParser,
                 clamp_slope: bool = False) -> DesignConfig:
    """Parse and validate a read config; raises ValidationError on any
    error, in two rounds: every parse problem first, and only once every
    value parses, every range problem (`validate_design`, `Targets`).

    clamp_slope=True turns an over-cap taper slope into a warning and clamps
    it (the taper command optimizes the slope itself anyway).
    """
    problems: list[str] = []
    stack, targets = (
        cls(**_section_fields(cp.items(name) if cp.has_section(name) else (),
                              cls, name, "unknown key", problems))
        for name, cls in (("stack", DielectricStack), ("targets", Targets)))

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
        kwargs = _section_fields(items.items(), cls, section,
                                 f"unknown key for {stype}", problems)
        missing = set(cls._fields) - set(cls._field_defaults) - set(kwargs)
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
        structures.append(cls(**kwargs))

    if problems:
        raise ValidationError(problems)

    problems = validate_design(structures, stack) + targets.validate()
    if problems:
        raise ValidationError(problems)
    return DesignConfig(stack, structures, targets, warnings_)
