"""INI design configs.

Units are fixed per key suffix: *_um (micrometers), *_nm (nanometers),
*_ff (femtofarads), *_ghz (gigahertz); bare keys are dimensionless.  The
rule holds in every section, whose record maps its keys to fields by
INI_KEYS.
Unknown sections or keys are rejected.  Problems are reported in two
rounds: first every parse problem (an unknown section, key or structure
type, a missing key, a value that is not a finite number or a true/false
word); then, once every value parses, every range problem of the records.

One reader turns a section's raw items into its record, the same for
[stack], [targets] and each [structure.*].  `parse_config` runs it on every
section; `with_value` runs it on one section with one value replaced, which
is how each `sweep` step re-reads only the section it changes.  Both rounds
hold per step: a step reports exactly the problems `parse_config` reports
for the INI so edited.

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


#: the sections read into one record each, by section name (the field of
#: DesignConfig they fill)
_RECORDS = {"stack": DielectricStack, "targets": Targets}


def _read_section(section: str, items, problems: list[str],
                  clamped: Optional[list[str]] = None):
    """The record of one section's (key, raw) items: its DielectricStack,
    Targets or labelled structure spec, or None after a problem that leaves
    no spec (an unknown section or structure type, a missing key).  Appends
    every parse problem to problems.  Given a clamped list, an over-cap
    taper slope is clamped, with its warning appended there."""
    if section in _RECORDS:
        cls = _RECORDS[section]
        return cls(**_section_fields(items, cls, section, "unknown key",
                                     problems))
    if not section.startswith("structure."):
        problems.append(f"[{section}]: unknown section")
        return None
    name = section.split(".", 1)[1]
    items = dict(items)
    stype = items.pop("type", None)
    if stype not in STRUCTURE_TYPES:
        problems.append(f"{section}.type: unknown structure type {stype!r}")
        return None
    cls = STRUCTURE_TYPES[stype]
    kwargs = _section_fields(items.items(), cls, section,
                             f"unknown key for {stype}", problems)
    missing = set(cls._fields) - set(cls._field_defaults) - set(kwargs)
    if missing:
        problems.append(f"[{section}]: missing keys for {stype}: "
                        f"{', '.join(sorted(missing))}")
        return None
    kwargs["label"] = name
    if clamped is not None and kwargs.get("slope", 0.0) > MAX_TAPER_SLOPE:
        clamped.append(
            f"{section}.slope: {kwargs['slope']} exceeds the {MAX_TAPER_SLOPE} "
            "cap (steeper tapers no longer reduce the edge field); clamped")
        kwargs["slope"] = MAX_TAPER_SLOPE
    return cls(**kwargs)


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

    Each section, [stack], [targets] and every [structure.*], is read by
    one reader, `_read_section`; `with_value` re-reads one section alone
    and applies the same two rounds, so each `sweep` step is checked as
    this function checks the edited INI.

    clamp_slope=True turns an over-cap taper slope into a warning and clamps
    it (the taper command optimizes the slope itself anyway).
    """
    problems: list[str] = []
    warnings_: list[str] = []
    stack, targets = (
        _read_section(name, cp.items(name) if cp.has_section(name) else (),
                      problems)
        for name in _RECORDS)
    structures = []
    for section in cp.sections():
        if section not in _RECORDS:
            spec = _read_section(section, cp.items(section), problems,
                                 warnings_ if clamp_slope else None)
            if spec is not None:
                structures.append(spec)
    if problems:
        raise ValidationError(problems)
    return _checked(DesignConfig(stack, structures, targets, warnings_))


def with_value(cfg: DesignConfig, section: str, items, key: str,
               raw: str) -> DesignConfig:
    """The config `parse_config` returns (clamp_slope=False) for the INI of
    cfg with key of section set to raw, or its ValidationError: section is
    re-read from its (key, raw) items with key's value replaced, and the
    range problems of the whole config are checked again.  The other
    sections of a valid cfg have no parse problem, so theirs are not read
    again.  key is as configparser stores it (``cp.optionxform``)."""
    problems: list[str] = []
    record = _read_section(section, [(k, raw if k == key else v)
                                     for k, v in items], problems)
    if problems:
        raise ValidationError(problems)
    if section in _RECORDS:
        cfg = cfg._replace(**{section: record})
    else:
        cfg = cfg._replace(structures=[record if s.label == record.label
                                       else s for s in cfg.structures])
    return _checked(cfg)


def _checked(cfg: DesignConfig) -> DesignConfig:
    """cfg, once its records pass the second round: every range problem
    of the design (`validate_design`) and of the targets."""
    problems = validate_design(cfg.structures, cfg.stack) \
        + cfg.targets.validate()
    if problems:
        raise ValidationError(problems)
    return cfg
