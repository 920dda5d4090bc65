"""INI config loading: the stack, the targets and every structure type
round-trip to their records, a flag key takes only configparser's boolean
words, range problems are reported once every value parses, and re-reading
one section with one value replaced gives what parsing the edited INI
gives."""

import configparser
from pathlib import Path

import pytest

from surfloss.analytic import CLOSED_FORMS, STRUCTURE_TYPES
from surfloss.config import (DesignConfig, Targets, load_config,
                             parse_config, read_config, with_value)
from surfloss.constants import FF, GHZ, NM, UM
from surfloss.geometry import (Coplanar, DielectricStack, ParallelPlate,
                               Ribbon, RibbonWithGround, StraightWire,
                               TaperedWire, ValidationError)

#: (INI type, every key of the section, the spec built directly in SI)
SECTIONS = [
    ("parallel_plate", {"s_um": "5", "w_um": "100", "length_um": "1130"},
     ParallelPlate(5 * UM, 100 * UM, 1130 * UM, label="s")),
    ("ribbon", {"a_um": "50", "b_um": "100", "length_um": "1391",
                "t_um": "0.1"},
     Ribbon(50 * UM, 100 * UM, 1391 * UM, 0.1 * UM, label="s")),
    ("coplanar", {"a_um": "50", "b_um": "100", "length_um": "1138",
                  "t_um": "0.1", "single_ended": "true"},
     Coplanar(50 * UM, 100 * UM, 1138 * UM, 0.1 * UM, single_ended=True,
              label="s")),
    ("ribbon_with_ground", {"a_um": "50", "b_um": "100", "c_um": "300",
                            "length_um": "1000", "t_um": "0.1"},
     RibbonWithGround(50 * UM, 100 * UM, 300 * UM, 1000 * UM, 0.1 * UM,
                      label="s")),
    ("straight_wire", {"half_width_um": "0.1", "d_um": "50", "t_um": "0.1"},
     StraightWire(0.1 * UM, 50 * UM, 0.1 * UM, label="s")),
    ("tapered_wire", {"r0_um": "0.1", "slope": "0.4", "d_um": "50",
                      "t_um": "0.1"},
     TaperedWire(0.1 * UM, 0.4, 50 * UM, 0.1 * UM, label="s")),
]


@pytest.mark.parametrize("stype, keys, expected", SECTIONS,
                         ids=[s[0] for s in SECTIONS])
def test_structure_section_round_trip(tmp_path, stype, keys, expected):
    lines = ["[structure.s]", f"type = {stype}"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    path = tmp_path / "design.ini"
    path.write_text("\n".join(lines) + "\n")
    cfg = load_config(path)
    # records are tuples, so equal values of another type compare equal
    assert cfg.structures == [expected]
    assert type(cfg.structures[0]) is type(expected)


def test_stack_section_round_trip(tmp_path):
    keys = {"eps_substrate": "11.9", "eps_ma": "9.5", "eps_ms": "9.7",
            "eps_sa": "4.1", "t_ma_nm": "3", "t_ms_nm": "1.5",
            "t_sa_nm": "2.5", "tan_ma": "1e-3", "tan_ms": "2e-3",
            "tan_sa": "3e-3"}
    lines = ["[stack]"] + [f"{k} = {v}" for k, v in keys.items()]
    lines += ["[structure.s]", "type = parallel_plate", "s_um = 5",
              "w_um = 100", "length_um = 1130"]
    path = tmp_path / "design.ini"
    path.write_text("\n".join(lines) + "\n")
    cfg = load_config(path)
    assert cfg.stack == DielectricStack(
        eps_s=11.9, eps_ma=9.5, eps_ms=9.7, eps_sa=4.1, t_ma=3 * NM,
        t_ms=1.5 * NM, t_sa=2.5 * NM, tan_ma=1e-3, tan_ms=2e-3, tan_sa=3e-3)


@pytest.mark.parametrize("section, expected", [
    ("", Targets(None, 2 * GHZ)),
    ("[targets]\nspan_ghz = 3.5\n", Targets(None, 3.5 * GHZ)),
    ("[targets]\ncapacitance_ff = 80\nspan_ghz = 3.5\n",
     Targets(80 * FF, 3.5 * GHZ)),
], ids=["absent", "span", "both"])
def test_targets_section_round_trip(tmp_path, section, expected):
    # read by the same key and suffix tables as every other section
    path = tmp_path / "design.ini"
    path.write_text(section + "[structure.s]\ntype = parallel_plate\n"
                    "s_um = 5\nw_um = 100\nlength_um = 1130\n")
    assert load_config(path).targets == expected


#: every record a config section is read into
RECORDS = {"stack": DielectricStack, "targets": Targets, **STRUCTURE_TYPES}


@pytest.mark.parametrize("cls", RECORDS.values(), ids=RECORDS)
def test_ini_keys_map_to_fields(cls):
    # every field but the label (the section name) has exactly one key
    names = [name for name in cls._fields if name != "label"]
    assert sorted(cls.INI_KEYS.values()) == sorted(names)


#: the fields of each record that have a default: every stack and targets
#: field, and a structure's label and flags
OPTIONAL = {DielectricStack: set(DielectricStack.INI_KEYS.values()),
            Targets: set(Targets.INI_KEYS.values()),
            Coplanar: {"single_ended", "label"}}


@pytest.mark.parametrize("cls", RECORDS.values(), ids=RECORDS)
def test_record_contract(cls):
    # the parser builds every record by keyword from its INI_KEYS fields and
    # tells a required key from an optional one by _field_defaults; a
    # record is immutable and hashable, so sweep can key its cache on it
    values = {name: True if isinstance(cls._field_defaults.get(name), bool)
              else float(i + 1)
              for i, name in enumerate(cls.INI_KEYS.values())}
    record = cls(**values)
    assert {name: getattr(record, name) for name in values} == values
    assert set(cls._field_defaults) == OPTIONAL.get(cls, {"label"})
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.5)
    twin = cls(**values)
    assert twin == record and hash(twin) == hash(record)
    name = next(iter(values))
    changed = record._replace(**{name: -1.0})
    assert type(changed) is cls and changed is not record
    assert getattr(changed, name) == -1.0 and getattr(record, name) == 1.0
    assert changed._replace(**{name: 1.0}) == record


def test_every_structure_type_is_covered():
    assert {s[0] for s in SECTIONS} == set(STRUCTURE_TYPES)


def test_registry_derives_the_type_names_and_the_wires():
    # STRUCTURE_TYPES reads each class's default label off CLOSED_FORMS, in
    # the registry's order; only the junction wires have a quadrature
    assert list(STRUCTURE_TYPES) == ["parallel_plate", "ribbon", "coplanar",
                                     "ribbon_with_ground", "straight_wire",
                                     "tapered_wire"]
    assert list(STRUCTURE_TYPES.values()) == list(CLOSED_FORMS)
    assert [name for name, cls in STRUCTURE_TYPES.items()
            if CLOSED_FORMS[cls].wire_energy] == ["straight_wire",
                                                  "tapered_wire"]


def _coplanar(tmp_path, single_ended: str):
    path = tmp_path / "design.ini"
    path.write_text("[structure.s]\ntype = coplanar\na_um = 50\nb_um = 100\n"
                    f"length_um = 1138\nt_um = 0.1\nsingle_ended = {single_ended}\n")
    return path


@pytest.mark.parametrize("word, value",
                         configparser.ConfigParser.BOOLEAN_STATES.items())
def test_flag_takes_every_configparser_boolean_word(tmp_path, word, value):
    for spelling in (word, word.upper(), word.capitalize()):
        spec, = load_config(_coplanar(tmp_path, spelling)).structures
        assert spec.single_ended is value


@pytest.mark.parametrize("raw", ["flase", "2", ""])
def test_flag_rejects_other_words(tmp_path, capsys, raw):
    # reported with the other problems, not read as false; the CLI exits 2
    from surfloss import cli
    path = _coplanar(tmp_path, raw)
    path.write_text(path.read_text().replace("a_um = 50", "a_um = wide"))
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert exc.value.problems == [
        "structure.s.a_um: not a number: 'wide'",
        f"structure.s.single_ended: not true or false: {raw!r}"]
    assert cli.main(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error[2]: structure.s.single_ended: not true or false: {raw!r}" in err


def test_range_problems_wait_for_every_value_to_parse(tmp_path):
    # two rounds: the unparsable a_um keys alone, then, with them fixed,
    # every range problem of the stack and the targets together
    text = (Path(__file__).resolve().parent.parent / "configs"
            / "transmon_100ff.ini").read_text()
    text = text.replace("tan_ma = 0.005", "tan_ma = -1").replace(
        "capacitance_ff = 100", "capacitance_ff = -5")
    path = tmp_path / "design.ini"
    path.write_text(text.replace("a_um = 50", "a_um = wide"))
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert exc.value.problems == [
        "structure.pads.a_um: not a number: 'wide'",
        "structure.ground_coupling.a_um: not a number: 'wide'"]
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert exc.value.problems == ["stack.tan_ma: loss tangent must be >= 0",
                                  "targets.capacitance_ff: must be > 0"]


#: raw values a sweep step could write: non-numbers, non-finite numbers, a
#: negative one, a slope over the cap and a number where a type name or a
#: true/false word belongs; None keeps the key's own value
RAWS = ["wide", "nan", "inf", "-1", "0.6", "1.0", None]


def _outcome(parse, *args):
    """The config parse returns, or the problems it raises."""
    try:
        return parse(*args)
    except ValidationError as exc:
        return exc.problems


@pytest.mark.parametrize("raw", RAWS, ids=[str(r) for r in RAWS])
@pytest.mark.parametrize("name", ["transmon_100ff.ini",
                                  "narrow_strip_check.ini"])
def test_with_value_gives_what_parse_config_gives_the_edited_ini(name, raw):
    # every key of a shipped config, spelt as stored and in upper case
    # (configparser stores D_UM as d_um), set to raw: with_value re-reads
    # its section alone and must return an equal config or the same
    # problem list, in the same order, as parsing the edited INI whole
    path = Path(__file__).resolve().parent.parent / "configs" / name
    cp = read_config(path)
    cfg = parse_config(cp)
    outcomes = set()
    for section in cp.sections():
        items = cp.items(section)
        for key, own in items:
            value = own if raw is None else raw
            for spelling in (key, key.upper()):
                edited = read_config(path)
                edited[section][spelling] = value
                want = _outcome(parse_config, edited)
                got = _outcome(with_value, cfg, section, items,
                               cp.optionxform(spelling), value)
                assert got == want, (section, spelling, value)
                if isinstance(want, DesignConfig):
                    assert list(map(type, got.structures)) \
                        == list(map(type, want.structures))
                outcomes.add(type(want))
    if raw is None:
        assert outcomes == {DesignConfig}
    elif raw in ("wide", "nan", "inf"):
        assert outcomes == {list}
