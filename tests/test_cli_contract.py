"""Property tests of the CLI contract on random design configs, and on
random `sweep` and `verify` arguments.

Configs are built from each INI_KEYS map with values drawn from the edges
of the float range, ordinary values and non-numbers.  Every command must
exit 0, 2, 3 or 4, raise and warn nothing, print no non-finite number and
no negative zero, and print the same stdout when run again.  The order of
the structure sections must not change any structure's breakdown, each
participation must be linear in its oxide thickness and not negative, and
each loss tangent must be the participations weighted by the interface
loss tangents.
"""

import configparser
import contextlib
import io
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfloss import analytic, cli
from surfloss.bem import SUITES
from surfloss.config import load_config
from surfloss.analytic import STRUCTURE_TYPES
from surfloss.geometry import (MAX_TAPER_SLOPE, DielectricStack,
                               RibbonWithGround, ValidationError,
                               assemble_design)

#: extremes of the float range, ordinary values and non-numbers
VALUES = ("0", "-1", "1e-300", "4e-309", "1e200", "1e308", "nan",
          "0.1", "2", "100", "abc", "")

#: a value for every key that, left alone, gives a valid design
BASE = {
    "eps_substrate": "11.7", "eps_ma": "9.8", "eps_ms": "9.8", "eps_sa": "3.8",
    "t_ma_nm": "2", "t_ms_nm": "2", "t_sa_nm": "2",
    "tan_ma": "0.005", "tan_ms": "0.005", "tan_sa": "0.005",
    "capacitance_ff": "100", "span_ghz": "2",
    "s_um": "5", "w_um": "100", "length_um": "1130",
    "a_um": "50", "b_um": "100", "c_um": "130", "t_um": "0.1",
    "single_ended": "false", "half_width_um": "0.1", "d_um": "50",
    "r0_um": "0.1", "slope": "0.4",
}

COMMANDS = (["analyze"], ["tls"], ["taper"])

#: counts just past the bound of --steps, and far past
OVER_STEPS = (cli.MAX_STEPS + 1, 10**12, 10**30)

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@st.composite
def configs(draw, min_structures=1):
    def section(header, keys, optional):
        lines = [header]
        for key in keys:
            if key in optional and draw(st.booleans()):
                continue
            # one key in eight takes a value from VALUES
            value = draw(st.sampled_from(VALUES)) \
                if draw(st.integers(0, 7)) == 7 else BASE[key]
            lines.append(f"{key} = {value}")
        return lines

    text = section("[stack]", DielectricStack.INI_KEYS, DielectricStack.INI_KEYS)
    if draw(st.booleans()):
        text += section("[targets]", ("capacitance_ff", "span_ghz"), ())
    types = draw(st.lists(st.sampled_from(sorted(STRUCTURE_TYPES)),
                          min_size=min_structures, max_size=2))
    for i, stype in enumerate(types):
        cls = STRUCTURE_TYPES[stype]
        # on a NamedTuple every field is a class attribute; the optional
        # ones are those with a default
        optional = {k for k, name in cls.INI_KEYS.items()
                    if name in cls._field_defaults}
        text += section(f"[structure.s{i}]\ntype = {stype}", cls.INI_KEYS,
                        optional)
    return "\n".join(text) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:       # argparse rejects the argv
            rc = exc.code
    return rc, out.getvalue(), err.getvalue(), caught


#: design-wide culprits of the commands that print them: analyze's TOTAL
#: row and L line, sweep's total column; a sum of finite per-structure
#: values has no one structure
DESIGN_NAMES = {"analyze": ["TOTAL", "L"], "sweep": ["total"]}


def _culprits(argv):
    """What an exit-3 line of argv may name first: the config's structure
    labels, the design-wide names argv's command prints and, for sweep,
    the --param text."""
    cp = configparser.ConfigParser(interpolation=None)
    with contextlib.suppress(configparser.Error, UnicodeError):
        cp.read(argv[argv.index("--config") + 1])
    names = [sect.removeprefix("structure.") for sect in cp.sections()
             if sect.startswith("structure.")]
    names += DESIGN_NAMES.get(argv[0], [])
    if "--param" in argv:
        names.append(argv[argv.index("--param") + 1])
    return names


def _assert_contract(argv):
    """Run argv and check the contract every command keeps; returns
    stdout.  A command on a config names its culprit first on every
    exit-3 line: a structure label, or sweep's --param."""
    rc, out, err, caught = _run(argv)
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in err and "Traceback" not in err
    assert not _NON_FINITE.search(out), out
    if "--config" in argv:
        heads = tuple(f"error[3]: {name}{sep}" for name in _culprits(argv)
                      for sep in ":.=")
        for line in err.splitlines():
            assert not line.startswith("error[3]:") \
                or line.startswith(heads), (argv, line)
    return out


# Hypothesis formats a failing example with black, whose import of
# mypy_extensions warns; that must not hide the failure itself
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(text=configs())
def test_cli_contract_holds_for_random_configs(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "design.ini"
    path.write_text(text)
    for cmd in COMMANDS:
        argv = [cmd[0], "--config", str(path), *cmd[1:]]
        out = _assert_contract(argv)
        assert "-0.00e+00" not in out, out
        assert _run(argv)[1] == out


SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" \
    / "transmon_100ff.ini"


def _shipped_params():
    """section.key of every key of the shipped config."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(SHIPPED_CONFIG)
    return [f"{sect}.{key}" for sect in cp.sections() for key in cp[sect]]


#: a sweep bound: an edge of the float range, a non-number or an ordinary
#: value; -1e308 against 1e308 makes a span that overflows
BOUNDS = st.one_of(st.sampled_from(VALUES + ("inf", "-inf", "-1e308")),
                   st.floats(-1e3, 1e3).map(repr))


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=60, derandomize=True, deadline=None)
@given(param=st.sampled_from(_shipped_params()), lo=BOUNDS, hi=BOUNDS,
       steps=st.one_of(st.integers(1, 30), st.sampled_from(OVER_STEPS)))
# the derandomized draws do not pair -1e308 with 1e308
@example(param="stack.tan_ms", lo="-1e308", hi="1e308", steps=3)
def test_sweep_contract_holds_for_random_argv(param, lo, hi, steps):
    # "--range=" keeps argparse from reading a bound of "-1" as a flag
    _assert_contract(["sweep", "--config", str(SHIPPED_CONFIG), "--param",
                      param, f"--range={lo}:{hi}", "--steps", str(steps)])


def test_sweep_quadrature_failure_names_the_swept_value(monkeypatch):
    # an arithmetic error in a step's wire quadrature; the parent printed
    # "error[3]: floating-point overflow: math range error", with no
    # culprit
    def overflowing(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr(analytic, "straight_wire_energy_quadrature",
                        overflowing)
    argv = ["sweep", "--config", str(SHIPPED_CONFIG), "--param",
            "structure.wire.d_um", "--range=10:50", "--steps", "2"]
    rc, out, err, _ = _run(argv)
    assert (rc, out) == (3, "")
    assert err == ("error[3]: structure.wire.d_um=10.0: floating-point "
                   "overflow: math range error\n")
    _assert_contract(argv)


def test_sweep_rejects_non_finite_bounds():
    # a non-finite bound that reaches linspace exits 3 with "invalid value
    # encountered in multiply"; finite bounds whose difference overflows
    # exited 3 with "overflow encountered in subtract", naming no culprit
    finite = "use LO:HI with finite numbers"
    span = "HI - LO overflows a float"
    for bounds, why in (("inf:1", finite), ("1:-inf", finite),
                        ("nan:2", finite), ("-1e308:1e308", span),
                        ("1e308:-1e308", span)):
        rc, out, err, _ = _run(["sweep", "--config", str(SHIPPED_CONFIG),
                                "--param", "structure.wire.d_um",
                                f"--range={bounds}", "--steps", "3"])
        assert (rc, out) == (2, "")
        assert err == f"error[2]: bad --range {bounds!r}; {why}\n"


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=30, derandomize=True, deadline=None)
@given(suite=st.sampled_from(SUITES),
       scale=st.one_of(st.floats(0.001, 0.3),
                       st.floats(1e4, sys.float_info.max)))
def test_verify_contract_holds_for_random_argv(suite, scale):
    # between the two ranges lie meshes under the cap that take seconds
    # and gigabytes to solve; above 1e4 every suite meets the cap first
    _assert_contract(["verify", "--suite", suite, "--mesh-scale", repr(scale)])


@pytest.mark.parametrize("scale", ["1e12", "4e305", "1.7e308"])
@pytest.mark.parametrize("suite", ["coax", "cyl-wire", "ribbon-ground"])
def test_verify_over_the_cap_exits_with_the_cap_line(suite, scale):
    # element counts past the float range are checked before int(), which
    # would raise on inf, and graded meshes report the length left to cover
    rc, out, err, _ = _run(["verify", "--suite", suite, "--mesh-scale", scale])
    assert (rc, out) == (3, "")
    assert err.startswith("error[3]: mesh has ") and err.count("\n") == 1


#: a number printed with a minus sign
_NEGATIVE = re.compile(r"(^|\s)-\d", re.MULTILINE)


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(r0=st.floats(0.01, 2.0), slope=st.floats(1e-9, MAX_TAPER_SLOPE),
       d=st.floats(1.0, 500.0), t=st.floats(0.01, 1.0))
def test_valid_tapers_print_no_negative_number(tmp_path_factory, r0, slope,
                                               d, t):
    # a taper that validates widens inside its wire, so its participations
    # and loss tangent are positive; the rest exit 2
    path = tmp_path_factory.mktemp("cfg") / "taper.ini"
    path.write_text(f"[structure.taper]\ntype = tapered_wire\nr0_um = {r0!r}\n"
                    f"slope = {slope!r}\nd_um = {d!r}\nt_um = {t!r}\n")
    rc, out, err, _ = _run(["analyze", "--config", str(path)])
    assert rc in (0, 2), err
    assert not _NEGATIVE.search(out), out


def _breakdowns(cfg, structures):
    design = assemble_design(structures, cfg.stack,
                             target_capacitance=cfg.targets.capacitance)
    return {bd.label: (bd.p_ma, bd.p_ms, bd.p_sa, bd.capacitance,
                       bd.loss_tangent) for bd in design.breakdowns}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(text=configs(min_structures=2))
def test_section_order_does_not_change_breakdowns(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "design.ini"
    path.write_text(text)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            cfg = load_config(path)
            forward = _breakdowns(cfg, cfg.structures)
        except (ValueError, ArithmeticError):
            return          # exits 2 or 3 whatever the order
        backward = _breakdowns(cfg, cfg.structures[::-1])
    assert list(forward) == [s.label for s in cfg.structures]
    assert sorted(backward) == sorted(forward)
    for label, values in forward.items():
        np.testing.assert_allclose(backward[label], values, rtol=1e-12,
                                   atol=0.0, err_msg=label)


#: each oxide thickness and the participation it scales
OXIDES = (("t_ma", "p_ma"), ("t_ms", "p_ms"), ("t_sa", "p_sa"))


def _ordinary(text):
    """Every number in the config is 0 or within 1e-3..1e4 in its INI unit,
    so no product in a participation overflows or turns subnormal, and
    halving an oxide thickness halves its participation exactly."""
    for line in text.splitlines():
        try:
            value = float(line.partition("=")[2])
        except ValueError:
            continue
        if value != 0.0 and not 1e-3 <= abs(value) <= 1e4:
            return False
    return True


@settings(max_examples=100, derandomize=True, deadline=None)
@given(text=configs())
def test_participations_are_linear_in_each_oxide_thickness(tmp_path_factory,
                                                           text):
    path = tmp_path_factory.mktemp("cfg") / "design.ini"
    path.write_text(text)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            cfg = load_config(path)
            design = assemble_design(cfg.structures, cfg.stack,
                                     target_capacitance=cfg.targets.capacitance)
        except (ValueError, ArithmeticError):
            return          # exits 2 or 3
    stack = cfg.stack
    for bd in design.breakdowns:
        # neither negative nor -0.0, where finite
        for value in (bd.p_ma, bd.p_ms, bd.p_sa, bd.loss_tangent):
            assert np.isnan(value) or not np.signbit(value), (bd.label, value)
        # exactly, and nan where a participation overflows (that exits 3)
        np.testing.assert_equal(
            bd.loss_tangent, bd.p_ma * stack.tan_ma + bd.p_ms * stack.tan_ms
            + bd.p_sa * stack.tan_sa, err_msg=bd.label)
    if not _ordinary(text):
        return
    for t, p in OXIDES:
        thinner = stack._replace(**{t: getattr(stack, t) / 2})
        half = assemble_design(cfg.structures, thinner,
                               target_capacitance=cfg.targets.capacitance)
        for bd, bd_half in zip(design.breakdowns, half.breakdowns):
            for _, q in OXIDES:
                if q == p:
                    np.testing.assert_allclose(getattr(bd_half, q),
                                               getattr(bd, q) / 2,
                                               rtol=1e-12, atol=0.0,
                                               err_msg=f"{bd.label}.{q}")
                else:
                    assert getattr(bd_half, q) == getattr(bd, q), \
                        (bd.label, t, q)


#: the strip types and the gaps their film faces, beyond b - a
STRIPS = {"ribbon": (), "coplanar": (), "ribbon_with_ground": ("c - b",)}


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=150, derandomize=True, deadline=None)
@given(stype=st.sampled_from(sorted(STRIPS)), a=st.floats(0.1, 500.0),
       gap=st.floats(0.01, 500.0), outer=st.floats(0.01, 500.0),
       t=st.floats(0.01, 200.0), length=st.floats(1.0, 5000.0))
def test_valid_strips_print_no_negative_number(tmp_path_factory, stype, a,
                                               gap, outer, t, length):
    # a strip film that validates is thinner than a and than every gap it
    # faces, so its participations are positive; the rest exit 2 on t
    b = a + gap
    ground = f"c_um = {b + outer!r}\n" if STRIPS[stype] else ""
    path = tmp_path_factory.mktemp("cfg") / "strip.ini"
    path.write_text(f"[structure.s]\ntype = {stype}\na_um = {a!r}\n"
                    f"b_um = {b!r}\n{ground}length_um = {length!r}\n"
                    f"t_um = {t!r}\n")
    rc, out, err, _ = _run(["analyze", "--config", str(path)])
    assert rc in (0, 2), err
    assert not _NEGATIVE.search(out), out
    faced = min([a, gap] + ([outer] if STRIPS[stype] else []))
    fit_edge = RibbonWithGround(a, b, b + outer, length, t).edge_point \
        if STRIPS[stype] else 0.0
    if t < 0.999 * faced and b + outer > 1.001 * fit_edge:
        assert rc == 0, err
    elif t > 1.001 * faced:
        assert rc == 2
    assert all(line.startswith(("error[2]: s.t: need ", "error[2]: s.c: need "))
               for line in err.splitlines()), err


#: the error[2] line of each validate rule that a boundary case crosses
RULE_LINES = {
    "taper": "error[2]: s.slope: need slope*(d - 5*t) > r0, or the taper "
             "does not widen inside the wire",
    "film": "error[2]: s.t: need t < {gap}, the gap the film faces",
    "edge": "error[2]: s.c: need c > b - 0.15*(b - 1.2*a), the edge point "
            "of the capacitance fit",
}


#: the boundaries drawn: the taper rule, the film rule on each strip type
#: and each gap it faces, and the fit's edge point
BOUNDARIES = ("taper", "ribbon", "coplanar", "ground b - a", "ground c - b",
              "edge")


@st.composite
def boundary_cases(draw, rule, outside):
    """(config text, the error[2] line or None): one structure a relative
    eps inside or outside one BOUNDARIES rule, with room to spare on every
    other rule.  The rules: a taper that widens inside its wire,
    slope*(d - 5t) > r0; a film thinner than the gap it faces; a ground
    beyond the fit's edge point."""
    eps = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    past = 1 - eps if outside else 1 + eps  # below the bound is outside
    t = draw(st.floats(0.01, 1.0))
    if rule == "taper":
        r0 = t * draw(st.floats(0.6, 19.0))
        bound = draw(st.floats(1e-3, 0.4))  # the slope at the boundary
        d = 5 * t + r0 / bound
        keys = {"type": "tapered_wire", "r0_um": r0, "slope": bound * past,
                "d_um": d, "t_um": t}
        line = RULE_LINES["taper"]
    elif rule == "edge":
        # b < 1.2 a puts x_e past b; the film stays thicker than the oxides
        a = draw(st.floats(10.0, 500.0))
        b = a * draw(st.floats(1.01, 1.15))
        c = (0.85 * b + 0.18 * a) * past
        keys = {"type": "ribbon_with_ground", "a_um": a, "b_um": b,
                "c_um": c, "length_um": 1000.0, "t_um": 0.1 * (c - b)}
        line = RULE_LINES["edge"]
    else:
        # a film at the gap: t = gap * (1 +- eps), outside above it
        a = draw(st.floats(1.0, 500.0))
        gap = a * draw(st.floats(0.01, 0.5))
        film = gap * (2 - past)
        wide = max(2 * gap, 0.2 * a) * draw(st.floats(1.0, 10.0))
        if rule == "ground c - b":
            b = a + wide
            keys = {"type": "ribbon_with_ground", "a_um": a, "b_um": b,
                    "c_um": b + gap}
        else:
            b = a + gap
            keys = {"type": "ribbon_with_ground" if rule == "ground b - a"
                    else rule, "a_um": a, "b_um": b}
            if rule == "ground b - a":
                keys["c_um"] = b + wide
        keys.update(length_um=1000.0, t_um=film)
        line = RULE_LINES["film"].format(
            gap="c - b" if rule == "ground c - b" else "b - a")
    text = "[structure.s]\n" + "".join(
        f"{k} = {v if isinstance(v, str) else repr(v)}\n"
        for k, v in keys.items())
    return text, line if outside else None


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("rule", BOUNDARIES)
def test_each_rule_holds_at_its_boundary(tmp_path_factory, rule, outside):
    # configs() draws a VALUES entry for one key in eight, so it seldom
    # reaches a rule on one key of one structure type; these cases sit a
    # relative 1e-9 to 1e-3 on either side of each rule's boundary
    _boundary_holds(tmp_path_factory, rule, outside)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def _boundary_holds(tmp_path_factory, rule, outside, data):
    text, line = data.draw(boundary_cases(rule, outside))
    path = tmp_path_factory.mktemp("cfg") / "boundary.ini"
    path.write_text(text)
    rc, out, err, _ = _run(["analyze", "--config", str(path)])
    if line is None:
        assert (rc, err) == (0, ""), text
        assert not _NEGATIVE.search(out), out
    else:
        assert (rc, out) == (2, ""), text
        assert err.splitlines() == [line], text
    for cmd in COMMANDS:
        _assert_contract([cmd[0], "--config", str(path), *cmd[1:]])


@pytest.mark.parametrize("stype, keys, gap", [
    ("ribbon", "a_um = 93.1\nb_um = 94.2\n", "b - a"),
    ("coplanar", "a_um = 93.1\nb_um = 94.2\n", "b - a"),
    ("ribbon_with_ground", "a_um = 93.1\nb_um = 94.2\nc_um = 500\n", "b - a"),
    ("ribbon_with_ground", "a_um = 50\nb_um = 100\nc_um = 100.5\n", "c - b"),
])
def test_film_thicker_than_its_gap_is_config_error(tmp_path, stype, keys, gap):
    # before the rule, the ribbon printed p_sa -5.39e-07 and exited 0
    path = tmp_path / "thick.ini"
    t_um = 0.9 if gap == "c - b" else 64.9
    path.write_text(f"[structure.pads]\ntype = {stype}\n{keys}"
                    f"length_um = 20.5\nt_um = {t_um}\n")
    rc, out, err, _ = _run(["analyze", "--config", str(path)])
    assert rc == 2
    assert err.splitlines() == [
        f"error[2]: pads.t: need t < {gap}, the gap the film faces"]
    assert out == ""


def test_receding_ground_takes_the_fits_limit(tmp_path):
    # with b = 100 um, (b/c)^2 = 1e-18 at c = 1e11 um: 1 - (b/c)^2 rounds to
    # 1, where K' takes its asymptote; at 1e10 um the AGM still sees it.
    # Both print the same table; the parent exited 3 at 1e11
    tables = []
    for c_um in ("1e10", "1e11"):
        path = tmp_path / f"rg_{c_um}.ini"
        path.write_text("[structure.rg]\ntype = ribbon_with_ground\n"
                        f"a_um = 50\nb_um = 100\nc_um = {c_um}\n"
                        "length_um = 1000\nt_um = 0.1\n")
        rc, out, err, _ = _run(["analyze", "--config", str(path)])
        assert (rc, err) == (0, "")
        tables.append(out)
    assert tables[0] == tables[1]


def test_ground_past_the_float_range_takes_the_fits_limit(tmp_path):
    # with b = 100 um, (b/c)^2 underflows from c = 6.7e155 um on, where K'
    # is ln(4c/b); past c = 4.5e307*t, 4c/t overflows.  The parent exited
    # 3 from c = 1e165 um on.  C, p_ma and p_ms reach the limit by 1e150;
    # p_sa's outer term falls as 1/ln(4c/b)^2, so p_sa falls towards it
    rows = []
    for c_um in ("1e150", "1e165", "1e300", "1e308", "1.7e308"):
        path = tmp_path / f"rg_{c_um}.ini"
        path.write_text("[structure.rg]\ntype = ribbon_with_ground\n"
                        f"a_um = 50\nb_um = 100\nc_um = {c_um}\n"
                        "length_um = 1000\nt_um = 0.1\n")
        rc, out, err, _ = _run(["analyze", "--config", str(path)])
        assert (rc, err) == (0, "")
        cfg = load_config(str(path))
        rows.append(assemble_design(cfg.structures, cfg.stack).breakdowns[0])
    for bd in rows[1:]:
        for name in ("capacitance", "p_ma", "p_ms"):
            assert getattr(bd, name) == pytest.approx(getattr(rows[0], name),
                                                      rel=1e-12)
    p_sa = [bd.p_sa for bd in rows]
    assert p_sa == sorted(p_sa, reverse=True)
    assert p_sa[-1] == pytest.approx(p_sa[0], rel=1e-5)


def test_ground_energies_are_continuous_where_the_square_underflows():
    # K'(b/c) from ellipkp just above the smallest normal (b/c)^2, from its
    # asymptote just below
    b = 100e-6
    k_min = sys.float_info.min ** 0.5
    pairs = [analytic.ribbon_ground_energies(
        RibbonWithGround(50e-6, b, b / k, 1e-3, 0.1e-6), 5.0)
        for k in (k_min * (1 + 1e-6), k_min * (1 - 1e-6))]
    assert pairs[0].u_metal == pairs[1].u_metal
    assert pairs[0].u_substrate == pytest.approx(pairs[1].u_substrate,
                                                 rel=1e-12)


def test_parser_is_built_once_and_commands_are_looked_up_per_call(
        monkeypatch, tmp_path):
    # a wrapper installed on cli.cmd_<command> after the first call, as the
    # benchmark's tracer does, still sees the next call
    path = tmp_path / "design.ini"
    path.write_text("[structure.pads]\ntype = ribbon\na_um = 50\nb_um = 100\n"
                    "length_um = 1391\nt_um = 0.1\n")
    argv = ["analyze", "--config", str(path)]
    assert _run(argv)[0] == 0
    builds, seen = [], []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1))
    monkeypatch.setattr(cli, "cmd_analyze",
                        lambda args: seen.append(args.config) or 0)
    assert _run(argv)[:3] == (0, "", "")
    assert seen == [str(path)]
    assert builds == []


def test_ground_inside_the_fits_edge_point_is_config_error(tmp_path):
    # x_e = 0.85*40 + 0.18*39 = 41.02 um lies beyond c = 41 um, where
    # (1 - (x_e/c)^2)^0.23 is complex and analyze used to end in a
    # TypeError traceback
    path = tmp_path / "near.ini"
    path.write_text("[structure.rg]\ntype = ribbon_with_ground\na_um = 39\n"
                    "b_um = 40\nc_um = 41\nlength_um = 1\nt_um = 0.5\n")
    rc, out, err, _ = _run(["analyze", "--config", str(path)])
    assert (rc, out) == (2, "")
    assert err.splitlines() == [
        "error[2]: rg.c: need c > b - 0.15*(b - 1.2*a), the edge point of "
        "the capacitance fit"]


def _shipped_with(tmp_path, old, new):
    """The shipped config with old replaced by new, as a file."""
    text = SHIPPED_CONFIG.read_text()
    assert old in text
    path = tmp_path / "design.ini"
    path.write_text(text.replace(old, new))
    return path


@pytest.mark.parametrize("cmd", ["analyze", "tls", "sweep"])
def test_denominator_underflow_names_the_structure(tmp_path, cmd):
    # a second plate at s = 4e-309 um: its s^2 underflows to zero.  The
    # parent printed the line with no structure in it
    path = _shipped_with(tmp_path, "[structure.pads]",
                         "[structure.plate2]\ntype = parallel_plate\n"
                         "s_um = 4e-309\nw_um = 100\nlength_um = 1130\n\n"
                         "[structure.pads]")
    extra = ["--param", "structure.pads.a_um", "--range=40:50", "--steps",
             "2"] \
        if cmd == "sweep" else []
    argv = [cmd, "--config", str(path), *extra]
    rc, out, err, _ = _run(argv)
    assert (rc, out) == (3, "")
    step = "structure.pads.a_um=40.0: " if cmd == "sweep" else ""
    assert err == (f"error[3]: {step}plate2: a denominator underflowed to "
                   "zero; the inputs are outside the range of a float\n")
    _assert_contract(argv)


def test_overflow_line_starts_with_the_structure(tmp_path):
    # eps_s^2 overflows in the plate's weights; the parent printed
    # "floating-point overflow: plate: ..."
    path = _shipped_with(tmp_path, "eps_substrate = 11.7",
                         "eps_substrate = 1e308")
    rc, out, err, _ = _run(["analyze", "--config", str(path)])
    assert (rc, out) == (3, "")
    assert err == ("error[3]: plate: floating-point overflow: (34, "
                   "'Numerical result out of range')\n")
    # a sweep step names itself first, then the structure
    argv = ["sweep", "--config", str(SHIPPED_CONFIG), "--param",
            "stack.eps_substrate", "--range", "1:1e200", "--steps", "3"]
    rc, out, err, _ = _run(argv)
    assert (rc, out) == (3, "")
    assert err == ("error[3]: stack.eps_substrate=5e+199: plate: "
                   "floating-point overflow: (34, 'Numerical result out of "
                   "range')\n")
    _assert_contract(argv)


def test_tls_names_the_structure_once(tmp_path):
    # without the plate, pads is the first structure tls reads out; at a
    # target of 1e-308 fF its splittings leave the float range
    text = SHIPPED_CONFIG.read_text()
    plate = text[text.index("[structure.plate]"):text.index("[structure.pads]")]
    path = tmp_path / "design.ini"
    path.write_text(text.replace(plate, "").replace(
        "capacitance_ff = 100", "capacitance_ff = 1e-308"))
    argv = ["tls", "--config", str(path)]
    rc, out, err, _ = _run(argv)
    assert rc == 3
    assert err == ("error[3]: pads: a result is not a finite number; the "
                   "inputs are outside the range of a float\n")
    _assert_contract(argv)


def test_design_wide_line_names_the_design_quantity(tmp_path):
    # no [targets], so the structures' capacitances fix L; a coplanar of
    # length 1e308 um makes L leave the float range.  The parent printed
    # an unnamed "a result is not a finite number" line
    text = SHIPPED_CONFIG.read_text()
    stack = text[text.index("[stack]"):text.index("[targets]")]
    path = tmp_path / "design.ini"
    path.write_text(stack.replace("tan_ma = 0.005", "tan_ma = 100")
                    + "[structure.cpw]\ntype = coplanar\na_um = 50\n"
                    "b_um = 100\nlength_um = 1e308\nt_um = 0.1\n")
    argv = ["analyze", "--config", str(path)]
    rc, out, err, _ = _run(argv)
    assert (rc, out) == (3, "")
    assert err == ("error[3]: L: a result is not a finite number; the inputs "
                   "are outside the range of a float\n")
    _assert_contract(argv)
