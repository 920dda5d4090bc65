"""Scale covariance as a test oracle: multiplying every length of a design
by 2^k is exact in binary, and every closed form sees lengths only through
ratios, a length factor or a 1/length factor.  So each capacitance must
scale by exactly 2^k, and each surface energy, participation, loss tangent
and wire quadrature must come out bit-identical.  Method: metamorphic
testing (Chen et al., ACM Computing Surveys 51 (2018), article 4)."""

import configparser
import contextlib
import io
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfloss import analytic, cli
from surfloss.geometry import (MAX_TAPER_SLOPE, Coplanar, DielectricStack,
                               ParallelPlate, Ribbon, RibbonWithGround,
                               StraightWire, TaperedWire)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "transmon_100ff.ini"

#: the INI suffixes of a length, or of a capacitance, which scales like one
SCALED_SUFFIXES = ("_um", "_nm", "_ff")


def _length_fields(cls):
    """The fields of a spec or stack class that hold a length."""
    return [name for key, name in cls.INI_KEYS.items()
            if key.endswith(SCALED_SUFFIXES)]


def scaled(record, k):
    """record with every length field times 2^k."""
    return record._replace(**{name: getattr(record, name) * 2.0 ** k
                              for name in _length_fields(type(record))})


@st.composite
def specs(draw):
    """A valid spec of any CLOSED_FORMS type, its lengths log-uniform over
    several decades around the shipped design's."""
    def length():
        return 10 ** draw(st.floats(-8.0, -3.0))

    def factor(lo, hi):
        return 10 ** draw(st.floats(lo, hi))

    cls = draw(st.sampled_from(list(analytic.CLOSED_FORMS)))
    if cls is ParallelPlate:
        w = length()
        spec = ParallelPlate(w * factor(-4.0, math.log10(0.5)), w, length())
    elif cls is StraightWire:
        hw = length()
        spec = StraightWire(hw, 2 * hw * (1 + factor(-3.0, 4.0)),
                            2 * hw * factor(-4.0, 0.0))
    elif cls is TaperedWire:
        r0 = length()
        t = 2 * r0 * factor(-math.log10(40.0), 0.0)
        slope = draw(st.floats(1e-3, MAX_TAPER_SLOPE))
        spec = TaperedWire(r0, slope,
                           5 * t + (r0 / slope) * (1 + factor(-3.0, 3.0)), t)
    else:
        a = length()
        b = a * (1 + factor(-3.0, 2.0))
        gaps = [a, b - a]
        if cls is RibbonWithGround:
            c = max(b, b - 0.15 * (b - 1.2 * a)) * (1 + factor(-3.0, 1.0))
            gaps.append(c - b)
        t = min(gaps) * factor(-4.0, -0.01)
        if cls is RibbonWithGround:
            spec = RibbonWithGround(a, b, c, length(), t)
        elif cls is Coplanar:
            spec = Coplanar(a, b, length(), t, draw(st.booleans()))
        else:
            spec = Ribbon(a, b, length(), t)
    assume(not spec.validate())
    return spec


def _outcome(f, *args):
    """f(*args), or the type and text of what it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# Hypothesis formats a failing example with black, whose import of
# mypy_extensions warns; that must not hide the failure itself
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=150, derandomize=True, deadline=None)
@given(spec=specs(), k=st.integers(-30, 30),
       log_ox=st.floats(-10.0, -8.0), log_len=st.floats(-6.0, -2.0))
def test_closed_forms_are_scale_covariant(spec, k, log_ox, log_len):
    stack = DielectricStack(t_ma=10 ** log_ox, t_ms=2 * 10 ** log_ox,
                            t_sa=0.5 * 10 ** log_ox, tan_ma=1e-3,
                            tan_ms=2e-3, tan_sa=3e-3)
    length = 10 ** log_len
    big, big_stack, big_length = scaled(spec, k), scaled(stack, k), \
        length * 2.0 ** k
    forms = analytic.CLOSED_FORMS[type(spec)]
    assert analytic.capacitance(big, big_stack) \
        == 2.0 ** k * analytic.capacitance(spec, stack)
    if forms.energies is not None:
        for c_m in (analytic.C_M_DEFAULT, analytic.C_M_AIR,
                    analytic.C_M_SUBSTRATE):
            assert forms.energies(big, c_m) == forms.energies(spec, c_m)
    for corner_split in (False, True):
        got = analytic.participation(big, big_stack, big_length, corner_split)
        want = analytic.participation(spec, stack, length, corner_split)
        assert got == want._replace(capacitance=2.0 ** k * want.capacitance)
    if type(spec) is TaperedWire:
        # the integrand carries 1/r, so the integral is dimensionless and
        # QUADPACK's relative tolerance governs it
        assert _outcome(forms.wire_energy, big) \
            == _outcome(forms.wire_energy, spec)


@pytest.mark.xfail(
    strict=True,
    reason="the straight-wire quadrature is not scale-covariant: its "
           "integral is a length, so QUADPACK's absolute epsabs = 1.49e-8 "
           "sets its error in metres; at rbar = t = 0.1 um, d = 50 um it "
           "moves by 1.9e-7 at k = -3 and by -1.8e-9 at k = 10.  A "
           "Gauss-Legendre rule with a relative error estimate (ROADMAP "
           "item 4) removes the absolute tolerance")
def test_straight_wire_quadrature_is_scale_covariant():
    spec = StraightWire(0.1e-6, 50e-6, 0.1e-6)
    wire_energy = analytic.CLOSED_FORMS[StraightWire].wire_energy
    for k in (-3, 10):
        assert wire_energy(scaled(spec, k)) == wire_energy(spec), k


def _scaled_config(k):
    """The shipped config's text with every length and capacitance times
    2^k."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(CONFIG)
    for section in cp.sections():
        for key, value in cp[section].items():
            if key.endswith(SCALED_SUFFIXES):
                cp[section][key] = repr(float(value) * 2.0 ** k)
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _scale_free(command, text):
    """The dimensionless part of a command's stdout: analyze's table without
    its capacitance column and its L line, sweep's columns other than the
    swept length and the capacitances, and all of taper's."""
    lines = text.splitlines()
    if command == "analyze":
        return [line.split()[:1] + line.split()[2:] for line in lines
                if not line.startswith("L = ")]
    if command == "sweep":
        header, *rows = [line.split(",") for line in lines]
        keep = [i for i, name in enumerate(header)
                if name != "param" and not name.endswith("capacitance_ff")]
        return [[row[i] for i in keep] for row in [header, *rows]]
    return lines


def _sweep_range(k):
    return f"{10.0 * 2.0 ** k!r}:{50.0 * 2.0 ** k!r}"


@pytest.mark.parametrize("command, k", [
    ("analyze", -3), ("analyze", 4), ("taper", -3), ("taper", 4),
    ("sweep", 4),
    pytest.param("sweep", -3, marks=pytest.mark.xfail(
        strict=True,
        reason="the straight wire's u_metal column is its quadrature, which "
               "moves by 1.9e-7 at k = -3 (test_straight_wire_quadrature_"
               "is_scale_covariant)")),
    pytest.param("taper", -4, marks=pytest.mark.xfail(
        strict=True,
        reason="cmd_taper prints its similar-energies note on the absolute "
               "d <= 5e-6 m, not on a dimensionless rule: at 1/16 scale the "
               "50 um wire is 3.1 um and the note appears, although the "
               "closed forms it quotes differ 1.8x as at full scale")),
])
def test_commands_print_the_same_dimensionless_columns(command, k, tmp_path):
    base = tmp_path / "base.ini"
    base.write_text(_scaled_config(0))
    big = tmp_path / "scaled.ini"
    big.write_text(_scaled_config(k))
    args = {"analyze": [], "taper": [],
            "sweep": ["--param", "structure.taper.d_um", "--steps", "3"]}
    extra = args[command]
    want = _stdout([command, "--config", str(base), *extra]
                   + (["--range", _sweep_range(0)] if extra else []))
    got = _stdout([command, "--config", str(big), *extra]
                  + (["--range", _sweep_range(k)] if extra else []))
    assert _scale_free(command, got) == _scale_free(command, want)
