"""The pure-Python QUADPACK against its oracle, scipy.integrate.quad: value,
error estimate and subinterval count must be equal, not close."""

import configparser
import math
import random
import sys
import warnings
from pathlib import Path

import pytest
from scipy.integrate import quad

from surfloss import (StraightWire, TaperedWire, ValidationError, _quadpack,
                      analytic)
from surfloss.bem import suites
from surfloss.config import parse_config

ROOT = Path(__file__).resolve().parent.parent

#: the port itself, whatever a test installs on the module
PORT = _quadpack.quad


def scipy_quad(f, a, b, points=None, limit=50, epsabs=_quadpack.EPSABS,
               epsrel=_quadpack.EPSREL):
    """(result, abserr, last, first message line or None) from SciPy."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = quad(f, a, b, full_output=1, points=points, limit=limit,
                   epsabs=epsabs, epsrel=epsrel)
    msg = out[3].splitlines()[0] if len(out) > 3 else None
    return out[0], out[1], out[2]["last"], msg


def port_quad(f, a, b, points=None, limit=50, epsabs=_quadpack.EPSABS,
              epsrel=_quadpack.EPSREL):
    """The same four values from the port."""
    val, err, ier, last = PORT(f, a, b, points=points, limit=limit,
                               epsabs=epsabs, epsrel=epsrel)
    msg = _quadpack.MESSAGES[ier].format(limit=limit) if ier else None
    return val, err, last, msg


@pytest.fixture
def recorded(monkeypatch):
    """Every call the program makes to the port, as (f, a, b, keywords)."""
    calls = []

    def spy(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return PORT(f, a, b, **kwargs)
    monkeypatch.setattr(_quadpack, "quad", spy)
    return calls


def assert_bit_identical(calls):
    assert calls
    for f, a, b, kwargs in calls:
        assert port_quad(f, a, b, **kwargs) == scipy_quad(f, a, b, **kwargs), \
            (a, b, kwargs)


def _random_wires(n, seed):
    """n valid straight and n valid tapered wires, log-uniform over several
    decades of every length the validation admits."""
    rng = random.Random(seed)
    straight, tapered = [], []
    while len(straight) < n:
        hw = 10 ** rng.uniform(-8.5, -5.0)
        spec = StraightWire(hw, 2 * hw * 10 ** rng.uniform(1e-3, 4.0),
                            2 * hw * 10 ** rng.uniform(-4.0, 0.0))
        if not spec.validate():
            straight.append(spec)
    while len(tapered) < n:
        r0 = 10 ** rng.uniform(-8.5, -5.0)
        t = 2 * r0 * 10 ** rng.uniform(-math.log10(40.0), 0.0)
        slope = rng.uniform(1e-3, 0.45)
        spec = TaperedWire(r0, slope,
                           5 * t + (r0 / slope) * 10 ** rng.uniform(1e-3, 3.0),
                           t)
        if not spec.validate():
            tapered.append(spec)
    return straight + tapered


def test_random_wire_integrals_are_bit_identical(recorded):
    for spec in _random_wires(1000, seed=20240601):
        try:
            analytic.WIRE_ENERGIES[type(spec)](spec)
        except ValueError:
            pass            # not converged: the call is still compared
    assert len(recorded) == 2000
    assert_bit_identical(recorded)


def _design_pool_configs():
    """The INI texts of the benchmark's design pool: the shipped configs
    and its seeded perturbations of the base one."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import design_pool
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return design_pool()[0].values()


def test_design_pool_wires_and_taper_scans_are_bit_identical(recorded):
    # every wire's quadrature, and the taper search on each config's first
    # wire, as `sweep` and `taper` run them
    n_wires = n_scans = 0
    for text in _design_pool_configs():
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        try:
            cfg = parse_config(cp, clamp_slope=True)
        except ValidationError:
            continue
        wires = [s for s in cfg.structures
                 if type(s) in analytic.WIRE_ENERGIES]
        for spec in wires:
            analytic.WIRE_ENERGIES[type(spec)](spec)
        if wires:
            analytic.optimize_taper_slope(wires[0].r0, wires[0].d, wires[0].t)
            n_scans += 1
        n_wires += len(wires)
    # each taper search makes at least its 41 scan quadratures
    assert n_wires >= 40 and len(recorded) >= n_wires + 41 * n_scans
    assert_bit_identical(recorded)


def test_flat_coax_voltage_integral_is_bit_identical(recorded):
    checks = suites.suite_flat_coax()
    assert [c.passed for c in checks if "voltage" in c.name] == [True]
    assert len(recorded) == 1 and recorded[0][3]["points"]
    assert_bit_identical(recorded)


def _inv_abs(x):
    return 1.0 / abs(x - 0.3) if x != 0.3 else 0.0


def _pow_abs(x):
    return abs(x - 0.3) ** -1.5 if x != 0.3 else 0.0


def _noisy(x):
    return x + 1e-9 * math.sin(1e9 * x)


#: (name, f, a, b, keywords, ier), each with and without break points
PATHOLOGICAL = [
    ("sin(1/x)", lambda x: math.sin(1.0 / x), 1e-6, 1.0, {"limit": 50}, 1),
    ("cos(200x)", lambda x: math.cos(200.0 * x), 0.0, 1.0, {"limit": 5}, 1),
    ("x^-1.01", lambda x: x ** -1.01, 1e-200, 1.0, {}, 5),
    ("1/|x-0.3|, limit 5", _inv_abs, 0.0, 1.0, {"limit": 5}, 1),
    ("noise", _noisy, 0.0, 1.0, {"epsabs": 1e-14, "epsrel": 0.0}, 2),
    ("1/|x-0.3|", _inv_abs, 0.0, 1.0, {"limit": 200}, 3),
    ("|x-0.3|^-1.5", _pow_abs, 0.0, 1.0, {}, 5),
]


@pytest.mark.parametrize("with_points", [False, True], ids=["qags", "qagp"])
@pytest.mark.parametrize("name, f, a, b, kwargs, ier", PATHOLOGICAL,
                         ids=[p[0] for p in PATHOLOGICAL])
def test_pathological_integrands_match_scipy(name, f, a, b, kwargs, ier,
                                             with_points):
    if with_points:
        kwargs = dict(kwargs, points=[0.5 * (a + b)])
    got = port_quad(f, a, b, **kwargs)
    assert got == scipy_quad(f, a, b, **kwargs)
    assert _quadpack.quad(f, a, b, **kwargs)[2] == ier
    with pytest.raises(ValueError) as exc:
        analytic._quad(f, a, b, **kwargs)
    assert str(exc.value) == "wire line-energy quadrature did not converge: " \
        + got[3]


@pytest.mark.parametrize("points", [None, [0.6, 0.3]])
def test_extrapolation_roundoff_code_matches_scipy(points):
    # ier 4: roundoff in the extrapolation table, at a strict tolerance
    f = _pow_abs if points else (lambda x: x ** -0.99 if x else 0.0)
    kwargs = {"points": points, "epsabs": 1e-14, "epsrel": 0.0}
    got = port_quad(f, 0.0, 1.0, **kwargs)
    assert got == scipy_quad(f, 0.0, 1.0, **kwargs)
    assert _quadpack.quad(f, 0.0, 1.0, **kwargs)[2] == 4


def test_break_points_outside_or_repeated_are_dropped_as_scipy_does():
    f = lambda x: math.sqrt(abs(x - 0.25))
    points = [0.75, 0.25, -1.0, 0.25, 1.0, 0.0, 3.0]
    assert port_quad(f, 0.0, 1.0, points=points) \
        == scipy_quad(f, 0.0, 1.0, points=points)
    assert port_quad(f, 0.0, 1.0, points=points) \
        == port_quad(f, 0.0, 1.0, points=[0.25, 0.75])


@pytest.mark.parametrize("a, b, kwargs", [
    (1.0, 1.0, {}), (1.0, 0.0, {}), (0.0, 1.0, {"limit": 0}),
    (0.0, 1.0, {"limit": 2, "points": [0.2, 0.4]}),
    (0.0, 1.0, {"epsabs": 0.0, "epsrel": 1e-20}),
])
def test_invalid_input_raises(a, b, kwargs):
    with pytest.raises(ValueError):
        _quadpack.quad(math.exp, a, b, **kwargs)
