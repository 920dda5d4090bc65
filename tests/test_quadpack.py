"""The pure-Python QUADPACK against its oracle, scipy.integrate.quad: value,
error estimate and subinterval count of the transcription ``_qag`` must be
equal, not close, and the entry point ``quad`` must return that value or
raise with SciPy's message.  The transcription calls its integrand once
per 21-point panel, SciPy once per node: ``panel`` turns a node integrand
into a panel one, and ``g([x])[0]`` a panel integrand g into a node one."""

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

#: the entry point itself, whatever a test installs on the module
PORT = _quadpack.quad

NOT_CONVERGED = "wire line-energy quadrature did not converge: "


def scipy_quad(f, a, b, points=None, limit=50, epsabs=_quadpack.EPSABS,
               epsrel=_quadpack.EPSREL):
    """(result, abserr, last, first message line or None) from SciPy."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = quad(f, a, b, full_output=1, points=points, limit=limit,
                   epsabs=epsabs, epsrel=epsrel)
    msg = out[3].splitlines()[0] if len(out) > 3 else None
    return out[0], out[1], out[2]["last"], msg


def panel(f):
    """The panel integrand of the node integrand f."""
    return lambda xs: [f(x) for x in xs]


def qag(f, a, b, points=None, limit=50, epsabs=_quadpack.EPSABS,
        epsrel=_quadpack.EPSREL):
    """(result, abserr, ier, last) from the transcription, for the node
    integrand f."""
    return _quadpack._qag(panel(f), a, b, points, epsabs, epsrel, limit)


def port_quad(f, a, b, points=None, limit=50, **tolerances):
    """The same four values as ``scipy_quad`` from the transcription."""
    val, err, ier, last = qag(f, a, b, points, limit, **tolerances)
    msg = _quadpack.MESSAGES[ier].format(limit=limit) if ier else None
    return val, err, last, msg


def entry_point_outcome(got):
    """What ``quad`` gives for the port_quad values got: the value, or the
    text of the ValueError it raises."""
    val, _, _, msg = got
    return val if msg is None else NOT_CONVERGED + msg


@pytest.fixture
def recorded(monkeypatch):
    """Every call the program makes to the entry point, as (f, a, b,
    keywords, outcome), f being the node integrand of the panel integrand
    the program passed and the outcome the value or the error text."""
    calls = []

    def spy(g, a, b, limit, points=None):
        kwargs = {"limit": limit, "points": points}
        f = lambda x: g([x])[0]
        try:
            val = PORT(g, a, b, limit, points)
        except ValueError as exc:
            calls.append((f, a, b, kwargs, str(exc)))
            raise
        calls.append((f, a, b, kwargs, val))
        return val
    monkeypatch.setattr(_quadpack, "quad", spy)
    return calls


def assert_bit_identical(calls):
    assert calls
    for f, a, b, kwargs, outcome in calls:
        got = port_quad(f, a, b, **kwargs)
        assert got == scipy_quad(f, a, b, **kwargs), (a, b, kwargs)
        assert outcome == entry_point_outcome(got), (a, b, kwargs)


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
            analytic.CLOSED_FORMS[type(spec)].wire_energy(spec)
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
                 if analytic.CLOSED_FORMS[type(s)].wire_energy]
        for spec in wires:
            analytic.CLOSED_FORMS[type(spec)].wire_energy(spec)
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
                                             with_points, monkeypatch):
    if with_points:
        kwargs = dict(kwargs, points=[0.5 * (a + b)])
    got = port_quad(f, a, b, **kwargs)
    assert got == scipy_quad(f, a, b, **kwargs)
    assert qag(f, a, b, **kwargs)[2] == ier
    # the entry point runs at the module's tolerances
    monkeypatch.setattr(_quadpack, "EPSABS",
                        kwargs.get("epsabs", _quadpack.EPSABS))
    monkeypatch.setattr(_quadpack, "EPSREL",
                        kwargs.get("epsrel", _quadpack.EPSREL))
    with pytest.raises(ValueError) as exc:
        _quadpack.quad(panel(f), a, b, kwargs.get("limit", 50),
                       kwargs.get("points"))
    assert str(exc.value) == entry_point_outcome(got)


@pytest.mark.parametrize("points", [None, [0.3, 0.6]])
def test_extrapolation_roundoff_code_matches_scipy(points):
    # ier 4: roundoff in the extrapolation table, at a strict tolerance
    f = _pow_abs if points else (lambda x: x ** -0.99 if x else 0.0)
    kwargs = {"points": points, "epsabs": 1e-14, "epsrel": 0.0}
    got = port_quad(f, 0.0, 1.0, **kwargs)
    assert got == scipy_quad(f, 0.0, 1.0, **kwargs)
    assert qag(f, 0.0, 1.0, **kwargs)[2] == 4


@pytest.mark.parametrize("a, b, kwargs", [
    (1.0, 1.0, {"limit": 50}), (1.0, 0.0, {"limit": 50}),
    (0.0, 1.0, {"limit": 0}), (0.0, 1.0, {"limit": 2, "points": [0.2, 0.4]}),
])
def test_invalid_input_raises(a, b, kwargs):
    with pytest.raises(ValueError):
        _quadpack.quad(panel(math.exp), a, b, **kwargs)


def test_zero_tolerance_is_invalid_input():
    # QUADPACK's ier 6: no absolute tolerance and a relative one below
    # max(50 eps, 5e-29)
    assert qag(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)[2] == 6


def kronrod_panel(a, b):
    """The 21 abscissae of the panel [a, b] in dqk21's order of evaluation:
    the centre, then the pairs centr -+ absc at the Gauss nodes xgk(1, 3,
    5, 7, 9), then at the other Kronrod nodes xgk(0, 2, 4, 6, 8)."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    xs = [centr]
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _quadpack._XGK[j]
        xs += [centr - absc, centr + absc]
    return xs


@pytest.mark.parametrize("with_points", [False, True], ids=["qags", "qagp"])
@pytest.mark.parametrize("f, a, b", [
    (math.exp, 0.0, 1.0), (_inv_abs, 0.0, 1.0),
    (lambda x: math.sin(1.0 / x), 1e-6, 1.0),
], ids=["exp", "1/|x-0.3|", "sin(1/x)"])
def test_one_integrand_call_per_kronrod_panel(f, a, b, with_points):
    # each call of the integrand gets one whole panel: the first panels
    # span [a, b] or the intervals between the break points, and every
    # later pair of calls the two halves of a panel seen before
    points = [0.7 * a + 0.3 * b] if with_points else None
    panels = []

    def spy(xs):
        panels.append(list(xs))
        return [f(x) for x in xs]
    _, _, _, last = _quadpack._qag(spy, a, b, points, _quadpack.EPSABS,
                                   _quadpack.EPSREL, 50)
    ends = [a, *(points or ()), b]
    first = list(zip(ends, ends[1:]))
    nint = len(first)
    assert len(panels) == (nint + 2 * (last - nint) if points
                           else 2 * last - 1)
    assert panels[:nint] == [kronrod_panel(*ab) for ab in first]
    seen = set(first)
    for left, right in zip(panels[nint::2], panels[nint + 1::2]):
        halves = [(a1, 0.5 * (a1 + b1), b1) for a1, b1 in seen
                  if left == kronrod_panel(a1, 0.5 * (a1 + b1))]
        assert len(halves) == 1
        a1, mid, b1 = halves[0]
        assert right == kronrod_panel(mid, b1)
        seen |= {(a1, mid), (mid, b1)}
    if f is not math.exp:
        assert last > 10


@pytest.mark.parametrize("points", [None, [0.3]], ids=["qags", "qagp"])
def test_interval_lists_grow_with_the_intervals_made(points):
    # a call allocates for the subintervals it makes, not for limit: at
    # limit 10**6, six lists of limit + 1 entries would take 48 MB, while
    # cos(200x) converges after a few dozen bisections
    import tracemalloc
    f = lambda x: math.cos(200.0 * x)
    limit = 10**6
    tracemalloc.start()
    try:
        got = port_quad(f, 0.0, 1.0, points, limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == scipy_quad(f, 0.0, 1.0, points, limit)
    assert 10 < got[2] < 100
    assert peak < 1_000_000
