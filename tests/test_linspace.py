"""`taper` and `sweep` on floats against the NumPy forms they replaced:
``analytic.linspace`` against ``np.linspace``, the taper search against its
NumPy formulation, and sweep's culprit text against ``np.float64``'s.
Every comparison is exact: ``==`` on text, ``struct.pack`` on floats."""

import configparser
import math
import random
import struct
import sys
from pathlib import Path

import numpy as np

from surfloss import ValidationError, analytic
from surfloss.config import parse_config
from surfloss.geometry import MAX_TAPER_SLOPE

ROOT = Path(__file__).resolve().parent.parent


def _bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"{len(values)}d", *values)


def _design_pool():
    """(configs, ops) of the benchmark's design pool."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import design_pool
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return design_pool()


def _bound(rng: random.Random) -> float:
    """A float from anywhere in the range: signed zeros, subnormals,
    ordinary values and values near the largest float."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-322, 2.2e-308,
                           1.0, -1.0, 0.05, MAX_TAPER_SLOPE, 1e308, -1e308])
    if kind == 1:
        return rng.choice([-1, 1]) * rng.randrange(0, 200) * 5e-324
    if kind == 2:
        return rng.uniform(-1e3, 1e3)
    return rng.choice([-1, 1]) * 10 ** rng.uniform(-323, 308)


def _seeded_cases(n: int, seed: int):
    """n (start, stop, num) cases with a finite span; sweep rejects the
    others before it steps."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < n:
        start, stop = _bound(rng), _bound(rng)
        if rng.random() < 0.1:
            stop = start        # an empty span
        if not math.isfinite(stop - start):
            continue
        num = rng.choice([1, 2, 20, 41, rng.randrange(1, 300)])
        cases.append((start, stop, num))
    return cases


def test_linspace_is_numpy_linspace_bit_for_bit():
    cases = _seeded_cases(20_000, seed=9_120_125)
    # -0.0 on either side, reversed ranges, and spans whose step
    # underflows to 0, at each count the CLI and the optimizer use
    for num in (1, 2, 20, 41):
        cases += [(-0.0, 3.0, num), (3.0, -0.0, num), (-0.0, -0.0, num),
                  (0.0, -0.0, num), (-0.0, -2.0, num), (50.0, 10.0, num),
                  (0.0, 1e-322, num), (-1e-322, 0.0, num),
                  (1e-322, -1e-322, num), (5e-324, 1e-323, num),
                  (0.05, MAX_TAPER_SLOPE, num)]
    underflows = 0
    for start, stop, num in cases:
        got = analytic.linspace(start, stop, num)
        want = np.linspace(start, stop, num).tolist()
        assert _bits(got) == _bits(want), (start, stop, num)
        assert all(type(v) is float for v in got)
        underflows += num > 1 and stop != start \
            and (stop - start) / (num - 1) == 0
    assert underflows >= 20


def test_one_point_from_negative_zero_is_positive_zero():
    assert _bits(analytic.linspace(-0.0, 5.0, 1)) == _bits([0.0])
    assert _bits(analytic.linspace(-0.0, -5.0, 1)) == _bits([-0.0])


def _numpy_taper_optimum(r0, d, t):
    """optimize_taper_slope as it ran on NumPy: the scan from np.linspace,
    the first minimum from np.argmin."""
    f = lambda s: analytic.tapered_wire_energy_quadrature(r0, s, d, t)
    slopes = np.linspace(0.05, MAX_TAPER_SLOPE, 41)
    scan = slopes.tolist()
    energies = [f(s) for s in scan]
    i = int(np.argmin(energies))
    lo = scan[max(i - 1, 0)]
    hi = scan[min(i + 1, len(scan) - 1)]
    s_opt, u_opt = analytic.golden_section_min(f, lo, hi)
    if u_opt > energies[i]:
        s_opt, u_opt = scan[i], energies[i]
    return s_opt, u_opt, slopes, np.array(energies)


def test_taper_search_matches_its_numpy_formulation_on_the_design_pool():
    n_wires = 0
    for text in _design_pool()[0].values():
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        try:
            cfg = parse_config(cp, clamp_slope=True)
        except ValidationError:
            continue
        for spec in cfg.structures:
            if not analytic.CLOSED_FORMS[type(spec)].wire_energy:
                continue
            got = analytic.optimize_taper_slope(spec.r0, spec.d, spec.t)
            s_opt, u_opt, slopes, energies = \
                _numpy_taper_optimum(spec.r0, spec.d, spec.t)
            assert _bits([got.slope, got.energy]) == _bits([s_opt, u_opt])
            assert type(got.slopes) is tuple and type(got.energies) is tuple
            assert _bits(got.slopes) == _bits(slopes.tolist())
            assert _bits(got.energies) == _bits(energies.tolist())
            n_wires += 1
    assert n_wires >= 40


def test_sweep_culprit_text_is_that_of_np_float64():
    # sweep names a failing step "param=value"; the value was an np.float64
    ranges = {argv[argv.index("--range") + 1]
              for _, kind, argv in _design_pool()[1] if kind == "sweep"}
    cases = [(*map(float, r.split(":")), 20) for r in sorted(ranges)]
    cases += _seeded_cases(5_000, seed=9_120_126)
    n = 0
    for start, stop, num in cases:
        for val in analytic.linspace(start, stop, num):
            assert f"p={val}" == f"p={np.float64(val)}", val
            n += 1
    assert n > 100_000
