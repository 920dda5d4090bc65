"""TLS splitting spectra, their area bookkeeping, and the dispatch table."""

from pathlib import Path

import numpy as np
import pytest

from surfloss import (DielectricStack, ParallelPlate, Ribbon, StraightWire,
                      TaperedWire)
from surfloss import cli, tls
from surfloss.analytic import STRUCTURE_TYPES

from paper_forms import area_at

UM = 1e-6

#: 3 nm oxides, the thickness at which the spectra were characterized
STACK3 = DielectricStack(t_ma=3e-9, t_ms=3e-9, t_sa=3e-9)

RIBBON = Ribbon(50 * UM, 100 * UM, 1391 * UM, 0.1 * UM)
WIRE = StraightWire(0.1 * UM, 50 * UM, 0.1 * UM)
TAPER2 = TaperedWire(0.1 * UM, 0.2, 50 * UM, 0.1 * UM)


# ---------------------------------------------------------------- s_max

def test_s_max_reference_device():
    # 2 pF junction capacitor with the full volt across 2 nm
    assert tls.s_max(1.0 / 2e-9, 2e-12) == pytest.approx(74e6, rel=1e-12)


def test_s_max_transmon_prefactor():
    # C = 0.1 pF: 330 MHz per (2 nm)^-1 of field
    pre = tls.s_max_prefactor(0.1e-12)
    assert pre / 2e-9 == pytest.approx(330e6, rel=5e-3)


def test_s_max_inverse_sqrt_scaling():
    assert tls.s_max_prefactor(0.4e-12) == pytest.approx(
        0.5 * tls.s_max_prefactor(0.1e-12), rel=1e-12)


# ---------------------------------------------------------------- spectra

def test_ribbon_profile_area_linear_in_conformal_region():
    spec = tls.ribbon_tls_profile(RIBBON, STACK3, 0.1e-12)
    # A = 1.5 * 2l * r_c: check the slope in the conformal region
    mask = spec.s_hz < spec.s_hz[0] / 10
    r_c = spec.area_um2 / (1.5 * 2 * RIBBON.length * 1e6)
    assert np.all(np.diff(spec.area_um2) > 0)
    assert np.all(np.diff(spec.s_hz) < 0)
    # corner scaling below t/2: S ~ r_c^(-1/3)
    corner = r_c < 0.4 * RIBBON.t / 2 * 1e6
    logslope = np.diff(np.log(spec.s_hz[corner])) / np.diff(np.log(r_c[corner]))
    assert np.allclose(logslope, -1.0 / 3.0, atol=1e-3)


def test_ribbon_profile_headline_numbers():
    spectrum = tls.ribbon_tls_profile(RIBBON, STACK3, 0.1e-12)
    # ~300 kHz splittings spaced one per 200 MHz; the single largest
    # observable over a 2 GHz span sits in the few-hundred-kHz range
    # s_spaced is what `tls` prints at one-per-200-MHz spacing
    s_spaced = spectrum.s_at_area(tls.spacing_area(200e6))
    assert s_spaced == pytest.approx(300e3, rel=0.20)
    assert 0.25e6 < spectrum.s_at_area(1.0) < 1.0e6
    assert area_at(spectrum, s_spaced) == pytest.approx(10.0, rel=1e-6)


def test_wire_spectrum_determinism_and_convergence():
    s1 = tls.wire_tls_spectrum(WIRE, STACK3, 0.1e-12)
    s1b = tls.wire_tls_spectrum(WIRE, STACK3, 0.1e-12)
    assert np.array_equal(s1.s_hz, s1b.s_hz)
    assert np.array_equal(s1.area_um2, s1b.area_um2)


@pytest.mark.parametrize("spec", [Ribbon(50 * UM, 100 * UM, 1391 * UM,
                                         0.1 * UM), "wire"],
                         ids=["ribbon", "not-a-spec"])
def test_wire_spectrum_takes_only_the_wire_types(spec):
    with pytest.raises(TypeError, match="^wire spectrum needs a StraightWire "
                                        "or TaperedWire$"):
        tls.wire_tls_spectrum(spec, STACK3, 0.1e-12)


def test_wire_spectrum_peak_memory_is_five_patch_arrays():
    # the patches go into one preallocated pair of arrays and the
    # per-slice temporaries are freed before the sort, so the peak holds
    # those two, the sort order and the two sorted copies (11 at first)
    import tracemalloc
    tracemalloc.start()
    try:
        spectrum = tls.wire_tls_spectrum(TAPER2, STACK3, 0.1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * spectrum.s_hz.nbytes
    # 961 slices of 40 face and 12 corner patches each
    assert tls.WIRE_SLICES == 961
    assert len(spectrum.s_hz) == len(spectrum.area_um2) == 961 * 52
    assert np.all(np.diff(spectrum.s_hz) <= 0) and spectrum.s_hz[-1] > 0
    assert np.all(np.diff(spectrum.area_um2) > 0) and spectrum.area_um2[0] > 0
    assert np.isfinite(spectrum.s_hz[0]) and np.isfinite(spectrum.area_um2[-1])


def test_straight_dominates_tapered():
    s_straight = tls.wire_tls_spectrum(WIRE, STACK3, 0.1e-12)
    s_tapered = tls.wire_tls_spectrum(TAPER2, STACK3, 0.1e-12)
    for area in np.geomspace(0.1, 15.0, 12):
        assert s_straight.s_at_area(area) > s_tapered.s_at_area(area)


def test_wire_dominant_contribution_beyond_ten_microns():
    # a wire truncated at 10 um carries well under half the observable area
    full = tls.wire_tls_spectrum(WIRE, STACK3, 0.1e-12)
    short = tls.wire_tls_spectrum(StraightWire(0.1 * UM, 10 * UM, 0.1 * UM),
                                  STACK3, 0.1e-12)
    s0 = full.s_at_area(5.0)
    assert area_at(short, s0) < 0.5 * area_at(full, s0)


def test_parallel_plate_splitting():
    plate = ParallelPlate(5 * UM, 100 * UM, 1130 * UM)
    s_val, area = tls.parallel_plate_splitting(plate, STACK3, 0.1e-12)
    # effective distance 5 um * 9.8 = 49 um
    assert tls.s_max_prefactor(0.1e-12) / s_val == pytest.approx(49e-6, rel=1e-6)
    assert s_val == pytest.approx(13e3, rel=0.2)
    assert area == pytest.approx(1.5 * 1130 * 100, rel=1e-6)


def test_parallel_plate_reference_consistency():
    # s -> 2 nm, C -> 2 pF recovers the measured junction device
    plate = ParallelPlate(2e-9 / STACK3.eps_ma, 100 * UM, 1130 * UM)
    s_val, _ = tls.parallel_plate_splitting(plate, STACK3, 2e-12)
    assert s_val == pytest.approx(74e6, rel=1e-9)


# ---------------------------------------------------------------- dispatch

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "transmon_100ff.ini"


def test_tls_models_cover_only_structure_types():
    assert set(tls.TLS_MODELS) <= set(STRUCTURE_TYPES.values())


def test_tls_command_calls_spectra_through_the_module(monkeypatch, capsys):
    # the benchmark tracer wraps these module attributes; the table must
    # reach each one through the module at call time
    called = []
    for name in ("ribbon_tls_profile", "wire_tls_spectrum",
                 "parallel_plate_splitting"):
        original = getattr(tls, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(tls, name, spy)
    assert cli.main(["tls", "--config", str(CONFIG)]) == 0
    assert called == ["parallel_plate_splitting", "ribbon_tls_profile",
                      "wire_tls_spectrum", "wire_tls_spectrum"]
    assert "ground_coupling: no TLS model for this structure type; skipped" \
        in capsys.readouterr().out
