"""Command-line surface for design analysis and solver verification.

Subcommands: analyze, verify, sweep, taper, tls.  Output is deterministic
(fixed formats, fixed ordering, no timestamps).  Exit codes: 0 success,
2 config error, 3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .constants import FF, GHZ, UM
from .config import DesignConfig, load_config, parse_config, read_config
from .geometry import ParallelPlate, Ribbon, ValidationError, assemble_design
from . import analytic, tls
from .bem.mesh import MeshCapError
from .bem.solver import SolverError
from .bem.suites import SUITES, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _fail(code: int, message: str) -> int:
    print(f"error[{code}]: {message}", file=sys.stderr)
    return code


def _fmt(x: float) -> str:
    return f"{x:.2e}"


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    val = float(text)
    if not (math.isfinite(val) and val > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return val


def _sections(text: str) -> int:
    """argparse type: a wire-spectrum patch count of at least MIN_SECTIONS."""
    val = int(text)
    if val < tls.MIN_SECTIONS:
        raise argparse.ArgumentTypeError(
            f"must be at least {tls.MIN_SECTIONS}, got {val}")
    return val


# --------------------------------------------------------------------------

def _analysis_rows(cfg: DesignConfig, corner_split: bool = False):
    names = [n for n, _ in cfg.structures]
    design = assemble_design([s for _, s in cfg.structures], cfg.stack,
                             target_capacitance=cfg.target_capacitance,
                             corner_split=corner_split)
    rows = []
    for name, bd in zip(names, design.breakdowns):
        rows.append({"structure": name, "capacitance_ff": bd.capacitance / FF,
                     "p_ma": bd.p_ma, "p_ms": bd.p_ms, "p_sa": bd.p_sa,
                     "loss_tangent": bd.loss_tangent})
    total = {"structure": "TOTAL",
             "capacitance_ff": design.capacitance / FF,
             "p_ma": sum(r["p_ma"] for r in rows),
             "p_ms": sum(r["p_ms"] for r in rows),
             "p_sa": sum(r["p_sa"] for r in rows),
             "loss_tangent": design.total_loss_tangent}
    return design, rows, total


def _print_table(rows, total):
    cols = ["structure", "capacitance_ff", "p_ma", "p_ms", "p_sa", "loss_tangent"]
    widths = {c: max(len(c), 12) for c in cols}
    widths["structure"] = max([len(r["structure"]) for r in rows + [total]]
                              + [len("structure")])
    head = "  ".join(c.ljust(widths[c]) for c in cols)
    print(head)
    print("-" * len(head))
    for r in rows + [total]:
        cells = [r["structure"].ljust(widths["structure"])]
        cells += [_fmt(r[c]).ljust(widths[c]) for c in cols[1:]]
        print("  ".join(cells))


def _write_rows(path: Path, rows, fmt: str):
    cols = ["structure", "capacitance_ff", "p_ma", "p_ms", "p_sa", "loss_tangent"]
    with open(path, "w", newline="") as fh:
        if fmt == "jsonl":
            for r in rows:
                fh.write(json.dumps(r, sort_keys=True) + "\n")
        else:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(cols)
            for r in rows:
                wr.writerow([r["structure"]] + [f"{r[c]:.12e}" for c in cols[1:]])


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    design, rows, total = _analysis_rows(cfg, corner_split=args.corner_split)
    _print_table(rows, total)
    print(f"L = {_fmt(design.length / UM)} um  "
          f"(C_total = {_fmt(design.capacitance / FF)} fF)")
    print(f"total loss tangent = {_fmt(design.total_loss_tangent)}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_rows(out / f"analyze.{args.format}", rows + [total], args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        return _fail(EXIT_CONFIG,
                     f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}")
    checks = run_suite(args.suite, mesh_scale=args.mesh_scale)
    all_ok = True
    for c in checks:
        flag = "PASS" if c.passed else "FAIL"
        note = f"  ({c.note})" if c.note else ""
        print(f"[{flag}] {c.name}: target {_fmt(c.target)}  "
              f"computed {_fmt(c.computed)}  tol {_fmt(c.tol)}{note}")
        all_ok &= c.passed
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_sweep(args) -> int:
    cp = read_config(args.config)
    parse_config(cp)        # the unswept config must be valid on its own
    if args.steps < 1:
        return _fail(EXIT_CONFIG, "sweep needs steps >= 1")
    try:
        lo, hi = (float(v) for v in args.range.split(":"))
    except ValueError:
        return _fail(EXIT_CONFIG, f"bad --range {args.range!r}; use LO:HI")
    sect, _, key = args.param.rpartition(".")
    if not sect:
        return _fail(EXIT_CONFIG, f"--param must be section.key, got {args.param!r}")
    if not cp.has_section(sect) or key not in cp[sect]:
        return _fail(EXIT_CONFIG, f"--param {args.param!r} not found in config")

    values = np.linspace(lo, hi, args.steps)
    cols = None
    out_rows = []
    for val in values:
        cp[sect][key] = repr(float(val))
        try:
            cfg_i = parse_config(cp)
            design, rows, total = _analysis_rows(cfg_i)
        except ValidationError as exc:
            return _fail(EXIT_CONFIG, f"{args.param}={val}: {exc}")
        row = {"param": float(val)}
        for name, spec in cfg_i.structures:
            bd = next(r for r in rows if r["structure"] == name)
            for c in ("capacitance_ff", "p_ma", "p_ms", "p_sa", "loss_tangent"):
                row[f"{name}.{c}"] = bd[c]
            energies = analytic.WIRE_ENERGIES.get(type(spec))
            if energies:
                try:
                    row[f"{name}.u_metal"], row[f"{name}.u_metal_fit"] = \
                        energies(spec)
                except ValueError as exc:
                    return _fail(EXIT_NUMERICAL, f"{args.param}={val}: {exc}")
        row["total.loss_tangent"] = total["loss_tangent"]
        if cols is None:
            cols = list(row)
        out_rows.append(row)

    wr = csv.writer(sys.stdout, lineterminator="\n")
    wr.writerow(cols)
    for row in out_rows:
        wr.writerow([f"{row[c]:.12e}" for c in cols])
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w", newline="") as fh:
            w2 = csv.writer(fh, lineterminator="\n")
            w2.writerow(cols)
            for row in out_rows:
                w2.writerow([f"{row[c]:.12e}" for c in cols])
    return EXIT_OK


def cmd_taper(args) -> int:
    cfg = load_config(args.config, clamp_slope=True)
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    wires = [(n, s) for n, s in cfg.structures
             if type(s) in analytic.WIRE_ENERGIES]
    if not wires:
        return _fail(EXIT_CONFIG, "taper needs a wire structure in the config")
    name, spec = wires[0]
    r0, d, t = spec.r0, spec.d, spec.t
    try:
        opt = analytic.optimize_taper_slope(r0, d, t)
    except ValueError as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    u28 = analytic.tapered_wire_energy_quadrature(r0, 0.28, d, t)
    u16 = analytic.tapered_wire_energy_quadrature(r0, 0.16, d, t)
    print(f"wire {name}: optimal slope S* = {opt.slope:.3f}")
    print(f"metal line energy at S*: {_fmt(opt.energy)} (units U/(eps0 V^2))")
    print(f"energy at S=0.28: {u28 / opt.energy:.4f} x minimum")
    print(f"energy at S=0.16: {u16 / opt.energy:.4f} x minimum")
    u_straight = analytic.straight_wire_energy_fit(r0, d, t)
    u_tapered = analytic.tapered_wire_energy_fit(r0, opt.slope, d, t)
    if d <= 5e-6:
        print("note: at this wire length the straight and tapered energies "
              f"are similar (closed forms {_fmt(u_straight)} vs {_fmt(u_tapered)})")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "taper_curve.csv", "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["slope", "u_metal"])
            for s, u in zip(opt.slopes, opt.energies):
                wr.writerow([f"{s:.6f}", f"{u:.12e}"])
    return EXIT_OK


def cmd_tls(args) -> int:
    cfg = load_config(args.config)
    design, rows, total = _analysis_rows(cfg)
    span_hz = args.span_ghz * GHZ if args.span_ghz else cfg.span_hz
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    print(f"span = {span_hz / GHZ:g} GHz; observability threshold "
          f"{tls.OBSERVABLE_AREA_UM2:g} um^2")
    c_total = design.capacitance
    for name, spec in cfg.structures:
        if isinstance(spec, Ribbon):
            spectrum = tls.ribbon_tls_profile(spec, cfg.stack, c_total)
        elif type(spec) in analytic.WIRE_ENERGIES:
            spectrum = tls.wire_tls_spectrum(spec, c_total, cfg.stack,
                                             sections=args.sections)
        elif isinstance(spec, ParallelPlate):
            s_val, area = tls.parallel_plate_splitting(spec, cfg.stack, c_total)
            print(f"{name}: parallel plate S_max = {_fmt(s_val)} Hz over "
                  f"effective area {_fmt(area)} um^2")
            continue
        else:
            print(f"{name}: no TLS model for this structure type; skipped")
            continue
        try:
            s_first = spectrum.s_at_area(tls.OBSERVABLE_AREA_UM2)
            s_spaced = spectrum.s_at_spacing(200e6)
        except ValueError as exc:
            return _fail(EXIT_NUMERICAL, f"{name}: {exc}")
        count = tls.DENSITY_PER_UM2_GHZ * spectrum.area_um2[-1] * span_hz / 1e9
        print(f"{name}: largest observable splitting {_fmt(s_first)} Hz "
              f"(A = 1 um^2); {_fmt(s_spaced)} Hz at one-per-200-MHz spacing; "
              f"expected count over span ~ {count:.0f}")
        if out:
            path = out / f"tls_{name}.csv"
            with open(path, "w", newline="") as fh:
                wr = csv.writer(fh, lineterminator="\n")
                wr.writerow(["s_max_hz", "cumulative_area_um2"])
                for s, a in zip(spectrum.s_hz, spectrum.area_um2):
                    wr.writerow([f"{s:.10e}", f"{a:.10e}"])
    return EXIT_OK


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="surfloss",
        description="Surface-loss participation and TLS design toolkit for "
                    "superconducting qubit capacitors and junction wires.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="participation table for a design config")
    pa.add_argument("--config", required=True)
    pa.add_argument("--out", default=None)
    pa.add_argument("--format", choices=("table", "csv", "jsonl"), default="csv")
    pa.add_argument("--corner-split", action="store_true",
                    help="split the film corner energy 1.5/0.5 between air "
                         "and substrate sides")
    pa.set_defaults(fn=cmd_analyze)

    pv = sub.add_parser("verify", help="run a formula-vs-solver suite")
    pv.add_argument("--suite", required=True,
                    help=f"one of: {', '.join(SUITES)}")
    pv.add_argument("--mesh-scale", type=_positive_float, default=1.0)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("sweep", help="sweep one config parameter, emit CSV")
    ps.add_argument("--config", required=True)
    ps.add_argument("--param", required=True,
                    help="dotted path, e.g. structure.wire.d_um")
    ps.add_argument("--range", required=True, help="LO:HI in the key's units")
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_sweep)

    pt = sub.add_parser("taper", help="optimize the junction-wire taper slope")
    pt.add_argument("--config", required=True)
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=cmd_taper)

    pl = sub.add_parser("tls", help="TLS splitting spectra and densities")
    pl.add_argument("--config", required=True)
    pl.add_argument("--out", default=None)
    pl.add_argument("--span-ghz", type=_positive_float, default=None)
    pl.add_argument("--sections", type=_sections, default=100_000)
    pl.set_defaults(fn=cmd_tls)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        for p in exc.problems:
            _fail(EXIT_CONFIG, p)
        return EXIT_CONFIG
    except (MeshCapError, SolverError) as exc:
        return _fail(EXIT_NUMERICAL, str(exc))


if __name__ == "__main__":
    sys.exit(main())
