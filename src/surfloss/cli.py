"""Command-line surface for design analysis and solver verification.

Subcommands: analyze, verify, sweep, taper, tls.  Output is deterministic
(fixed formats, fixed ordering, no timestamps).  Exit codes: 0 success,
2 config error, 3 numerical failure, 4 verification failure.  A command
returns 0 or 4 and raises on any failure; `main` alone turns the error
into its exit code and its ``error[code]: culprit: ...`` lines.

Importing this module loads neither NumPy nor SciPy nor the solver
package: each command imports what it needs when it runs, so `analyze`
runs on ``math`` alone, `taper` and `sweep` on ``math`` and the package's
own QUADPACK, and `tls` loads NumPy only.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys

from .constants import FF, GHZ, SUITES, UM
from .config import load_config, parse_config, read_config, with_value
from .geometry import (NumericalError, ValidationError, _explained,
                       _labelled, assemble_design, combine_design,
                       evaluate_design)
from . import analytic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

#: most sweep steps; a sweep of this many takes seconds
MAX_STEPS = 10_000


def _fmt(x: float, spec: str = ".2e", name: str = "") -> str:
    """Every printed or written number goes through here; a non-finite one
    is a numerical failure, reported under name (structure.column) if set."""
    if not math.isfinite(x):
        raise FloatingPointError(f"{name + ': ' if name else ''}a result is "
                                 "not a finite number; the inputs are "
                                 "outside the range of a float")
    return format(x, spec)


def _csv(header, rows) -> str:
    """CSV text of a header and rows of formatted cells."""
    import csv
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    wr.writerows(rows)
    return buf.getvalue()


def _make_out_dir(out: str) -> None:
    """Create the --out directory, before the command prints anything."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ValidationError([f"--out: cannot write {out}: {exc.strerror}"])


def _save(out: str, name: str, text: str) -> None:
    """Write text to file name in the --out directory."""
    from pathlib import Path
    path = Path(out) / name
    try:
        path.write_text(text, newline="")
    except OSError as exc:
        raise ValidationError([f"--out: cannot write {path}: {exc.strerror}"])


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    val = float(text)
    if not (math.isfinite(val) and val > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return val


def _count(lo: int, hi: int):
    """argparse type: an integer from lo to hi, so that no command
    allocates for a count past its bound."""
    def count(text: str) -> int:
        val = int(text)
        if val < lo:
            raise argparse.ArgumentTypeError(
                f"must be at least {lo}, got {val}")
        if val > hi:
            raise argparse.ArgumentTypeError(
                f"must be at most {hi}, got {val}")
        return val
    return count


# --------------------------------------------------------------------------

#: columns of the analyze table and its csv/jsonl rows; sweep takes the
#: numeric ones per structure
_COLUMNS = ("structure", "capacitance_ff", "p_ma", "p_ms", "p_sa",
            "loss_tangent")


def _analysis_rows(design):
    """The analyze rows of a design's breakdowns, and its TOTAL row."""
    rows = [{"structure": bd.label, "capacitance_ff": bd.capacitance / FF,
             "p_ma": bd.p_ma, "p_ms": bd.p_ms, "p_sa": bd.p_sa,
             "loss_tangent": bd.loss_tangent} for bd in design.breakdowns]
    total = {"structure": "TOTAL",
             "capacitance_ff": design.capacitance / FF,
             "p_ma": sum(r["p_ma"] for r in rows),
             "p_ms": sum(r["p_ms"] for r in rows),
             "p_sa": sum(r["p_sa"] for r in rows),
             "loss_tangent": design.total_loss_tangent}
    return rows, total


def _table(rows) -> list[str]:
    widths = {c: max(len(c), 12) for c in _COLUMNS}
    widths["structure"] = max([len(r["structure"]) for r in rows]
                              + [len("structure")])
    head = "  ".join(c.ljust(widths[c]) for c in _COLUMNS)
    lines = [head, "-" * len(head)]
    for r in rows:
        cells = [r["structure"].ljust(widths["structure"])]
        cells += [_fmt(r[c], name=f"{r['structure']}.{c}").ljust(widths[c])
                  for c in _COLUMNS[1:]]
        lines.append("  ".join(cells))
    return lines


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    design = assemble_design(cfg.structures, cfg.stack,
                             target_capacitance=cfg.targets.capacitance,
                             corner_split=args.corner_split)
    rows, total = _analysis_rows(design)
    rows.append(total)
    # formatted in full before printing, so a non-finite value prints nothing
    lines = _table(rows)
    lines.append(f"L = {_fmt(design.length / UM, name='L')} um  (C_total = "
                 f"{_fmt(design.capacitance / FF, name='TOTAL.capacitance_ff')}"
                 " fF)")
    lines.append("total loss tangent = "
                 f"{_fmt(design.total_loss_tangent, name='TOTAL.loss_tangent')}")
    print("\n".join(lines))
    if args.out:
        if args.format == "jsonl":
            import json
            text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        else:
            text = _csv(_COLUMNS, [[r["structure"]]
                                   + [_fmt(r[c], ".12e", f"{r['structure']}.{c}")
                                      for c in _COLUMNS[1:]]
                                   for r in rows])
        _save(args.out, f"analyze.{args.format}", text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .bem.suites import run_suite
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
    """One CSV row per step of the swept key: each structure's analyze
    columns, a wire's metal energy by quadrature and by its fit, and the
    total loss tangent.

    The config is parsed once.  A step re-reads only the swept section and
    checks the whole design (`with_value`, which runs `validate_design`
    once), then evaluates through one cache kept for this call alone: a
    closed form or wire quadrature whose full inputs an earlier step had
    is not evaluated again, so a step evaluates only the structures its
    key changes, and nothing is kept once the command returns."""
    cp = read_config(args.config)
    cfg = parse_config(cp)      # the unswept config must be valid on its own
    try:
        lo, hi = (float(v) for v in args.range.split(":"))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
    except ValueError:
        raise ValidationError([f"bad --range {args.range!r}; use LO:HI "
                               "with finite numbers"])
    if not math.isfinite(hi - lo):
        raise ValidationError([f"bad --range {args.range!r}; HI - LO "
                               "overflows a float"])
    sect, _, key = args.param.rpartition(".")
    if not sect:
        raise ValidationError(
            [f"--param must be section.key, got {args.param!r}"])
    if not cp.has_section(sect) or key not in cp[sect]:
        raise ValidationError([f"--param {args.param!r} not found in config"])
    # a step changes one value of one section: the section's raw items are
    # read once, and each step re-reads that section alone with the value
    # replaced under the key configparser stores (D_UM is d_um); the other
    # records are cfg's own
    items = cp.items(sect)
    key = cp.optionxform(key)

    values = analytic.linspace(lo, hi, args.steps)
    # (form, *its full inputs) -> its value; the specs and the stack are
    # immutable, so a step reuses every form its key leaves alone
    cache = {}
    out_rows = []
    for val in values:
        with _labelled(f"{args.param}={val}"):
            # repr(val) is the text a step's INI would hold: a key that
            # takes no number reports it as parse_config would
            cfg_i = with_value(cfg, sect, items, key, repr(val))
            evaluated = evaluate_design(cfg_i.structures, cfg_i.stack,
                                        cache=cache)
            rows, total = _analysis_rows(combine_design(
                cfg_i.structures, evaluated, cfg_i.stack,
                cfg_i.targets.capacitance))
            row = {"param": val}
            for spec, ev, bd in zip(cfg_i.structures, evaluated, rows):
                for c in _COLUMNS[1:]:
                    row[f"{spec.label}.{c}"] = bd[c]
                wire_energy = analytic.CLOSED_FORMS[type(spec)].wire_energy
                if wire_energy:
                    row[f"{spec.label}.u_metal"] = \
                        analytic.cached(cache, wire_energy, spec)
                    # the fit is the metal energy at C_M_DEFAULT
                    row[f"{spec.label}.u_metal_fit"] = ev.energies.u_metal
            row["total.loss_tangent"] = total["loss_tangent"]
        out_rows.append(row)

    cols = list(out_rows[0])
    text = _csv(cols, [[_fmt(row[c], ".12e", c) for c in cols]
                       for row in out_rows])
    sys.stdout.write(text)
    if args.out:
        _save(args.out, "sweep.csv", text)
    return EXIT_OK


def cmd_taper(args) -> int:
    cfg = load_config(args.config, clamp_slope=True)
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    wires = [s for s in cfg.structures
             if analytic.CLOSED_FORMS[type(s)].wire_energy]
    if not wires:
        raise ValidationError(["taper needs a wire structure in the config"])
    spec = wires[0]
    r0, d, t = spec.r0, spec.d, spec.t
    with _labelled(spec.label):
        opt = analytic.optimize_taper_slope(r0, d, t)
        # both slopes are points of the optimizer's scan, which has their
        # energies
        scanned = dict(zip(opt.slopes, opt.energies))
        u28, u16 = scanned[0.28], scanned[0.16]
    print(f"wire {spec.label}: optimal slope S* = {_fmt(opt.slope, '.3f')}")
    print(f"metal line energy at S*: {_fmt(opt.energy)} (units U/(eps0 V^2))")
    print(f"energy at S=0.28: {_fmt(u28 / opt.energy, '.4f')} x minimum")
    print(f"energy at S=0.16: {_fmt(u16 / opt.energy, '.4f')} x minimum")
    u_straight = analytic.straight_wire_energy_fit(r0, d, t)
    u_tapered = analytic.tapered_wire_energy_fit(r0, opt.slope, d, t)
    if d <= 5e-6:
        print("note: at this wire length the straight and tapered energies "
              f"are similar (closed forms {_fmt(u_straight)} vs {_fmt(u_tapered)})")
    if args.out:
        _save(args.out, "taper_curve.csv",
              _csv(["slope", "u_metal"],
                   [[_fmt(s, ".6f"), _fmt(u, ".12e")]
                    for s, u in zip(opt.slopes, opt.energies)]))
    return EXIT_OK


def _splitting(spectrum, area: float) -> str:
    """The splitting at cumulative area, or none past the total area."""
    total = float(spectrum.area_um2[-1])
    if area > total:
        return f"none (total area {_fmt(total)} um^2)"
    return f"{_fmt(spectrum.s_at_area(area))} Hz"


def cmd_tls(args) -> int:
    from . import tls
    cfg = load_config(args.config)
    design = assemble_design(cfg.structures, cfg.stack,
                             target_capacitance=cfg.targets.capacitance)
    print(f"span = {_fmt(cfg.targets.span / GHZ, 'g')} GHz; observability "
          f"threshold {tls.OBSERVABLE_AREA_UM2:g} um^2")
    c_total = design.capacitance
    for spec in cfg.structures:
        name = spec.label
        model = tls.TLS_MODELS.get(type(spec))
        if model is None:
            print(f"{name}: no TLS model for this structure type; skipped")
            continue
        # drop the last spectrum (0.8 MB for a wire) before building the next
        spectrum = None
        with _labelled(name):
            spectrum = model(spec, cfg.stack, c_total)
            if not isinstance(spectrum, tls.TlsSpectrum):
                # the plate pair's uniform oxide field: one (S_max, area)
                s_val, area = spectrum
                print(f"{name}: parallel plate S_max = {_fmt(s_val)} Hz over "
                      f"effective area {_fmt(area)} um^2")
                continue
            s_first = _splitting(spectrum, tls.OBSERVABLE_AREA_UM2)
            s_spaced = _splitting(spectrum, tls.spacing_area(200e6))
            # a Python float overflows to inf without a NumPy RuntimeWarning
            count = tls.DENSITY_PER_UM2_GHZ * float(spectrum.area_um2[-1]) \
                * cfg.targets.span / 1e9
            if math.isinf(count):
                raise FloatingPointError("expected count over the span "
                                         "overflows")
            print(f"{name}: largest observable splitting {s_first} "
                  f"(A = 1 um^2); {s_spaced} at one-per-200-MHz spacing; "
                  f"expected count over span ~ {_fmt(count, '.0f')}")
        if args.out:
            _save(args.out, f"tls_{name}.csv",
                  _csv(["s_max_hz", "cumulative_area_um2"],
                       [[_fmt(s, ".10e", name), _fmt(a, ".10e", name)]
                        for s, a in zip(spectrum.s_hz, spectrum.area_um2)]))
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
    pa.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    pa.add_argument("--corner-split", action="store_true",
                    help="split the film corner energy 1.5/0.5 between air "
                         "and substrate sides")

    pv = sub.add_parser("verify", help="run a formula-vs-solver suite")
    pv.add_argument("--suite", required=True, choices=SUITES)
    pv.add_argument("--mesh-scale", type=_positive_float, default=1.0)

    ps = sub.add_parser("sweep", help="sweep one config parameter, emit CSV")
    ps.add_argument("--config", required=True)
    ps.add_argument("--param", required=True,
                    help="dotted path, e.g. structure.wire.d_um")
    ps.add_argument("--range", required=True, help="LO:HI in the key's units")
    ps.add_argument("--steps", type=_count(1, MAX_STEPS), required=True)
    ps.add_argument("--out", default=None)

    pt = sub.add_parser("taper", help="optimize the junction-wire taper slope")
    pt.add_argument("--config", required=True)
    pt.add_argument("--out", default=None)

    pl = sub.add_parser("tls", help="TLS splitting spectra and densities")
    pl.add_argument("--config", required=True)
    pl.add_argument("--out", default=None)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a later rebinding of cmd_<command> is seen
    fn = globals()[f"cmd_{args.command}"]
    try:
        if getattr(args, "out", None):
            _make_out_dir(args.out)
        if args.command in ("tls", "verify"):
            import numpy as np
            # the two commands that make NumPy operations: a NumPy
            # overflow, invalid value or division by zero raises
            # FloatingPointError instead of warning
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                code = fn(args)
        else:
            # analyze, taper and sweep run on math, which raises on an
            # overflow or a domain error by itself; they make no NumPy
            # operation, so they neither import NumPy nor need errstate
            code = fn(args)
        # a closed stdout raises here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: the rest of the output goes to devnull, so
        # the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ValidationError as exc:
        code, problems = EXIT_CONFIG, exc.problems
    # past validation, a ValueError is a formula or quadrature leaving its
    # domain; a MemoryError is an allocation the host refused, such as a
    # verify mesh near the unknown cap on a small machine
    except (NumericalError, ArithmeticError, ValueError, MemoryError) as exc:
        code, problems = EXIT_NUMERICAL, [_explained(exc)]
    for p in problems:
        print(f"error[{code}]: {p}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
