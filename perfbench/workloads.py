"""Seeded inputs, op runners and reference checks for the four workloads.

Every workload draws its ops from a fixed pool whose expected outputs are
recorded in ``reference.json`` (see ``record.py``).  The seed orders the
pool, so any seed yields inputs with a known answer.  A run cycles through
the whole pool in seeded order, in blocks holding one op of each kind, so
that the mix of cheap and expensive ops, and with it the median op time,
does not drift with the seed.

This module imports only the standard library at top level; ``surfloss``
is imported inside the runners, after the caller has pinned the BLAS
threads.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cli-design", "design-batch", "verify-suites", "wire-solves")

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BASE_CONFIG = "transmon_100ff.ini"
SHIPPED_CONFIGS = ("transmon_100ff.ini", "narrow_strip_check.ini")

#: perturbed configs generated besides the two shipped ones
N_PERTURBED = 30
#: ops laid out per seed; a run cycles through them
SEQUENCE_OPS = 4000
#: relative tolerance on verify check values
REL_TOL = 1e-8

#: wire-pair geometries in the wire-solves pool (8 of each kind)
N_WIRES = 32
WIRE_KINDS = ("round-straight", "round-tapered", "flat-straight",
              "flat-tapered")

SUITES = ("coax", "flat-coax", "corner", "ribbon-ground", "cyl-wire",
          "flat-wire")

_NONFINITE = re.compile(r"(?<![A-Za-z_])(nan|inf|infinity)(?![A-Za-z_])",
                        re.IGNORECASE)


# --------------------------------------------------------------------------
# design configs and CLI commands

def _fmt(v: float) -> str:
    return f"{v:.5g}"


def _perturbed_config(base: configparser.ConfigParser, idx: int) -> str:
    """One valid design perturbed from the base config (deterministic in idx).

    Ranges keep every constraint of ``geometry.validate_design``: a < b,
    t < a, s <= w/2, t <= 2*half_width, 0 < slope <= 0.45, d > 5t, and
    oxides far thinner than the 0.1 um metal.
    """
    rng = random.Random(f"surfloss-perfbench-config-{idx}")
    u = rng.uniform
    out = configparser.ConfigParser(interpolation=None)
    out["stack"] = {}
    st = base["stack"]
    for key in ("eps_substrate", "eps_ma", "eps_ms", "eps_sa"):
        out["stack"][key] = _fmt(max(1.0, float(st[key]) * u(0.9, 1.1)))
    for key in ("t_ma_nm", "t_ms_nm", "t_sa_nm"):
        out["stack"][key] = _fmt(float(st[key]) * u(0.75, 1.5))
    for key in ("tan_ma", "tan_ms", "tan_sa"):
        out["stack"][key] = _fmt(float(st[key]) * u(0.5, 2.0))
    tg = base["targets"]
    out["targets"] = {
        "capacitance_ff": _fmt(float(tg["capacitance_ff"]) * u(0.8, 1.25)),
        "span_ghz": _fmt(u(1.0, 4.0)),
    }
    keep_plate = rng.random() < 0.75
    keep_coupling = rng.random() < 0.75
    wires = rng.choice(("both", "both", "straight", "tapered"))
    for section in base.sections():
        if not section.startswith("structure."):
            continue
        src = base[section]
        kind = src["type"]
        if kind == "parallel_plate" and not keep_plate:
            continue
        if kind == "coplanar" and not keep_coupling:
            continue
        if kind == "straight_wire" and wires == "tapered":
            continue
        if kind == "tapered_wire" and wires == "straight":
            continue
        sec = {"type": kind}
        if kind == "parallel_plate":
            w = float(src["w_um"]) * u(0.8, 1.25)
            sec["s_um"] = _fmt(float(src["s_um"]) * u(0.6, 1.6))
            sec["w_um"] = _fmt(w)
            sec["length_um"] = _fmt(float(src["length_um"]) * u(0.8, 1.25))
        elif kind in ("ribbon", "coplanar"):
            a = float(src["a_um"]) * u(0.7, 1.3)
            sec["a_um"] = _fmt(a)
            sec["b_um"] = _fmt(a * u(1.3, 2.6))
            sec["length_um"] = _fmt(float(src["length_um"]) * u(0.8, 1.25))
            sec["t_um"] = src["t_um"]
        elif kind == "straight_wire":
            # `tls` reads the spectrum at 10 um^2 of metal-substrate area
            # and raises ValueError (a traceback) for wires with less, so
            # keep 4*d*half_width above 16 um^2
            half_width = u(0.06, 0.3)
            sec["half_width_um"] = _fmt(half_width)
            sec["d_um"] = _fmt(u(max(8.0, 4.0 / half_width), 100.0))
            sec["t_um"] = src["t_um"]
        elif kind == "tapered_wire":
            sec["r0_um"] = _fmt(u(0.06, 0.3))
            sec["slope"] = _fmt(u(0.1, 0.45))
            sec["d_um"] = _fmt(u(15.0, 100.0))
            sec["t_um"] = src["t_um"]
        else:
            raise ValueError(f"base config has unexpected type {kind!r}")
        out[section] = sec
    buf = io.StringIO()
    buf.write(f"# perfbench design {idx}, perturbed from {BASE_CONFIG}\n\n")
    out.write(buf)
    return buf.getvalue()


def _sweep_param(cp: configparser.ConfigParser, rng: random.Random):
    """A sweep (param, range) whose every step stays valid for this config."""
    options = [("targets.capacitance_ff", "60:150")] \
        if cp.has_section("targets") else []
    options.append(("stack.tan_ms", "0.001:0.01"))
    for section in cp.sections():
        kind = cp[section].get("type")
        if kind == "straight_wire":
            options.append((f"{section}.d_um", "5:100"))
        elif kind == "tapered_wire":
            options.append((f"{section}.slope", "0.1:0.45"))
            options.append((f"{section}.d_um", "5:100"))
        elif kind in ("ribbon", "coplanar"):
            options.append((f"{section}.length_um", "500:2000"))
    return rng.choice(options)


def design_pool() -> tuple[dict, list]:
    """(configs, ops): configs maps file name -> INI text; each op is
    (key, kind, argv) with argv relative to the config directory."""
    cfg_dir = ROOT / "configs"
    configs = {name: (cfg_dir / name).read_text() for name in SHIPPED_CONFIGS}
    base = configparser.ConfigParser(interpolation=None)
    base.read_string(configs[BASE_CONFIG])
    for i in range(N_PERTURBED):
        configs[f"perturbed_{i:02d}.ini"] = _perturbed_config(base, i)

    ops = []
    for name, text in configs.items():
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        has_wire = any(cp[s].get("type") in ("straight_wire", "tapered_wire")
                       for s in cp.sections())
        rng = random.Random(f"surfloss-perfbench-sweep-{name}")
        param, span = _sweep_param(cp, rng)
        kinds = {
            "analyze": ["analyze", "--config", name],
            "analyze-split": ["analyze", "--config", name, "--corner-split"],
            "tls": ["tls", "--config", name],
            "sweep": ["sweep", "--config", name, "--param", param,
                      "--range", span, "--steps", "20"],
        }
        if has_wire:
            kinds["taper"] = ["taper", "--config", name]
        for kind, argv in kinds.items():
            ops.append((f"{name}:{kind}", kind, argv))
    return configs, ops


DESIGN_KINDS = ("analyze", "analyze-split", "taper", "tls", "sweep")


def wire_pool() -> list:
    """Fixed pool of mirrored wire-pair geometries; each op is (key, kind,
    [d, r0, slope, mesh_scale, flat]) for ``wire_field_profile``.

    Ranges bracket the verify suites' wires: pair spacing d 20-120 um,
    radius or half-width r0 0.05-0.3 um, taper slope 0.05-0.3 (a pure cone
    r = slope*y for round wires, ``taper_halfwidth`` for flat ones) and
    mesh_scale 1-2, so the solves have 280-680 unknowns.
    """
    rng = random.Random("surfloss-perfbench-wires")
    pool = []
    for idx in range(N_WIRES):
        kind = WIRE_KINDS[idx % len(WIRE_KINDS)]
        d = float(_fmt(rng.uniform(20e-6, 120e-6)))
        r0 = float(_fmt(rng.uniform(0.05e-6, 0.3e-6)))
        slope = float(_fmt(rng.uniform(0.05, 0.3))) \
            if kind.endswith("tapered") else 0.0
        mesh_scale = float(_fmt(rng.uniform(1.0, 2.0)))
        pool.append((f"wire:{idx:02d}:{kind}", kind,
                     [d, r0, slope, mesh_scale, kind.startswith("flat")]))
    return pool


# --------------------------------------------------------------------------
# seeded op sequences

def _pool_cycles(groups: list, rng: random.Random) -> list:
    """Seeded passes over the whole pool, each a run of blocks that hold
    one op of every group (kind), in shuffled order."""
    ops: list = []
    while len(ops) < SEQUENCE_OPS:
        shuffled = [rng.sample(g, len(g)) for g in groups]
        for j in range(max(len(g) for g in groups)):
            block = [g[j] for g in shuffled if j < len(g)]
            rng.shuffle(block)
            ops.extend(block)
    return ops


def op_sequence(workload: str, seed: int) -> tuple[list, str, dict]:
    """(ops, digest, files) for one workload and seed.

    ops is the seeded list a run cycles through, digest a SHA-256 over the
    op list and every generated input, files the config texts to write.
    """
    rng = random.Random(seed)
    files: dict = {}
    if workload in ("cli-design", "design-batch"):
        files, pool = design_pool()
        ops = _pool_cycles([[op for op in pool if op[1] == kind]
                            for kind in DESIGN_KINDS], rng)
    elif workload == "wire-solves":
        pool = wire_pool()
        ops = _pool_cycles([[op for op in pool if op[1] == kind]
                            for kind in WIRE_KINDS], rng)
    elif workload == "verify-suites":
        ops = []
        for _ in range(SEQUENCE_OPS // 100):
            order = rng.sample(SUITES, len(SUITES))
            ops.append(("suites:" + ",".join(order), "verify", order))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    h = hashlib.sha256()
    h.update(json.dumps([workload, seed, ops], sort_keys=True).encode())
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return ops, h.hexdigest(), files


# --------------------------------------------------------------------------
# op runners: each returns a plain JSON-able observation of the outputs

def run_cli_inprocess(argv, cfg_dir: Path) -> dict:
    """``surfloss.cli.main(argv)`` with stdout and stderr captured."""
    from surfloss import cli
    argv = _with_config_dir(argv, cfg_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 1
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_cli_process(argv, cfg_dir: Path, env: dict,
                    runner: list | None = None) -> dict:
    """One fresh ``python -m surfloss.cli`` process (or a traced runner)."""
    cmd = [sys.executable] + (runner or ["-m", "surfloss.cli"]) \
        + _with_config_dir(argv, cfg_dir)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _with_config_dir(argv, cfg_dir: Path) -> list:
    out = list(argv)
    i = out.index("--config") + 1
    out[i] = str(cfg_dir / out[i])
    return out


def run_verify(order) -> dict:
    """One in-process pass over the verification suites in the given order."""
    from surfloss import bem
    suites = {}
    for name in order:
        suites[name] = [{"name": c.name, "computed": float(c.computed),
                         "tol": float(c.tol), "passed": bool(c.passed)}
                        for c in bem.run_suite(name, mesh_scale=1.0)]
    return {"suites": suites}


def run_wire(params) -> dict:
    """One mirrored wire-pair solve; the field profile's errors against
    the closed form and two sums over the computed field."""
    import numpy as np
    from surfloss.bem import suites
    d, r0, slope, mesh_scale, flat = params
    y, e, e_th = suites.wire_field_profile(d, r0, slope, mesh_scale, flat)
    rel = np.abs(e / e_th - 1.0)
    wide = (y >= 2 * r0) & (y <= 0.9 * d)
    core = (y >= 4 * r0) & (y <= 0.4 * d)
    return {"n": int(y.size), "err_wide": float(np.max(rel[wide])),
            "err_core": float(np.max(rel[core])),
            "field_sum": float(np.sum(e)), "field_max": float(np.max(e))}


# --------------------------------------------------------------------------
# reference checks

def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def check_cli(key: str, obs: dict, ref: dict) -> list[str]:
    """Problems with one CLI op; an empty list means the op is correct."""
    want = ref["cli"].get(key)
    if want is None:
        return [f"{key}: no reference recorded"]
    problems = []
    if obs["rc"] != want["rc"]:
        problems.append(f"{key}: exit code {obs['rc']}, expected {want['rc']}")
    if "Traceback (most recent call last)" in obs["stderr"]:
        problems.append(f"{key}: traceback on stderr")
    if _NONFINITE.search(obs["stdout"]):
        problems.append(f"{key}: non-finite value printed")
    if sha256(obs["stdout"]) != want["stdout_sha256"]:
        problems.append(f"{key}: stdout differs from the reference")
    return problems


def verify_exit_code(checks) -> int:
    """The exit code ``surfloss verify`` gives for these checks."""
    return 0 if all(c["passed"] for c in checks) else 4


def check_verify(obs: dict, ref: dict) -> list[str]:
    problems = []
    for name, checks in obs["suites"].items():
        want = ref["verify"].get(name)
        if want is None:
            problems.append(f"{name}: no reference recorded")
            continue
        if verify_exit_code(checks) != want["rc"]:
            problems.append(f"{name}: verdict exit code "
                            f"{verify_exit_code(checks)}, expected {want['rc']}")
        if [c["name"] for c in checks] != [c["name"] for c in want["checks"]]:
            problems.append(f"{name}: check list differs from the reference")
            continue
        for got, exp in zip(checks, want["checks"]):
            if got["passed"] != exp["passed"]:
                problems.append(f"{name}/{got['name']}: verdict changed")
            if not math.isfinite(got["computed"]):
                problems.append(f"{name}/{got['name']}: non-finite value")
            elif not _close(got["computed"], exp["computed"], exp["tol"]):
                problems.append(f"{name}/{got['name']}: computed "
                                f"{got['computed']!r}, reference "
                                f"{exp['computed']!r}")
    return problems


def check_wire(key: str, obs: dict, ref: dict) -> list[str]:
    """Problems with one wire solve: the mesh size must match exactly and
    every value within ``REL_TOL``."""
    want = ref["wire"].get(key)
    if want is None:
        return [f"{key}: no reference recorded"]
    if obs["n"] != want["n"]:
        return [f"{key}: {obs['n']} unknowns, reference {want['n']}"]
    problems = []
    for name, value in obs.items():
        if not math.isfinite(value):
            problems.append(f"{key}/{name}: non-finite value")
        elif not _close(value, want[name]):
            problems.append(f"{key}/{name}: {value!r}, reference "
                            f"{want[name]!r}")
    return problems
