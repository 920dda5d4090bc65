"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each surfloss layer
with timing wrappers, each under the name its caller looks it up (several
modules import by name, e.g. ``surfloss.cli.load_config`` and
``surfloss.bem.suites.solve``), and ``uninstall`` puts the originals back.
A span is ``[name, start, end, parent, op, counts]``; spans stay in memory
until the run ends.  ``layer_metrics`` turns them into per-op self times
and counts.

Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux, shared by
all processes), so spans recorded in a child process line up with the
parent's clock.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

NAME, START, END, PARENT, OP, COUNTS = range(6)


def _n2(args, kwargs, out):
    return {"entries": len(args[0]) ** 2}


def _mutual(args, kwargs, out):
    return {"entries": len(args[0]) * len(args[2 if len(args) == 4 else 1])}


def _solve(args, kwargs, out):
    return {"n": out.mesh.n, "rcond": float(out.rcond), "kind": out.mesh.kind}


def _field_at(args, kwargs, out):
    return {"points": len(args[1])}


def _segment_field(args, kwargs, out):
    return {"pairs": len(args[0]) * len(args[2])}


def _patches(args, kwargs, out):
    return {"patches": len(out.s_hz)}


def _passed(args, kwargs, out):
    return {"passed": sum(bool(c.passed) for c in out)}


#: (module, attribute, span name, counter); ``Module.Class`` targets a method
TARGETS = (
    ("surfloss.cli", "main", "cli.main", None),
    ("surfloss.cli", "cmd_analyze", "cli.analyze", None),
    ("surfloss.cli", "cmd_taper", "cli.taper", None),
    ("surfloss.cli", "cmd_tls", "cli.tls", None),
    ("surfloss.cli", "cmd_sweep", "cli.sweep", None),
    ("surfloss.cli", "cmd_verify", "cli.verify", None),
    ("surfloss.cli", "load_config", "config.load", None),
    ("surfloss.cli", "assemble_design", "geometry.assemble_design", None),
    ("surfloss.analytic", "capacitance", "analytic.closed_form", None),
    ("surfloss.analytic", "participation", "analytic.closed_form", None),
    ("surfloss.analytic", "straight_wire_energy_quadrature", "analytic.quad",
     None),
    ("surfloss.analytic", "tapered_wire_energy_quadrature", "analytic.quad",
     None),
    ("surfloss.analytic", "optimize_taper_slope", "analytic.taper_opt", None),
    ("surfloss.tls", "wire_tls_spectrum", "tls.wire_spectrum", _patches),
    ("surfloss.tls", "ribbon_tls_profile", "tls.ribbon_profile", None),
    ("surfloss.tls", "parallel_plate_splitting", "tls.plate", None),
    ("surfloss.bem.mesh", "circle", "bem.mesh.build", None),
    ("surfloss.bem.mesh", "concat", "bem.mesh.build", None),
    ("surfloss.bem.mesh", "line", "bem.mesh.build", None),
    ("surfloss.bem.mesh", "thin_strip", "bem.mesh.build", None),
    ("surfloss.bem.mesh", "film_cross_section", "bem.mesh.build", None),
    ("surfloss.bem.mesh", "wire_rings", "bem.mesh.build", None),
    ("surfloss.bem.mesh", "wire_strip", "bem.mesh.build", None),
    ("surfloss.bem.suites", "solve", "bem.solver.solve", _solve),
    ("surfloss.bem.solver", "assemble", "bem.solver.assemble", None),
    ("surfloss.bem.solver.ChargeSolution", "field_at", "bem.solver.field_at",
     _field_at),
    ("surfloss.bem.suites", "metal_surface_energy", "bem.solver.energy", None),
    ("surfloss.bem.suites", "substrate_line_energy", "bem.solver.energy",
     None),
    ("surfloss._kernels", "planar_matrix", "kernels.planar", _n2),
    ("surfloss._kernels", "ring_matrix", "kernels.ring", _n2),
    ("surfloss._kernels", "flatwire_matrix", "kernels.flatwire", _n2),
    ("surfloss._kernels", "ring_mutual", "kernels.mutual", _mutual),
    ("surfloss._kernels", "flatwire_mutual", "kernels.mutual", _mutual),
    ("surfloss._kernels", "segment_field", "kernels.segment_field",
     _segment_field),
    ("surfloss.bem.suites", "wire_field_profile", "bem.suites.wire_profile",
     None),
)

#: the suites are dispatched through this dict, so its values are patched
SUITE_TABLE = ("surfloss.bem.suites", "_SUITE_FN")


def _resolve(path: str):
    """Module or ``module.Class`` object for a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._op = None
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, op=None) -> int:
        idx = len(self.spans)
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), 0.0, parent, self._op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, counts=None) -> None:
        rec = self.spans[idx]
        rec[END] = time.monotonic()
        if counts:
            rec[COUNTS] = {**(rec[COUNTS] or {}), **counts}
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end(idx, {"error": type(exc).__name__})
                raise
            tracer.end(idx, count(args, kwargs, out) if count else None)
            return out
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target that exists; record the ones that do not."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for path, attr, name, count in TARGETS:
            try:
                owner = _resolve(path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, count))
        try:
            table = getattr(_resolve(SUITE_TABLE[0]), SUITE_TABLE[1])
        except (ImportError, AttributeError):
            self.missing.append(".".join(SUITE_TABLE))
            return
        for key, fn in list(table.items()):
            self._saved.append((table, key, fn))
            table[key] = self.wrap(f"bem.suites.{key}", fn, _passed)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._saved = []


# --------------------------------------------------------------------------
# per-layer metrics

SUITE_NAMES = ("coax", "flat-coax", "corner", "ribbon-ground", "cyl-wire",
               "flat-wire")
CLI_COMMANDS = ("analyze", "taper", "tls", "sweep")

#: layers (span-name prefixes) each workload was chosen to load heavily
FOCUS = {
    "cli-design": ("import.",),
    "design-batch": ("config.", "analytic.", "tls."),
    "verify-suites": ("kernels.planar", "bem.solver.",
                      "kernels.segment_field"),
    "wire-solves": ("kernels.ring", "kernels.flatwire"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = [("import.cli_s", "s"), ("import.interpreter_s", "s"),
             ("import.scipy_modules", "count")]
    names += [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    names += [("config.load_calls", "count"), ("config.load_s", "s"),
              ("geometry.assemble_design_calls", "count"),
              ("geometry.assemble_design_s", "s"),
              ("analytic.quad_calls", "count"), ("analytic.quad_s", "s"),
              ("analytic.closed_form_s", "s"), ("analytic.taper_opt_s", "s"),
              ("analytic.taper_opt_evals_per_call", "count"),
              ("tls.wire_spectrum_s", "s"),
              ("tls.wire_spectrum_patches", "count"),
              ("tls.ribbon_profile_s", "s"),
              ("bem.mesh.build_s", "s"), ("bem.mesh.unknowns", "count"),
              ("bem.mesh.max_unknowns", "count"),
              ("bem.solver.solve_calls", "count"),
              ("bem.solver.assemble_s", "s"),
              ("bem.solver.solve_self_s", "s"),
              ("bem.solver.factor_flops", "flop"),
              ("bem.solver.field_at_s", "s"),
              ("bem.solver.field_at_points", "count"),
              ("bem.solver.energy_s", "s"),
              ("bem.solver.min_rcond", "1"),
              ("bem.solver.errors", "count"),
              ("kernels.planar_s", "s"), ("kernels.planar_entries", "count"),
              ("kernels.planar_builds_per_solve", "1"),
              ("kernels.ring_s", "s"), ("kernels.ring_entries", "count"),
              ("kernels.flatwire_s", "s"),
              ("kernels.flatwire_entries", "count"),
              ("kernels.mutual_s", "s"),
              ("kernels.segment_field_s", "s"),
              ("kernels.segment_field_pairs", "count")]
    names += [(f"bem.suites.{s}_s", "s") for s in SUITE_NAMES]
    names += [("bem.suites.checks_passed", "count"),
              ("trace.ops", "count"), ("trace.op_s", "s"),
              ("trace.untraced_op_s", "s"), ("trace.overhead_s", "s"),
              ("trace.unattributed_s", "s"), ("trace.focus_share", "1")]
    return names


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START]) - child[i] for i, s in enumerate(spans)]


def layer_metrics(spans, workload: str, commands: dict) -> dict:
    """Per-layer metrics from the spans of traced ops.

    Every op has one root span named ``op``.  Times are self times summed
    per op and averaged over the traced ops; ``cli.<command>_s`` is the
    median inclusive ``cli.main`` time of that command's ops, and
    ``bem.suites.<suite>_s`` the inclusive suite time per op.  ``commands``
    maps op id -> CLI command for the design workloads.
    """
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[NAME] == "op"]
    n_ops = max(len(roots), 1)
    t_self: dict = {}
    calls: dict = {}
    for i, s in enumerate(spans):
        t_self[s[NAME]] = t_self.get(s[NAME], 0.0) + own[i]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def per_op(name):
        return t_self.get(name, 0.0) / n_ops

    def count(name):
        return calls.get(name, 0) / n_ops

    def counted(name, key):
        return [s[COUNTS][key] for s in spans
                if s[NAME] == name and s[COUNTS] and key in s[COUNTS]]

    m: dict = {}
    for c in CLI_COMMANDS:
        times = [s[END] - s[START] for s in spans
                 if s[NAME] == "cli.main" and commands.get(s[OP]) == c]
        m[f"cli.{c}_s"] = statistics.median(times) if times else 0.0
    m["config.load_calls"] = count("config.load")
    m["config.load_s"] = per_op("config.load")
    m["geometry.assemble_design_calls"] = count("geometry.assemble_design")
    m["geometry.assemble_design_s"] = per_op("geometry.assemble_design")
    m["analytic.quad_calls"] = count("analytic.quad")
    m["analytic.quad_s"] = per_op("analytic.quad")
    m["analytic.closed_form_s"] = per_op("analytic.closed_form")
    m["analytic.taper_opt_s"] = per_op("analytic.taper_opt")
    opt = {i for i, s in enumerate(spans) if s[NAME] == "analytic.taper_opt"}
    evals = sum(1 for s in spans
                if s[NAME] == "analytic.quad" and s[PARENT] in opt)
    m["analytic.taper_opt_evals_per_call"] = evals / len(opt) if opt else 0.0
    m["tls.wire_spectrum_s"] = per_op("tls.wire_spectrum")
    m["tls.wire_spectrum_patches"] = \
        sum(counted("tls.wire_spectrum", "patches")) / n_ops
    m["tls.ribbon_profile_s"] = per_op("tls.ribbon_profile")

    sizes = counted("bem.solver.solve", "n")
    rconds = counted("bem.solver.solve", "rcond")
    m["bem.mesh.build_s"] = per_op("bem.mesh.build")
    m["bem.mesh.unknowns"] = sum(sizes) / n_ops
    m["bem.mesh.max_unknowns"] = max(sizes, default=0)
    m["bem.solver.solve_calls"] = count("bem.solver.solve")
    m["bem.solver.assemble_s"] = per_op("bem.solver.assemble")
    m["bem.solver.solve_self_s"] = per_op("bem.solver.solve")
    m["bem.solver.factor_flops"] = sum(2.0 / 3.0 * n ** 3 for n in sizes) / n_ops
    m["bem.solver.field_at_s"] = per_op("bem.solver.field_at")
    m["bem.solver.field_at_points"] = \
        sum(counted("bem.solver.field_at", "points")) / n_ops
    m["bem.solver.energy_s"] = per_op("bem.solver.energy")
    m["bem.solver.min_rcond"] = min(rconds, default=0.0)
    m["bem.solver.errors"] = len(counted("bem.solver.solve", "error"))

    planar_solves = counted("bem.solver.solve", "kind").count("planar")
    for k in ("planar", "ring", "flatwire"):
        m[f"kernels.{k}_s"] = per_op(f"kernels.{k}")
        m[f"kernels.{k}_entries"] = \
            sum(counted(f"kernels.{k}", "entries")) / n_ops
        if k == "planar":
            m["kernels.planar_builds_per_solve"] = \
                calls.get("kernels.planar", 0) / planar_solves \
                if planar_solves else 0.0
    m["kernels.mutual_s"] = per_op("kernels.mutual")
    m["kernels.segment_field_s"] = per_op("kernels.segment_field")
    m["kernels.segment_field_pairs"] = \
        sum(counted("kernels.segment_field", "pairs")) / n_ops

    for suite in SUITE_NAMES:
        m[f"bem.suites.{suite}_s"] = sum(
            s[END] - s[START] for s in spans
            if s[NAME] == f"bem.suites.{suite}") / n_ops
    m["bem.suites.checks_passed"] = sum(
        sum(counted(f"bem.suites.{suite}", "passed")) for suite in SUITE_NAMES
    ) / n_ops

    op_total = sum(spans[i][END] - spans[i][START] for i in roots)
    focus = sum(own[i] for i, s in enumerate(spans)
                if s[NAME].startswith(FOCUS[workload]))
    m["trace.ops"] = len(roots)
    m["trace.unattributed_s"] = sum(own[i] for i in roots) / n_ops
    m["trace.focus_share"] = focus / op_total if op_total else 0.0
    return m
