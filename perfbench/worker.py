"""Closed-loop worker: one client, one op at a time, for ``--seconds``.

Started by ``run.py`` with the BLAS threads pinned and ``src`` on the
path.  It imports surfloss (not timed), runs the seeded ops of one
workload, checks each op's outputs against ``reference.json`` and writes
a JSON summary to ``--out``.  With ``--trace 1`` each op runs twice,
first untraced and then with the layer wrappers installed; the paired
times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
#: a run makes at least this many ops, so the median never rests on the
#: first op alone (it pays the process's first-touch page faults)
MIN_OPS = 3


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS copy loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def run_facts() -> dict:
    import numpy
    import scipy
    from surfloss import _kernels
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": openblas_threads(),
            "kernel_backend": getattr(_kernels, "BACKEND", "unknown")}


class Loop:
    """Runs ops until the time is up and keeps their times and verdicts."""

    def __init__(self, args, ops, ref, cfg_dir: Path):
        self.args = args
        self.ops = ops
        self.ref = ref
        self.cfg_dir = cfg_dir
        self.tracer = tracing.Tracer()
        self.stamps: list = []        # (start, end) of every op run
        self.traced: list = []
        self.ok: list = []
        self.failed = 0
        self.problems: list = []
        self.commands: dict = {}
        self.missing: set = set()

    def run_op(self, i: int, op, traced: bool) -> list:
        key, kind, payload = op
        w = self.args.workload
        if w == "cli-design":
            return self._cli_process(i, key, payload, traced)
        if traced:
            self.tracer.install()
            self.missing.update(self.tracer.missing)
            root = self.tracer.begin("op", op=i)
        try:
            t0 = time.monotonic()
            if w == "design-batch":
                obs = wl.run_cli_inprocess(payload, self.cfg_dir)
            elif w == "wire-solves":
                obs = wl.run_wire(payload)
            else:
                obs = wl.run_verify(payload)
            self.stamps.append((t0, time.monotonic()))
        finally:
            if traced:
                self.tracer.end(root)
                self.tracer.uninstall()
        if w == "design-batch":
            return wl.check_cli(key, obs, self.ref)
        if w == "wire-solves":
            return wl.check_wire(key, obs, self.ref)
        return wl.check_verify(obs, self.ref)

    def _cli_process(self, i: int, key: str, argv, traced: bool) -> list:
        runner = [str(HERE / "cli_child.py")] if traced else None
        t0 = time.monotonic()
        obs = wl.run_cli_process(argv, self.cfg_dir, dict(os.environ), runner)
        t1 = time.monotonic()
        self.stamps.append((t0, t1))
        if traced:
            try:
                child = json.loads(obs["stdout"])
            except json.JSONDecodeError:
                return [f"{key}: traced child failed (exit {obs['rc']}): "
                        f"{obs['stderr'][-500:]}"]
            self._merge_child(i, t0, t1, child)
            obs = {k: child[k] for k in ("rc", "stdout", "stderr")}
        return wl.check_cli(key, obs, self.ref)

    def _merge_child(self, i: int, t0: float, t1: float, child: dict) -> None:
        spans = self.tracer.spans
        root = len(spans)
        spans.append(["op", t0, t1, None, i, None])
        spans.append(["import.interpreter", t0, child["t_first"], root, i, None])
        spans.append(["import.cli", child["t_first"], child["t_import"], root,
                      i, None])
        base = len(spans)
        for s in child["spans"]:
            parent = root if s[tracing.PARENT] is None \
                else base + s[tracing.PARENT]
            spans.append([s[0], s[1], s[2], parent, i, s[5]])
        self.missing.update(child["missing"])

    def run(self) -> tuple[float, float]:
        args = self.args
        start = time.monotonic()
        modes = (False, True) if args.trace else (False,)
        i = 0
        while True:
            if i >= MIN_OPS and time.monotonic() - start >= args.seconds:
                break
            if args.max_ops and i >= args.max_ops:
                break
            op = self.ops[i % len(self.ops)]
            if op[1] in wl.DESIGN_KINDS:
                self.commands[i] = op[1].split("-")[0]
            for traced in modes:
                n_runs = len(self.stamps)
                try:
                    problems = self.run_op(i, op, traced)
                except Exception:
                    problems = [f"{op[0]}: {traceback.format_exc(limit=5)}"]
                    if len(self.stamps) == n_runs:
                        self.stamps.append((float("nan"), float("nan")))
                self.traced.append(traced)
                self.ok.append(not problems)
                if problems:
                    self.failed += 1
                    self.problems.extend(problems[:3])
            i += 1
        return start, time.monotonic()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=0)
    p.add_argument("--reference", default=str(wl.REFERENCE))
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    work = Path(args.work)
    ops, digest, files = wl.op_sequence(args.workload, args.seed)
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (cfg_dir / name).write_text(text)
    ref = wl.load_reference(Path(args.reference))

    if args.workload != "cli-design":
        import surfloss.cli  # noqa: F401  (import is not part of any op)
        import surfloss.bem  # noqa: F401

    loop = Loop(args, ops, ref, cfg_dir)
    run_span = loop.run()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-design" \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    untraced = [s for s, tr in zip(loop.stamps, loop.traced) if not tr]
    untraced_ok = [ok for ok, tr in zip(loop.ok, loop.traced) if not tr]
    traced = [s for s, tr in zip(loop.stamps, loop.traced) if tr]
    out = {"workload": args.workload, "seed": args.seed,
           "inputs_sha256": digest, "attempted": len(loop.stamps),
           "failed": loop.failed, "problems": loop.problems[:20],
           "op_stamps": untraced, "op_ok": untraced_ok,
           "traced_stamps": traced,
           "run_span": run_span, "peak_rss_mb": peak_rss_mb,
           "facts": run_facts()}
    if args.trace:
        out["layer"] = tracing.layer_metrics(loop.tracer.spans, args.workload,
                                             loop.commands)
        out["missing_targets"] = sorted(loop.missing)
        spans_path = work / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in loop.tracer.spans:
                fh.write(json.dumps(s) + "\n")
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
