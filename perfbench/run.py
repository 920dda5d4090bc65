#!/usr/bin/env python3
"""End-to-end benchmark of surfloss.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/surfloss`` must exist; there
is no build step).  Each run:

1. pins itself and every process it starts to one CPU and BLAS to one
   thread, puts ``src`` on the path, and starts the CPU-speed probe
   (``speed.py``) on that CPU;
2. measures set-up: several cold interpreters that each import
   ``surfloss.cli`` (after one unmeasured start that fills ``__pycache__``);
3. starts one worker process (``worker.py``) that runs the workload's
   seeded ops closed-loop, one client, for S seconds, and checks every
   op's output against ``reference.json``;
4. rescales every measured interval to the probe's reference CPU speed,
   prints a readable summary (rescaled and wall figures) and the run
   facts, then, as the last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (``BENCHMARK.json``);
with ``--trace 1`` they are the per-layer ones from the traced ops.
Workloads, metrics and the layer map are described in ``README.md``.
Scratch files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Probe
from tracing import per_layer_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: BLAS threads for every process the benchmark starts (<= nproc)
BLAS_THREADS = 1
#: cold starts per run for setup_s (1 in the tiny ``--max-ops`` mode)
COLD_STARTS = 5
#: a run is cut (and prints no result) if it has not finished by then
RUN_DEADLINE_S = 170.0
#: the smallest op count for which op_s.p90 is reported
P90_MIN_OPS = 100

END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

_IMPORT_PROBE = ("import time; t = time.monotonic(); import surfloss.cli; "
          "u = time.monotonic(); import json, sys; "
          "print(json.dumps([t, u, sum(1 for m in sys.modules "
          "if m == 'scipy' or m.startswith('scipy.'))]))")


def bench_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_to_one_cpu() -> int:
    """Pin this process (and so every child) to one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cold_starts(env: dict, n: int) -> list:
    """[(spawn, first statement, import done, scipy modules)] for n cold
    interpreters that import ``surfloss.cli``."""
    out = []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("import surfloss.cli failed:\n" + proc.stderr)
        t_first, t_import, n_scipy = json.loads(proc.stdout.splitlines()[-1])
        out.append((t0, t_first, t_import, n_scipy))
    return out


def run_worker(args, env: dict, out_path: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(WORK),
           "--out", str(out_path)]
    if args.max_ops:
        cmd += ["--max-ops", str(args.max_ops)]
    if args.reference:
        cmd += ["--reference", args.reference]
    if out_path.exists():
        out_path.unlink()
    # own session, so a timeout can stop the worker and any CLI child of it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s")
    if rc != 0 or not out_path.exists():
        raise RuntimeError(f"worker exited with code {rc}")
    with open(out_path) as fh:
        res = json.load(fh)
    out_path.unlink()
    return res


def source_facts() -> dict:
    """Git commit when the checkout is a git work tree, and a digest of
    the package source, so that two runs can be tied to the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    commit = "none"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 \
                and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def main() -> int:
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-ops", type=int, default=0,
                   help="stop after this many ops (self-test)")
    p.add_argument("--reference", default=None,
                   help="reference file to check against (self-test)")
    args = p.parse_args()

    if not (ROOT / "src" / "surfloss" / "cli.py").is_file():
        print(f"error: no surfloss source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    t_begin = time.monotonic()
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    env = bench_env()
    cpu = pin_to_one_cpu()
    probe = Probe(WORK / "speed.json", env)
    try:
        cold_starts(env, 1)                 # fills __pycache__; not measured
        starts = cold_starts(env, 1 if args.max_ops else COLD_STARTS)
        remaining = RUN_DEADLINE_S - (time.monotonic() - t_begin)
        out_path = WORK / f"worker-{args.workload}-seed{args.seed}.json"
        res = run_worker(args, env, out_path, remaining)
        probe.stop()
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        probe.kill()

    def scaled(t0, t1):
        return (t1 - t0) * probe.scale(t0, t1)

    stamps = [(a, b) for a, b in res["op_stamps"] if a == a]
    times = [scaled(a, b) for a, b in stamps]
    wall_run_s = res["run_span"][1] - res["run_span"][0]
    run_s = scaled(*res["run_span"])
    e2e = {"setup_s": statistics.median(scaled(s[0], s[2]) for s in starts),
           "op_s.p50": statistics.median(times) if times else float("nan"),
           "ops_per_s": sum(res["op_ok"]) / run_s,
           "peak_rss_mb": res["peak_rss_mb"]}
    wall = {"setup_s": statistics.median(s[2] - s[0] for s in starts),
            "op_s.p50": statistics.median(b - a for a, b in stamps)
            if stamps else None,
            "ops_per_s": sum(res["op_ok"]) / wall_run_s}
    summary = dict(e2e)
    summary["op_s.p90"] = statistics.quantiles(times, n=10)[-1] \
        if len(times) >= P90_MIN_OPS else None
    summary["op_fail_ratio"] = res["failed"] / max(res["attempted"], 1)
    facts = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "inputs_sha256": res["inputs_sha256"],
             "nproc": os.cpu_count(), "pinned_cpu": cpu,
             "blas_threads_pinned": BLAS_THREADS,
             **res["facts"], **source_facts(), "cold_starts": len(starts),
             "untraced_ops": len(times), "wall_run_s": wall_run_s,
             "speed_scale_mean": run_s / wall_run_s}

    print(f"surfloss benchmark: workload {args.workload}, seed {args.seed}, "
          f"{res['attempted']} ops in {wall_run_s:.2f} s wall, "
          f"{res['failed']} failed; times at the reference CPU speed "
          f"(this run x{facts['speed_scale_mean']:.3f})")
    units = {**dict(END_TO_END), "op_s.p90": "s", "op_fail_ratio": "1"}
    for name in ("setup_s", "op_s.p50", "op_s.p90", "ops_per_s", "peak_rss_mb",
                 "op_fail_ratio"):
        value = summary[name]
        shown = f"{value:14.6g} {units[name]}" if value is not None \
            else f"n/a (fewer than {P90_MIN_OPS} ops)"
        shown_wall = f"   wall {wall[name]:.6g}" if wall.get(name) else ""
        print(f"  {name:<14} {shown}{shown_wall}")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")

    if args.trace:
        layer = dict(res["layer"])
        layer["import.interpreter_s"] = statistics.median(
            s[1] - s[0] for s in starts)
        layer["import.cli_s"] = statistics.median(s[2] - s[1] for s in starts)
        layer["import.scipy_modules"] = starts[-1][3]
        pairs = [(scaled(*u), scaled(*t)) for u, t
                 in zip(res["op_stamps"], res["traced_stamps"])
                 if u[0] == u[0] and t[0] == t[0]] or [(0.0, 0.0)]
        layer["trace.op_s"] = statistics.median(t for _, t in pairs)
        layer["trace.untraced_op_s"] = statistics.median(u for u, _ in pairs)
        layer["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in per_layer_names()}
        if res.get("missing_targets"):
            print("  untraced (not found): " + ", ".join(res["missing_targets"]))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print("facts " + json.dumps(facts, sort_keys=True))
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(WORK / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w") as fh:
        json.dump({"facts": facts, "summary": summary, "wall": wall, **result,
                   "setup_stamps": starts, "op_stamps": res["op_stamps"]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
