#!/usr/bin/env python3
"""Record ``reference.json``: the expected output of every op in the pools.

    python3 perfbench/record.py

Runs every design command, the six verification suites and every wire
solve of the pools once, in process, and stores the CLI exit codes and
stdout digests, the verify check values and verdicts, and the wire
profile values.  Refuses to record if any design command exits
with a code other than 0, so the generator is known to make only valid
inputs.  Record only from a commit whose outputs are the ones later
commits must keep.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    configs, ops = wl.design_pool()
    ref = {"cli": {}, "verify": {}, "wire": {}}
    cfg_dir = WORK / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, text in configs.items():
        (cfg_dir / name).write_text(text)
    for key, kind, argv in ops:
        obs = wl.run_cli_inprocess(argv, cfg_dir)
        if obs["rc"] != 0:
            print(f"{key}: exit {obs['rc']}\n{obs['stderr']}", file=sys.stderr)
            return 1
        ref["cli"][key] = {"rc": obs["rc"],
                           "stdout_sha256": wl.sha256(obs["stdout"]),
                           "stdout_bytes": len(obs["stdout"].encode())}
    for name, checks in wl.run_verify(wl.SUITES)["suites"].items():
        ref["verify"][name] = {"rc": wl.verify_exit_code(checks),
                               "checks": checks}
    for key, _, params in wl.wire_pool():
        ref["wire"][key] = wl.run_wire(params)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_checks = sum(len(v["checks"]) for v in ref["verify"].values())
    n_pass = sum(c["passed"] for v in ref["verify"].values()
                 for c in v["checks"])
    print(f"recorded {len(ref['cli'])} CLI ops, {n_pass}/{n_checks} verify "
          f"checks passing, {len(ref['wire'])} wire solves -> {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    # same pinning and scratch location as run.py
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sys.exit(main())
