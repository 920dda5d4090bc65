#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

For each workload it runs one op (``--max-ops 1``) untraced and traced and
asserts that every metric ``BENCHMARK.json`` names is reported with its
unit and that all ops pass.  It then runs each workload against a
deliberately corrupted reference and asserts that every op counts as
failed, and finally runs the benchmark in a directory holding only
``BENCHMARK.json`` and ``perfbench/`` and asserts that it exits non-zero
without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7",
           "--seconds", "1", "--max-ops", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def corrupt_reference(path: Path) -> None:
    ref = json.loads((HERE / "reference.json").read_text())
    for entry in ref["cli"].values():
        entry["stdout_sha256"] = "0" * 64
    for suite in ref["verify"].values():
        for check in suite["checks"]:
            check["computed"] *= 1.0 + 1e-6
            check["tol"] = 0.0
    for entry in ref["wire"].values():
        entry["err_wide"] *= 1.0 + 1e-6
    path.write_text(json.dumps(ref))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    WORK.mkdir(exist_ok=True)
    bad_ref = WORK / "corrupt-reference.json"
    corrupt_reference(bad_ref)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, want in (("0", e2e), ("1", layer)):
            r = result(run("--workload", w, "--trace", trace))
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            assert got == want, f"{w} trace {trace}: metrics {got} != {want}"
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
        r = result(run("--workload", w, "--trace", "0",
                       "--reference", str(bad_ref)))
        assert not r["correct"] and r["failed"] == r["attempted"] >= 1, r
        print(f"ok  {w}: metrics and units, reference checks")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", spec["workloads"][0]["name"], "--trace", "0",
               cwd=bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok  without the program: exit code", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
