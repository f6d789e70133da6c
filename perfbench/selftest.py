"""Self-test of the benchmark at tiny sizes (about two minutes).

Usage: python3 perfbench/selftest.py

Checks that:

* every workload runs, untraced and traced, and reports correct output;
* every metric named in BENCHMARK.json appears with its unit, and every
  metric there has a unit and a direction;
* a deliberately corrupted result is counted as a failure and makes the
  run exit non-zero (so the verifier is not vacuous), for a batch
  workload and for the live service;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
SCALE = {"netlog-live": "0.1"}
TINY = "0.02"
SECONDS = "2"


def _run(args: list[str], cwd: str = _ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems: list[str] = []
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not metric.get("unit") or metric.get("better") not in (
                "lower", "higher"
            ):
                problems.append(f"{metric['name']}: unit or direction")

    for workload in (w["name"] for w in spec["workloads"]):
        scale = SCALE.get(workload, TINY)
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run([
                "--workload", workload, "--seed", "7", "--seconds", SECONDS,
                "--trace", trace, "--scale", scale,
            ])
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            result = _result(proc)
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics {sorted(got)}")
            print(f"ok   {label}: {result['attempted']} operations")

    for workload in ("q1-child-parent", "netlog-live"):
        proc = _run([
            "--workload", workload, "--seed", "7", "--seconds", SECONDS,
            "--trace", "0", "--scale", SCALE.get(workload, TINY),
            "--corrupt",
        ])
        result = _result(proc) if proc.stdout.strip() else {}
        if proc.returncode == 0 or result.get("correct") or not result.get(
            "failed"
        ):
            problems.append(f"{workload}: corrupted result not caught")
        else:
            print(f"ok   {workload}: corrupted result counted as failed")

    work = os.path.join(_ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(_ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            _HERE, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = _run(
            ["--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", SECONDS, "--trace", "0"],
            cwd=bare,
        )
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("bare directory: did not fail cleanly")
        else:
            print("ok   bare directory: exit", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
