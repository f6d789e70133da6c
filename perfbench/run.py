"""The repository's benchmark: one workload per run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are described in ``BENCHMARK.json`` and
``perfbench/README.md``.  With ``--trace 0`` the result carries every
end-to-end metric; with ``--trace 1`` every per-layer metric, taken by
wrapping each layer's public functions from the benchmark's own code
(``perfbench/layers.py``).  Every timed operation is checked for
correct output; a wrong output is counted in ``failed`` and makes the
command exit with status 1.  The last line of standard output is the
result object; a line before it (``info: {...}``) records provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
#: Scratch space inside the checkout; every run removes its own.
WORK_DIR = os.path.join(_ROOT, ".perfbench_work")


def _spec() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True,
            text=True, timeout=10,
            # Never search above the checkout for a repository.
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(_ROOT)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _provenance(args) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every input size (the self-test uses tiny scales)",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="alter one result before it is checked (self-test only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(_SRC, "repro", "__init__.py")):
        print(f"no program source under {_SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(
            f"unknown workload {args.workload!r}; one of {workload_names}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, _SRC)
    sys.path.insert(0, _HERE)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    # Spill files of the engine and its children stay in the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    info = _provenance(args)
    try:
        if args.workload == "netlog-live":
            import live as module
        else:
            import batch as module
        attempted, failed, values = module.run(args, workdir, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in group:
        # A layer a workload never enters reads 0; an end-to-end
        # metric is always measured.
        name = metric["name"]
        value = values.pop(name, 0.0) if args.trace else values.pop(name)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    if values:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {values}")
    print("info: " + json.dumps(info, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
