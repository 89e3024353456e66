"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload topk_scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (it needs ``src/repro`` next to
``perfbench/``).  Workloads: ``topk_scan`` and ``cached_lookups``
(served over HTTP, see ``served.py``) and ``ingest_compact`` (in
process, see ``ingest.py``).  The inputs come from ``--seed``.  With
``--trace 0`` the run reports every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it measures the same window
untraced and traced and reports every per-layer metric plus the tracing
overhead.  Outputs are checked for correctness in both modes.

Printed: one ``environment`` line (seed, commit, thread configuration,
BLAS build, server arguments), one ``accounting`` line (operations
attempted, succeeded and failed, error rate, CPU shares), one line per
metric, and last a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = {"topk_scan": "served", "cached_lookups": "served", "ingest_compact": "ingest"}


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources: names the code when there is no commit."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> object:
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        return None


def environment(args, info) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "thread_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.endswith("_NUM_THREADS") or key.startswith("REPRO_")
        },
        "server_argv": info.pop("server_argv", None),
    }


def _terminate(signum, frame):
    # unwinds through the workloads' finally blocks, which stop the servers
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)

    workload = importlib.import_module(WORKLOADS[args.workload])
    work = ROOT / f".perfbench-work-{os.getpid()}"
    work.mkdir()
    steal = harness.host_steal_seconds()
    try:
        metrics, counter, info = workload.run(
            ROOT, work, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # CPU time other guests took from this machine during the run: a
    # number read on a contended host is not comparable to a quiet one
    info["host_steal_s"] = harness.host_steal_seconds() - steal

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json {kind}: {unknown}")
    missing = sorted(set(units) - set(metrics))
    if kind == "end_to_end" and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # a per-layer metric of a layer this workload does not load is 0
    values = {name: float(metrics.get(name, 0.0)) for name in units}
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")

    print("environment " + json.dumps(environment(args, info), sort_keys=True))
    accounting = {
        "attempted": counter.attempted,
        "succeeded": counter.succeeded,
        "failed": counter.failed,
        "error_rate": counter.error_rate,
        "first_error": counter.first_error,
        **info,
    }
    print("accounting " + json.dumps(accounting, sort_keys=True))
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": counter.failed == 0 and counter.attempted > 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
