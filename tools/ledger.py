"""The perfbench ledger: record paired runs in ``bench-history/`` and show them.

    python3 tools/ledger.py record --parent RUN... [--change RUN...] [--history DIR]
    python3 tools/ledger.py show DIR/NNNN-<sha12>/perfbench.json

A RUN is the captured stdout of one untraced ``perfbench/run.py``.
``record`` writes entry NNNN (one past the highest in DIR, default
``bench-history``; sha12 from the parent runs' commit) with every run's
end-to-end metrics, ``attempted``, ``failed``, ``host_steal_s`` and
environment, in the order given.  It refuses, writing nothing, traced,
incorrect or failing runs, an arm that mixes ``source_sha256`` (the
arms' identity: an uncommitted tree reports its parent's commit) or
``seconds``, and unequal run counts per workload between the arms.
``show`` prints each side's ``median [q1, q3]`` and counts the run-order
pairs the change won by ``BENCHMARK.json``'s ``better`` (ties count for
neither).  It compares no two entries: host speed drifts between
sessions, so only the pairs inside one entry mean anything.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Refused(Exception):
    """A run set the ledger will not record."""


def _portable(env: dict) -> dict:
    """The environment minus local paths: build and scratch directories name no code."""
    env = dict(env)
    if isinstance(env.get("blas"), dict):
        env["blas"] = {k: v for k, v in env["blas"].items() if not k.endswith("directory")}
    argv = list(env.get("server_argv") or [])
    if "--store" in argv:
        argv[argv.index("--store") + 1] = "STORE"
        env["server_argv"] = argv
    return env


def parse_run(path: Path) -> dict:
    """One perfbench stdout: its ``environment``, ``accounting`` and result lines."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    prefixed = ("environment ", "accounting ")
    heads = dict(line.split(" ", 1) for line in lines if line.startswith(prefixed))
    try:
        env, accounting = json.loads(heads["environment"]), json.loads(heads["accounting"])
        result = json.loads(lines[-1])
    except (KeyError, IndexError, ValueError) as exc:
        raise Refused(f"{path}: not a perfbench run output ({exc!r})") from None
    if env.get("trace"):
        raise Refused(f"{path}: a traced run; the ledger records untraced runs only")
    if result.get("correct") is not True or result.get("failed", 1) > 0:
        raise Refused(f"{path}: correct={result.get('correct')} failed={result.get('failed')}")
    return {
        "environment": _portable(env),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "host_steal_s": accounting.get("host_steal_s"),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _counts(runs: list[dict]) -> Counter:
    return Counter(run["environment"]["workload"] for run in runs)


def record(parent: list[Path], change: list[Path], history: Path) -> Path:
    arms = {"parent": [parse_run(p) for p in parent]}
    if change:
        arms["change"] = [parse_run(p) for p in change]
    for arm, runs in arms.items():
        for key in ("source_sha256", "seconds"):
            if len({run["environment"][key] for run in runs}) > 1:
                raise Refused(f"the {arm} arm mixes {key} values")
    counts = {arm: dict(_counts(runs)) for arm, runs in arms.items()}
    if change and counts["change"] != counts["parent"]:
        raise Refused(f"the arms' run counts per workload differ: {counts}")
    commit = arms["parent"][0]["environment"].get("commit")
    if not commit:
        raise Refused("the parent runs report no commit")
    taken = [int(m.group(1)) for p in history.glob("*") if (m := re.match(r"(\d{4})-", p.name))]
    entry = history / f"{max(taken, default=0) + 1:04d}-{commit[:12]}" / "perfbench.json"
    entry.parent.mkdir(parents=True)
    entry.write_text(json.dumps(arms, indent=1, sort_keys=True) + "\n")
    return entry


def _fmt(x: float) -> str:
    """Four significant digits, thousands separated."""
    digits = 3 - math.floor(math.log10(abs(x))) if x else 0
    return f"{x:,.{max(digits, 0)}f}"


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return _fmt(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{_fmt(statistics.median(values))} [{_fmt(q1)}, {_fmt(q3)}]"


def show(entry: Path) -> str:
    arms = json.loads(entry.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    paired = "change" in arms
    head = ["workload (pairs)" if paired else "workload (runs)", "metric", "parent"]
    if paired:
        head += ["change", "change/parent", "change better"]
    rows = [head, ["---"] * len(head)]
    for workload, n in _counts(arms["parent"]).items():
        sides = {
            arm: [r["metrics"] for r in runs if r["environment"]["workload"] == workload]
            for arm, runs in arms.items()
        }
        for metric in better:
            parent = [m[metric] for m in sides["parent"]]
            row = [f"{workload} ({n})", metric, _summary(parent)]
            if paired:
                change = [m[metric] for m in sides["change"]]
                sign = 1 if better[metric] == "higher" else -1
                wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
                ratio = statistics.median(change) / statistics.median(parent)
                row += [_summary(change), f"{ratio:.3f}", f"{wins}/{n}"]
            rows.append(row)
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record and show paired perfbench runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="write the next bench-history entry")
    rec.add_argument("--parent", nargs="+", type=Path, required=True, metavar="RUN")
    rec.add_argument("--change", nargs="+", type=Path, default=[], metavar="RUN")
    rec.add_argument("--history", type=Path, default=Path("bench-history"), metavar="DIR")
    sub.add_parser("show", help="print an entry's paired table").add_argument("entry", type=Path)
    args = parser.parse_args(argv)
    if args.command == "show":
        print(show(args.entry))
        return 0
    try:
        print(record(args.parent, args.change, args.history))
    except Refused as exc:
        print(f"ledger: refused: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
