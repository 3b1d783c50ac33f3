#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric and workload by workload.

Records are the JSON files ``run.py`` writes to ``.perfbench/``; copy each
side's files away before running the other side.  Runs made with different
bracket backends (compiled against pure Python) are not comparable, so the
script refuses them.

Usage: python3 perfbench/compare.py --base A.json [A2.json ...] --new B.json [B2.json ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def medians(records: list[dict]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        for name, metric in rec["result"]["metrics"].items():
            values.setdefault((rec["detail"]["workload"], name), []).append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)

    backends = {rec["env"]["bracket_backend"] for rec in base + new}
    if len(backends) != 1:
        print(f"refusing to compare runs of different bracket backends: {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    mb, mn = medians(base), medians(new)
    print(f"{'workload':10s} {'metric':32s} {'base':>12s} {'new':>12s} {'change':>8s}  verdict")
    for key in sorted(mb.keys() & mn.keys()):
        workload, name = key
        b, n = mb[key], mn[key]
        change = (n - b) / b if b else 0.0
        worse = change if meta[name]["better"] == "lower" else -change
        bound = meta[name].get("bound")
        verdict = "" if bound is None else ("REGRESSION" if worse > bound else "within bound")
        print(f"{workload:10s} {name:32s} {b:12.5g} {n:12.5g} {change:+8.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
