#!/usr/bin/env python3
"""One measured pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass begins with an
empty ``garside._key_cache``; within the pass the cache is reused, as in a
user's search.  The pass builds its op list, runs the ops one at a time
(the timed region), then checks every result and prints one JSON object.
Op times are scaled to the reference speed of ``speed.py``, measured by
reference chunks run every 0.1 s during the pass; the raw times are printed
beside them.

Usage: worker.py --workload NAME --seed N --cycle C [--trace] [--smoke] [--spans FILE]

The op list is drawn from ``N/C``: each cycle of a run draws its own inputs,
so a run's median averages over several draws rather than resting on one.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REF_EVERY_S = 0.1
REF_NEAREST = 10


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycle", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", help="write the spans of a traced pass here")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import braidkit

    if Path(braidkit.__file__).resolve().parent != SRC / "braidkit":
        print(f"braidkit imported from {braidkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import speed
    import tracing
    from workloads import WORKLOADS, OpFailed

    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(f"{args.seed}/{args.cycle}", args.smoke)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)

    # Reference chunks run before the first op, every REF_EVERY_S during the
    # ops, and after the last op; each op's time excludes them and is scaled
    # by the chunks run during it, or the REF_NEAREST nearest (speed.py).
    sampler = speed.Sampler(REF_EVERY_S)
    clock = tracer.clock = sampler.now
    results, timed = [], []
    for _ in range(REF_NEAREST):
        sampler.sample()
    with sampler:
        for i, op in enumerate(ops):
            tracer.op = i
            tracer.enabled = args.trace
            t0 = clock()
            try:
                result = workload.run_op(op)
            except Exception as exc:  # a failed op is counted, and the pass goes on
                result = OpFailed(exc)
            t1 = clock()
            tracer.enabled = False
            results.append(result)
            timed.append((t0, t1))
    for _ in range(REF_NEAREST):
        sampler.sample()

    latencies = [(t1 - t0) * sampler.scale(t0, t1, REF_NEAREST) for t0, t1 in timed]
    wall, raw_wall = sum(latencies), sum(t1 - t0 for t0, t1 in timed)

    ok = workload.check(ops, results)
    errors = sorted({r.error for r in results if isinstance(r, OpFailed)})
    out = {
        "wall_s": wall,
        "latencies_s": latencies,
        "raw_wall_s": raw_wall,
        "ref_s": sampler.took,
        "attempted": len(ops),
        "failed": sum(not x for x in ok),
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": braidkit.BRACKET_BACKEND,
    }
    if args.trace:
        # Layer times in reference seconds too, by the pass's mean factor.
        factor = wall / raw_wall
        out["layers"] = {
            name: value / factor if name.endswith("_per_s") else value * factor if name.endswith("_s") else value
            for name, value in tracing.layer_metrics(tracer).items()
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
