#!/usr/bin/env python3
"""Regenerate ``golden/wide.json``: the pinned pool of the ``wide`` workload.

The pool words come from ``workloads.POOL_SEED``; the recorded values
(Alexander and Jones polynomials, conjugacy answers) are computed by the
braidkit under ``src/`` and become the expected results of every later run.
Re-record only when an intended change of results is made, and say so.

Usage, from the repository root: ``python3 perfbench/record_golden.py``
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from braidkit import are_conjugate, closure_components, exponent_sum  # noqa: E402
from braidkit.invariants import alexander_polynomial, jones_polynomial  # noqa: E402

from workloads import POOL_SEED, WIDE_GOLDEN, _random_word  # noqa: E402

# Knots only, so the recorded polynomial is the normalized one; an n-cycle is a
# product of n-1 transpositions, hence the length parity.
ALEXANDER_SIZES = [
    (n, length + (n - 1 - length) % 2)
    for n, lengths in ((6, (40, 60, 80)), (7, (40, 60, 80)), (8, (40, 60)), (9, (40,)))
    for length in lengths
]
JONES_SIZES = [(n, length) for n in (5, 6, 7, 8) for length in (10, 11, 12, 13)]
CONJ_PAIRS = 24  # B4 words u, conjugated by a seeded g in each run
NON_CONJ_PAIRS = 6  # pinned B4 pairs with equal exponent sum that are not conjugate


def main() -> None:
    rng = random.Random(POOL_SEED)
    out: dict = {"pool_seed": POOL_SEED, "alexander": [], "jones": [], "conj": []}
    for n, length in ALEXANDER_SIZES:
        w = _random_word(rng, n, length)
        while closure_components(w).n_components != 1:
            w = _random_word(rng, n, length)
        out["alexander"].append(
            {"n": n, "letters": list(w.letters), "alexander": alexander_polynomial(w).terms}
        )
    for n, length in JONES_SIZES:
        w = _random_word(rng, n, length)
        out["jones"].append({"n": n, "letters": list(w.letters), "jones": jones_polynomial(w).terms})
    for _ in range(CONJ_PAIRS):
        u = _random_word(rng, 4, rng.randint(6, 12))
        out["conj"].append({"n": 4, "u": list(u.letters), "v": None, "conjugate": True})
    while len(out["conj"]) < CONJ_PAIRS + NON_CONJ_PAIRS:
        length = rng.randint(6, 10)
        u, v = _random_word(rng, 4, length), _random_word(rng, 4, length)
        if exponent_sum(u) != exponent_sum(v) or are_conjugate(u, v):
            continue
        out["conj"].append({"n": 4, "u": list(u.letters), "v": list(v.letters), "conjugate": False})
    WIDE_GOLDEN.parent.mkdir(exist_ok=True)
    with open(WIDE_GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {WIDE_GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
