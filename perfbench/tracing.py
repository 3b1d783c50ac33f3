"""Spans and counters around calls into each braidkit layer, installed from outside.

Nothing in ``src/braidkit`` knows about this module.  :func:`install` replaces
public functions with timing wrappers at the place where each caller looks
them up at call time:

* module attributes (``garside.super_summit_set`` is also how garside itself
  reaches its own globals, and how ``search`` and ``cli`` reach garside);
* names that ``search`` bound with ``from .moves import ...``
  (``search.try_destabilize``, the exchange and flype matchers,
  ``search.apply_move``);
* ``PolyMatrix.determinant`` on the class, recorded only at its top level so
  the cofactor recursion is not counted;
* ``BraidWord.__post_init__``, counted without spans (it runs ~10^5 times).

A span is ``(name, start, end, parent span id, op index)``.  Spans stay in
memory while the pass runs and are written once, after the timed region.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    """In-memory span recorder; ``op`` is the index of the op being run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.sss_keys: set = set()
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False
        self.clock = time.perf_counter

    def wrap(self, name, fn, on_result=None, top_level_only=False):
        """A wrapper recording one span per call of ``fn``.

        ``on_result(args, kwargs, result)`` updates counters after a call that
        returned; ``top_level_only`` lets calls nested in a span of the same
        name through unrecorded (recursion).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled or (
                top_level_only and tracer.stack and tracer.spans[tracer.stack[-1]][0] == name
            ):
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))
            tracer.stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer.stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.op)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Put wrappers in place; the process is a fresh interpreter per pass."""
    from braidkit import cli, garside, invariants, laurent, moves, search, transverse, words

    counts = tracer.counts

    def patch(owner, attr, name, on_result=None, top_level_only=False):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result, top_level_only))

    # garside: summit sets (work = members newly closed into the key cache)
    raw_sss = garside.super_summit_set

    def sss(*args, **kwargs):
        before = len(garside._key_cache)
        try:
            key = raw_sss(*args, **kwargs)
        except garside.SuperSummitCapError:
            if tracer.enabled:
                counts["garside.sss_cap_hits"] += 1
            raise
        if tracer.enabled:
            counts["garside.sss_members"] += len(garside._key_cache) - before
            tracer.sss_keys.add(key)
        return key

    garside.super_summit_set = tracer.wrap("garside.sss", sss)
    patch(garside, "are_conjugate", "garside.conj")
    patch(garside, "left_normal_form", "garside.lnf")

    # invariants: bracket state sums, Jones, Alexander, Burau; laurent determinant
    def bracket_done(args, kwargs, result):
        counts["invariants.bracket_states"] += result[1]

    patch(invariants, "bracket_coeff_table", "invariants.bracket", bracket_done)
    patch(invariants, "jones_polynomial", "invariants.jones")
    patch(invariants, "alexander_with_flag", "invariants.alexander")
    patch(invariants, "burau_reduced", "invariants.burau")
    patch(invariants, "template_soundness_check", "invariants.template_check")
    patch(laurent.PolyMatrix, "determinant", "laurent.det", top_level_only=True)

    # moves, where search looks them up
    def destab_done(args, kwargs, result):
        counts["moves.destab_hits"] += result is not None

    patch(search, "try_destabilize", "moves.destab", destab_done)
    patch(search, "find_exchange_decompositions", "moves.exchange")
    patch(search, "find_flype_decompositions", "moves.flype")
    patch(search, "apply_move", "moves.apply")
    patch(moves, "match_flype_3braid", "moves.flype")
    patch(moves, "apply_flype", "moves.apply")

    # search
    def connect_done(args, kwargs, result):
        st = result.stats
        counts["search.nodes_expanded"] += st.nodes_expanded
        counts["search.dedup_hits"] += st.dedup_hits
        counts["search.weak_keys"] += st.weak_keys
        counts["search.frontier_peak"] = max(counts["search.frontier_peak"], st.frontier_peak)

    patch(search, "connect", "search.connect", connect_done)
    patch(search, "scramble", "search.scramble")

    # transverse: every public function, reached as module attributes by cli
    for attr in (
        "self_linking",
        "component_invariants",
        "is_transverse_move",
        "negative_stabilization_beta_drop",
    ):
        patch(transverse, attr, "transverse")

    patch(cli, "verify_paper", "cli.verify_paper")

    # words: constructions only, no spans
    raw_post_init = words.BraidWord.__post_init__

    def post_init(self):
        if tracer.enabled:
            counts["words.braidword_new"] += 1
        raw_post_init(self)

    words.BraidWord.__post_init__ = post_init


def _busy(spans, name: str) -> float:
    """Inclusive time of the outermost spans called ``name``."""
    total = 0.0
    for n, start, end, parent, _ in spans:
        if n != name:
            continue
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: duration minus the part covered by direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for sid, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[sid]
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass, named as in BENCHMARK.json."""
    spans, counts = tracer.spans, tracer.counts

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    busy = {name: _busy(spans, name) for name in {s[0] for s in spans}}
    bracket_busy = busy.get("invariants.bracket", 0.0)
    connect_busy = busy.get("search.connect", 0.0)
    sss_calls = calls("garside.sss")
    destab_calls = calls("moves.destab")
    selfs = self_times(spans)
    out = {
        "invariants.bracket_calls": calls("invariants.bracket"),
        "invariants.bracket_busy_s": bracket_busy,
        "invariants.bracket_states": counts["invariants.bracket_states"],
        "invariants.bracket_states_per_s": ratio(counts["invariants.bracket_states"], bracket_busy),
        "invariants.jones_busy_s": busy.get("invariants.jones", 0.0),
        "garside.sss_calls": sss_calls,
        "garside.sss_busy_s": busy.get("garside.sss", 0.0),
        "garside.sss_members": counts["garside.sss_members"],
        "garside.sss_distinct_frac": ratio(len(tracer.sss_keys), sss_calls),
        "garside.sss_cap_hits": counts["garside.sss_cap_hits"],
        "garside.conj_calls": calls("garside.conj"),
        "garside.conj_busy_s": busy.get("garside.conj", 0.0),
        "garside.lnf_calls": calls("garside.lnf"),
        "garside.lnf_busy_s": busy.get("garside.lnf", 0.0),
        "invariants.alexander_calls": calls("invariants.alexander"),
        "invariants.alexander_busy_s": busy.get("invariants.alexander", 0.0),
        "invariants.burau_busy_s": busy.get("invariants.burau", 0.0),
        "laurent.det_busy_s": busy.get("laurent.det", 0.0),
        "moves.destab_calls": destab_calls,
        "moves.destab_busy_s": busy.get("moves.destab", 0.0),
        "moves.destab_hit_frac": ratio(counts["moves.destab_hits"], destab_calls),
        "moves.exchange_busy_s": busy.get("moves.exchange", 0.0),
        "moves.flype_busy_s": busy.get("moves.flype", 0.0),
        "moves.apply_busy_s": busy.get("moves.apply", 0.0),
        "words.braidword_new": counts["words.braidword_new"],
        "search.connect_busy_s": connect_busy,
        "search.scramble_busy_s": busy.get("search.scramble", 0.0),
        "search.nodes_expanded": counts["search.nodes_expanded"],
        "search.nodes_per_s": ratio(counts["search.nodes_expanded"], connect_busy),
        "search.dedup_hits": counts["search.dedup_hits"],
        "search.weak_keys": counts["search.weak_keys"],
        "search.frontier_peak": counts["search.frontier_peak"],
        "transverse.busy_s": busy.get("transverse", 0.0),
        "trace.spans": len(spans),
    }
    for layer in ("cli", "garside", "invariants", "laurent", "moves", "search", "transverse"):
        out[layer + ".self_s"] = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
    return out
