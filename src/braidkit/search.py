"""
Bounded breadth-first search over the closed-braid move graph.

Nodes are conjugacy classes (deduplicated by Garside super-summit keys),
edges are the implemented moves.  Two move sets are supported: the full
topological set (stabilization and destabilization of both signs, exchange,
3-braid flypes) and the transverse set (positive stabilization and
destabilization, exchange) whose moves all preserve the self-linking
number.  Flypes are excluded from the transverse set: their transverse
legality is not a given, and the negative flype in particular changes the
transverse type of the pinned examples.

A node's key is its class's super summit set, or, past
``garside.MAX_SUMMIT_SET`` members, the weak key of its summit element.
The search ends when a node's key equals the target's.  Conjugate words
have the same super summit set, so a weak node's class is capped on every
word, the target's included: a weak node reaches the target only through
an equal summit element, and a capped class may be missed.

Both the search and :func:`scramble` apply each move site they have just
matched (``site.apply``) and encode only the moves they record
(``site.move()``); :func:`moves.apply_move` re-matches a recorded site and
is the replay path.

A ``found`` result carries a replayable :class:`MoveSequence`; an
``exhausted`` result means the bounded graph was used up, which is
evidence, never a disproof.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import garside
from .moves import (
    Conjugation,
    MoveSequence,
    MoveStep,
    Stabilization,
    apply_move,  # not called here: perfbench/tracing.py looks it up on this module
    find_exchange_decompositions,
    find_flype_decompositions,
    try_destabilize,
)
from .transverse import TRANSVERSE_MOVE_KINDS
from .words import BraidWord, ResourceLimitError, _word, free_reduce

TOPOLOGICAL = "topological"
TRANSVERSE = "transverse"


@dataclass(frozen=True)
class SearchBounds:
    max_strands: int = 5
    max_word_length: int = 24
    max_nodes: int = 100_000
    move_set: str = TOPOLOGICAL

    def __post_init__(self):
        for name, floor in (("max_strands", 1), ("max_word_length", 0), ("max_nodes", 1)):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        if self.move_set not in (TOPOLOGICAL, TRANSVERSE):
            raise ValueError(f"unknown move set {self.move_set!r}")


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    frontier_peak: int
    dedup_hits: int
    weak_keys: int  # nodes keyed by summit element only (summit-set cap exceeded)


@dataclass(frozen=True)
class SearchResult:
    outcome: str  # "found" | "exhausted"
    stats: SearchStats
    sequence: MoveSequence | None = None

    @property
    def found(self) -> bool:
        return self.outcome == "found"


def _class_key(w: BraidWord) -> tuple[str, bool]:
    """Conjugacy key string, and whether it is weak.

    The key is the super summit set, or past ``MAX_SUMMIT_SET`` members the
    weak ``"nf:"`` form: the normal form of w's summit element, which the
    failed closure has just computed.  Equal summit elements are conjugate,
    but conjugates reaching different summit elements become different nodes.
    """
    try:
        return str(garside.super_summit_set(w)), False
    except garside.SuperSummitCapError:
        return "nf:" + str(w.n) + ":" + garside._word_summit(w)[0].serialize(), True


_STABILIZATIONS = (Stabilization(1), Stabilization(-1))


def _sites(w: BraidWord, bounds: SearchBounds) -> list:
    """Deterministically ordered move sites matched on w.

    Destabilization, then exchanges, flypes and the two stabilizations when
    there is room.  Each site names its ``kind``, gives its result with
    ``site.apply(w)`` and its replayable params with ``site.move()``.  The
    transverse move set keeps the kinds in ``TRANSVERSE_MOVE_KINDS``.  That
    set holds no flype, so the flype finder is not run for it.
    """
    transverse = bounds.move_set == TRANSVERSE
    sites = []
    if w.n >= 2 and (d := try_destabilize(w)) is not None:
        sites.append(d)
    sites += find_exchange_decompositions(w)
    if not transverse:
        sites += find_flype_decompositions(w)
    if w.n < bounds.max_strands and len(w.letters) + 1 <= bounds.max_word_length:
        sites += _STABILIZATIONS
    if transverse:
        return [site for site in sites if site.kind in TRANSVERSE_MOVE_KINDS]
    return sites


def connect(source: BraidWord, target: BraidWord, bounds: SearchBounds) -> SearchResult:
    """Search for a certified move sequence from source to target's class.

    Breadth first over class keys, ending when a key equals the target's; a
    weak node (see :func:`_class_key`) reaches the target only through an
    equal summit element, since its class is capped and so is the target's.
    """
    source = _word(source.n, free_reduce(source.letters))
    target = _word(target.n, free_reduce(target.letters))
    for w, name in ((source, "source"), (target, "target")):
        if w.n > bounds.max_strands:
            raise ValueError(
                f"{name} word has {w.n} strands, more than max_strands = {bounds.max_strands}"
            )
        if (k := len(w.letters)) > bounds.max_word_length:
            raise ValueError(
                f"{name} word has {k} letter{'s' * (k != 1)}, "
                f"more than max_word_length = {bounds.max_word_length}"
            )

    target_key, target_weak = _class_key(target)
    src_key, src_weak = _class_key(source)
    weak_keys = int(src_weak) + int(target_weak)
    dedup_hits = 0
    nodes_expanded = 0
    frontier_peak = 1
    # parents[key] = (parent key, MoveStep) for path reconstruction
    parents: dict[str, tuple[str | None, MoveStep | None]] = {src_key: (None, None)}

    def done(outcome: str, key: str | None = None) -> SearchResult:
        stats = SearchStats(nodes_expanded, frontier_peak, dedup_hits, weak_keys)
        if key is None:
            return SearchResult(outcome, stats)
        steps = []
        parent, step = parents[key]
        while parent is not None:
            steps.append(step)
            parent, step = parents[parent]
        return SearchResult(outcome, stats, MoveSequence(source, tuple(reversed(steps))))

    if src_key == target_key:
        return done("found", src_key)

    frontier = [(src_key, source)]
    while frontier:
        frontier_peak = max(frontier_peak, len(frontier))
        next_frontier: list[tuple[str, BraidWord]] = []
        for key, w in frontier:
            nodes_expanded += 1
            neighbors = []
            for site in _sites(w, bounds):
                result = site.apply(w)
                if len(result.letters) > bounds.max_word_length:
                    continue
                nkey, weak = _class_key(result)
                if nkey in parents:
                    dedup_hits += 1
                    continue
                weak_keys += int(weak)
                neighbors.append((nkey, MoveStep(*site.move(), result)))
            for nkey, step in sorted(neighbors, key=lambda kv: kv[0]):
                if nkey in parents:
                    dedup_hits += 1
                    continue
                parents[nkey] = (key, step)
                if nkey == target_key:
                    return done("found", nkey)
                if len(parents) >= bounds.max_nodes:
                    return done("exhausted")
                next_frontier.append((nkey, step.result))
        frontier = next_frontier
    return done("exhausted")


# Largest strand count whose n! − 1 simple elements are enumerated (8! − 1 = 40 319).
MAX_SIMPLE_STRANDS = 8


@functools.lru_cache(maxsize=8)
def _simple_conjugator_words(n: int) -> tuple[BraidWord, ...]:
    """Words of the n! − 1 nontrivial permutation braids, shortest first.

    The conjugators :func:`scramble` draws from, built once per strand
    count; above :data:`MAX_SIMPLE_STRANDS` strands it raises
    :class:`ResourceLimitError` before building anything.
    """
    if n > MAX_SIMPLE_STRANDS:
        raise ResourceLimitError(
            f"enumerating the {n}! - 1 simple braids on {n} strands exceeds the bound of "
            f"{MAX_SIMPLE_STRANDS} strands (MAX_SIMPLE_STRANDS)"
        )
    # Level by level in length, as garside._perm_word spells each one: the
    # word of p is its least descent i followed by the one letter shorter
    # word of p with entries i, i+1 swapped.  Scanning i in increasing order
    # reaches each p first through its least descent.
    level: dict[tuple[int, ...], tuple[int, ...]] = {tuple(range(1, n + 1)): ()}
    out: list[tuple[int, ...]] = []
    while level:
        up: dict[tuple[int, ...], tuple[int, ...]] = {}
        for i in range(1, n):
            for q, letters in level.items():
                if q[i - 1] < q[i]:
                    p = q[: i - 1] + (q[i], q[i - 1]) + q[i + 1 :]
                    if p not in up:
                        up[p] = (i,) + letters
        out += sorted(up.values())
        level = up
    return tuple(_word(n, letters) for letters in out)


def scramble(
    w: BraidWord,
    k: int,
    seed: int,
    move_set: str = TOPOLOGICAL,
    max_strands: int | None = None,
) -> tuple[BraidWord, MoveSequence]:
    """Apply k seeded random legal moves; returns the result and the ground truth.

    Conjugation counts as a move here (it is one of the closed-braid moves),
    realized by a random permutation-braid conjugator, so a word above
    ``search.MAX_SIMPLE_STRANDS`` strands raises ``ResourceLimitError``.  A
    step with no legal move (one strand, no room to stabilize) raises
    ``ValueError`` before its draw.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    rng = random.Random(seed)
    bounds = SearchBounds(
        max_strands=max_strands if max_strands is not None else w.n + 2,
        max_word_length=10_000,
        move_set=move_set,
    )
    cur = w
    steps = []
    for _ in range(k):
        options = _sites(cur, bounds)
        simples = _simple_conjugator_words(cur.n)
        if simples:
            options.append(Conjugation(rng.choice(simples)))
        if not options:
            raise ValueError(
                f"no legal move on {cur.n} strand(s) with max_strands = {bounds.max_strands}"
            )
        site = rng.choice(options)
        result = site.apply(cur)
        steps.append(MoveStep(*site.move(), result))
        cur = result
    return cur, MoveSequence(w, tuple(steps))
