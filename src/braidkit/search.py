"""
Bounded breadth-first search over the closed-braid move graph.

Nodes are conjugacy classes and edges are the implemented moves.  Two
move sets are supported: the full topological set (stabilization and
destabilization of both signs, exchange, 3-braid flypes) and the
transverse set (positive stabilization and destabilization, exchange)
whose moves all preserve the self-linking number.  Flypes are excluded
from the transverse set: their transverse legality is not a given, and the
negative flype in particular changes the transverse type of the pinned
examples.

A node is a conjugacy class as a :class:`garside.ClassTable` names it;
:mod:`garside` describes class identity.  The source and the target are
found as any node is, so a search between two words of one class ends
before any move.  A node's new siblings enter the frontier in site order,
and the search ends on the target's class.

One table, :func:`_site_groups`, holds the site order (destabilization,
exchanges, flypes, stabilizations) and sizes each group before building
it with the public finders of :mod:`moves`.  The search (:func:`_sites`)
builds every group; :func:`scramble` adds a drawn conjugation site last,
draws an index and builds only the group that holds it.  Both apply each
site they take (``site.apply``) and encode only the moves they record
(``site.move()``); :func:`moves.apply_move` re-matches a recorded site and
is the replay path.

A ``found`` result carries a replayable :class:`MoveSequence`; an
``exhausted`` result means the bounded graph was used up, which is
evidence, never a disproof.
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

from . import garside, words
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
from .words import BraidWord, ResourceLimitError, _require_int, _validated_make, _word, free_reduce

TOPOLOGICAL = "topological"
TRANSVERSE = "transverse"


def _require_at_least(name: str, value, floor: int) -> None:
    """A ValueError naming the bound unless value is an ``int`` of at least floor."""
    _require_int(name, value)
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")


def _require_move_set(move_set) -> None:
    if move_set not in (TOPOLOGICAL, TRANSVERSE):
        raise ValueError(f"unknown move set {move_set!r}")


class _SearchBoundsFields(NamedTuple):
    max_strands: int = 5
    max_word_length: int = 24
    max_nodes: int = 100_000
    move_set: str = TOPOLOGICAL


class SearchBounds(_SearchBoundsFields):
    """The bounds of one search; the defaults are ``SearchBounds._field_defaults``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __post_init__(self):
        for name, floor in (("max_strands", 1), ("max_word_length", 0), ("max_nodes", 1)):
            _require_at_least(name, getattr(self, name), floor)
        _require_move_set(self.move_set)

    _make = _validated_make


class SearchStats(NamedTuple):
    nodes_expanded: int
    frontier_peak: int
    dedup_hits: int
    # summit elements keyed and found capped, so naming their class alone;
    # ends with equal summit elements key nothing
    weak_keys: int


class SearchResult(NamedTuple):
    outcome: str  # "found" | "exhausted"
    stats: SearchStats
    sequence: MoveSequence | None = None

    @property
    def found(self) -> bool:
        return self.outcome == "found"


# The stabilizations each move set takes, in site order, and the signs of
# the destabilizations it takes.
_STABILIZATIONS = {TOPOLOGICAL: (Stabilization(1), Stabilization(-1))}
_STABILIZATIONS[TRANSVERSE] = tuple(
    site for site in _STABILIZATIONS[TOPOLOGICAL] if site.kind in TRANSVERSE_MOVE_KINDS
)
_DESTAB_SIGNS = {TOPOLOGICAL: (1, -1)}
_DESTAB_SIGNS[TRANSVERSE] = tuple(
    sign for sign in (1, -1) if ("destab+" if sign > 0 else "destab-") in TRANSVERSE_MOVE_KINDS
)


def _site_groups(w: BraidWord, bounds: _SearchBoundsFields) -> list:
    """The move sites of w in site order, as groups: the destabilization,
    the exchanges, the flypes, and the stabilizations when there is room.
    A group is its size and a function that builds its sites.

    The σₙ₋₁ letter counts give most sizes with nothing built.  A
    destabilization needs #σₙ₋₁ − #σₙ₋₁⁻¹ = ±1 and has that sign
    (:func:`moves.try_destabilize`); the reduction runs only when there are
    three or more such letters.  There are two exchanges exactly when each
    count is 1 on three or more strands.
    """
    n, ls = w.n, w.letters
    up, down = ls.count(n - 1), ls.count(1 - n)
    groups: list = []
    if n > 1 and up - down in _DESTAB_SIGNS[bounds.move_set]:
        if up + down == 1:
            groups.append((1, lambda: [try_destabilize(w)]))
        elif (d := try_destabilize(w)) is not None:
            groups.append((1, lambda: [d]))
    if n > 2 and up == down == 1:
        groups.append((2, lambda: find_exchange_decompositions(w)))
    if n == 3 and bounds.move_set == TOPOLOGICAL and (flypes := find_flype_decompositions(w)):
        groups.append((len(flypes), lambda: flypes))
    if n < bounds.max_strands and len(ls) < bounds.max_word_length:
        stabilizations = _STABILIZATIONS[bounds.move_set]
        groups.append((len(stabilizations), lambda: stabilizations))
    return groups


def _sites(w: BraidWord, bounds: SearchBounds) -> list:
    """Every move site of w, in site order (:func:`_site_groups`).  Each
    names its ``kind``, gives its result by ``site.apply(w)`` and its
    params by ``site.move()``; the transverse move set takes only the
    kinds in ``TRANSVERSE_MOVE_KINDS``."""
    return [site for _, build in _site_groups(w, bounds) for site in build()]


def connect(source: BraidWord, target: BraidWord, bounds: SearchBounds) -> SearchResult:
    """Search for a certified move sequence from source to target's class.

    Breadth first over the classes of a :class:`garside.ClassTable`, the
    two ends found as any node is, ending on the target's class; a node's
    new siblings enter the frontier in site order.
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

    classes = garside.ClassTable()
    goal = classes.find(target)
    start = classes.find(source)
    dedup_hits = 0
    nodes_expanded = 0
    frontier_peak = 1
    # parents[class] = (parent class, MoveStep) for path reconstruction
    parents: dict[garside.NormalForm, tuple] = {start: (None, None)}

    def done(end: garside.NormalForm | None = None) -> SearchResult:
        """The result: found when the search reached class ``end``."""
        stats = SearchStats(nodes_expanded, frontier_peak, dedup_hits, classes.capped)
        if end is None:
            return SearchResult("exhausted", stats)
        steps = []
        parent, step = parents[end]
        while parent is not None:
            steps.append(step)
            parent, step = parents[parent]
        return SearchResult("found", stats, MoveSequence(source, tuple(reversed(steps))))

    if start is goal:
        return done(start)
    frontier = [(start, source)]
    while frontier:
        frontier_peak = max(frontier_peak, len(frontier))
        next_frontier: list[tuple[garside.NormalForm, BraidWord]] = []
        for c, w in frontier:
            nodes_expanded += 1
            for site in _sites(w, bounds):
                result = site.apply(w)
                if len(result.letters) > bounds.max_word_length:
                    continue
                nc = classes.find(result)
                if nc in parents:
                    dedup_hits += 1
                    continue
                parents[nc] = (c, MoveStep(*site.move(), result))
                if nc is goal:
                    return done(nc)
                if len(parents) >= bounds.max_nodes:
                    return done()
                next_frontier.append((nc, result))
        frontier = next_frontier
    return done()


# Largest strand count whose n! − 1 simple elements are enumerated (8! − 1 = 40 319).
MAX_SIMPLE_STRANDS = 8


@functools.lru_cache(maxsize=8)
def _conjugation_sites(n: int) -> tuple[Conjugation, ...]:
    """A :class:`Conjugation` site by each of the n! − 1 nontrivial
    permutation braids, shortest first.

    The conjugations :func:`scramble` draws from, built once per strand
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
                    p = garside._divide_left(q, i)
                    if p not in up:
                        up[p] = (i,) + letters
        out += sorted(up.values())
        level = up
    return tuple(Conjugation(_word(n, letters)) for letters in out)


def scramble(
    w: BraidWord,
    k: int,
    seed: int,
    move_set: str = TOPOLOGICAL,
    max_strands: int | None = None,
) -> tuple[BraidWord, MoveSequence]:
    """Apply k seeded random legal moves; returns the result and the ground truth.

    A step counts the word's sites (:func:`_site_groups`, then one
    conjugation site drawn from :func:`_conjugation_sites`), draws an index
    with ``rng.choice`` over a range of that length, which draws as over
    the built list, and builds only the group that holds it.
    Conjugation counts as a move here (it is one of the closed-braid moves),
    realized by a random permutation-braid conjugator, so a word above
    ``search.MAX_SIMPLE_STRANDS`` strands raises ``ResourceLimitError``.  A
    step with no legal move (one strand, no room to stabilize) raises
    ``ValueError`` before its draw.

    ``k`` and ``seed`` must be ``int`` (``True`` is not, and there is no
    unseeded run): anything else is a ``ValueError`` naming the argument.
    Every argument is checked first; k = 0 then draws nothing and returns
    w with no steps.
    """
    _require_int("k", k)
    _require_int("seed", seed)
    if k < 0:
        raise ValueError("k must be >= 0")
    if max_strands is None:
        max_strands = w.n + 2
    _require_at_least("max_strands", max_strands, 1)
    _require_move_set(move_set)
    if not k:
        return w, MoveSequence(w)
    # validated above, so the plain fields skip the checks of SearchBounds
    bounds = _SearchBoundsFields(max_strands, words.MAX_PARSED_LETTERS, move_set=move_set)
    rng = random.Random(seed)
    cur = w
    steps = []
    for _ in range(k):
        groups = _site_groups(cur, bounds)
        if conjugations := _conjugation_sites(cur.n):
            conjugation = rng.choice(conjugations)
            groups.append((1, lambda: [conjugation]))
        count = 0
        for size, _ in groups:
            count += size
        if not count:
            raise ValueError(
                f"no legal move on {cur.n} strand(s) with max_strands = {bounds.max_strands}"
            )
        i = rng.choice(range(count))
        for size, build in groups:
            if i < size:
                break
            i -= size
        site = build()[i]
        result = site.apply(cur)
        steps.append(MoveStep(*site.move(), result))
        cur = result
    return cur, MoveSequence(w, tuple(steps))
