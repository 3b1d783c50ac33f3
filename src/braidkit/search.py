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

A node is a conjugacy class, told apart from the others by the cheapest
exact test first.  Every member of a super summit set has the same inf and
canonical length, so nodes whose summit elements differ in strand count,
inf or canonical length are different classes, and nodes with equal summit
elements are one class.  Only when neither test decides are the two nodes
keyed by their super summit sets; past ``garside.MAX_SUMMIT_SET`` members
a node's class is named by its summit element alone.  The source and the
target are found the same way, so a search between two words of one class
ends before any move.  A node's new siblings enter the frontier in site
order, and the search ends on the target's class.  Conjugate words have the
same super summit set, so a capped node's class is capped on every word,
the target's included: a capped node reaches the target only through an
equal summit element, and a capped class may be missed.

One scan, :func:`_sites`, builds a word's move sites with the public
finders of :mod:`moves`: the search takes every site there, and
:func:`scramble` adds one conjugation site drawn from
:func:`_conjugation_sites` and draws one of them.  Both apply each site
they take (``site.apply``) and encode only the moves they record
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
            value = getattr(self, name)
            _require_int(name, value)
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        if self.move_set not in (TOPOLOGICAL, TRANSVERSE):
            raise ValueError(f"unknown move set {self.move_set!r}")

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


def _bucket(summit: garside.NormalForm) -> tuple[int, int, int]:
    """(strand count, inf, canonical length): shared by a whole super summit set."""
    return summit.n, summit.delta_power, len(summit.factors)


class _Classes:
    """The classes a search has met, each named by the first summit element
    seen in it.

    A summit element seen before names its class at once.  A new one is a
    new class, left unkeyed, when no other summit element has reached its
    bucket (strand count, inf, canonical length); otherwise it and the
    bucket's unkeyed class are keyed, so a bucket that two summit elements
    have reached holds only keyed classes.  A capped summit element has no
    key: it names its own class, and only an equal summit element finds it.
    """

    __slots__ = ("ids", "buckets", "by_key", "capped")

    def __init__(self):
        self.ids: dict[garside.NormalForm, garside.NormalForm] = {}  # summit element -> class
        # bucket -> (word, summit element) of its one class, unkeyed; None
        # once a second summit element reaches it
        self.buckets: dict[tuple[int, int, int], tuple | None] = {}
        self.by_key: dict[garside.ConjugacyKey, garside.NormalForm] = {}  # key -> class
        self.capped = 0  # summit elements found capped (see keyed)

    def find(self, w: BraidWord, s: garside.NormalForm) -> garside.NormalForm:
        """The class of w, whose summit element is s, added when new."""
        c = self.ids.get(s)
        if c is None:
            bucket = _bucket(s)
            if bucket not in self.buckets:
                self.buckets[bucket] = (w, s)
                c = s
            else:  # the bucket holds another class: compare keys
                if (lone := self.buckets[bucket]) is not None:
                    self.buckets[bucket] = None
                    self.keyed(*lone)
                c = self.keyed(w, s)
            self.ids[s] = c
        return c

    def keyed(self, w: BraidWord, s: garside.NormalForm) -> garside.NormalForm:
        """The keyed class with the key of w, whose summit element is s; s,
        keyed, when there is none.

        The key is the super summit set: the cached key of s's class, or
        else a closure.  Past ``MAX_SUMMIT_SET`` members there is no key: s
        names its own class, counted in ``capped`` and stored nowhere, since
        :meth:`find` keys each summit element at most once.  Conjugates
        reaching different capped summit elements become different classes.
        """
        key = garside._key_cache.get(s)
        if key is None:
            try:
                key = garside.super_summit_set(w)
            except garside.SuperSummitCapError:
                self.capped += 1
                return s
        return self.by_key.setdefault(key, s)


# The stabilizations each move set takes, in site order.
_STABILIZATIONS = {TOPOLOGICAL: (Stabilization(1), Stabilization(-1))}
_STABILIZATIONS[TRANSVERSE] = tuple(
    site for site in _STABILIZATIONS[TOPOLOGICAL] if site.kind in TRANSVERSE_MOVE_KINDS
)


def _sites(w: BraidWord, bounds: SearchBounds) -> list:
    """Every move site of w, in site order: destabilization, exchanges,
    flypes and the two stabilizations when there is room.  Each names its
    ``kind``, gives its result by ``site.apply(w)`` and its params by
    ``site.move()``.  The transverse move set takes the kinds in
    ``TRANSVERSE_MOVE_KINDS``, chosen as the sites are built rather than
    filtered afterwards: a destabilization is kept only when its kind is
    one, exchanges are in both sets, only those stabilizations are taken,
    and the flype finder is not run, since the set holds no flype."""
    transverse = bounds.move_set == TRANSVERSE
    sites: list = []
    if w.n > 1 and (d := try_destabilize(w)) is not None:
        if not transverse or d.kind in TRANSVERSE_MOVE_KINDS:
            sites.append(d)
    sites += find_exchange_decompositions(w)
    if not transverse:
        sites += find_flype_decompositions(w)
    if w.n < bounds.max_strands and len(w.letters) + 1 <= bounds.max_word_length:
        sites += _STABILIZATIONS[bounds.move_set]
    return sites


def connect(source: BraidWord, target: BraidWord, bounds: SearchBounds) -> SearchResult:
    """Search for a certified move sequence from source to target's class.

    Breadth first over classes (see :class:`_Classes`), the two ends found
    as any node is, ending on the target's class; a node's new siblings
    enter the frontier in site order.  A capped node (see
    :meth:`_Classes.keyed`) reaches the target only through an equal summit
    element, since its class is capped and so is the target's.
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

    classes = _Classes()
    goal = classes.find(target, garside._word_summit(target)[0])
    start = classes.find(source, garside._word_summit(source)[0])
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
                nc = classes.find(result, garside._word_summit(result)[0])
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

    A step draws one of the word's move sites (:func:`_sites` and one
    conjugation site drawn from :func:`_conjugation_sites`).
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
    bounds = SearchBounds(
        max_strands=max_strands if max_strands is not None else w.n + 2,
        max_word_length=words.MAX_PARSED_LETTERS,
        move_set=move_set,
    )
    if not k:
        return w, MoveSequence(w)
    rng = random.Random(seed)
    cur = w
    steps = []
    for _ in range(k):
        sites = _sites(cur, bounds)
        if conjugations := _conjugation_sites(cur.n):
            sites.append(rng.choice(conjugations))
        if not sites:
            raise ValueError(
                f"no legal move on {cur.n} strand(s) with max_strands = {bounds.max_strands}"
            )
        site = rng.choice(sites)
        result = site.apply(cur)
        steps.append(MoveStep(*site.move(), result))
        cur = result
    return cur, MoveSequence(w, tuple(steps))
