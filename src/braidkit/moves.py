"""
The closed-braid move repertoire as executable word transformations.

Markov stabilization appends σₙ^{±1} on a new strand; destabilization
removes it.  The exchange move rewrites P·σₙ₋₁·Q·σₙ₋₁⁻¹ into
P·σₙ₋₁⁻¹·Q·σₙ₋₁ (P, Q away from the last strand), and the 3-braid flype
rewrites σ₁ᵖ·σ₂ʳ·σ₁^q·σ₂^ε into σ₁ᵖ·σ₂^ε·σ₁^q·σ₂ʳ.  Each schema has one
matcher at a given rotation and one public finder, which runs it only at
the rotations (of the cyclic reduction, for a destabilization) where it
can match, as closed braids are conjugacy classes.  A site (a matched
schema, a stabilization or a conjugation) names its ``kind``,
gives its result with ``site.apply(w)`` on the word it was matched on,
and encodes itself with ``site.move()`` as the ``(kind, params)`` that
:func:`apply_move` replays.  The search, ``scramble`` and the ``move``
command apply the site they have just made; only replay rebuilds a
recorded site, by one rule for every kind: the site the step names is
applied, with the same ``apply``, only when its ``move()`` is the recorded
step; otherwise the step fails as "recorded <kind> does not apply".

Moves also exist in template form: a pair of weighted block-strand
diagrams that close to the same link for every braiding assignment to the
blocks.  A strand of weight w stands for w parallel strands; a crossing
between bands of weights u and v expands to the unique one-signed
permutation braid with u·v crossings shifting one band past the other,
and block slots receive arbitrary braid words re-indexed into the band's
global positions.  Five templates ship built in: destab+, destab-,
exchange, flype+, flype-.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import NamedTuple

from . import garside
from .words import (
    MAX_PARSED_LETTERS,
    BraidWord,
    ResourceLimitError,
    _require_same_strands,
    _runs,
    _validated_make,
    _word,
    conjugate,
    free_reduce,
    json_field,
    json_ints,
    random_word,
    rotate,
    word_from_json,
    word_to_json,
)


# ---------------------------------------------------------------------------
# Elementary moves on words


def stabilize(w: BraidWord, sign: int) -> BraidWord:
    """Append σₙ^{sign} on a fresh strand: braid index n → n+1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _word(w.n + 1, w.letters + (sign * w.n,))


class Stabilization(NamedTuple):
    """The stabilization of sign ``sign``, a site on every word."""

    sign: int

    @property
    def kind(self) -> str:
        return "stab+" if self.sign > 0 else "stab-"

    def move(self) -> tuple[str, dict]:
        return self.kind, {}

    def apply(self, w: BraidWord) -> BraidWord:
        return stabilize(w, self.sign)


class Conjugation:
    """Conjugation by ``by``, a word on the strands of the word it applies to.

    A slotted class, not a named tuple as the other sites are: it also keeps
    the letters of by⁻¹, once for each of the n! − 1 cached sites, so that
    a site built once applies with no reversal.
    """

    __slots__ = ("by", "inverse")
    kind = "conjugation"

    def __init__(self, by: BraidWord):
        self.by = by
        self.inverse = tuple(-x for x in reversed(by.letters))

    def move(self) -> tuple[str, dict]:
        return self.kind, {"by": list(self.by.letters)}

    def apply(self, w: BraidWord) -> BraidWord:
        """by⁻¹·w·by, freely reduced, as :func:`words.conjugate` gives it."""
        _require_same_strands(w, self.by)
        return _word(w.n, free_reduce(self.inverse + w.letters + self.by.letters))


def _cyclic_reduction(letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The letters of :func:`cyclic_free_reduce`'s (u, g)."""
    r = free_reduce(letters)
    k = 0
    while k < len(r) - 1 - k and r[k] == -r[-1 - k]:
        k += 1
    return r[k : len(r) - k], r[:k]


def cyclic_free_reduce(w: BraidWord) -> tuple[BraidWord, BraidWord]:
    """Freely and cyclically reduce; returns (reduced word u, conjugator g).

    With r = free_reduce(w) and k the number of end pairs r[i] = −r[−1−i]
    stripped, u = r[k:len−k] and g = r[:k], so ``conjugate(w, g) == u``.
    """
    u, g = _cyclic_reduction(w.letters)
    return _word(w.n, u), _word(w.n, g)


class DestabResult(NamedTuple):
    """A destabilization of a word.

    ``rotate(conjugate(input, conjugator), rotation)`` equals
    ``word + σₙ₋₁^{sign}`` letter for letter.  A named tuple, as are the
    other matched sites, so that building, hashing and comparing one runs
    in C: the search builds every site of every node it expands.
    """

    word: BraidWord  # the destabilized word on n-1 strands
    sign: int
    conjugator: BraidWord
    rotation: int

    @property
    def kind(self) -> str:
        return "destab+" if self.sign > 0 else "destab-"

    def move(self) -> tuple[str, dict]:
        """The (kind, params) that :func:`apply_move` replays to ``word``."""
        return self.kind, {"conjugator": list(self.conjugator.letters), "rotation": self.rotation}

    def apply(self, w: BraidWord) -> BraidWord:
        return self.word


def _destab_at(n: int, u: tuple[int, ...], g: tuple[int, ...], r: int) -> DestabResult | None:
    """The destabilization of u = g⁻¹·w·g (letters) ending in its only σₙ₋₁ at rotation r."""
    if n < 2 or not 0 <= r < len(u):
        return None
    top = n - 1
    ls = u[r:] + u[:r]
    if abs(ls[-1]) != top or ls.count(top) + ls.count(-top) != 1:
        return None
    return DestabResult(_word(n - 1, ls[:-1]), 1 if ls[-1] > 0 else -1, _word(n, g), r)


def try_destabilize(w: BraidWord) -> DestabResult | None:
    """Read w as P·σₙ₋₁^{±1}, P on n−1 strands, up to cyclic reduction.

    The rule: w destabilizes exactly when its cyclic reduction u has one
    σₙ₋₁^{±1} letter; the result is the rotation of u ending in it.  Words
    are only freely reduced, never rewritten by braid relations, and in a
    free group a cyclically reduced conjugate of a cyclically reduced word
    is a rotation of it (Lyndon & Schupp, Ch. I), which keeps that letter
    count: conjugating first finds nothing more.  So ``None`` is no proof
    that the closure cannot be destabilized.
    """
    if w.n < 2:
        raise ValueError("destabilization needs at least 2 strands")
    u, g = _cyclic_reduction(w.letters)
    top = w.n - 1
    if u.count(top) + u.count(-top) != 1:
        return None
    return _destab_at(w.n, u, g, ((u.index(top) if top in u else u.index(-top)) + 1) % len(u))


class ExchangeDecomposition(NamedTuple):
    """A reading of some cyclic permutation of w as P·σₙ₋₁^s·Q·σₙ₋₁^{−s};
    a named tuple, as :class:`DestabResult` is."""

    rotation: int
    p_len: int
    sign: int

    kind = "exchange"

    def move(self) -> tuple[str, dict]:
        """The (kind, params) that :func:`apply_move` replays."""
        return self.kind, {"rotation": self.rotation, "p_len": self.p_len, "sign": self.sign}

    def apply(self, w: BraidWord) -> BraidWord:
        """Toggle the two σₙ₋₁ signs of w, the word this site was matched on."""
        ls = rotate(w, self.rotation).letters
        new = ls[: self.p_len] + (-ls[self.p_len],) + ls[self.p_len + 1 : -1] + (-ls[-1],)
        return _word(w.n, new)


def _exchange_at(w: BraidWord, r: int) -> ExchangeDecomposition | None:
    """The exchange site at rotation r: the only two σₙ₋₁ letters, opposite, at p_len and last."""
    if w.n < 3 or not 0 <= r < len(w.letters):
        return None
    top = w.n - 1
    ls = rotate(w, r).letters
    if abs(ls[-1]) != top or ls.count(top) + ls.count(-top) != 2 or -ls[-1] not in ls:
        return None
    return ExchangeDecomposition(r, ls.index(-ls[-1]), -1 if ls[-1] > 0 else 1)


def find_exchange_decompositions(w: BraidWord) -> list[ExchangeDecomposition]:
    """All exchange-move sites of a word (cyclic scans included), by rotation:
    when w holds two σₙ₋₁ letters and they are opposite, one ending in each."""
    top, ls = w.n - 1, w.letters
    if w.n < 3 or ls.count(top) != 1 or ls.count(-top) != 1:
        return []
    rotations = sorted([(ls.index(top) + 1) % len(ls), (ls.index(-top) + 1) % len(ls)])
    return [_exchange_at(w, r) for r in rotations]


class FlypeData(NamedTuple):
    """A match of a 3-braid word against σ₁ᵖ·σ₂ʳ·σ₁^q·σ₂^ε (cyclically);
    a named tuple, as :class:`DestabResult` is."""

    rotation: int
    p: int
    r: int
    q: int
    eps: int

    @property
    def kind(self) -> str:
        return "flype+" if self.eps > 0 else "flype-"

    def move(self) -> tuple[str, dict]:
        """The (kind, params) that :func:`apply_move` replays."""
        return self.kind, {"rotation": self.rotation, "p": self.p, "r": self.r, "q": self.q}

    def apply(self, w: BraidWord) -> BraidWord:
        return apply_flype(self)


def _flype_at(w: BraidWord, r0: int) -> FlypeData | None:
    """The flype match of a 3-braid word at rotation r0, or None."""
    if w.n != 3 or not 0 <= r0 < len(w.letters):
        return None
    runs = _runs(rotate(w, r0).letters)
    if [i for i, _ in runs] != [1, 2, 1, 2] or abs(runs[3][1]) != 1:
        return None
    (_, p), (_, r), (_, q), (_, eps) = runs
    return FlypeData(r0, p, r, q, eps)


def find_flype_decompositions(w: BraidWord) -> list[FlypeData]:
    """All cyclic matches of a 3-braid word against the flype schema, in O(L).

    A match at rotation r starts with a σ₁ letter and ends with a σ₂ letter,
    so |w[r]| = 1 and |w[r−1]| = 2 (cyclically).  Read by generator, a
    matching word is cyclically 1ᵃ 2ᵇ 1ᶜ 2: it has exactly two such
    boundaries, and only they are tried.
    """
    if w.n != 3:
        return []
    ls = w.letters
    starts = [r0 for r0 in range(len(ls)) if abs(ls[r0]) == 1 and abs(ls[r0 - 1]) == 2]
    return [f for r0 in starts if (f := _flype_at(w, r0))] if len(starts) == 2 else []


def match_flype_3braid(w: BraidWord) -> FlypeData | None:
    """First flype match by cyclic rotation, or None."""
    return next(iter(find_flype_decompositions(w)), None)


def apply_flype(data: FlypeData) -> BraidWord:
    """Rewrite the matched word σ₁ᵖ σ₂ʳ σ₁^q σ₂^ε into σ₁ᵖ σ₂^ε σ₁^q σ₂ʳ."""
    letters: tuple[int, ...] = ()
    for index, count in ((1, data.p), (2, data.eps), (1, data.q), (2, data.r)):
        letters += (index if count > 0 else -index,) * abs(count)
    return BraidWord(3, letters)


# ---------------------------------------------------------------------------
# Block-strand diagrams and templates


class Crossing(NamedTuple):
    pos: int  # 1-based diagram-strand position; crosses pos and pos+1
    sign: int


class BlockSlot(NamedTuple):
    block: str
    pos: int = 1  # 1-based first diagram strand entering the block


class _DiagramFields(NamedTuple):
    strand_weights: tuple[int, ...]
    items: tuple[Crossing | BlockSlot, ...]
    block_arities: MappingProxyType[str, int]


class BlockStrandDiagram(_DiagramFields):
    """An ordered schema of crossings and block slots over weighted strands.

    Without ``block_arities`` the diagram has no blocks; the diagram keeps
    a read-only copy of them, so the caller's map can change without it.
    Weights summing to more than :data:`MAX_PARSED_LETTERS` strands raise
    :class:`ResourceLimitError` when the diagram is built.
    """

    __slots__ = ()

    def __new__(cls, strand_weights, items, block_arities=None):
        arities = MappingProxyType(dict(block_arities or {}))
        self = tuple.__new__(cls, (tuple(strand_weights), tuple(items), arities))
        self.__post_init__()
        return self

    _make = _validated_make

    def __post_init__(self):
        k = len(self.strand_weights)
        if k < 1 or any(type(x) is not int or x < 1 for x in self.strand_weights):
            raise ValueError("strand weights must be positive integers")
        if sum(self.strand_weights) > MAX_PARSED_LETTERS:
            raise ResourceLimitError(
                f"strand weights sum to {sum(self.strand_weights)}, more than "
                f"MAX_PARSED_LETTERS = {MAX_PARSED_LETTERS} strands"
            )
        for block, arity in self.block_arities.items():
            if type(block) is not str or type(arity) is not int or arity < 1:
                raise ValueError(f"block {block!r} has arity {arity!r}; it must be a name of int arity >= 1")
        for item in self.items:
            if isinstance(item, Crossing):
                if not (type(item.pos) is type(item.sign) is int and 0 < item.pos < k and abs(item.sign) == 1):
                    raise ValueError(f"bad crossing {item!r} for {k} diagram strands")
                continue
            if not isinstance(item, BlockSlot) or type(item.block) is not str or type(item.pos) is not int:
                raise ValueError(f"bad diagram item {item!r}: want a Crossing, or a BlockSlot(str, int)")
            arity = self.block_arities.get(item.block)
            if arity is None:
                raise ValueError(f"block {item.block!r} missing from arity map")
            if not 1 <= item.pos <= k - arity + 1:
                raise ValueError(f"block {item.block!r} does not fit at {item.pos}")


class _TemplateFields(NamedTuple):
    name: str
    left: BlockStrandDiagram
    right: BlockStrandDiagram


class Template(_TemplateFields):
    """A pair of block-strand diagrams closing to the same link for every assignment."""

    __slots__ = ()

    def __new__(cls, name, left, right):
        self = tuple.__new__(cls, (name, left, right))
        self.__post_init__()
        return self

    _make = _validated_make

    def __post_init__(self):
        if type(self.name) is not str or not all(isinstance(d, BlockStrandDiagram) for d in self[1:]):
            raise ValueError(f"template {self.name!r} needs a str name and two BlockStrandDiagrams")
        if self.left.block_arities != self.right.block_arities:
            raise ValueError("left and right diagrams must share block ids and arities")


BraidingAssignment = dict[str, BraidWord]


def _band_crossing(u: int, v: int, offset: int, sign: int) -> list[int]:
    """One-signed permutation braid shifting a u-band past a v-band (u·v letters)."""
    out = []
    for b in range(1, v + 1):
        for i in range(u + b - 1, b - 1, -1):
            out.append(sign * (i + offset))
    return out


def _walk(d: BlockStrandDiagram):
    """Each item of d with the global offset of its first band and the widths
    of the bands it spans, as the crossings before it have permuted them."""
    running = list(d.strand_weights)
    for item in d.items:
        p = item.pos
        if isinstance(item, Crossing):
            yield item, sum(running[: p - 1]), (running[p - 1], running[p])
            running[p - 1], running[p] = running[p], running[p - 1]
        else:
            arity = d.block_arities[item.block]
            yield item, sum(running[: p - 1]), tuple(running[p - 1 : p - 1 + arity])


def expand_weights(d: BlockStrandDiagram, assignment: BraidingAssignment) -> BraidWord:
    """Instantiate a diagram: cable the weighted crossings, splice in the blocks.

    An instance of more than :data:`MAX_PARSED_LETTERS` letters raises
    :class:`ResourceLimitError` before any letter is built.  No template the
    soundness fuzzer could check is lost by this: ``MAX_BRACKET_WORK``
    already admits no word with more than 4 472 strands or 4 471 letters.
    """
    walk = list(_walk(d))
    total = 0
    for item, _, widths in walk:
        if isinstance(item, Crossing):
            total += widths[0] * widths[1]
            continue
        word = assignment.get(item.block)
        if word is None:
            raise ValueError(f"no assignment for block {item.block!r}")
        if word.n != sum(widths):
            raise ValueError(
                f"block {item.block!r} expects a {sum(widths)}-strand word, got {word.n}"
            )
        total += len(word)
    if total > MAX_PARSED_LETTERS:
        raise ResourceLimitError(
            f"template instance of {total} letters exceeds MAX_PARSED_LETTERS = {MAX_PARSED_LETTERS}"
        )
    letters: list[int] = []
    for item, offset, widths in walk:
        if isinstance(item, Crossing):
            letters.extend(_band_crossing(*widths, offset, item.sign))
        else:
            word = assignment[item.block]
            letters.extend(x + offset if x > 0 else x - offset for x in word.letters)
    return BraidWord(sum(d.strand_weights), tuple(letters))


def expanded_arities(d: BlockStrandDiagram) -> dict[str, int]:
    """Strand count each block's assignment must have, at first occurrence."""
    out: dict[str, int] = {}
    for item, _, widths in _walk(d):
        if isinstance(item, BlockSlot):
            out.setdefault(item.block, sum(widths))
    return out


def instantiate_template(t: Template, a: BraidingAssignment) -> tuple[BraidWord, BraidWord]:
    """Expand both sides of a template under one braiding assignment."""
    return expand_weights(t.left, a), expand_weights(t.right, a)


def random_assignment(t: Template, max_len: int, rng) -> BraidingAssignment:
    """A seeded random assignment with block words of length ≤ max_len.

    A max_len below 0 is a ValueError, and one above
    :data:`MAX_PARSED_LETTERS` a :class:`ResourceLimitError`, both raised
    before anything is drawn.
    """
    if max_len < 0:
        raise ValueError(f"block word length bound must be >= 0, got {max_len}")
    if max_len > MAX_PARSED_LETTERS:
        raise ResourceLimitError(
            f"block words of up to {max_len} letters exceed MAX_PARSED_LETTERS = {MAX_PARSED_LETTERS}"
        )
    return {
        block: random_word(rng, span, max_len)
        for block, span in sorted(expanded_arities(t.left).items())
    }


# --- JSON wire format -------------------------------------------------------


def _diagram_to_json(d: BlockStrandDiagram) -> list:
    out = []
    for item in d.items:
        if isinstance(item, Crossing):
            out.append({"x": [item.pos, item.sign]})
        elif item.pos == 1:
            out.append({"b": item.block})
        else:
            out.append({"b": [item.block, item.pos]})
    return out


def _diagram_from_json(items: list, weights: tuple[int, ...], arities: dict) -> BlockStrandDiagram:
    parsed: list[Crossing | BlockSlot] = []
    for item in items:
        if isinstance(item, dict) and "x" in item:
            crossing = json_ints(item, "x", "crossing item")
            if len(crossing) != 2:
                raise ValueError(f"crossing item {item!r} must be {{'x': [pos, sign]}}")
            parsed.append(Crossing(*crossing))
        elif isinstance(item, dict) and "b" in item:
            entry = [item["b"], 1] if isinstance(item["b"], str) else item["b"]
            if not isinstance(entry, list) or list(map(type, entry)) != [str, int]:
                raise ValueError(f"block item {item!r} must be {{'b': name}} or {{'b': [name, pos]}}")
            parsed.append(BlockSlot(*entry))
        else:
            raise ValueError(f"unknown template item {item!r}")
    return BlockStrandDiagram(weights, tuple(parsed), arities)


def template_to_json(t: Template) -> dict:
    obj = {
        "name": t.name,
        "weights": list(t.left.strand_weights),
        "left": _diagram_to_json(t.left),
        "right": _diagram_to_json(t.right),
        "blocks": dict(t.left.block_arities),
    }
    if t.right.strand_weights != t.left.strand_weights:
        obj["right_weights"] = list(t.right.strand_weights)
    return obj


def template_from_json(obj: dict) -> Template:
    """Inverse of :func:`template_to_json`; a missing or ill-typed field is a ValueError."""
    weights = json_ints(obj, "weights", "template")
    right_weights = json_ints(obj, "right_weights", "template") if "right_weights" in obj else weights
    arities = json_field(obj, "blocks", dict, "template")
    if not all(type(v) is int for v in arities.values()):
        raise ValueError("template field 'blocks' must map block names to integers")
    return Template(
        json_field(obj, "name", str, "template"),
        _diagram_from_json(json_field(obj, "left", list, "template"), weights, arities),
        _diagram_from_json(json_field(obj, "right", list, "template"), right_weights, arities),
    )


def destab_template(sign: int) -> Template:
    """Destabilization: remove a strand crossing the rest once with the given sign."""
    name = "destab+" if sign > 0 else "destab-"
    left = BlockStrandDiagram((1, 1, 1), (BlockSlot("P", 1), Crossing(2, sign)), {"P": 2})
    right = BlockStrandDiagram((1, 1), (BlockSlot("P", 1),), {"P": 2})
    return Template(name, left, right)


def exchange_template() -> Template:
    """The exchange move P·σₙ₋₁·Q·σₙ₋₁⁻¹ ↦ P·σₙ₋₁⁻¹·Q·σₙ₋₁ in template form."""
    arities = {"P": 2, "Q": 2}
    left = BlockStrandDiagram(
        (1, 1, 1),
        (BlockSlot("P", 1), Crossing(2, 1), BlockSlot("Q", 1), Crossing(2, -1)),
        arities,
    )
    right = BlockStrandDiagram(
        (1, 1, 1),
        (BlockSlot("P", 1), Crossing(2, -1), BlockSlot("Q", 1), Crossing(2, 1)),
        arities,
    )
    return Template("exchange", left, right)


def flype_template(eps: int) -> Template:
    """The 3-braid flype with half-twist sign eps."""
    name = "flype+" if eps > 0 else "flype-"
    arities = {"P": 2, "Q": 2, "R": 2}
    left = BlockStrandDiagram(
        (1, 1, 1),
        (BlockSlot("P", 1), BlockSlot("R", 2), BlockSlot("Q", 1), Crossing(2, eps)),
        arities,
    )
    right = BlockStrandDiagram(
        (1, 1, 1),
        (BlockSlot("P", 1), Crossing(2, eps), BlockSlot("Q", 1), BlockSlot("R", 2)),
        arities,
    )
    return Template(name, left, right)


def builtin_templates() -> dict[str, Template]:
    """The five shipped templates, by name."""
    return {
        "destab+": destab_template(1),
        "destab-": destab_template(-1),
        "exchange": exchange_template(),
        "flype+": flype_template(1),
        "flype-": flype_template(-1),
    }


# ---------------------------------------------------------------------------
# Move sequences (certified chains of moves)

class MoveStep(NamedTuple):
    kind: str
    params: dict
    result: BraidWord


class MoveSequence(NamedTuple):
    initial: BraidWord
    steps: tuple[MoveStep, ...] = ()

    @property
    def final(self) -> BraidWord:
        return self.steps[-1].result if self.steps else self.initial


def apply_move(w: BraidWord, kind: str, params: dict) -> BraidWord:
    """Re-apply a recorded move; deterministic given the recorded parameters.

    Every kind replays by one rule.  The step names a site: the conjugation
    by its ``by`` word, the stabilization of its kind's sign, or the destab,
    exchange or flype match at its recorded rotation (on u = g⁻¹·w·g for a
    destabilization).  The site is applied with the search's ``site.apply``
    only when its ``site.move()`` is exactly ``(kind, params)``.  A missing
    or ill-typed parameter is a ValueError naming it; any other mismatch (a
    rotation outside 0..L−1, another site, an extra key) is the ValueError
    "recorded <kind> does not apply".
    """
    where = f"{kind} params"

    def rotation(*others: str) -> int:
        """The recorded rotation, once it and the other int fields are read."""
        return [json_field(params, key, int, where) for key in ("rotation", *others)][0]

    if kind == "conjugation":
        site = Conjugation(BraidWord(w.n, json_ints(params, "by", where)))
    elif kind in ("stab+", "stab-"):
        site = Stabilization(1 if kind == "stab+" else -1)
    elif kind in ("destab+", "destab-"):
        g = BraidWord(w.n, json_ints(params, "conjugator", where))
        site = _destab_at(w.n, conjugate(w, g).letters, g.letters, rotation())
    elif kind == "exchange":
        site = _exchange_at(w, rotation("p_len", "sign"))
    elif kind in ("flype+", "flype-"):
        site = _flype_at(w, rotation("p", "r", "q"))
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    if site is None or site.move() != (kind, params):
        raise ValueError(f"recorded {kind} does not apply")
    return site.apply(w)


def replay(seq: MoveSequence) -> BraidWord:
    """Re-run every step, checking each recorded result letter for letter."""
    w = seq.initial
    for step in seq.steps:
        got = apply_move(w, step.kind, step.params)
        if got != step.result:
            raise ValueError(f"step {step.kind} does not reproduce its recorded result")
        w = got
    return w


def sequence_to_json(seq: MoveSequence) -> dict:
    return {
        "initial": word_to_json(seq.initial),
        "steps": [
            {"move": s.kind, "params": s.params, "result_word": word_to_json(s.result)}
            for s in seq.steps
        ],
    }


def sequence_from_json(obj: dict) -> MoveSequence:
    """Inverse of :func:`sequence_to_json`; a missing or ill-typed field is a ValueError."""
    initial = word_from_json(json_field(obj, "initial", dict, "move sequence"))
    steps = []
    for k, s in enumerate(json_field(obj, "steps", list, "move sequence")):
        where = f"step {k}"
        steps.append(
            MoveStep(
                json_field(s, "move", str, where),
                dict(json_field(s, "params", dict, where)),
                word_from_json(json_field(s, "result_word", dict, where)),
            )
        )
    return MoveSequence(initial, tuple(steps))


# ---------------------------------------------------------------------------
# Exchange-move winding


# Most block words V a winding call tries per sign, summed over its steps
# (criterion 10 needs 4 steps × 85 blocks = 340).
MAX_WINDING_BLOCK_WORDS = 10_000


def _block_words(n: int, max_len: int):
    """All words on n strands of length ≤ max_len, by (length, letters)."""
    alphabet = [i for i in range(1 - n, n) if i != 0]
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield BraidWord(n, tup)


def winding_iterates(P: BraidWord, Q: BraidWord, k: int) -> list[BraidWord]:
    """Wind w₀ = P·σₙ₋₁·Q·σₙ₋₁⁻¹ through k exchange moves, preferring new
    conjugacy classes.

    A single exchange toggle is an involution up to conjugacy, so iterating
    it at the word level only alternates between at most two classes.  The
    winding pictures instead re-braid the moving block each time it passes
    the axis strand.  Here each step searches the representations
    P·σₙ₋₁^s·V·σₙ₋₁^{−s} of the current conjugacy class, with V ranging
    over words on n−1 strands no longer than the longer of P and Q (at
    least 1), and applies the exchange whose result leaves every class seen
    so far; when no fresh class is exposed it falls back to a plain toggle.
    Each step is a conjugation followed by one exchange move, so every
    iterate closes to the same link.  When max(k, 1) times the blocks V per
    sign exceeds :data:`MAX_WINDING_BLOCK_WORDS`, :class:`ResourceLimitError`
    is raised before any step is taken.
    """
    if P.n != Q.n:
        raise ValueError("P and Q must live in the same braid group")
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    n = P.n + 1
    top = n - 1
    vmax = max(len(P), len(Q), 1)
    steps = max(k, 1)
    blocks, layer = 0, 1
    for _ in range(vmax + 1):
        blocks, layer = blocks + layer, layer * (2 * P.n - 2)
        if steps * blocks > MAX_WINDING_BLOCK_WORDS:
            raise ResourceLimitError(
                f"{steps} winding step(s) over blocks of up to {vmax} letters on {P.n} strands "
                f"try more than {MAX_WINDING_BLOCK_WORDS} block words (MAX_WINDING_BLOCK_WORDS)"
            )
    w0 = BraidWord(n, free_reduce(P.letters + (top,) + Q.letters + (-top,)))
    out = [w0]
    if not w0.letters:
        return out + [w0] * k
    seen_keys = {garside.super_summit_set(w0)}
    for _ in range(k):
        cur = out[-1]
        cur_key = garside.super_summit_set(cur)
        chosen = None
        fallback = None
        for s in (1, -1):
            for v in _block_words(n - 1, vmax):
                site = BraidWord(
                    n, free_reduce(P.letters + (s * top,) + v.letters + (-s * top,))
                )
                if garside.super_summit_set(site) != cur_key:
                    continue
                toggled = BraidWord(
                    n, free_reduce(P.letters + (-s * top,) + v.letters + (s * top,))
                )
                tk = garside.super_summit_set(toggled)
                if tk not in seen_keys:
                    chosen = (toggled, tk)
                    break
                if fallback is None and tk != cur_key:
                    fallback = toggled
            if chosen:
                break
        if chosen:
            out.append(chosen[0])
            seen_keys.add(chosen[1])
        else:
            out.append(fallback if fallback is not None else cur)
    return out
