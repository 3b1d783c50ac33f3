"""
Braid words and the bookkeeping attached to their closures.

A braid word on n strands is a sequence of letters in the Artin generators
σ₁ … σₙ₋₁.  A letter is stored as a signed index: ``i`` means σᵢ and ``-i``
means σᵢ⁻¹.  Words are kept exactly as written: group operations
(:func:`multiply`, :func:`invert`, :func:`conjugate`) apply free reduction
(cancelling adjacent σᵢ σᵢ⁻¹ pairs) but braid relations are never applied
implicitly, so letter-level crossing attribution stays meaningful.

Strand positions are 1-based and words read left to right as the closed
braid is traversed with increasing angle.  The closure joins position j at
the bottom to position j at the top; its components are the cycles of the
underlying permutation, numbered so that component 1 contains start
position 1.  A permutation is a plain tuple of the images of 1 … n, the
form :mod:`braidkit.garside` uses for its factors.

``BraidWord(n, letters)`` validates its input: the strand count and every
letter, each a plain ``int`` (a boolean is rejected, as the JSON readers
reject it).  Words built from outside input go through it (parsed text,
JSON, replayed move parameters, template block words).  Words whose
letters come from already valid words (the group operations here, the
elementary moves, normal-form words, the search's reduced endpoints) or
are drawn from the alphabet of n strands (:func:`random_word`) are built
by the private :func:`_word`, which trusts its tuple and checks nothing.

Every value record of the library is a :class:`typing.NamedTuple`, so that
building, hashing and comparing one runs in C; a record equals the plain
tuple of its fields.  A record that validates its fields is a subclass of
its field tuple whose constructor calls ``__post_init__`` on the new record.

The library's three base errors are defined here: :class:`BraidSyntaxError`
for bad word text, :class:`ResourceLimitError` for input past a documented
bound, and :class:`InternalConsistencyError` for a failed internal invariant.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class BraidSyntaxError(ValueError):
    """Raised when a braid word string does not conform to the grammar."""


class ResourceLimitError(ValueError):
    """Raised before work whose size would exceed a documented bound."""


class InternalConsistencyError(RuntimeError):
    """A structural invariant of the computation failed (implementation bug)."""


def _not_a_sequence(self, other):
    """``+`` and ``*`` of a record that is not a sequence: not tuple
    concatenation or repetition, but a TypeError."""
    return NotImplemented


# ``_replace`` builds through ``_make``; a validated record routes both
# through its constructor, so a replaced field is checked as a new one is.
_validated_make = classmethod(lambda cls, fields: cls(*fields))


class _BraidWordFields(NamedTuple):
    n: int
    letters: tuple[int, ...] = ()


class BraidWord(_BraidWordFields):
    """A word in the Artin generators of the n-strand braid group.

    ``letters[k] == i`` encodes σᵢ, ``letters[k] == -i`` encodes σᵢ⁻¹, with
    1 ≤ i ≤ n-1.  The empty word is the identity braid.  ``len`` is the
    number of letters.
    """

    __slots__ = ()

    def __new__(cls, n: int, letters=()):
        self = tuple.__new__(cls, (n, tuple(letters)))
        self.__post_init__()
        return self

    def __post_init__(self):
        n = self.n
        if type(n) is not int or n < 1:
            raise ValueError(f"strand count must be a positive integer, got {n!r}")
        for x in self.letters:
            if type(x) is not int or x == 0 or abs(x) >= n:
                raise ValueError(f"letter {x!r} invalid for {n} strands")

    _make = _validated_make
    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"BraidWord({self.n}, {format_word(self)!r})"


class ComponentPartition(NamedTuple):
    """The strand cycles of a closure, with component ids 1 … c.

    Components are ordered by their least start position, so component 1
    always contains start position 1.
    """

    cycles: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]  # component_of[i-1] = component id of start position i

    @property
    def n_components(self) -> int:
        return len(self.cycles)

    def component(self, start_position: int) -> int:
        return self.component_of[start_position - 1]


class CrossingRecord(NamedTuple):
    """One crossing of a word: the two strand start positions that meet, and its sign."""

    strands: tuple[int, int]  # sorted pair of start positions
    sign: int


_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$", re.ASCII)
# A token is a run of anything but ASCII whitespace; other whitespace makes it bad.
_TOKENS = re.compile(r"[^ \t\n\r\f\v]+")

# Most letters a parsed word may expand to; checked before the letters are
# built, so a huge exponent is rejected without allocating it.
MAX_PARSED_LETTERS = 10_000


def parse_braid_word(text: str, n: int) -> BraidWord:
    """Parse a word like ``"s1^5 s2^4 s1^6 s2^-1"`` into a :class:`BraidWord`.

    The grammar is tokens ``s<i>`` or ``s<i>^<k>`` separated by ASCII
    whitespace, with integer k ≠ 0 in ASCII digits; negative k gives inverse
    letters.  No reduction is applied.  A word that would expand to more than
    :data:`MAX_PARSED_LETTERS` letters, an exponent with more digits than
    that bound, or an index with more digits than n, is rejected with
    :class:`BraidSyntaxError`.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"strand count must be a positive integer, got {n!r}")
    letters: list[int] = []
    # A number with more digits than its bound is out of range; rejecting it
    # by length keeps int() off arbitrarily long digit strings.
    index_digits, power_digits = len(str(n)), len(str(MAX_PARSED_LETTERS))
    for tok in _TOKENS.findall(text):
        m = _TOKEN.match(tok)
        if m is None:
            raise BraidSyntaxError(f"bad token {tok!r}: expected s<i> or s<i>^<k>")
        index, power = m.groups()
        if len(index.lstrip("0")) > index_digits:
            raise BraidSyntaxError(f"index of {len(index)} digits invalid for n={n}")
        if power is not None and len(power.lstrip("-0")) > power_digits:
            raise BraidSyntaxError(f"word expands to more than {MAX_PARSED_LETTERS} letters")
        i = int(index)
        k = int(power) if power is not None else 1
        if k == 0:
            raise BraidSyntaxError(f"bad token {tok!r}: exponent must be nonzero")
        if i < 1 or i >= n:
            raise BraidSyntaxError(f"index {i} invalid for n={n}")
        if len(letters) + abs(k) > MAX_PARSED_LETTERS:
            raise BraidSyntaxError(f"word expands to more than {MAX_PARSED_LETTERS} letters")
        letters.extend([i if k > 0 else -i] * abs(k))
    return BraidWord(n, tuple(letters))


def _runs(letters: tuple[int, ...]) -> list[tuple[int, int]]:
    """The maximal runs of equal letters, as (generator, signed length) pairs."""
    runs, start = [], 0
    for j in range(1, len(letters) + 1):
        if j == len(letters) or letters[j] != letters[start]:
            runs.append((abs(letters[start]), j - start if letters[start] > 0 else start - j))
            start = j
    return runs


def format_word(w: BraidWord) -> str:
    """Render a word back into the ``s<i>^<k>`` grammar, one token per run."""
    return " ".join(f"s{i}" if k == 1 else f"s{i}^{k}" for i, k in _runs(w.letters))


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs; invariant under braid relations and conjugation."""
    return sum(1 if x > 0 else -1 for x in w.letters)


def free_reduce(letters) -> tuple[int, ...]:
    """Cancel adjacent σᵢ σᵢ⁻¹ pairs until none remain."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _word(n: int, letters: tuple[int, ...]) -> BraidWord:
    """A :class:`BraidWord` built without validation, from a tuple of letters
    already valid on n strands (taken from valid words)."""
    return tuple.__new__(BraidWord, (n, letters))


def random_word(rng, n: int, max_len: int) -> BraidWord:
    """A random word of at most max_len letters on n strands: rng draws the
    length, then each letter.  On one strand it is empty and draws nothing."""
    if n < 2:
        return BraidWord(n)
    length = rng.randint(0, max_len)
    alphabet = [i for i in range(1 - n, n) if i != 0]
    return _word(n, tuple(rng.choice(alphabet) for _ in range(length)))


def _require_same_strands(u: BraidWord, v: BraidWord) -> None:
    if u.n != v.n:
        raise ValueError(f"strand-count mismatch: {u.n} vs {v.n}")


def multiply(u: BraidWord, v: BraidWord) -> BraidWord:
    """Concatenate two words on the same strand count, freely reduced."""
    _require_same_strands(u, v)
    return _word(u.n, free_reduce(u.letters + v.letters))


def invert(w: BraidWord) -> BraidWord:
    """The letter-reversed, sign-flipped word."""
    return _word(w.n, tuple(-x for x in reversed(w.letters)))


def conjugate(w: BraidWord, g: BraidWord) -> BraidWord:
    """g⁻¹ w g, freely reduced."""
    _require_same_strands(w, g)
    inverse = tuple(-x for x in reversed(g.letters))
    return _word(w.n, free_reduce(inverse + w.letters + g.letters))


def mirror(w: BraidWord) -> BraidWord:
    """Flip the sign of every letter (the mirror-image closure)."""
    return _word(w.n, tuple(-x for x in w.letters))


def rotate(w: BraidWord, k: int) -> BraidWord:
    """Cyclic rotation moving the first k letters to the end (a conjugation)."""
    if not w.letters:
        return w
    k %= len(w.letters)
    return _word(w.n, w.letters[k:] + w.letters[:k])


def underlying_permutation(w: BraidWord) -> tuple[int, ...]:
    """The images of start positions 1 … n under the closure: their end positions."""
    sap = list(range(w.n + 1))  # sap[p] = start position of the strand at position p
    for x in w.letters:
        i = abs(x)
        sap[i], sap[i + 1] = sap[i + 1], sap[i]
    images = [0] * (w.n + 1)
    for p in range(1, w.n + 1):
        images[sap[p]] = p
    return tuple(images[1:])


def closure_components(w: BraidWord) -> ComponentPartition:
    """Cycles of the closure permutation; component 1 contains start position 1."""
    images = underlying_permutation(w)
    comp_of = [0] * w.n
    cycles = []
    for s in range(1, w.n + 1):
        if comp_of[s - 1]:
            continue
        cyc = []
        j = s
        while not comp_of[j - 1]:
            comp_of[j - 1] = len(cycles) + 1
            cyc.append(j)
            j = images[j - 1]
        cycles.append(tuple(sorted(cyc)))
    return ComponentPartition(tuple(cycles), tuple(comp_of))


def crossing_records(w: BraidWord) -> tuple[CrossingRecord, ...]:
    """Attribute each letter to the pair of strand start positions that cross there."""
    sap = list(range(w.n + 1))
    out = []
    for x in w.letters:
        i = abs(x)
        a, b = sap[i], sap[i + 1]
        out.append(CrossingRecord((min(a, b), max(a, b)), 1 if x > 0 else -1))
        sap[i], sap[i + 1] = sap[i + 1], sap[i]
    return tuple(out)


def word_to_json(w: BraidWord) -> dict:
    return {"n": w.n, "letters": list(w.letters)}


def json_field(obj, key: str, kind, where: str):
    """``obj[key]`` if obj is a JSON object holding a ``kind`` there, else a ValueError
    naming the missing or ill-typed field.  A JSON boolean is not an int."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} lacks field {key!r}")
    value = obj[key]
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise ValueError(f"{where} field {key!r} must be of type {kind.__name__}")
    return value


def json_ints(obj, key: str, where: str) -> tuple[int, ...]:
    """The JSON list of integers ``obj[key]`` as a tuple, else a ValueError naming the field."""
    values = json_field(obj, key, list, where)
    if not all(type(x) is int for x in values):
        raise ValueError(f"{where} field {key!r} must be a list of integers")
    return tuple(values)


def word_from_json(obj: dict) -> BraidWord:
    return BraidWord(json_field(obj, "n", int, "word"), json_ints(obj, "letters", "word"))
