"""
Garside left normal form and super summit sets for the braid groups.

Braid isotopy classes of closed n-braids are exactly conjugacy classes in
Bₙ, so deciding "same closed braid up to isotopy" means deciding conjugacy.
Every element has a unique left normal form Δᵏ·A₁⋯A_l where Δ is the half
twist and the Aᵢ are permutation braids (positive braids in which every
pair of strands crosses at most once) with each consecutive pair left
weighted.  The super summit set of an element — its conjugates of maximal
infimum k and minimal canonical length l — is a finite, computable,
complete conjugacy invariant: two elements are conjugate iff their super
summit sets coincide.  It is built from one summit element by conjugating
each member x only by its minimal simple elements ρ_x(σᵢ), the least
permutation braids above each generator that keep x in the set — at most
n−1 per member rather than all n!−1 permutation braids (Franco &
González-Meneses, J. Algebra 266, 2003).  Conjugation by Δ maps the set to
itself and carries the minimal simple elements of x to those of its twin
Δ⁻¹xΔ, so of each such pair of members only the one reached first is
expanded; the other maps its conjugates over through τ.  A conjugacy
decision closes the set only until it reaches the other element's summit.

Canonical factors are represented by their permutations, never by words;
left-weightedness and lattice meets are tested on inversion sets.  The
convention for a permutation braid's permutation: the strand starting at
position i ends at position p(i), and σᵢ is a left divisor of A exactly
when p(i) > p(i+1).

A canonical factor is its permutation's image tuple everywhere: in the
lattice helpers, in ``NormalForm.factors`` and so in the keys of the key
cache.  The outermost lattice steps (renormalizing a factor pair, a
least-completion step, join, right complement, τ) are memo tables keyed by
permutation, and the identity and Δ permutations are tables keyed by the
strand count, each bounded by ``_TABLE_SIZE`` entries; no answer depends on
what they hold.  One more table of that size, ``_word_summit``, maps a word
to the summit element that cycling and decycling reach from its normal
form, and to the simple factors conjugating the word there: keys and both
forms of ``are_conjugate`` summit words only through it, and a repeat skips
all three steps.  It stores summit elements and conjugators, never keys, so
the key cache and its cap behave as without it.  Cycling trajectories,
summit closures and the key cache key normal forms by value and serialize
only what they hand out.

Conjugators stay simple elements: a cycling or decycling step yields the
signed simple factor it conjugates by, and a summit closure records each
member's parent and the simple element s leading from it.  Words are built
only for a witness of ``are_conjugate`` and for ``NormalForm.as_word``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .words import BraidWord, ResourceLimitError, _require_same_strands, _word, exponent_sum, free_reduce

# A permutation is the tuple of 1-based images of 1 … n.
Perm = tuple[int, ...]
# A signed simple factor: (p, 1) is the permutation braid of p, (p, -1) its inverse.
Factor = tuple[Perm, int]

# Entries per lattice table.  Every argument pair of B2–B4 fits
# (24² + 6² + 2² = 616); past the bound the least recently used entry goes.
_TABLE_SIZE = 4096

# Most members a super summit set may have; read at call time.
MAX_SUMMIT_SET = 10_000
# Most units n²·(L+1)·(L+n) a left normal form may take for L letters on n
# strands, checked before any factor is built: 100 random letters on B50 are
# 3.8·10⁷ units (0.4 s with Python 3.11 on a 2-CPU Xeon), 4 000 random B3
# letters 1.4·10⁸ (1.7 s), and 100 random letters on B100 2.0·10⁸ (2 s).
MAX_NORMAL_FORM_WORK = 200_000_000


class SuperSummitCapError(ResourceLimitError):
    """The super summit set has more than :data:`MAX_SUMMIT_SET` members."""


@lru_cache(maxsize=_TABLE_SIZE)
def _identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


@lru_cache(maxsize=_TABLE_SIZE)
def _delta_perm(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def _compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[v - 1] for v in p)


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


@lru_cache(maxsize=_TABLE_SIZE)
def _tau(p: Perm) -> Perm:
    """Conjugation by Δ: i ↦ n+1 − p(n+1−i)."""
    n = len(p)
    return tuple(n + 1 - p[n - i] for i in range(1, n + 1))


def _divide_left(p: Perm, i: int) -> Perm:
    """The permutation of σᵢ⁻¹·A if σᵢ left-divides A, else of σᵢ·A: entries i, i+1 swapped."""
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def _meet(u: Perm, v: Perm) -> Perm:
    """Greatest common left divisor of two permutation braids.

    Greedy extraction is exact here: any σᵢ dividing both residuals divides
    the meet, and dividing it out reduces to the meet of the residuals.  The
    loop leaves u as the residual m⁻¹·start of the meet m, so m = start·u⁻¹.
    """
    start = u
    changed = True
    while changed:
        changed = False
        for i in range(1, len(u)):
            if u[i - 1] > u[i] and v[i - 1] > v[i]:
                u = _divide_left(u, i)
                v = _divide_left(v, i)
                changed = True
    return _compose(start, _inverse(u))


@lru_cache(maxsize=_TABLE_SIZE)
def _right_complement(p: Perm) -> Perm:
    """The permutation braid X with p·X = Δ."""
    return _compose(_inverse(p), _delta_perm(len(p)))


def _perm_word(p: Perm) -> tuple[int, ...]:
    """A positive word for the permutation braid of p (length = inversions)."""
    p = list(p)
    out = []
    n = len(p)
    done = False
    while not done:
        done = True
        for i in range(1, n):
            if p[i - 1] > p[i]:
                out.append(i)
                p[i - 1], p[i] = p[i], p[i - 1]
                done = False
                break
    return tuple(out)


def _factors_word(n: int, factors: list[Factor]) -> BraidWord:
    """The freely reduced word of a product of signed simple factors."""
    letters: list[int] = []
    for p, sign in factors:
        word = _perm_word(p)
        letters.extend(word if sign > 0 else (-x for x in reversed(word)))
    return _word(n, free_reduce(letters))


class NormalForm(NamedTuple):
    """Left normal form Δᵏ·A₁⋯A_l with left-weighted permutation-braid factors.

    A tuple ``(n, delta_power, factors)``, so that building, hashing and
    comparing one runs in C: the search hashes summit elements for every
    neighbour it meets.
    """

    n: int
    delta_power: int
    factors: tuple[Perm, ...]

    @property
    def inf(self) -> int:
        return self.delta_power

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def serialize(self) -> str:
        """Stable text form ``D^k | p1 | p2 | ...`` (one-line factor permutations)."""
        if not self.factors:
            return f"D^{self.delta_power} |"
        text = " | ".join(" ".join(map(str, f)) for f in self.factors)
        return f"D^{self.delta_power} | {text}"

    def as_word(self) -> BraidWord:
        """A word representing the same group element."""
        k = self.delta_power
        delta = [(_delta_perm(self.n), 1 if k >= 0 else -1)] * abs(k)
        return _factors_word(self.n, delta + [(f, 1) for f in self.factors])


class ConjugacyKey(NamedTuple):
    """The full super summit set, as the normal-form serializations of its members.

    Members share inf and canonical length, and the entries are ordered by
    the members' factor tuples (image tuples compared as integers); that is
    also string order below 10 strands, but not from B10 on, where an image
    10 sorts after 9.

    Equal for conjugate inputs, unequal otherwise; safe to use as a
    dictionary key in the move-graph search.
    """

    n: int
    entries: tuple[str, ...]

    def __str__(self) -> str:
        return f"B{self.n}{{" + " ; ".join(self.entries) + "}"


@lru_cache(maxsize=_TABLE_SIZE)
def _renorm_pair(a: Perm, b: Perm) -> tuple[Perm, Perm] | None:
    """Move the largest left-divisor of b absorbable by a; None when weighted."""
    c = _meet(_right_complement(a), b)
    if c == _identity(len(a)):
        return None
    return _compose(a, c), _compose(_inverse(c), b)


def _normalize(n: int, k: int, factors: list[Perm]) -> NormalForm:
    """The normal form of Δᵏ times a factor sequence: left-weight it, absorbing
    Δ's and dropping identities.

    One forward pass with backward combing suffices: after position i is
    processed, the prefix is left-weighted; Δ factors bubble to the front
    (a·Δ renormalizes to Δ·τ(a)) and identity factors to the back, where
    they are stripped.
    """
    ident = _identity(n)
    delta = _delta_perm(n)
    factors = [f for f in factors if f != ident]
    for i in range(len(factors) - 1):
        moved = _renorm_pair(factors[i], factors[i + 1])
        if moved is None:
            continue
        factors[i], factors[i + 1] = moved
        for j in range(i - 1, -1, -1):
            moved = _renorm_pair(factors[j], factors[j + 1])
            if moved is None:
                break
            factors[j], factors[j + 1] = moved
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == delta:
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    return NormalForm(n, k + lo, tuple(factors[lo:hi]))


def left_normal_form(w: BraidWord) -> NormalForm:
    """The unique left-weighted form Δᵏ·A₁⋯A_l equal to w as a group element.

    Past :data:`MAX_NORMAL_FORM_WORK` units of n²·(L+1)·(L+n) it raises
    :class:`ResourceLimitError` before any factor is built.
    """
    n, L = w.n, len(w.letters)
    if n * n * (L + 1) * (L + n) > MAX_NORMAL_FORM_WORK:
        raise ResourceLimitError(
            f"normal form of {L} letters on {n} strands exceeds "
            f"MAX_NORMAL_FORM_WORK = {MAX_NORMAL_FORM_WORK}"
        )
    raw: list[tuple[int, Perm]] = []  # (delta shift, factor permutation)
    delta = _delta_perm(n)
    for x in w.letters:
        t = _divide_left(_identity(n), abs(x))
        if x > 0:
            raw.append((0, t))
        else:
            # σᵢ⁻¹ = Δ⁻¹ · (Δσᵢ⁻¹); the factor's permutation is t ∘ δ read
            # left-to-right, i.e. x ↦ t(δ(x)).
            raw.append((-1, _compose(delta, t)))
    # Push all Δ⁻¹'s to the front: each factor picks up τ once per later shift.
    k = sum(s for s, _ in raw)
    factors: list[Perm] = []
    behind = 0  # negative shifts strictly after the current position
    for s, f in reversed(raw):
        factors.append(f if behind % 2 == 0 else _tau(f))
        behind += -s
    factors.reverse()
    return _normalize(n, k, factors)


def _cycling_step(nf: NormalForm) -> tuple[NormalForm, Factor | None]:
    """Cycling plus the signed simple factor conjugating by it (None when l = 0)."""
    if not nf.factors:
        return nf, None
    a1 = nf.factors[0]
    moved = a1 if nf.delta_power % 2 == 0 else _tau(a1)
    return _normalize(nf.n, nf.delta_power, [*nf.factors[1:], moved]), (moved, 1)


def _decycling_step(nf: NormalForm) -> tuple[NormalForm, Factor | None]:
    """Decycling plus the signed simple factor conjugating by it (None when l = 0)."""
    if not nf.factors:
        return nf, None
    al = nf.factors[-1]
    moved = al if nf.delta_power % 2 == 0 else _tau(al)
    return _normalize(nf.n, nf.delta_power, [moved, *nf.factors[:-1]]), (al, -1)


def cycling(nf: NormalForm) -> NormalForm:
    """Conjugate by the initial factor (moved to the end) and renormalize.

    A form with no factors is returned unchanged.  Iterated cycling never
    decreases the infimum.
    """
    return _cycling_step(nf)[0]


def decycling(nf: NormalForm) -> NormalForm:
    """Conjugate by the inverse of the final factor (moved to the front).

    A form with no factors is returned unchanged.  Iterated decycling never
    increases the supremum.
    """
    return _decycling_step(nf)[0]


def _conjugate_nf(nf: NormalForm, s: Perm) -> NormalForm:
    """Normal form of s⁻¹ · nf · s for a permutation braid s.

    Works at the factor level: s⁻¹ = Δ⁻¹·τ(∂s) with ∂s the right
    complement, so s⁻¹·Δᵏ·A₁⋯A_l·s = Δ^{k−1}·τ^{k+1}(∂s)·A₁⋯A_l·s.
    """
    k = nf.delta_power
    rc = _right_complement(s)
    lead = _tau(rc) if (k + 1) % 2 else rc
    return _normalize(nf.n, k - 1, [lead, *nf.factors, s])


def _summit(nf: NormalForm) -> tuple[NormalForm, list[Factor]]:
    """Cycle, then decycle, to an element of maximal inf and minimal canonical length.

    Returns the summit element and the signed simple factors whose product
    g has g⁻¹·nf·g equal to it.  Each phase follows its trajectory until it
    revisits a form without improving the pair (inf, −length).  Iterated
    cycling reaches the maximal infimum of the class (Elrifai & Morton,
    Quart. J. Math. 45, 1994), and iterated decycling then reaches the
    minimal supremum without lowering the infimum (Birman, Ko & Lee,
    Adv. Math. 139, 1998), so one pass of each lands in the super summit set.
    """
    cur, conj = nf, []

    def level(f: NormalForm):
        return (f.inf, -f.canonical_length)

    for phase in (_cycling_step, _decycling_step):
        seen = {cur}
        probe, pending = cur, []
        while True:
            probe, mover = phase(probe)
            if mover is None:
                break
            pending.append(mover)
            if level(probe) > level(cur):
                cur = probe
                conj += pending
                pending = []
                seen = {cur}
                continue
            if probe in seen:
                break
            seen.add(probe)
    return cur, conj


@lru_cache(maxsize=_TABLE_SIZE)
def _word_summit(w: BraidWord) -> tuple[NormalForm, tuple[Factor, ...]]:
    """The summit element :func:`_summit` reaches from w's left normal form,
    and the signed simple factors of its conjugator."""
    summit, conj = _summit(left_normal_form(w))
    return summit, tuple(conj)


@lru_cache(maxsize=_TABLE_SIZE)
def _join(s: Perm, t: Perm) -> Perm:
    """Least common right multiple s ∨ t of two permutation braids.

    s ≼ t exactly when ∂t right-divides ∂s, so s ∨ t = ∂⁻¹(∂s ∧_R ∂t).  A
    right meet is the meet of the reversed braids, whose permutations are
    the inverses; the inverse of ∂s's permutation is δ then s, and
    ∂⁻¹(m) = Δ·m⁻¹, which folds the outer inverse away.
    """
    delta = _delta_perm(len(s))
    return _compose(delta, _meet(_compose(delta, s), _compose(delta, t)))


@lru_cache(maxsize=_TABLE_SIZE)
def _completion_step(x: Perm, a: Perm) -> Perm:
    """The least u with a ≼ x·u: x⁻¹·(x ∨ a), simple whenever a is."""
    return _compose(_inverse(x), _join(x, a))


def _least_completion(p: int, factors: list[Perm], s: Perm) -> Perm:
    """The least simple u with τᵖ(s) ≼ x₁⋯x_r·u, one factor at a time.

    Once the completion is trivial it stays trivial.
    """
    a = _tau(s) if p % 2 else s
    ident = _identity(len(s))
    for x in factors:
        if a == ident:
            break
        a = _completion_step(x, a)
    return a


def _minimal_simples(nf: NormalForm) -> list[Perm]:
    """The minimal simple elements ρ_x(σ₁), …, ρ_x(σₙ₋₁) of x ∈ SSS, repeats kept.

    ρ_x(a) is the least simple s ≽ a with x^s in the super summit set.  With
    x = Δᵖ·x₁⋯x_r, inf(x^s) ≥ p exactly when τᵖ(s) ≼ x₁⋯x_r·s, and
    sup(x^s) ≤ p + r is the same condition for x⁻¹ = Δ^{−p−r}·z₁⋯z_r,
    z_i = τ^{p+r−i+1}(∂x_{r+1−i}).  Each least completion must divide any
    valid conjugator above s, so joining them into s until nothing changes
    reaches ρ_x(a) and nothing larger.  The list is indexed by generator,
    so that τ(x)'s list is this one reversed and mapped through τ.
    """
    n, p = nf.n, nf.delta_power
    xs = nf.factors
    r = len(xs)
    zs = []
    for i in range(1, r + 1):
        rc = _right_complement(xs[r - i])
        zs.append(_tau(rc) if (p + r - i + 1) % 2 else rc)
    found: list[Perm] = []
    for i in range(1, n):
        s = _divide_left(_identity(n), i)
        while True:
            grown = _join(_join(s, _least_completion(p, xs, s)), _least_completion(-p - r, zs, s))
            if grown == s:
                break
            s = grown
        found.append(s)
    return found


def _tau_nf(nf: NormalForm) -> NormalForm:
    """τ(x) = Δ⁻¹·x·Δ, factor by factor: τ is an automorphism of the positive
    monoid, so it keeps every factor simple and every pair left weighted."""
    return NormalForm(nf.n, nf.delta_power, tuple(map(_tau, nf.factors)))


def _expansion(nf: NormalForm) -> list[tuple[Perm, NormalForm]]:
    """The pairs (ρ_x(σᵢ), x^{ρ_x(σᵢ)}) for i = 1…n−1, one conjugation per
    distinct simple element."""
    conjugates: dict[Perm, NormalForm] = {}
    out = []
    for s in _minimal_simples(nf):
        if s not in conjugates:
            conjugates[s] = _conjugate_nf(nf, s)
        out.append((s, conjugates[s]))
    return out


def _summit_closure(start: NormalForm, goal: NormalForm | None = None):
    """Close a super summit element under its minimal simple elements.

    The simple elements s with x^s in the super summit set are closed under
    meets (Franco & González-Meneses, J. Algebra 266, 2003), so every such
    s is a product of minimal ones ρ_x(σᵢ), each step staying in the set:
    conjugating each member by its at most n−1 distinct ρ_x(σᵢ), breadth
    first, reaches the whole set.

    Conjugation by Δ maps the set to itself, and ρ_{τx}(σᵢ) = τ(ρ_x(σₙ₋ᵢ)),
    so (τx)^{ρ_{τx}(σᵢ)} = τ(x^{ρ_x(σₙ₋ᵢ)}).  A member whose twin τ(x) was
    expanded first takes its pairs from the twin's, reversed and mapped
    through τ, in place of n−1 completions and normal forms.  An expansion
    is kept only until its twin takes it, and none for a member with
    τ(x) = x.  Members, their order and their parents are those of the
    plain breadth-first closure.

    Returns a dict member -> (parent, s) with member = s⁻¹·parent·s, and
    (None, None) for start.  With a goal, it returns as soon as goal is
    recorded: a prefix of the full dict, ending at goal.  Raises
    :class:`SuperSummitCapError` once the set has more than
    :data:`MAX_SUMMIT_SET` members, before a goal among them is checked.
    """
    members: dict[NormalForm, tuple[NormalForm | None, Perm | None]] = {start: (None, None)}
    if start == goal:
        return members
    waiting: dict[NormalForm, list[tuple[Perm, NormalForm]]] = {}  # expanded, twin not yet
    frontier = [start]
    while frontier:
        new_frontier = []
        for nf in frontier:
            twin = _tau_nf(nf)
            if twin in waiting:
                steps = [(_tau(s), _tau_nf(c)) for s, c in reversed(waiting.pop(twin))]
            else:
                steps = _expansion(nf)
                if twin != nf:
                    waiting[nf] = steps
            for s, cand in steps:
                if cand in members:
                    continue
                members[cand] = (nf, s)
                new_frontier.append(cand)
                if len(members) > MAX_SUMMIT_SET:
                    raise SuperSummitCapError(
                        f"super summit set exceeds {MAX_SUMMIT_SET} members (MAX_SUMMIT_SET)"
                    )
                if cand == goal:
                    return members
        frontier = new_frontier
    return members


# Cache: each super summit element -> ConjugacyKey of its class.  A class
# enters only after closing within MAX_SUMMIT_SET members, so no key exceeds it.
_key_cache: dict[NormalForm, ConjugacyKey] = {}


def super_summit_set(w: BraidWord) -> ConjugacyKey:
    """The complete super summit set of w, as a deterministic sorted key."""
    summit = _word_summit(w)[0]
    cached = _key_cache.get(summit)
    if cached is not None:
        return cached
    members = _summit_closure(summit)
    # members share inf and canonical length, so their factors order them
    ordered = sorted(members, key=lambda nf: nf.factors)
    key = ConjugacyKey(w.n, tuple(nf.serialize() for nf in ordered))
    for nf in members:
        _key_cache[nf] = key
    return key


def are_conjugate(u: BraidWord, v: BraidWord, want_witness: bool = False):
    """Decide conjugacy in Bₙ via super summit sets.

    Returns a bool, or with ``want_witness`` a pair ``(bool, g)`` where the
    witness g (a :class:`BraidWord`, possibly empty) satisfies g⁻¹·u·g = v as
    group elements whenever the answer is True.

    Both forms take the same steps.  Unequal exponent sums or summit levels
    (inf, canonical length) answer False with no closure; otherwise u's
    super summit set is closed breadth first until v's summit element is
    recorded, and a witness read from that closure.  So a conjugate pair
    answers True when v's summit element is among the first
    :data:`MAX_SUMMIT_SET` members, however large the set; a False answer
    closes the whole set and past the cap raises :class:`SuperSummitCapError`.
    """
    _require_same_strands(u, v)
    no = (False, None) if want_witness else False
    if exponent_sum(u) != exponent_sum(v):
        return no
    su, gu = _word_summit(u)
    sv, gv = _word_summit(v)
    if (su.inf, su.canonical_length) != (sv.inf, sv.canonical_length):
        return no
    members = _summit_closure(su, sv)
    if sv not in members:
        return no
    if not want_witness:
        return True
    # g = gu · (the closure steps from su to sv) · gv⁻¹
    path = []
    parent, s = members[sv]
    while parent is not None:
        path.append((s, 1))
        parent, s = members[parent]
    factors = [*gu, *path[::-1], *((p, -sign) for p, sign in reversed(gv))]
    return True, _factors_word(u.n, factors)
