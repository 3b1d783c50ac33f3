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
González-Meneses, J. Algebra 266, 2003).

Canonical factors are represented by their permutations, never by words;
left-weightedness and lattice meets are tested on inversion sets.  The
convention for a permutation braid's permutation: the strand starting at
position i ends at position p(i), and σᵢ is a left divisor of A exactly
when p(i) > p(i+1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, Permutation, exponent_sum, free_reduce, invert, multiply

# Permutations are handled as raw 1-based image tuples in the hot helpers.
Perm = tuple[int, ...]


class SuperSummitCapError(RuntimeError):
    """The super summit set grew past the configured bound."""


def _identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


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


def _tau(p: Perm) -> Perm:
    """Conjugation by Δ: i ↦ n+1 − p(n+1−i)."""
    n = len(p)
    return tuple(n + 1 - p[n - i] for i in range(1, n + 1))


def _divide_left(p: Perm, i: int) -> Perm:
    """The permutation of σᵢ⁻¹·A when σᵢ left-divides A (swap entries i, i+1)."""
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def _meet(u: Perm, v: Perm) -> Perm:
    """Greatest common left divisor of two permutation braids.

    Greedy extraction is exact here: any σᵢ dividing both residuals divides
    the meet, and dividing it out reduces to the meet of the residuals.
    """
    n = len(u)
    letters = []
    changed = True
    while changed:
        changed = False
        for i in range(1, n):
            if u[i - 1] > u[i] and v[i - 1] > v[i]:
                letters.append(i)
                u = _divide_left(u, i)
                v = _divide_left(v, i)
                changed = True
    m = _identity(n)
    for i in reversed(letters):
        q = list(m)
        q[i - 1], q[i] = q[i], q[i - 1]
        m = tuple(q)
    return m


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


def _delta_word(n: int) -> tuple[int, ...]:
    out = []
    for k in range(1, n):
        out.extend(range(k, 0, -1))
    return tuple(out)


@dataclass(frozen=True)
class PermutationBraid:
    """A positive braid in which each pair of strands crosses at most once."""

    permutation: Permutation

    @property
    def n(self) -> int:
        return self.permutation.n

    def word(self) -> BraidWord:
        return BraidWord(self.n, _perm_word(self.permutation.images))

    def crossings(self) -> int:
        p = self.permutation.images
        return sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])


@dataclass(frozen=True)
class NormalForm:
    """Left normal form Δᵏ·A₁⋯A_l with left-weighted permutation-braid factors."""

    n: int
    delta_power: int
    factors: tuple[Permutation, ...]

    @property
    def inf(self) -> int:
        return self.delta_power

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def sup(self) -> int:
        return self.delta_power + len(self.factors)

    def serialize(self) -> str:
        """Stable text form ``D^k | p1 | p2 | ...`` (one-line factor permutations)."""
        if not self.factors:
            return f"D^{self.delta_power} |"
        return f"D^{self.delta_power} | " + " | ".join(f.one_line() for f in self.factors)

    def sort_key(self):
        return (self.delta_power, len(self.factors), tuple(f.images for f in self.factors))

    def as_word(self) -> BraidWord:
        """A word representing the same group element."""
        letters: list[int] = []
        dw = _delta_word(self.n)
        if self.delta_power >= 0:
            letters.extend(dw * self.delta_power)
        else:
            letters.extend(tuple(-x for x in reversed(dw)) * (-self.delta_power))
        for f in self.factors:
            letters.extend(_perm_word(f.images))
        return BraidWord(self.n, free_reduce(letters))


@dataclass(frozen=True)
class ConjugacyKey:
    """The full super summit set, as a sorted tuple of normal-form serializations.

    Equal for conjugate inputs, unequal otherwise; safe to use as a
    dictionary key in the move-graph search.
    """

    n: int
    entries: tuple[str, ...]

    def __str__(self) -> str:
        return f"B{self.n}{{" + " ; ".join(self.entries) + "}"


def _renorm_pair(a: Perm, b: Perm, ident: Perm) -> tuple[Perm, Perm] | None:
    """Move the largest left-divisor of b absorbable by a; None when weighted."""
    c = _meet(_right_complement(a), b)
    if c == ident:
        return None
    return _compose(a, c), _compose(_inverse(c), b)


def _normalize(n: int, k: int, factors: list[Perm]) -> tuple[int, tuple[Perm, ...]]:
    """Left-weight a factor sequence, absorbing Δ's and dropping identities.

    One forward pass with backward combing suffices: after position i is
    processed, the prefix is left-weighted; Δ factors bubble to the front
    (a·Δ renormalizes to Δ·τ(a)) and identity factors to the back, where
    they are stripped.
    """
    ident = _identity(n)
    delta = _delta_perm(n)
    factors = [f for f in factors if f != ident]
    for i in range(len(factors) - 1):
        moved = _renorm_pair(factors[i], factors[i + 1], ident)
        if moved is None:
            continue
        factors[i], factors[i + 1] = moved
        for j in range(i - 1, -1, -1):
            moved = _renorm_pair(factors[j], factors[j + 1], ident)
            if moved is None:
                break
            factors[j], factors[j + 1] = moved
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == delta:
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    return k + lo, tuple(factors[lo:hi])


def left_normal_form(w: BraidWord) -> NormalForm:
    """The unique left-weighted form Δᵏ·A₁⋯A_l equal to w as a group element."""
    n = w.n
    raw: list[tuple[int, Perm]] = []  # (delta shift, factor permutation)
    delta = _delta_perm(n)
    for x in w.letters:
        i = abs(x)
        t = list(range(1, n + 1))
        t[i - 1], t[i] = t[i], t[i - 1]
        t = tuple(t)
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
    k2, weighted = _normalize(n, k, factors)
    return NormalForm(n, k2, tuple(Permutation(f) for f in weighted))


def _renormalize(nf_n: int, k: int, factors: list[Perm]) -> NormalForm:
    k2, weighted = _normalize(nf_n, k, factors)
    return NormalForm(nf_n, k2, tuple(Permutation(f) for f in weighted))


def _cycling_step(nf: NormalForm) -> tuple[NormalForm, BraidWord | None]:
    """Cycling plus the conjugator word realizing it (None when l = 0)."""
    if not nf.factors:
        return nf, None
    a1 = nf.factors[0].images
    moved = a1 if nf.delta_power % 2 == 0 else _tau(a1)
    rest = [f.images for f in nf.factors[1:]] + [moved]
    return _renormalize(nf.n, nf.delta_power, rest), BraidWord(nf.n, _perm_word(moved))


def _decycling_step(nf: NormalForm) -> tuple[NormalForm, BraidWord | None]:
    """Decycling plus the conjugator word realizing it (None when l = 0)."""
    if not nf.factors:
        return nf, None
    al = nf.factors[-1].images
    moved = al if nf.delta_power % 2 == 0 else _tau(al)
    rest = [moved] + [f.images for f in nf.factors[:-1]]
    conj = BraidWord(nf.n, tuple(-x for x in reversed(_perm_word(al))))
    return _renormalize(nf.n, nf.delta_power, rest), conj


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
    factors = [lead] + [f.images for f in nf.factors] + [s]
    return _renormalize(nf.n, k - 1, factors)


def _summit(nf: NormalForm, track: bool) -> tuple[NormalForm, BraidWord]:
    """Cycle/decycle to an element of maximal inf and minimal canonical length.

    Returns the summit element and (when tracked) a conjugator g with
    g⁻¹·nf·g equal to it.  Both cycling and decycling renormalize products
    of positive factors, so neither can decrease the infimum; each phase
    follows its trajectory until it revisits a form without improving the
    pair (inf, -length), which by the summit-reachability of iterated
    cycling/decycling means the optimum for that phase was reached.
    """
    n = nf.n
    cur, conj = nf, BraidWord(n)

    def level(f: NormalForm):
        return (f.inf, -f.canonical_length)

    improved = True
    while improved:
        improved = False
        for phase in (_cycling_step, _decycling_step):
            seen = {cur.serialize()}
            probe, pending = cur, BraidWord(n)
            while True:
                nxt, mover = phase(probe)
                if mover is None:
                    break
                if track:
                    pending = BraidWord(n, free_reduce(pending.letters + mover.letters))
                probe = nxt
                if level(probe) > level(cur):
                    cur = probe
                    if track:
                        conj = BraidWord(n, free_reduce(conj.letters + pending.letters))
                    pending = BraidWord(n)
                    seen = {cur.serialize()}
                    improved = True
                    continue
                key = probe.serialize()
                if key in seen:
                    break
                seen.add(key)
    return cur, conj


DEFAULT_SSS_CAP = 10_000


def _join(s: Perm, t: Perm) -> Perm:
    """Least common right multiple s ∨ t of two permutation braids.

    s ≼ t exactly when ∂t right-divides ∂s, so s ∨ t = ∂⁻¹(∂s ∧_R ∂t).  A
    right meet is the meet of the reversed braids, whose permutations are
    the inverses; the inverse of ∂s's permutation is δ then s, and
    ∂⁻¹(m) = Δ·m⁻¹, which folds the outer inverse away.
    """
    delta = _delta_perm(len(s))
    return _compose(delta, _meet(_compose(delta, s), _compose(delta, t)))


def _least_completion(p: int, factors: list[Perm], s: Perm) -> Perm:
    """The least simple u with τᵖ(s) ≼ x₁⋯x_r·u, one factor at a time.

    The least u with a ≼ x·u is x⁻¹·(x ∨ a), and it is simple whenever a is;
    once it is trivial it stays trivial.
    """
    a = _tau(s) if p % 2 else s
    ident = _identity(len(s))
    for x in factors:
        if a == ident:
            break
        a = _compose(_inverse(x), _join(x, a))
    return a


def _minimal_simples(nf: NormalForm) -> list[Perm]:
    """The distinct minimal simple elements ρ_x(σᵢ), i = 1…n−1, of x ∈ SSS.

    ρ_x(a) is the least simple s ≽ a with x^s in the super summit set.  With
    x = Δᵖ·x₁⋯x_r, inf(x^s) ≥ p exactly when τᵖ(s) ≼ x₁⋯x_r·s, and
    sup(x^s) ≤ p + r is the same condition for x⁻¹ = Δ^{−p−r}·z₁⋯z_r,
    z_i = τ^{p+r−i+1}(∂x_{r+1−i}).  Each least completion must divide any
    valid conjugator above s, so joining them into s until nothing changes
    reaches ρ_x(a) and nothing larger.
    """
    n, p = nf.n, nf.delta_power
    xs = [f.images for f in nf.factors]
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
        if s not in found:
            found.append(s)
    return found


def _summit_closure(start: NormalForm, cap: int, track: bool):
    """Close a super summit element under its minimal simple elements.

    The simple elements s with x^s in the super summit set are closed under
    meets (Franco & González-Meneses, J. Algebra 266, 2003), so every such
    s is a product of minimal ones ρ_x(σᵢ), each step staying in the set:
    conjugating each member by its at most n−1 distinct ρ_x(σᵢ) reaches the
    whole set.

    Returns (members dict serialization -> (NormalForm, conjugator word from
    start)).  Raises :class:`SuperSummitCapError` past the cap.
    """
    n = start.n
    empty = BraidWord(n)
    members: dict[str, tuple[NormalForm, BraidWord]] = {start.serialize(): (start, empty)}
    frontier = [start.serialize()]
    while frontier:
        new_frontier = []
        for key in frontier:
            nf, path = members[key]
            for s in _minimal_simples(nf):
                cand = _conjugate_nf(nf, s)
                ck = cand.serialize()
                if ck in members:
                    continue
                if track:
                    step = BraidWord(n, free_reduce(path.letters + _perm_word(s)))
                else:
                    step = empty
                members[ck] = (cand, step)
                new_frontier.append(ck)
                if len(members) > cap:
                    raise SuperSummitCapError(
                        f"super summit set exceeds cap of {cap} elements"
                    )
        frontier = new_frontier
    return members


# Cache: normal-form serialization of a summit element -> ConjugacyKey of its class.
_key_cache: dict[tuple[int, str], ConjugacyKey] = {}


def super_summit_set(w: BraidWord, cap: int = DEFAULT_SSS_CAP) -> ConjugacyKey:
    """The complete super summit set of w, as a deterministic sorted key."""
    summit, _ = _summit(left_normal_form(w), track=False)
    cached = _key_cache.get((w.n, summit.serialize()))
    if cached is not None:
        return cached
    members = _summit_closure(summit, cap, track=False)
    ordered = sorted((nf for nf, _ in members.values()), key=NormalForm.sort_key)
    key = ConjugacyKey(w.n, tuple(nf.serialize() for nf in ordered))
    for serial in members:
        _key_cache[(w.n, serial)] = key
    return key


def are_conjugate(
    u: BraidWord,
    v: BraidWord,
    want_witness: bool = False,
    cap: int = DEFAULT_SSS_CAP,
):
    """Decide conjugacy in Bₙ via super summit sets.

    Returns a bool, or with ``want_witness`` a pair ``(bool, g)`` where the
    witness g (a :class:`BraidWord`, possibly empty) satisfies g⁻¹·u·g = v as
    group elements whenever the answer is True.
    """
    if u.n != v.n:
        raise ValueError(f"strand-count mismatch: {u.n} vs {v.n}")
    if exponent_sum(u) != exponent_sum(v):
        return (False, None) if want_witness else False
    if not want_witness:
        # v is conjugate to u exactly when v's summit element lies in u's
        # super summit set.  A serialization spells out (inf, canonical
        # length), so an element of another level is never among the entries.
        u_key = super_summit_set(u, cap)
        sv, _ = _summit(left_normal_form(v), track=False)
        return sv.serialize() in u_key.entries

    su, gu = _summit(left_normal_form(u), track=True)
    sv, gv = _summit(left_normal_form(v), track=True)
    if (su.inf, su.canonical_length) != (sv.inf, sv.canonical_length):
        return False, None
    members = _summit_closure(su, cap, track=True)
    hit = members.get(sv.serialize())
    if hit is None:
        return False, None
    _, h = hit
    g = multiply(multiply(gu, h), invert(gv))
    return True, g
