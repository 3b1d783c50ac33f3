"""
Exact topological-equality oracles for braid closures.

Two closed braids related by the move templates represent the same link,
so any honest link invariant must agree on the two sides.  This module
provides the invariants used as oracles throughout the test suite and the
template fuzzer:

* the reduced Burau representation over ℤ[t, t⁻¹] and the Alexander
  polynomial of the closure via det(ψ(w) − I) / (1 + t + ⋯ + t^{n−1}),
  bounded by :data:`MAX_ALEXANDER_WORK` before any step (a word missing
  some σᵢ closes to a split link and gives 0 at once).  Both build the
  Burau image one column update per letter, each entry Kronecker-packed
  into one int (evaluated at t = 2^K, K fixed before the product from a
  bound on the coefficients), so a letter is a few shifts and adds per
  row; the entries are read back once into exponent → coefficient tables
  (see :func:`_burau_columns`).  Alexander hands those tables, less 1 on
  the diagonal, straight to the integer determinant
  :func:`braidkit.laurent.table_determinant`, and only
  :func:`burau_reduced` wraps them in a matrix;
* the Kauffman bracket by Kauffman's state model carried through the
  Temperley–Lieb quotient of the braid group: a transfer over the letters
  whose states are the at most min(Catalan(n), 2^L) non-crossing matchings
  of 2n points, so the work is polynomial in the word length, and bounded
  by :data:`MAX_BRACKET_WORK` before any step is taken.  Each state carries
  its polynomial Kronecker-packed into one int (evaluated at A² = 2^K), so
  a letter is a few shifts and adds per state; K is sized from a running
  bound on the states' 1-norm, and when that bound nears 2^{K−1} the
  states are read back to their digits and packed again at the width
  their exact 1-norm needs (see :func:`_bracket_table`);
* the Jones polynomial X = (−A³)^{−writhe}·⟨·⟩ with t = A⁻⁴, returned in
  the variable q = t^{1/2} (so q = A⁻²);
* a seeded fuzzer asserting that both sides of a template close to links
  with equal component counts, Jones, and Alexander polynomials.

:func:`bracket_coeff_table` is the exhaustive 2^L-state sum, the
reference the tests compare the bracket against.
"""

from __future__ import annotations

import random
from math import comb
from typing import NamedTuple

from .laurent import LaurentPolynomial, PolyMatrix, _pack, _read_digits, _width, table_determinant
from .moves import instantiate_template, random_assignment
from .words import BraidWord, InternalConsistencyError, ResourceLimitError, closure_components, exponent_sum

# Most work units min(Catalan(n), 2^L)·(L·(L+1) + n²) a bracket may take for
# L letters on n strands: a 100-letter B8 word is 1.5·10⁷ units, 0.2–0.3 s
# with Python 3.11 on a 2-CPU Xeon, and the empty B4000 word 1.6·10⁷, 0.1 s.
# Words whose coefficients grow take longest: (σ₁σ₂⁻¹)⁹⁰⁰ on B3, 1.6·10⁷, 2.6 s.
MAX_BRACKET_WORK = 20_000_000
MAX_STATE_SUM_LETTERS = 24  # letters of the exhaustive 2^L test oracle
# Most units d²·(d³ + L³), d = n − 1, of Alexander for L letters on n strands:
# B80 s1 … s79 is 6.2·10⁹ (0.35–0.4 s), 300 positive letters on B20 9.8·10⁹
# (10–12 s), with Python 3.11 on a 2-CPU Xeon.  The determinant takes nearly
# all of it: the packed Burau product of either word takes about 0.01 s.
MAX_ALEXANDER_WORK = 10_000_000_000


class CrossingCapExceeded(ResourceLimitError):
    """The bracket of the word would cost more than its documented bound."""


class AlexanderCapExceeded(ResourceLimitError):
    """The Alexander polynomial of the word would cost more than its documented bound."""


def _burau_columns(w: BraidWord) -> list[list[dict[int, int]]]:
    """Columns of the reduced Burau image of w, as exponent → coefficient tables.

    Right multiplication by the image of σᵢ^{±1} changes only column
    j = i − 1, so each letter is one column update: σᵢ gives
    t·col(j−1) − t·col(j) + col(j+1), σᵢ⁻¹ gives col(j−1) − t⁻¹·col(j) +
    t⁻¹·col(j+1), a missing column counting as zero.

    Each entry is one int, its polynomial evaluated at t = 2^K (Kronecker
    substitution), and column c is t^{off[c]} times its d ints.  A letter
    takes the smallest of the three terms' exponents as the new column's
    offset and shifts each term up to it, so the update is three shifts
    and two adds per row, and σᵢ⁻¹ needs no negative shift.  K is fixed
    before the product: if every entry of column c has 1-norm at most
    b[c], the update gives the new column's entries 1-norm at most
    b[j−1] + b[j] + b[j+1], so b starts at 1 and follows the letters, and
    K = 8·:func:`braidkit.laurent._width` (max b) holds every coefficient
    as a balanced base-2^K digit.  The entries are read back once
    (:func:`braidkit.laurent._read_digits`).  Every table is a new dict,
    so the caller may change them.  Past :data:`MAX_ALEXANDER_WORK` it
    raises :class:`AlexanderCapExceeded` before any table.
    """
    d, L = w.n - 1, len(w.letters)
    if d * d * (d**3 + L**3) > MAX_ALEXANDER_WORK:
        raise AlexanderCapExceeded(
            f"Alexander of {L} letters on {w.n} strands exceeds MAX_ALEXANDER_WORK = {MAX_ALEXANDER_WORK}"
        )
    # Column c sits at index c + 1; the zero columns at 0 and d + 1 stand
    # for the missing ones.  Their offset L + 1 puts their term at or above
    # the middle one, so no shift is negative.
    bound = [0] + [1] * d + [0]
    for x in w.letters:
        i = abs(x)
        bound[i] += bound[i - 1] + bound[i + 1]
    width = _width(max(bound))
    k = 8 * width
    zero = [0] * d
    cols = [zero] + [[int(r == c) for r in range(d)] for c in range(d)] + [zero]
    off = [L + 1] + [0] * d + [L + 1]
    for x in w.letters:
        i = abs(x)
        if x > 0:
            left, mid, right = off[i - 1] + 1, off[i] + 1, off[i + 1]
        else:
            left, mid, right = off[i - 1], off[i] - 1, off[i + 1] - 1
        low = left if left < mid else mid  # min() costs 8% more on short B2–B3 words
        if right < low:
            low = right
        sl, sm, sr = k * (left - low), k * (mid - low), k * (right - low)
        cols[i] = [
            (a << sl) - (b << sm) + (c << sr) for a, b, c in zip(cols[i - 1], cols[i], cols[i + 1])
        ]
        off[i] = low
    return [
        [{e: c for e, c in enumerate(_read_digits(v, width), off[i]) if c} if v else {} for v in cols[i]]
        for i in range(1, d + 1)
    ]


def burau_reduced(w: BraidWord) -> PolyMatrix:
    """Product of the reduced Burau images of the letters (dimension n−1).

    Built from :func:`_burau_columns`, so it is bounded the same way.
    """
    rows = zip(*_burau_columns(w))
    return PolyMatrix(tuple(tuple(LaurentPolynomial.from_dict(p) for p in row) for row in rows))


class AlexanderResult(NamedTuple):
    polynomial: LaurentPolynomial
    normalized: bool  # symmetric normalization applied (knot closures only)


def alexander_with_flag(w: BraidWord) -> AlexanderResult:
    """Alexander polynomial of the closure, flagged by normalization status.

    det(ψ(w) − I) is exactly divisible by 1 + t + ⋯ + t^{n−1}; for knot
    closures the quotient is normalized symmetrically in t ↔ t⁻¹ with a
    positive leading coefficient, which quotients out the ±t^k unit
    ambiguity.  Multi-component closures return the raw quotient
    (``normalized=False``); compare those with
    :meth:`LaurentPolynomial.equals_up_to_units`.  A word missing some σᵢ
    closes to a split link, whose polynomial is 0; it is returned before
    any Burau step, so the Burau bound does not apply.  The Burau tables,
    less 1 on the diagonal, go straight to :func:`table_determinant`.
    """
    if len({abs(x) for x in w.letters}) < w.n - 1:
        return AlexanderResult(LaurentPolynomial.zero(), False)
    cols = _burau_columns(w)
    for j, col in enumerate(cols):
        diag = col[j]
        c = diag.pop(0, 0) - 1
        if c:
            diag[0] = c
    det = table_determinant(list(zip(*cols)))
    # q = det·(1 − t)/(1 − tⁿ) term by term; exact iff its n would-be top terms are 0
    low = min(det, default=0)
    q = [0] * (max(det) - low + 2 if det else 1)
    for e, c in det.items():
        q[e - low] += c
        q[e - low + 1] -= c
    for k in range(w.n, len(q)):
        q[k] += q[k - w.n]
    top = max(len(q) - w.n, 0)
    if any(q[top:]):
        raise InternalConsistencyError("Burau determinant not divisible by 1 + t + ⋯ + t^{n−1}")
    quot = q[:top]  # its first and last terms are those of det, so nonzero
    if closure_components(w).n_components != 1:
        return AlexanderResult(LaurentPolynomial.from_dict(dict(enumerate(quot, low))), False)
    sign = -1 if quot and quot[-1] < 0 else 1
    centered = {k - top // 2: sign * c for k, c in enumerate(quot)}
    return AlexanderResult(LaurentPolynomial.from_dict(centered), True)


def alexander_polynomial(w: BraidWord) -> LaurentPolynomial:
    """Alexander polynomial of the closure (see :func:`alexander_with_flag`)."""
    return alexander_with_flag(w).polynomial


def bracket_coeff_table(w: BraidWord) -> tuple[dict[int, int], int]:
    """Exhaustive bracket coefficient table over the A-exponent, plus states touched.

    The reference the tests check :func:`kauffman_bracket` against.  It
    enumerates all 2^L smoothing states of the closure diagram, counts the
    loops of each with a union-find, and adds A^(a−b)·(−A² − A⁻²)^(loops−1).
    State bit 0 is the A-smoothing and bit 1 the B-smoothing; for a positive
    letter the A-smoothing is the identity smoothing and the B-smoothing the
    cup-cap, for a negative letter the other way round.  More than
    :data:`MAX_STATE_SUM_LETTERS` letters raise :class:`CrossingCapExceeded`.
    """
    n, L = w.n, len(w.letters)
    if L > MAX_STATE_SUM_LETTERS:
        raise CrossingCapExceeded(f"{L} letters > MAX_STATE_SUM_LETTERS = {MAX_STATE_SUM_LETTERS}")
    idx = [abs(x) - 1 for x in w.letters]
    neg = [1 if x < 0 else 0 for x in w.letters]
    max_nodes = n + L
    binoms = [[comb(c, k) for k in range(c + 1)] for c in range(max_nodes + 1)]
    coeffs: dict[int, int] = {}

    for s in range(1 << L):
        parent = list(range(max_nodes))
        cur = list(range(n))
        nodes = n
        bcount = 0
        for j in range(L):
            bit = (s >> j) & 1
            bcount += bit
            if bit ^ neg[j]:
                p = idx[j]
                a, b = cur[p], cur[p + 1]
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    parent[a] = b
                cur[p] = cur[p + 1] = nodes
                nodes += 1
        for j in range(n):
            a, b = cur[j], j
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[a] = b
        loops = 0
        for x in range(nodes):
            if parent[x] == x:
                loops += 1
        e0 = L - 2 * bcount
        c1 = loops - 1
        sgn = -1 if c1 % 2 else 1
        row = binoms[c1]
        base = e0 - 2 * c1
        for k in range(c1 + 1):
            e = base + 4 * k
            coeffs[e] = coeffs.get(e, 0) + sgn * row[k]
    return {e: c for e, c in coeffs.items() if c != 0}, 1 << L


def _bracket_table(w: BraidWord) -> dict[int, int]:
    """Kauffman bracket of the closure by a Temperley–Lieb transfer over the letters.

    Points 0 … n−1 are the top of the braid and n … 2n−1 the current bottom;
    a state is a non-crossing matching of them (``m[p]`` is the partner of
    p).  Each letter σᵢ^{±1} splits a state into the identity smoothing,
    weight A^{±1}, and the cup-cap, weight A^{∓1}, which joins the partners
    of bottom points i and i+1 and matches those two points with each other;
    if they were already matched a loop closes and the weight takes a factor
    d = −A² − A⁻².  Equal matchings are merged.

    A state carries one Python int instead of an exponent table: its
    A-table times A^e, where e grows by 3 for each σᵢ and by 1 for each
    σᵢ⁻¹ read so far, is a polynomial in X = A², and the int is its value
    at X = 2^K (Kronecker substitution).  A letter then costs a shift or
    two and an add per state: σᵢ multiplies the identity smoothing by X²
    and the cup-cap by X, σᵢ⁻¹ the identity by 1 and the cup-cap by X, and
    where a loop closes the cup-cap's −(X² + 1) lands on the identity's own
    matching, which gets −1 or −X² in all.  The coefficients are the
    balanced base-2^K digits of the int as long as each stays below
    2^{K−1} in absolute value.

    K is a whole number of bytes (:func:`braidkit.laurent._width`).
    ``mass`` bounds the 1-norm summed over all states: it starts at 1 and
    triples each letter, and the closure multiplies it by at most 2^{n−1}.
    K is sized for mass·2^{n−1}·3^{min(letters left, 20)}.  Before a letter
    that would take 3·mass·2^{n−1} to 2^{K−1}, every state is read back to
    its digits (:func:`braidkit.laurent._read_digits`), ``mass`` becomes
    their exact 1-norm, the low zero digits that all states share are
    dropped into the exponent of digit 0, and the states are packed again
    at the width the new bound needs.  So K follows the real coefficients,
    far narrower than the worst case 3^L.

    The closure joins top j to bottom j.  The states summed by loop count l
    take d^{l−1}, as (−1)^{l−1}(X² + 1)^{l−1}X^{n−l}, packed from its
    binomial coefficients, to keep every power of X whole; the digits of
    the sum of the groups are read once.
    """
    n, L = w.n, len(w.letters)
    # At most min(Catalan(n), 2^L) states (Catalan(n) ≥ 2^(n−1) ≥ 2^L once
    # n > L), each with O(L) coefficients touched per letter; at the
    # closure each walks 2n points, and d^{l−1}, l ≤ n, is expanded per l.
    peak = min(1 << L, comb(2 * n, n) // (n + 1)) if n <= L else 1 << L
    if peak * (L * (L + 1) + n * n) > MAX_BRACKET_WORK:
        raise CrossingCapExceeded(
            f"bracket of {L} letters on {n} strands exceeds MAX_BRACKET_WORK = {MAX_BRACKET_WORK}"
        )
    spread = 1 << (n - 1)  # 1-norm of (X² + 1)^{l−1}X^{n−l}, l ≤ n
    mass, low = 1, 0  # low: the A-exponent of digit 0
    width = _width(mass * spread * 3 ** min(L, 20))
    states = {tuple(range(n, 2 * n)) + tuple(range(n)): 1}
    for i, x in enumerate(w.letters):
        if 3 * mass * spread >> (8 * width - 1):
            tables = {m: _read_digits(v, width) for m, v in states.items() if v}
            mass = sum(sum(map(abs, digits)) for digits in tables.values())
            width = _width(mass * spread * 3 ** min(L - i, 20))
            drop = min(next(j for j, c in enumerate(d) if c) for d in tables.values())
            low += 2 * drop
            states = {m: _pack(digits[drop:], width) for m, digits in tables.items()}
        mass *= 3
        k = 8 * width
        p = n + abs(x) - 1
        # σᵢ: identity X², cup-cap X; σᵢ⁻¹: identity 1, cup-cap X.  Where a
        # loop closes, the cup-cap's −(X² + 1) lands on the identity's state.
        ident, closed = (2 * k, 0) if x > 0 else (0, 2 * k)
        low -= 3 if x > 0 else 1
        nxt: dict[tuple[int, ...], int] = {}
        for m, v in states.items():
            a = m[p]
            if a == p + 1:
                nxt[m] = nxt.get(m, 0) - (v << closed)
                continue
            b = m[p + 1]
            joined = list(m)
            joined[a], joined[b], joined[p], joined[p + 1] = b, a, p + 1, p
            cup = tuple(joined)
            nxt[m] = nxt.get(m, 0) + (v << ident)
            nxt[cup] = nxt.get(cup, 0) + (v << k)
        states = nxt
    by_loops: dict[int, int] = {}
    for m, v in states.items():
        seen = [False] * (2 * n)
        loops = 0
        for q in range(2 * n):
            if not seen[q]:
                loops += 1
                while not seen[q]:
                    seen[q] = seen[m[q]] = True
                    q = (m[q] + n) % (2 * n)
        by_loops[loops] = by_loops.get(loops, 0) + v
    total = 0
    for loops, v in by_loops.items():
        closing = [0] * (2 * loops - 1)
        c = 1
        for j in range(loops):
            closing[2 * j] = c
            c = c * (loops - 1 - j) // (j + 1)
        term = v * _pack([0] * (n - loops) + closing, width)
        total += -term if loops % 2 == 0 else term
    low -= 2 * (n - 1)  # each group took X^{n−1} more than d^{l−1}
    return {low + 2 * j: c for j, c in enumerate(_read_digits(total, width)) if c}


def kauffman_bracket(w: BraidWord) -> LaurentPolynomial:
    """Kauffman bracket of the closure diagram, in the variable A (bounded as Jones is)."""
    return LaurentPolynomial.from_dict(_bracket_table(w))


def jones_polynomial(w: BraidWord) -> LaurentPolynomial:
    """Jones polynomial of the closure, in q = t^{1/2}.

    X = (−A³)^{−writhe}·⟨w⟩ with the writhe equal to the exponent sum; the
    substitution t = A⁻⁴ makes q = A⁻², and every exponent of X is even, so
    the result is an honest integer Laurent polynomial in q.  Closures with
    an odd number of components land in even q-powers (integer t-powers).
    A bracket costing more than :data:`MAX_BRACKET_WORK` units of
    min(Catalan(n), 2^L)·(L·(L+1) + n²) raises :class:`CrossingCapExceeded`,
    a :class:`ResourceLimitError`, before any work.
    """
    table = _bracket_table(w)
    writhe = exponent_sum(w)
    sign = -1 if writhe % 2 else 1
    out: dict[int, int] = {}
    for e, c in table.items():
        shifted = e - 3 * writhe
        if shifted % 2 != 0:
            raise InternalConsistencyError("odd A-exponent after writhe correction")
        out[-shifted // 2] = out.get(-shifted // 2, 0) + sign * c
    return LaurentPolynomial.from_dict(out)


def jones_text(p: LaurentPolynomial) -> str:
    """Print a Jones polynomial over t when possible, else over q (q² = t)."""
    if all(e % 2 == 0 for e, _ in p.terms):
        return LaurentPolynomial(tuple((e // 2, c) for e, c in p.terms)).text("t")
    return "[q^2 = t] " + p.text("q")


class TemplateFailure(NamedTuple):
    trial: int
    mismatch: str  # "components" | "jones" | "alexander"
    assignment: dict[str, list[int]]
    left: BraidWord
    right: BraidWord
    detail: str


class TemplateReport(NamedTuple):
    template: str
    trials: int
    failures: tuple[TemplateFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def template_soundness_check(
    template,
    trials: int,
    max_len: int,
    seed: int,
) -> TemplateReport:
    """Fuzz a template: both sides must close to the same link, every time.

    For each trial a seeded random braiding assignment (block words of
    length ≤ ``max_len``) instantiates both diagrams; the check asserts
    equal closure component counts, equal Jones polynomials, and equal
    Alexander polynomials (up to units, which is exact for knot closures
    and the honest comparison for links).  Any counterexample is reported
    verbatim; an unsound template is expected to fail loudly here.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        assignment = random_assignment(template, max_len, rng)
        left, right = instantiate_template(template, assignment)
        raw = {bid: list(word.letters) for bid, word in assignment.items()}
        cl, cr = closure_components(left).n_components, closure_components(right).n_components
        if cl != cr:
            failures.append(
                TemplateFailure(trial, "components", raw, left, right, f"{cl} vs {cr}")
            )
            continue
        jl = jones_polynomial(left)
        jr = jones_polynomial(right)
        if jl != jr:
            failures.append(
                TemplateFailure(trial, "jones", raw, left, right, f"{jl.text('q')} vs {jr.text('q')}")
            )
            continue
        al = alexander_with_flag(left).polynomial
        ar = alexander_with_flag(right).polynomial
        if not al.equals_up_to_units(ar):
            failures.append(
                TemplateFailure(trial, "alexander", raw, left, right, f"{al.text()} vs {ar.text()}")
            )
    return TemplateReport(template.name, trials, tuple(failures))
