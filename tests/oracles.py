"""Slow exact constructions kept as test oracles.

The library computes a determinant as one integer determinant and never
multiplies polynomials or matrices; the tests use these schoolbook
operations to build inputs and to check its results independently.  The
search builds its table of permutation-braid conjugators level by level;
:func:`simple_conjugator_words` builds it one permutation at a time.  The
summit closure maps a member's conjugates over from its τ-twin's when the
twin was expanded first, and may stop at a goal;
:func:`plain_summit_closure` expands every member itself, to the end.  The
move finders try only the rotations their place rule names (after the only
σₙ₋₁ letter, after each of two opposite ones, where a σ₂ letter meets a σ₁
letter); :func:`destab_rotation_scan`, :func:`exchange_rotation_scan` and
:func:`flype_rotation_scan` try every rotation.  The flype matcher reads
a word's runs; :func:`built_flype_sites` writes every short schema word
from its exponents instead.  ``search.scramble`` builds only the site it
draws; :func:`scramble_all_sites` builds every site of each step and then
draws one of them.
"""

import itertools
import random

from braidkit import garside, moves, search
from braidkit.laurent import LaurentPolynomial, PolyMatrix
from braidkit.words import BraidWord


def poly_mul(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    out: dict[int, int] = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPolynomial.from_dict(out)


def identity(dim: int) -> PolyMatrix:
    one, zero = LaurentPolynomial.one(), LaurentPolynomial.zero()
    return PolyMatrix(tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim)))


def matrix_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    d = a.dim
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = LaurentPolynomial.zero()
            for k in range(d):
                acc = acc + poly_mul(a.rows[i][k], b.rows[k][j])
            row.append(acc)
        out.append(tuple(row))
    return PolyMatrix(tuple(out))


def matrix_sub(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return PolyMatrix(
        tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows))
    )


def cofactor_determinant(m: PolyMatrix) -> LaurentPolynomial:
    """Laplace expansion along the first row, O(d!) ring operations."""
    d = m.dim
    if d == 0:
        return LaurentPolynomial.one()
    if d == 1:
        return m.rows[0][0]
    acc = LaurentPolynomial.zero()
    for j in range(d):
        entry = m.rows[0][j]
        if entry.is_zero():
            continue
        minor = PolyMatrix(tuple(tuple(r[k] for k in range(d) if k != j) for r in m.rows[1:]))
        term = poly_mul(entry, cofactor_determinant(minor))
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def simple_conjugator_words(n: int) -> tuple[BraidWord, ...]:
    """The n! − 1 nontrivial permutation braids, each word by one bubble sort of
    its permutation (``garside._perm_word``), sorted by (length, letters)."""
    perms = [p for p in itertools.permutations(range(1, n + 1)) if p != tuple(range(1, n + 1))]
    words = [BraidWord(n, garside._perm_word(p)) for p in perms]
    return tuple(sorted(words, key=lambda w: (len(w.letters), w.letters)))


def plain_summit_closure(start: garside.NormalForm) -> dict:
    """Breadth-first closure of a super summit element under its distinct
    minimal simple elements, each member expanded by its own conjugations:
    member -> (parent, s), with (None, None) for start and no cap."""
    members = {start: (None, None)}
    frontier = [start]
    while frontier:
        new_frontier = []
        for nf in frontier:
            for s in dict.fromkeys(garside._minimal_simples(nf)):
                cand = garside._conjugate_nf(nf, s)
                if cand not in members:
                    members[cand] = (nf, s)
                    new_frontier.append(cand)
        frontier = new_frontier
    return members


def destab_rotation_scan(w: BraidWord) -> list:
    """Every destabilization of w, trying all rotations of its cyclic reduction."""
    if w.n < 2:
        return []
    u, g = moves.cyclic_free_reduce(w)
    return [
        d for r in range(len(u.letters)) if (d := moves._destab_at(w.n, u.letters, g.letters, r))
    ]


def exchange_rotation_scan(w: BraidWord) -> list:
    """Every exchange site of w, trying all L rotations."""
    return [d for r in range(len(w.letters)) if (d := moves._exchange_at(w, r))]


def flype_rotation_scan(w: BraidWord) -> list:
    """Every flype match of a 3-braid word, trying all L rotations."""
    if w.n != 3:
        return []
    return [f for r0 in range(len(w.letters)) if (f := moves._flype_at(w, r0))]


def built_flype_sites(max_len: int) -> dict:
    """σ₁ᵖ·σ₂ʳ·σ₁^q·σ₂^ε for every nonzero p, r, q and ε = ±1 with
    |p|+|r|+|q|+1 ≤ max_len: letters -> the FlypeData matching it at rotation 0."""
    out = {}
    for a, b, c in itertools.product(range(1, max_len), repeat=3):
        if a + b + c + 1 > max_len:
            continue
        for sp, sr, sq, eps in itertools.product((1, -1), repeat=4):
            letters = (sp,) * a + (2 * sr,) * b + (sq,) * c + (2 * eps,)
            out[letters] = moves.FlypeData(0, sp * a, sr * b, sq * c, eps)
    return out


def scramble_all_sites(w, k, seed, move_set=search.TOPOLOGICAL, max_strands=None):
    """``search.scramble`` by building every site of a step (``search._sites``
    and one drawn conjugation) and drawing one of them with ``rng.choice``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    rng = random.Random(seed)
    bounds = search.SearchBounds(
        max_strands=max_strands if max_strands is not None else w.n + 2,
        max_word_length=10_000,
        move_set=move_set,
    )
    cur = w
    steps = []
    for _ in range(k):
        options = search._sites(cur, bounds)
        simples = search._simple_conjugator_words(cur.n)
        if simples:
            options.append(moves.Conjugation(rng.choice(simples)))
        if not options:
            raise ValueError(
                f"no legal move on {cur.n} strand(s) with max_strands = {bounds.max_strands}"
            )
        site = rng.choice(options)
        result = site.apply(cur)
        steps.append(moves.MoveStep(*site.move(), result))
        cur = result
    return cur, moves.MoveSequence(w, tuple(steps))
