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
from its exponents instead.  ``search.scramble`` draws a conjugation site
from a table built once per strand count; :func:`scramble_all_sites`
builds the drawn conjugation site anew at each step, and otherwise draws
as ``scramble`` does.  ``search.connect`` closes a super summit set only when
a cheaper test cannot tell two nodes apart; :func:`eager_connect` keys
every node by its super summit set.  The bracket transfer carries each state as one
Kronecker-packed int; :func:`dict_transfer_bracket` carries an exponent →
coefficient table instead.  The Burau product carries each entry as one
Kronecker-packed int; :func:`dict_burau_columns` carries a table instead.
"""

import itertools
import random
from math import comb

from braidkit import garside, moves, search
from braidkit.laurent import LaurentPolynomial, PolyMatrix
from braidkit.words import BraidWord, free_reduce


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
    """``search.scramble``, with the drawn conjugation site of each step built
    anew from its word rather than taken from ``search._conjugation_sites``."""
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
        simples = [site.by for site in search._conjugation_sites(cur.n)]
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


def eager_class_key(w: BraidWord) -> tuple[str, bool]:
    """The key text of w's super summit set, or past ``MAX_SUMMIT_SET``
    members the weak ``"nf:"`` key of its summit element; and whether it is
    weak."""
    try:
        return str(garside.super_summit_set(w)), False
    except garside.SuperSummitCapError:
        return "nf:" + str(w.n) + ":" + garside._word_summit(w)[0].serialize(), True


def eager_connect(source: BraidWord, target: BraidWord, bounds: search.SearchBounds):
    """``search.connect`` keying every node by :func:`eager_class_key`, the
    two ends included; siblings enter the frontier in site order."""
    source = BraidWord(source.n, free_reduce(source.letters))
    target = BraidWord(target.n, free_reduce(target.letters))
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

    target_key, target_weak = eager_class_key(target)
    src_key, src_weak = eager_class_key(source)
    weak_keys = int(src_weak) + int(target_weak)
    dedup_hits = 0
    nodes_expanded = 0
    frontier_peak = 1
    # parents[key] = (parent key, MoveStep) for path reconstruction
    parents: dict[str, tuple[str | None, moves.MoveStep | None]] = {src_key: (None, None)}

    def done(outcome: str, key: str | None = None) -> search.SearchResult:
        stats = search.SearchStats(nodes_expanded, frontier_peak, dedup_hits, weak_keys)
        if key is None:
            return search.SearchResult(outcome, stats)
        steps = []
        parent, step = parents[key]
        while parent is not None:
            steps.append(step)
            parent, step = parents[parent]
        return search.SearchResult(
            outcome, stats, moves.MoveSequence(source, tuple(reversed(steps)))
        )

    if src_key == target_key:
        return done("found", src_key)

    frontier = [(src_key, source)]
    while frontier:
        frontier_peak = max(frontier_peak, len(frontier))
        next_frontier: list[tuple[str, BraidWord]] = []
        for key, w in frontier:
            nodes_expanded += 1
            for site in search._sites(w, bounds):
                result = site.apply(w)
                if len(result.letters) > bounds.max_word_length:
                    continue
                nkey, weak = eager_class_key(result)
                if nkey in parents:
                    dedup_hits += 1
                    continue
                weak_keys += int(weak)
                parents[nkey] = (key, moves.MoveStep(*site.move(), result))
                if nkey == target_key:
                    return done("found", nkey)
                if len(parents) >= bounds.max_nodes:
                    return done("exhausted")
                next_frontier.append((nkey, result))
        frontier = next_frontier
    return done("exhausted")


def dict_transfer_bracket(w: BraidWord) -> dict[int, int]:
    """The Kauffman bracket of w's closure as an A-exponent table, by the
    Temperley–Lieb transfer with an exponent → coefficient table per state:
    each letter σᵢ^{±1} adds A^{±1} to the identity smoothing and A^{∓1} to
    the cup-cap, times d = −A² − A⁻² where a loop closes; the closure sums
    the tables by loop count l and expands d^{l−1} once per l.  No bound."""
    n = w.n
    states = {tuple(range(n, 2 * n)) + tuple(range(n)): {0: 1}}
    for x in w.letters:
        p = n + abs(x) - 1
        s = 1 if x > 0 else -1
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for m, table in states.items():
            a, b = m[p], m[p + 1]
            if a == p + 1:
                cup = m
                terms = [(e - s + t, -c) for e, c in table.items() for t in (2, -2)]
            else:
                joined = list(m)
                joined[a], joined[b], joined[p], joined[p + 1] = b, a, p + 1, p
                cup = tuple(joined)
                terms = [(e - s, c) for e, c in table.items()]
            out = nxt.setdefault(m, {})
            for e, c in table.items():
                out[e + s] = out.get(e + s, 0) + c
            out = nxt.setdefault(cup, {})
            for e, c in terms:
                out[e] = out.get(e, 0) + c
        states = nxt
    by_loops: dict[int, dict[int, int]] = {}
    for m, table in states.items():
        seen = [False] * (2 * n)
        loops = 0
        for q in range(2 * n):
            if not seen[q]:
                loops += 1
                while not seen[q]:
                    seen[q] = seen[m[q]] = True
                    q = (m[q] + n) % (2 * n)
        group = by_loops.setdefault(loops, {})
        for e, c in table.items():
            group[e] = group.get(e, 0) + c
    result: dict[int, int] = {}
    for loops, table in by_loops.items():
        k = loops - 1  # d^k = Σⱼ (−1)^k·C(k, j)·A^(2k − 4j)
        closing = {2 * k - 4 * j: (-1) ** k * comb(k, j) for j in range(k + 1)}
        for e, c in table.items():
            for f, coeff in closing.items():
                result[e + f] = result.get(e + f, 0) + c * coeff
    return {e: c for e, c in result.items() if c != 0}


def dict_burau_columns(w: BraidWord) -> list[list[dict[int, int]]]:
    """Columns of the reduced Burau image of w as exponent → coefficient
    tables, one column update per letter: σᵢ sets column j = i − 1 to
    t·col(j−1) − t·col(j) + col(j+1), σᵢ⁻¹ to col(j−1) − t⁻¹·col(j) +
    t⁻¹·col(j+1), a missing column counting as zero.  No bound."""
    d = w.n - 1
    cols = [[{0: 1} if r == c else {} for r in range(d)] for c in range(d)]
    zero = [{}] * d
    for x in w.letters:
        j = abs(x) - 1
        left, mid, right = (1, 1, 0) if x > 0 else (0, -1, -1)  # t-powers
        terms = (
            (cols[j - 1] if j > 0 else zero, left, 1),
            (cols[j], mid, -1),
            (cols[j + 1] if j < d - 1 else zero, right, 1),
        )
        new = []
        for r in range(d):
            entry: dict[int, int] = {}
            for col, shift, sign in terms:
                for e, c in col[r].items():
                    entry[e + shift] = entry.get(e + shift, 0) + sign * c
            new.append({e: c for e, c in entry.items() if c})
        cols[j] = new
    return cols
