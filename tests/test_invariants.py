import hashlib
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidkit import invariants, words
from braidkit.invariants import (
    AlexanderCapExceeded,
    CrossingCapExceeded,
    alexander_polynomial,
    alexander_with_flag,
    bracket_coeff_table,
    burau_reduced,
    jones_polynomial,
    jones_text,
    kauffman_bracket,
    template_soundness_check,
)
from braidkit.laurent import LaurentPolynomial, PolyMatrix, _width
from braidkit.moves import builtin_templates, flype_template, stabilize
from braidkit.transverse import InternalConsistencyError
from braidkit.words import (
    BraidWord,
    ResourceLimitError,
    closure_components,
    conjugate,
    mirror,
    multiply,
    parse_braid_word,
    random_word,
    rotate,
)

from oracles import (
    cofactor_determinant,
    dict_burau_columns,
    dict_transfer_bracket,
    identity,
    matrix_mul,
    matrix_sub,
)

TX_PLUS = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
TX_MINUS = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
# sha256 of alexander_with_flag (terms and flag) over 1 000 words of
# random_word(rng, rng.randint(1, 16), 80), rng = random.Random(26)
ALEXANDER_SHA256 = "327df4723ac08066434dc38903bde83bf7cc3de9d21cf684b7712bdd76464c88"


class Untouched(tuple):
    """Letters that fail the test if a transfer or Burau step reads them."""

    def __iter__(self):
        raise AssertionError("a transfer step ran")


def t_inverse(p: LaurentPolynomial) -> LaurentPolynomial:
    """p with t ↦ t⁻¹."""
    return LaurentPolynomial.from_dict({-e: c for e, c in p.terms})


class TestBurau:
    def test_generator_in_b2(self):
        m = burau_reduced(BraidWord(2, (1,)))
        assert m.rows == ((LaurentPolynomial.monomial(1, -1),),)

    def test_identity_in_b3(self):
        assert burau_reduced(BraidWord(3)) == identity(2)

    def test_braid_relation(self):
        a = burau_reduced(parse_braid_word("s1 s2 s1", 4))
        b = burau_reduced(parse_braid_word("s2 s1 s2", 4))
        assert a == b

    def test_homomorphism(self):
        rng = random.Random(40)
        for _ in range(50):
            n = rng.randint(2, 5)
            u, v = random_word(rng, n, 6), random_word(rng, n, 6)
            assert burau_reduced(multiply(u, v)) == matrix_mul(burau_reduced(u), burau_reduced(v))

    def test_inverse_letters(self):
        for n in (2, 3, 4):
            for i in range(1, n):
                prod = burau_reduced(BraidWord(n, (i, -i)))
                assert prod == identity(n - 1)

    def test_burau_matches_dense_letters(self):
        # Oracle: the dense (n−1)×(n−1) image of each letter, multiplied out.
        # σᵢ puts −t on the diagonal at j = i−1, t above it and 1 below it;
        # σᵢ⁻¹ puts −t⁻¹ there, 1 above and t⁻¹ below.
        def letter(n, x):
            d, j = n - 1, abs(x) - 1
            entries = {(j, j): (1, -1), (j - 1, j): (1, 1), (j + 1, j): (0, 1)}
            if x < 0:
                entries = {(j, j): (-1, -1), (j - 1, j): (0, 1), (j + 1, j): (-1, 1)}
            rows = [
                [LaurentPolynomial.one() if r == c else LaurentPolynomial.zero() for c in range(d)]
                for r in range(d)
            ]
            for (r, c), (e, k) in entries.items():
                if 0 <= r < d:
                    rows[r][c] = LaurentPolynomial.monomial(e, k)
            return PolyMatrix(rows)

        rng = random.Random(41)
        signs = set()
        for _ in range(120):
            n = rng.randint(2, 7)
            w = random_word(rng, n, 12)
            signs.update(x > 0 for x in w.letters)
            dense = identity(n - 1)
            for x in w.letters:
                dense = matrix_mul(dense, letter(n, x))
            assert burau_reduced(w) == dense, w
        assert signs == {True, False}

    def test_packed_columns_match_dict_columns(self, monkeypatch):
        # Oracle: the same column updates on exponent → coefficient tables.
        # Every entry of column c has 1-norm at most b[c], where b starts at
        # 1 and each letter sets b[j] to b[j−1] + b[j] + b[j+1]; K is sized
        # for the largest b.
        widths = []
        monkeypatch.setattr(invariants, "_width", lambda bound: widths.append(bound) or _width(bound))
        rng = random.Random(44)
        corpus = [random_word(rng, rng.randint(1, 12), 80) for _ in range(300)]
        trivial = []  # words that cancel to the identity
        for n in range(2, 9):
            pos = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 60)))
            corpus += [BraidWord(n, pos), BraidWord(n, tuple(-x for x in pos))]
            w = random_word(rng, n, 30)
            i = rng.randint(1, n - 1)
            trivial.append(BraidWord(n, w.letters + tuple(-x for x in reversed(w.letters))))
            trivial.append(BraidWord(n, (i, -i) * 20 + (-i, i) * 20))
        wide_bound = BraidWord(3, (1, -2) * 60)
        for w in corpus + trivial + [wide_bound]:
            d = w.n - 1
            b = [0] + [1] * d + [0]
            for x in w.letters:
                b[abs(x)] += b[abs(x) - 1] + b[abs(x) + 1]
            widths.clear()
            cols = invariants._burau_columns(w)
            assert cols == dict_burau_columns(w), w
            assert widths == [max(b)], w
            for c, col in enumerate(cols):
                assert all(sum(map(abs, entry.values())) <= b[c + 1] for entry in col), w
            if w in trivial:
                assert cols == [[{0: 1} if r == c else {} for r in range(d)] for c in range(d)]
            if w == wide_bound:
                assert _width(max(b)) > 8


class TestAlexander:
    def test_unknot(self):
        assert alexander_polynomial(BraidWord(2, (1,))).as_dict() == {0: 1}

    def test_trefoil(self):
        # det(-t^3 - 1)/(1 + t) = -(t^2 - t + 1), symmetric form t - 1 + t^-1
        assert alexander_polynomial(BraidWord(2, (1, 1, 1))).as_dict() == {-1: 1, 0: -1, 1: 1}

    def test_flype_pair_equal(self):
        assert alexander_polynomial(TX_PLUS) == alexander_polynomial(TX_MINUS)

    def test_symmetric_normalization(self):
        rng = random.Random(41)
        count = 0
        while count < 30:
            w = random_word(rng, rng.randint(2, 4), 10)
            res = alexander_with_flag(w)
            if not res.normalized or res.polynomial.is_zero():
                continue
            count += 1
            p = res.polynomial
            assert p == t_inverse(p)
            assert p.terms[-1][1] > 0

    def test_conjugation_and_stabilization_invariance(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(2, 4)
            w = random_word(rng, n, 8)
            g = random_word(rng, n, 5)
            a = alexander_with_flag(w).polynomial
            assert alexander_with_flag(conjugate(w, g)).polynomial.equals_up_to_units(a)
            assert alexander_with_flag(stabilize(w, 1)).polynomial.equals_up_to_units(a)
            assert alexander_with_flag(stabilize(w, -1)).polynomial.equals_up_to_units(a)

    def test_one_strand_unknot(self):
        # the 0×0 determinant is 1 and the divisor 1 + ⋯ + t^{n−1} is 1
        res = alexander_with_flag(BraidWord(1))
        assert res.polynomial == LaurentPolynomial(((0, 1),)) and res.normalized

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (5, 7), (8, 9), (13, 14), (80, 1)])
    def test_torus_knots_match_closed_form(self, p, q):
        # (σ₁⋯σ_{p−1})^q closes to the torus knot T(p, q), whose Alexander
        # polynomial (t^{pq} − 1)(t − 1) / ((t^p − 1)(t^q − 1)) needs no Burau
        # matrix; T(80, 1) is s1 … s79, an unknot.
        import sympy

        t = sympy.Symbol("t")
        num = sympy.Poly((t ** (p * q) - 1) * (t - 1), t)
        quot = num.exquo(sympy.Poly((t**p - 1) * (t**q - 1), t))
        half = quot.degree() // 2
        res = alexander_with_flag(BraidWord(p, tuple(range(1, p)) * q))
        assert res.normalized
        assert res.polynomial.as_dict() == {e - half: int(c) for (e,), c in quot.terms()}

    @pytest.mark.parametrize(
        "det",
        [{0: 1}, {0: 1, 1: 1}, {0: 1, 3: 1}, {-2: 1, 0: 1, 1: 1}, {0: 1, 1: 1, 2: 1, 3: 1}],
    )
    def test_indivisible_determinant_is_an_internal_error(self, monkeypatch, det):
        # On B3 det(ψ − I) must be a multiple of 1 + t + t²; t⁻²(1 − t³) is.
        w = BraidWord(3, (1, 2))
        monkeypatch.setattr(invariants, "table_determinant", lambda rows: dict(det))
        with pytest.raises(InternalConsistencyError, match="not divisible"):
            alexander_with_flag(w)
        monkeypatch.setattr(invariants, "table_determinant", lambda rows: {-2: 1, 1: -1})
        assert alexander_with_flag(w).polynomial.equals_up_to_units(
            LaurentPolynomial.from_dict({0: 1, 1: -1})
        )

    def test_work_bound(self, monkeypatch):
        # the bound is d²·(d³ + L³) units, d = n − 1: 4 letters on B3 are
        # 4·(8 + 64) = 288; on B1000 the empty word is 10¹⁵ units and
        # s1 … s999 more, rejected before any of the 999² Burau tables is built
        w = BraidWord(3, (1, -2, 1, -2))
        expected = alexander_polynomial(w)
        monkeypatch.setattr(invariants, "MAX_ALEXANDER_WORK", 287)
        with pytest.raises(AlexanderCapExceeded, match="MAX_ALEXANDER_WORK"):
            alexander_polynomial(w)
        monkeypatch.setattr(invariants, "MAX_ALEXANDER_WORK", 288)
        assert alexander_polynomial(w) == expected
        monkeypatch.undo()
        assert issubclass(AlexanderCapExceeded, ResourceLimitError)
        wide = words._word(1000, Untouched())
        with pytest.raises(AlexanderCapExceeded, match="MAX_ALEXANDER_WORK"):
            burau_reduced(wide)
        with pytest.raises(AlexanderCapExceeded, match="MAX_ALEXANDER_WORK"):
            alexander_polynomial(BraidWord(1000, tuple(range(1, 1000))))

    def test_pinned_digest(self):
        rng = random.Random(26)
        digest = hashlib.sha256()
        for _ in range(1000):
            res = alexander_with_flag(random_word(rng, rng.randint(1, 16), 80))
            digest.update(json.dumps([res.polynomial.terms, res.normalized]).encode())
        assert digest.hexdigest() == ALEXANDER_SHA256

    def test_split_link_vanishes(self):
        res = alexander_with_flag(BraidWord(2))
        assert res.polynomial.is_zero() and not res.normalized

    def test_split_word_vanishes_before_the_bound(self, monkeypatch):
        # a word missing some σᵢ closes to a split link: 0 without any Burau step
        monkeypatch.setattr(invariants, "_burau_columns", None)
        monkeypatch.setattr(invariants, "table_determinant", None)
        assert alexander_polynomial(BraidWord(1000)).is_zero()
        res = alexander_with_flag(BraidWord(9, (1, 2, 3, 5, 6, 7, 8, -1)))
        assert res.polynomial.is_zero() and not res.normalized

    def test_agrees_with_the_cofactor_determinant(self, monkeypatch):
        # Oracle: det(burau_reduced(w) − I) by Laplace expansion, divided by
        # 1 + t + ⋯ + t^{n−1} in sympy and, for a knot, centred with a
        # positive leading coefficient.  The corpus must contain split words,
        # links and knots, and determinants that take the elimination's
        # zero-row exit and its zero-pivot branch (a vanishing leading
        # principal minor).  On Burau input that branch has ended at its
        # zero-column exit on every word tried, never at a later pivot row,
        # so the row swap itself is checked on built matrices in test_laurent.
        import sympy

        t = sympy.Symbol("t")
        given = []
        determinant = invariants.table_determinant

        def recorded(rows):
            given.append(rows)
            return determinant(rows)

        monkeypatch.setattr(invariants, "table_determinant", recorded)

        def expected(w):
            det = cofactor_determinant(matrix_sub(burau_reduced(w), identity(w.n - 1)))
            if det.is_zero():
                return det
            low = det.min_exp
            num = sympy.Poly(sum(c * t ** (e - low) for e, c in det.terms), t)
            quot, rem = sympy.div(num, sympy.Poly(sum(t**k for k in range(w.n)), t))
            assert rem.is_zero, w
            p = LaurentPolynomial.from_dict({e + low: int(c) for (e,), c in quot.terms()})
            if closure_components(w).n_components == 1:
                p = p.shift(-(p.min_exp + p.max_exp) // 2)
                p = -p if p.terms[-1][1] < 0 else p
            return p

        def leading_minor_vanishes(rows):
            m = [[LaurentPolynomial.from_dict(p) for p in row] for row in rows]
            return any(
                cofactor_determinant(PolyMatrix(tuple(tuple(r[:k]) for r in m[:k]))).is_zero()
                for k in range(1, len(m))
            )

        rng = random.Random(43)
        seen = {"split": 0, "link": 0, "knot": 0, "zero_row": 0, "zero_pivot": 0}
        for rep in range(240):
            n = rng.randint(1, 10)
            if rep % 3 == 0 or n == 1:
                w = random_word(rng, n, 12)
            else:  # every σᵢ at least once, so not split by its letters
                base = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))]
                rng.shuffle(base)
                w = BraidWord(n, tuple(x if rng.random() < 0.6 else -x for x in base))
            given.clear()
            res = alexander_with_flag(w)
            knot = closure_components(w).n_components == 1
            assert (res.polynomial, res.normalized) == (expected(w), knot), w
            if not given:
                seen["split"] += 1
                continue
            seen["knot" if knot else "link"] += 1
            if any(not any(row) for row in given[0]):
                seen["zero_row"] += 1
            elif leading_minor_vanishes(given[0]):
                seen["zero_pivot"] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("n,length", [(10, 120), (12, 150)])
    def test_dense_wide_words_finish(self, n, length):
        # The cofactor expansion needs up to (n−1)! products here; elimination
        # is polynomial in n.
        rng = random.Random(n)
        alphabet = [i for i in range(1 - n, n) if i != 0]
        w = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length)))
        assert {abs(x) for x in w.letters} == set(range(1, n))
        res = alexander_with_flag(w)
        assert alexander_with_flag(rotate(w, length // 3)) == res
        # Δ(1) is ±1 for a knot and 0 for a link of several components.
        knot = closure_components(w).n_components == 1
        assert res.normalized == knot
        assert sum(c for _, c in res.polynomial.terms) in ((1, -1) if knot else (0,))


class TestBracketJones:
    def test_unknot_one_strand(self):
        assert jones_polynomial(BraidWord(1)).as_dict() == {0: 1}

    def test_trefoil_values(self):
        # bracket(s1^3) = -A^5 - A^-3 + A^-7; V = -t^4 + t^3 + t (in q = t^(1/2))
        assert kauffman_bracket(BraidWord(2, (1, 1, 1))).as_dict() == {5: -1, -3: -1, -7: 1}
        assert jones_polynomial(BraidWord(2, (1, 1, 1))).as_dict() == {8: -1, 6: 1, 2: 1}
        assert jones_text(jones_polynomial(BraidWord(2, (-1, -1, -1)))) == (
            "-1*t^-4 + 1*t^-3 + 1*t^-1"
        )

    def test_two_component_unlink(self):
        assert jones_polynomial(BraidWord(2)).as_dict() == {1: -1, -1: -1}

    def test_mirror_property(self):
        w = BraidWord(2, (1, 1, 1))
        assert jones_polynomial(mirror(w)) == t_inverse(jones_polynomial(w))
        rng = random.Random(43)
        for _ in range(20):
            w = random_word(rng, rng.randint(2, 4), 8)
            assert jones_polynomial(mirror(w)) == t_inverse(jones_polynomial(w))

    def test_flype_pair_equal(self):
        assert jones_polynomial(TX_PLUS) == jones_polynomial(TX_MINUS)

    def test_conjugation_invariance(self):
        rng = random.Random(44)
        for _ in range(20):
            n = rng.randint(2, 4)
            w = random_word(rng, n, 8)
            g = random_word(rng, n, 4)
            assert jones_polynomial(conjugate(w, g)) == jones_polynomial(w)

    def test_markov_invariance(self):
        rng = random.Random(45)
        for _ in range(20):
            w = random_word(rng, rng.randint(2, 4), 8)
            j = jones_polynomial(w)
            assert jones_polynomial(stabilize(w, 1)) == j
            assert jones_polynomial(stabilize(w, -1)) == j

    def test_state_count_law(self):
        rng = random.Random(46)
        for _ in range(10):
            w = random_word(rng, rng.randint(2, 4), 10)
            _, states = bracket_coeff_table(w)
            assert states == 2 ** len(w)

    def test_crossing_cap(self, monkeypatch):
        # the bound is the cost min(Catalan(n), 2^L)·(L·(L+1) + n²), not the
        # letter count: 25 letters on B2 are 2·(650 + 4) = 1 308 units
        s1_25 = BraidWord(2, (1,) * 25)
        assert sum(c for _, c in jones_polynomial(s1_25).terms) == 1
        monkeypatch.setattr(invariants, "MAX_BRACKET_WORK", 1307)
        with pytest.raises(CrossingCapExceeded, match="MAX_BRACKET_WORK"):
            kauffman_bracket(s1_25)
        monkeypatch.setattr(invariants, "MAX_BRACKET_WORK", 1308)
        assert not kauffman_bracket(s1_25).is_zero()
        with pytest.raises(CrossingCapExceeded, match="MAX_STATE_SUM_LETTERS"):
            bracket_coeff_table(s1_25)

    def test_disjoint_crossings_rejected_before_any_step(self):
        # 24 letters on 24 disjoint strand pairs: 2^24 transfer states
        w = words._word(49, Untouched(range(1, 48, 2)))
        assert issubclass(CrossingCapExceeded, ResourceLimitError)
        for bracket in (jones_polynomial, kauffman_bracket):
            with pytest.raises(CrossingCapExceeded, match="MAX_BRACKET_WORK"):
                bracket(w)

    def test_transfer_matches_state_sum(self):
        # the Temperley–Lieb transfer against the exhaustive 2^L-state sum;
        # the empty words close to the n-component unlinks
        rng = random.Random(47)
        cases = [BraidWord(n) for n in range(1, 9)]
        while len(cases) < 320:
            cases.append(random_word(rng, rng.randint(2, 8), 12))
        for w in cases:
            table, _ = bracket_coeff_table(w)
            assert kauffman_bracket(w).as_dict() == table, w

    # seeded long words per strand count, as long as the dict transfer
    # finishes them in well under a second
    LONG_WORD_LETTERS = {2: 300, 3: 300, 4: 150, 5: 70, 6: 45, 7: 35, 8: 30}

    def test_packed_transfer_matches_dict_transfer(self, monkeypatch):
        # B2–B8 words of 25–300 letters, positive ones, and the alternating
        # (σ₁σ₂⁻¹)^k, whose coefficients grow past 8-byte digits
        rng = random.Random(48)
        cases = [BraidWord(3, (1, -2) * k) for k in (13, 40, 150)]
        cases.append(BraidWord(4, (1, -2, 3) * 50))
        for n, most in self.LONG_WORD_LETTERS.items():
            alphabet = [i for i in range(1 - n, n) if i != 0]
            for _ in range(4):
                length = rng.randint(25, most)
                cases.append(BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length))))
            length = rng.randint(25, most)
            cases.append(BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(length))))
        expected = [dict_transfer_bracket(w) for w in cases]
        joneses = [jones_polynomial(w) for w in cases]
        for w, table in zip(cases, expected):
            assert kauffman_bracket(w).as_dict() == table, w
        monkeypatch.setattr(invariants, "_bracket_table", dict_transfer_bracket)
        assert [jones_polynomial(w) for w in cases] == joneses

    def test_empty_words_match_dict_transfer(self):
        # the n-component unlinks: one state, n loops, no letter
        for n in range(1, 301):
            w = BraidWord(n)
            assert kauffman_bracket(w).as_dict() == dict_transfer_bracket(w), n

    def test_long_words_repack(self, monkeypatch):
        # each re-pack reads every state back, then packs them again; the
        # closure packs each loop group, then reads the sum once
        calls = []
        read, pack = invariants._read_digits, invariants._pack
        monkeypatch.setattr(
            invariants, "_read_digits", lambda v, width: calls.append("read") or read(v, width)
        )
        monkeypatch.setattr(
            invariants, "_pack", lambda digits, width: calls.append("pack") or pack(digits, width)
        )
        rng = random.Random(49)
        for w in (
            BraidWord(3, (1, -2) * 30),
            BraidWord(3, tuple(rng.choice((1, 2, -1, -2)) for _ in range(80))),
            BraidWord(3, (1, 2) * 40),
        ):
            calls.clear()
            table = kauffman_bracket(w).as_dict()
            assert calls[-1] == "read"
            repacks = sum(1 for a, b in zip(calls, calls[1:]) if (a, b) == ("read", "pack"))
            assert repacks >= 2, (w, calls)
            assert table == dict_transfer_bracket(w)


def _eval_at_minus_one(p):
    """p(t) at t = -1 for an integer Laurent polynomial in t."""
    return sum(c * (-1) ** (e % 2) for e, c in p.terms)


def _eval_jones_at_minus_one(p):
    """V(t) at t = -1, i.e. the q-form at q = i (always a real integer)."""
    re, im = 0, 0
    for e, c in p.terms:
        k = e % 4
        if k == 0:
            re += c
        elif k == 1:
            im += c
        elif k == 2:
            re -= c
        else:
            im -= c
    assert im == 0
    return re


@st.composite
def short_words(draw):
    """A B2–B5 word of at most 12 letters."""
    n = draw(st.integers(2, 5))
    letter = st.sampled_from([i for i in range(1 - n, n) if i != 0])
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=12))))


class TestValuesAtOne:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(short_words())
    def test_jones_at_one(self, w):
        # V(1) = (−2)^{c−1}; t = 1 is q = 1 in the q = t^{1/2} form
        c = closure_components(w).n_components
        assert sum(coeff for _, coeff in jones_polynomial(w).terms) == (-2) ** (c - 1)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(short_words())
    def test_alexander_at_one_for_knots(self, w):
        assume(closure_components(w).n_components == 1)
        assert sum(coeff for _, coeff in alexander_polynomial(w).terms) in (1, -1)


class TestCrossRouteConsistency:
    def test_knot_determinant_agrees_between_oracles(self):
        # |Alexander(-1)| and |Jones(-1)| both compute the knot determinant,
        # through entirely different routes (Burau matrices vs state sums).
        rng = random.Random(48)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 4)
            w = random_word(rng, n, 10)
            from braidkit.words import closure_components

            if closure_components(w).n_components != 1:
                continue
            checked += 1
            det_alex = abs(_eval_at_minus_one(alexander_polynomial(w)))
            det_jones = abs(_eval_jones_at_minus_one(jones_polynomial(w)))
            assert det_alex == det_jones, w

    def test_burau_is_faithful_on_b3(self):
        # in B3 the reduced Burau representation is faithful, so matrix
        # equality must coincide with Garside normal-form equality
        from braidkit.garside import left_normal_form

        rng = random.Random(49)
        for _ in range(60):
            u, v = random_word(rng, 3, 8), random_word(rng, 3, 8)
            garside_equal = left_normal_form(u) == left_normal_form(v)
            burau_equal = burau_reduced(u) == burau_reduced(v)
            assert garside_equal == burau_equal, (u, v)


class TestTemplateSoundness:
    def test_exchange_clean(self):
        report = template_soundness_check(builtin_templates()["exchange"], 25, 5, seed=101)
        assert report.ok and report.trials == 25

    @pytest.mark.parametrize(
        "trials, max_len, seed, message",
        [
            (True, 3, 0, "trials must be an integer, got True"),
            (2.0, 3, 0, "trials must be an integer, got 2.0"),
            (1, 3, None, "seed must be an integer, got None"),
            (1, 3, 1.5, "seed must be an integer, got 1.5"),
            (1, 3, "abc", "seed must be an integer, got 'abc'"),
            (1, True, 0, "max_len must be an integer, got True"),
        ],
    )
    def test_counts_and_seed_must_be_ints(self, monkeypatch, trials, max_len, seed, message):
        monkeypatch.setattr(invariants, "instantiate_template", None)  # no trial may start
        with pytest.raises(ValueError) as err:
            template_soundness_check(builtin_templates()["exchange"], trials, max_len, seed)
        assert str(err.value) == message

    def test_negative_flype_clean(self):
        report = template_soundness_check(builtin_templates()["flype-"], 15, 4, seed=102)
        assert report.ok

    def test_corrupted_template_detected(self):
        from braidkit.moves import BlockSlot, BlockStrandDiagram, Crossing, Template

        good = flype_template(-1)
        bad_right = BlockStrandDiagram(
            (1, 1, 1),
            (BlockSlot("P", 1), Crossing(2, 1), BlockSlot("Q", 1), BlockSlot("R", 2)),
            {"P": 2, "Q": 2, "R": 2},
        )
        bad = Template("flype-corrupted", good.left, bad_right)
        report = template_soundness_check(bad, 20, 4, seed=103)
        assert not report.ok
        assert any(f.mismatch in ("jones", "alexander", "components") for f in report.failures)
