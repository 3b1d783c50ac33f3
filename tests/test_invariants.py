import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidkit.invariants import (
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
from braidkit.laurent import LaurentPolynomial, PolyMatrix
from braidkit.moves import builtin_templates, flype_template, stabilize
from braidkit.words import (
    BraidWord,
    closure_components,
    conjugate,
    mirror,
    multiply,
    parse_braid_word,
    rotate,
)

TX_PLUS = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
TX_MINUS = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)


def random_word(rng, n, max_len):
    if n < 2:
        return BraidWord(n)
    length = rng.randint(0, max_len)
    alphabet = [i for i in range(1 - n, n) if i != 0]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length)))


class TestBurau:
    def test_generator_in_b2(self):
        m = burau_reduced(BraidWord(2, (1,)))
        assert m.rows == ((LaurentPolynomial.monomial(1, -1),),)

    def test_identity_in_b3(self):
        assert burau_reduced(BraidWord(3)) == PolyMatrix.identity(2)

    def test_braid_relation(self):
        a = burau_reduced(parse_braid_word("s1 s2 s1", 4))
        b = burau_reduced(parse_braid_word("s2 s1 s2", 4))
        assert a == b

    def test_homomorphism(self):
        rng = random.Random(40)
        for _ in range(50):
            n = rng.randint(2, 5)
            u, v = random_word(rng, n, 6), random_word(rng, n, 6)
            assert burau_reduced(multiply(u, v)) == burau_reduced(u) * burau_reduced(v)

    def test_inverse_letters(self):
        for n in (2, 3, 4):
            for i in range(1, n):
                prod = burau_reduced(BraidWord(n, (i, -i)))
                assert prod == PolyMatrix.identity(n - 1)

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
            dense = PolyMatrix.identity(n - 1)
            for x in w.letters:
                dense = dense * letter(n, x)
            assert burau_reduced(w) == dense, w
        assert signs == {True, False}


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
            assert p == p.substitute_inverse()
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

    def test_split_link_vanishes(self):
        res = alexander_with_flag(BraidWord(2))
        assert res.polynomial.is_zero() and not res.normalized

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
        assert jones_polynomial(mirror(w)) == jones_polynomial(w).substitute_inverse()
        rng = random.Random(43)
        for _ in range(20):
            w = random_word(rng, rng.randint(2, 4), 8)
            assert jones_polynomial(mirror(w)) == jones_polynomial(w).substitute_inverse()

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

    def test_crossing_cap(self):
        w = BraidWord(2, (1,) * 25)
        with pytest.raises(CrossingCapExceeded):
            jones_polynomial(w)
        assert jones_polynomial(w, max_crossings=25) is not None

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
