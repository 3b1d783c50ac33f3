import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit import garside, moves, words
from braidkit.garside import _compose, _inverse
from braidkit.words import (
    BraidSyntaxError,
    BraidWord,
    closure_components,
    conjugate,
    crossing_records,
    exponent_sum,
    format_word,
    invert,
    mirror,
    multiply,
    parse_braid_word,
    random_word,
    rotate,
    underlying_permutation,
    word_from_json,
    word_to_json,
)

TX_PLUS = "s1^5 s2^4 s1^6 s2^-1"
LINK_WORD = "s1^3 s2^4 s1^-5 s2^-1"


class TestParse:
    def test_flype_word(self):
        w = parse_braid_word(TX_PLUS, 3)
        assert len(w) == 16
        assert w.letters == (1,) * 5 + (2,) * 4 + (1,) * 6 + (-2,)

    def test_serialization_pair(self):
        w = parse_braid_word(TX_PLUS, 3)
        assert word_to_json(w) == {"n": 3, "letters": [1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, -2]}

    def test_empty_word_is_identity(self):
        w = parse_braid_word("", 4)
        assert w.n == 4 and w.letters == ()

    def test_index_out_of_range(self):
        with pytest.raises(BraidSyntaxError):
            parse_braid_word("s3 s1", 3)

    def test_zero_exponent_rejected(self):
        with pytest.raises(BraidSyntaxError):
            parse_braid_word("s1^0", 3)

    def test_bad_token(self):
        with pytest.raises(BraidSyntaxError):
            parse_braid_word("x2", 3)

    def test_huge_exponent_rejected_before_expansion(self):
        for text in ("s1^1000000000", "s1^-1000000000", f"s1^{words.MAX_PARSED_LETTERS + 1}"):
            with pytest.raises(BraidSyntaxError):
                parse_braid_word(text, 2)

    def test_huge_number_rejected_before_int(self):
        # int() itself refuses more than 4 300 digits with a plain ValueError
        for text in ("s1^" + "9" * 5000, "s1^-" + "9" * 5000, "s" + "9" * 5000, "s1^" + "9" * 6):
            with pytest.raises(BraidSyntaxError):
                parse_braid_word(text, 2)
        assert parse_braid_word("s001^-00002", 2).letters == (-1, -1)

    def test_index_digits_bounded_by_strand_count(self):
        assert parse_braid_word("s123456", 200000).letters == (123456,)
        with pytest.raises(BraidSyntaxError, match="index of 5000 digits"):
            parse_braid_word("s" + "9" * 5000, 200000)

    def test_letter_total_bounded(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_PARSED_LETTERS", 4)
        assert len(parse_braid_word("s1^2 s1^-2", 2)) == 4
        with pytest.raises(BraidSyntaxError):
            parse_braid_word("s1^2 s1^-2 s1", 2)

    def test_format_round_trip(self):
        rng = random.Random(0)
        for _ in range(50):
            w = random_word(rng, rng.randint(2, 5), 12)
            assert parse_braid_word(format_word(w), w.n) == w


class TestRuns:
    def test_runs_expand_back_and_are_maximal(self):
        assert words._runs(parse_braid_word(TX_PLUS, 3).letters) == [(1, 5), (2, 4), (1, 6), (2, -1)]
        rng = random.Random(22)
        for w in [random_word(rng, n, 12) for n in range(1, 9) for _ in range(40)]:
            runs = words._runs(w.letters)
            expanded = tuple(x for i, k in runs for x in [i if k > 0 else -i] * abs(k))
            assert expanded == w.letters
            assert all(k != 0 for _, k in runs)
            assert all((i, k > 0) != (j, m > 0) for (i, k), (j, m) in zip(runs, runs[1:]))
        assert words._runs(()) == []


class TestExponentSum:
    def test_flype_pair_words(self):
        assert exponent_sum(parse_braid_word(TX_PLUS, 3)) == 14
        assert exponent_sum(parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)) == 14

    def test_identity(self):
        assert exponent_sum(BraidWord(3)) == 0

    def test_conjugation_invariant(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(2, 4)
            w, g = random_word(rng, n, 10), random_word(rng, n, 6)
            assert exponent_sum(conjugate(w, g)) == exponent_sum(w)


class TestGroupOps:
    def test_free_reduction(self):
        assert multiply(BraidWord(3, (1,)), BraidWord(3, (-1,))).letters == ()

    def test_invert(self):
        assert invert(BraidWord(3, (1, 2))).letters == (-2, -1)

    def test_conjugate(self):
        assert conjugate(BraidWord(3, (1,)), BraidWord(3, (2,))).letters == (-2, 1, 2)

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            multiply(BraidWord(3, (1,)), BraidWord(4, (1,)))

    def test_full_cancellation(self):
        rng = random.Random(2)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 5), 12)
            assert multiply(w, invert(w)).letters == ()


class TestPermutation:
    def test_single_generator(self):
        assert underlying_permutation(BraidWord(3, (1,))) == (2, 1, 3)

    def test_identity(self):
        assert underlying_permutation(BraidWord(3)) == (1, 2, 3)

    def test_link_word(self):
        # composing the 16 transpositions by hand gives the transposition (2 3)
        assert underlying_permutation(parse_braid_word(LINK_WORD, 3)) == (1, 3, 2)

    def test_homomorphism(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 5)
            u, v = random_word(rng, n, 8), random_word(rng, n, 8)
            lhs = underlying_permutation(multiply(u, v))
            rhs = _compose(underlying_permutation(u), underlying_permutation(v))
            assert lhs == rhs

    def test_inverse(self):
        p = (3, 1, 2)
        assert _compose(p, _inverse(p)) == _compose(_inverse(p), p) == (1, 2, 3)


class TestClosureComponents:
    def test_identity_unlink(self):
        assert closure_components(BraidWord(3)).n_components == 3

    def test_link_word_two_components(self):
        comps = closure_components(parse_braid_word(LINK_WORD, 3))
        assert comps.cycles == ((1,), (2, 3))
        assert comps.component(1) == 1 and comps.component(2) == 2

    def test_full_cycle(self):
        assert closure_components(BraidWord(3, (1, 2))).n_components == 1

    def test_matches_letter_by_letter_oracle(self):
        def end_position(w, p):
            for x in w.letters:
                if p == abs(x):
                    p += 1
                elif p == abs(x) + 1:
                    p -= 1
            return p

        def oracle(w):
            cycles, comp_of = [], [0] * w.n
            for s in range(1, w.n + 1):
                if comp_of[s - 1]:
                    continue
                orbit = [s]
                while (p := end_position(w, orbit[-1])) != s:
                    orbit.append(p)
                cycles.append(tuple(sorted(orbit)))
                for p in orbit:
                    comp_of[p - 1] = len(cycles)
            return tuple(cycles), tuple(comp_of)

        rng = random.Random(17)
        empty = split = 0
        for _ in range(600):
            n = rng.randint(1, 12)
            # a random subset of generators, so that some closures split
            gens = [i for i in range(1, n) if rng.random() < 0.9]
            length = rng.randint(0, 20) if gens else 0
            letters = tuple(rng.choice(gens) * rng.choice((1, -1)) for _ in range(length))
            w = BraidWord(n, letters)
            empty += not letters
            split += n > 1 and len({abs(x) for x in letters}) < n - 1
            comps = closure_components(w)
            assert (comps.cycles, comps.component_of) == oracle(w), w
        assert empty >= 20 and 100 <= split <= 500, (empty, split)


class TestCrossingRecords:
    def test_single(self):
        recs = crossing_records(BraidWord(2, (1,)))
        assert len(recs) == 1 and recs[0].strands == (1, 2) and recs[0].sign == 1

    def test_repeated_swaps_keep_pair(self):
        recs = crossing_records(BraidWord(2, (1, 1, 1)))
        assert all(r.strands == (1, 2) and r.sign == 1 for r in recs)

    def test_link_word_attribution(self):
        recs = crossing_records(parse_braid_word(LINK_WORD, 3))
        counts = {}
        for r in recs:
            counts[(r.strands, r.sign)] = counts.get((r.strands, r.sign), 0) + 1
        assert counts == {
            ((1, 2), 1): 3,
            ((1, 3), 1): 4,
            ((1, 2), -1): 5,
            ((2, 3), -1): 1,
        }

    def test_sign_sum_is_exponent_sum(self):
        rng = random.Random(4)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 5), 12)
            assert sum(r.sign for r in crossing_records(w)) == exponent_sum(w)

    def test_record_count_partitions_letters(self):
        rng = random.Random(5)
        for _ in range(50):
            w = random_word(rng, rng.randint(2, 5), 12)
            comps = closure_components(w)
            per = 0
            cross = 0
            for r in crossing_records(w):
                a, b = r.strands
                if comps.component(a) == comps.component(b):
                    per += 1
                else:
                    cross += 1
            assert per + cross == len(w)


def test_json_round_trip():
    rng = random.Random(6)
    for _ in range(30):
        w = random_word(rng, rng.randint(1, 5), 10)
        assert word_from_json(word_to_json(w)) == w


@pytest.mark.parametrize("obj", [{"n": True, "letters": []}, {"n": 3, "letters": [True, -2]}])
def test_json_booleans_are_not_integers(obj):
    with pytest.raises(ValueError):
        word_from_json(obj)


@st.composite
def word_pairs(draw):
    """Two B2–B5 words of at most 12 letters on the same strand count."""
    n = draw(st.integers(2, 5))
    letter = st.sampled_from([i for i in range(1 - n, n) if i != 0])
    return tuple(BraidWord(n, tuple(draw(st.lists(letter, max_size=12)))) for _ in range(2))


class TestTrustedWords:
    """Words built from valid words skip validation; validating them again changes nothing."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(word_pairs(), st.integers(-20, 20))
    def test_built_words_revalidate(self, pair, k):
        u, g = pair
        n = u.n
        built = [multiply(u, g), conjugate(u, g), rotate(u, k), invert(u), mirror(u)]
        built += moves.cyclic_free_reduce(u)
        for sign in (1, -1):
            stabilized = moves.stabilize(u, sign)
            found = moves.try_destabilize(stabilized)
            built += [stabilized, found.word, found.conjugator]
        site = BraidWord(n + 1, u.letters + (n,) + g.letters + (-n,))
        decompositions = moves.find_exchange_decompositions(site)
        assert decompositions
        built += [d.apply(site) for d in decompositions]
        built.append(garside.left_normal_form(u).as_word())
        built.append(garside.are_conjugate(u, conjugate(u, g), want_witness=True)[1])
        for w in built:
            assert type(w.letters) is tuple
            assert BraidWord(w.n, w.letters) == w

    def test_random_words_revalidate(self):
        rng = random.Random(17)
        for _ in range(500):
            w = random_word(rng, rng.randint(1, 8), 12)
            assert type(w.letters) is tuple
            assert BraidWord(w.n, w.letters) == w


class TestOutsideInputIsValidated:
    """Words read from outside input are validated (parsed text: TestParse)."""

    def test_json(self):
        with pytest.raises(ValueError, match="letter 3 invalid for 3 strands"):
            word_from_json({"n": 3, "letters": [1, 3]})

    @pytest.mark.parametrize(
        "kind,params",
        [("conjugation", {"by": [1, 3]}), ("destab+", {"conjugator": [0], "rotation": 0})],
    )
    def test_replayed_move_params(self, kind, params):
        with pytest.raises(ValueError, match="invalid for 3 strands"):
            moves.apply_move(BraidWord(3, (1, 2)), kind, params)

    def test_template_block_word(self):
        diagram = moves.BlockStrandDiagram((2, 1), (moves.BlockSlot("a", 1),), {"a": 1})
        unchecked = words._word(2, (5,))  # a block word that skipped validation
        with pytest.raises(ValueError, match="letter 5 invalid for 3 strands"):
            moves.expand_weights(diagram, {"a": unchecked})
