import random

import pytest

from braidkit.garside import are_conjugate
from braidkit import garside, search
from braidkit.moves import replay
from braidkit.search import (
    TRANSVERSE,
    SearchBounds,
    connect,
    scramble,
)
from braidkit.transverse import self_linking
from braidkit.words import BraidWord, ResourceLimitError, parse_braid_word

BOUNDS = SearchBounds(max_strands=5, max_word_length=24, max_nodes=10_000)


def random_word(rng, n, max_len):
    if n < 2:
        return BraidWord(n)
    length = rng.randint(0, max_len)
    alphabet = [i for i in range(1 - n, n) if i != 0]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length)))


class TestConnect:
    def test_single_destabilization(self):
        r = connect(BraidWord(3, (1, 2)), BraidWord(2, (1,)), BOUNDS)
        assert r.found
        assert [s.kind for s in r.sequence.steps] == ["destab+"]
        assert replay(r.sequence) == r.sequence.final

    def test_stabilized_trefoil(self):
        r = connect(BraidWord(3, (1, 1, 1, 2)), BraidWord(2, (1, 1, 1)), BOUNDS)
        assert r.found
        assert [s.kind for s in r.sequence.steps] == ["destab+"]

    def test_source_equals_target_class(self):
        r = connect(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)), BOUNDS)
        assert r.found and r.sequence.steps == ()

    def test_bounds_checked_at_input(self):
        with pytest.raises(ValueError):
            connect(BraidWord(6, (1,)), BraidWord(6, (1,)), BOUNDS)
        with pytest.raises(ValueError):
            connect(BraidWord(2, (1,) * 30), BraidWord(2, (1,)), BOUNDS)

    def test_transverse_exhaustion_is_not_found(self):
        # the flype pair is not connected by transverse moves at these bounds
        a = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
        b = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
        bounds = SearchBounds(4, 24, 1000, TRANSVERSE)
        r = connect(a, b, bounds)
        assert r.outcome == "exhausted"
        assert r.stats.nodes_expanded >= 1

    def test_weak_keys_end_on_key_equality(self, monkeypatch):
        # Under a cap of 2 the flype words get weak keys.
        # A capped class is capped on every word, so the search never needs a
        # pairwise conjugacy decision: it ends on key equality alone.
        def fail(*args, **kwargs):
            raise AssertionError("connect called are_conjugate")

        monkeypatch.setattr(garside, "MAX_SUMMIT_SET", 2)
        monkeypatch.setattr(garside, "_key_cache", {})
        monkeypatch.setattr(garside, "are_conjugate", fail)
        a = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
        b = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
        r = connect(a, b, SearchBounds(4, 24, 1000, TRANSVERSE))
        assert r.outcome == "exhausted" and r.sequence is None
        assert r.stats.weak_keys > 0

    def test_monotone_bounds(self):
        src, dst = BraidWord(3, (1, 1, 1, 2)), BraidWord(2, (1, 1, 1))
        small = SearchBounds(4, 20, 50)
        large = SearchBounds(5, 24, 10_000)
        assert connect(src, dst, small).found
        assert connect(src, dst, large).found

    def test_found_path_replays_to_target_class(self):
        rng = random.Random(60)
        for _ in range(10):
            n = rng.randint(2, 3)
            w = random_word(rng, n, 5)
            scrambled, _ = scramble(w, rng.randint(0, 2), rng.randrange(1 << 30), max_strands=4)
            r = connect(scrambled, w, BOUNDS)
            assert r.found
            final = replay(r.sequence)
            assert are_conjugate(final, w)


class TestScramble:
    def test_zero_moves(self):
        w = BraidWord(3, (1, 2))
        out, seq = scramble(w, 0, 9)
        assert out == w and seq.steps == ()

    def test_ground_truth_replays(self):
        rng = random.Random(61)
        for _ in range(25):
            w = random_word(rng, rng.randint(2, 4), 8)
            out, seq = scramble(w, rng.randint(0, 4), rng.randrange(1 << 30))
            assert replay(seq) == out

    def test_transverse_scramble_preserves_beta(self):
        rng = random.Random(62)
        for _ in range(25):
            w = random_word(rng, rng.randint(2, 4), 8)
            out, seq = scramble(w, 5, rng.randrange(1 << 30), move_set=TRANSVERSE)
            assert self_linking(out) == self_linking(w)

    def test_simple_enumeration_bounded(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_SIMPLE_STRANDS", 3)
        search._simple_conjugator_words.cache_clear()
        with pytest.raises(ResourceLimitError, match="bound of 3 strands"):
            scramble(BraidWord(4, (1, 2, 1, 2)), 1, 0)

    def test_deterministic_for_seed(self):
        w = BraidWord(3, (1, 2, -1))
        a = scramble(w, 4, 1234)
        b = scramble(w, 4, 1234)
        assert a == b


def test_simple_conjugator_enumeration_bounded(monkeypatch):
    # Lowering the bound to 3 strands checks it without allocating n! words.
    monkeypatch.setattr(search, "MAX_SIMPLE_STRANDS", 3)
    search._simple_conjugator_words.cache_clear()
    assert len(search._simple_conjugator_words(3)) == 5
    with pytest.raises(ResourceLimitError, match="bound of 3 strands"):
        search._simple_conjugator_words(4)


def test_dedup_statistics_accumulate():
    r = connect(BraidWord(3, (1, 1, 1, 2)), BraidWord(2, (1, 1, 1)), BOUNDS)
    assert r.stats.nodes_expanded >= 1
    assert r.stats.frontier_peak >= 1


def test_move_set_validation():
    with pytest.raises(ValueError):
        SearchBounds(move_set="sideways")


def test_transverse_edges_are_the_transverse_kinds_of_all_edges():
    from braidkit.transverse import TRANSVERSE_MOVE_KINDS

    rng = random.Random(21)
    words = [random_word(rng, rng.randint(2, 4), 12) for _ in range(300)]
    words.append(parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3))  # a flype word
    kinds = set()
    for w in words:
        every = search._edges(w, SearchBounds())
        kinds |= {kind for kind, _ in every}
        transverse = search._edges(w, SearchBounds(move_set=TRANSVERSE))
        assert transverse == [(k, p) for k, p in every if k in TRANSVERSE_MOVE_KINDS]
    assert {"destab+", "destab-", "exchange", "flype-", "stab+", "stab-"} <= kinds
