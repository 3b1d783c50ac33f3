import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit import search, transverse
from braidkit.moves import apply_move, stabilize
from braidkit.search import TRANSVERSE, SearchBounds, scramble
from braidkit.transverse import (
    component_invariants,
    is_transverse_move,
    negative_stabilization_beta_drop,
    self_linking,
)
from braidkit.words import BraidWord, ResourceLimitError, conjugate, parse_braid_word

TX_PLUS = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
LINK_PRE = parse_braid_word("s1^3 s2^4 s1^-5 s2^-1", 3)
LINK_POST = parse_braid_word("s1^3 s2^-1 s1^-5 s2^4", 3)


@st.composite
def stabilized_words(draw):
    """A B2–B4 word, half the time stabilized and conjugated so it destabilizes."""
    n = draw(st.integers(2, 4))
    letter = st.sampled_from([i for i in range(1 - n, n) if i != 0])
    w = BraidWord(n, tuple(draw(st.lists(letter, max_size=10))))
    if draw(st.booleans()):
        w = stabilize(w, draw(st.sampled_from([1, -1])))
        letter = st.sampled_from([i for i in range(1 - w.n, w.n) if i != 0])
        w = conjugate(w, BraidWord(w.n, tuple(draw(st.lists(letter, max_size=3)))))
    return w


def random_word(rng, n, max_len):
    if n < 2:
        return BraidWord(n)
    length = rng.randint(0, max_len)
    alphabet = [i for i in range(1 - n, n) if i != 0]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length)))


class TestSelfLinking:
    def test_flype_word(self):
        assert self_linking(TX_PLUS) == 11

    def test_unknot_as_2_braid(self):
        assert self_linking(BraidWord(2, (1,))) == -1

    def test_unknot_as_1_braid(self):
        assert self_linking(BraidWord(1)) == -1


class TestComponentInvariants:
    def test_link_before_flype(self):
        inv = component_invariants(LINK_PRE)
        assert inv.n_components == 2
        assert inv.per_component == (-1, -3)
        assert inv.pairwise_linking == (((1, 2), 1),)
        assert inv.linking(1, 2) == 1

    def test_link_after_flype(self):
        inv = component_invariants(LINK_POST)
        assert inv.per_component == (-3, -1)
        assert inv.pairwise_linking == (((1, 2), 1),)

    def test_two_component_unlink(self):
        inv = component_invariants(BraidWord(2))
        assert inv.per_component == (-1, -1)
        assert inv.pairwise_linking == (((1, 2), 0),)
        assert inv.linking(1, 2) == 0

    def test_additivity(self):
        rng = random.Random(20)
        for _ in range(200):
            w = random_word(rng, rng.randint(2, 5), 12)
            inv = component_invariants(w)
            total = sum(inv.per_component) + 2 * sum(v for _, v in inv.pairwise_linking)
            assert inv.beta_total == total == self_linking(w)

    def test_pair_bound(self, monkeypatch):
        # three components are three pairs: rejected before any crossing is read
        monkeypatch.setattr(transverse, "MAX_COMPONENT_PAIRS", 2)
        assert component_invariants(BraidWord(3, (1,))).pairwise_linking == (((1, 2), 0),)
        monkeypatch.setattr(transverse, "crossing_records", None)
        with pytest.raises(ResourceLimitError, match="MAX_COMPONENT_PAIRS"):
            component_invariants(BraidWord(3))

    def test_pair_bound_before_the_closure_permutation(self, monkeypatch):
        # 400 000 strands and no letter are at least 400 000 components:
        # rejected from the letters alone, before any O(n) permutation
        monkeypatch.setattr(transverse, "closure_components", None)
        with pytest.raises(ResourceLimitError, match="MAX_COMPONENT_PAIRS"):
            component_invariants(BraidWord(400000))

    def test_component_betas_conjugation_invariant(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(2, 4)
            w = random_word(rng, n, 10)
            g = random_word(rng, n, 6)
            a = component_invariants(w)
            b = component_invariants(conjugate(w, g))
            # conjugation may renumber components; compare as multisets
            assert sorted(a.per_component) == sorted(b.per_component)
            assert sorted(v for _, v in a.pairwise_linking) == sorted(
                v for _, v in b.pairwise_linking
            )


class TestTransverseMoves:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("conjugation", True),
            ("stab+", True),
            ("destab+", True),
            ("exchange", True),
            ("stab-", False),
            ("destab-", False),
            ("flype+", False),
            ("flype-", False),
        ],
    )
    def test_move_table(self, kind, expected):
        assert is_transverse_move(kind) is expected


class TestBetaDrop:
    def test_unknot(self):
        assert negative_stabilization_beta_drop(BraidWord(2, (1,))) == (-1, -3)

    def test_flype_word(self):
        assert negative_stabilization_beta_drop(TX_PLUS) == (11, 9)

    def test_iterated(self):
        w = TX_PLUS
        beta = self_linking(w)
        for k in range(1, 6):
            w = stabilize(w, -1)
            assert self_linking(w) == beta - 2 * k

    def test_positive_stabilization_preserves(self):
        rng = random.Random(22)
        for _ in range(100):
            w = random_word(rng, rng.randint(1, 4), 10)
            assert self_linking(stabilize(w, 1)) == self_linking(w)
            assert self_linking(stabilize(w, -1)) == self_linking(w) - 2


def test_beta_constant_along_transverse_scrambles():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 4)
        w = random_word(rng, n, 10)
        scrambled, seq = scramble(w, rng.randint(0, 5), rng.randrange(1 << 30), move_set=TRANSVERSE)
        assert all(is_transverse_move(s) for s in seq.steps)
        assert self_linking(scrambled) == self_linking(w)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(stabilized_words())
def test_beta_invariant_under_transverse_edges(w):
    # B6 leaves room to stabilize every word drawn, stabilized ones included
    beta = self_linking(w)
    sites = search._sites(w, SearchBounds(max_strands=6, move_set=TRANSVERSE))
    for kind, params in [site.move() for site in sites]:
        assert self_linking(apply_move(w, kind, params)) == beta, kind
    assert ("stab-", {}) in [site.move() for site in search._sites(w, SearchBounds(max_strands=6))]
    assert self_linking(apply_move(w, "stab-", {})) == beta - 2
