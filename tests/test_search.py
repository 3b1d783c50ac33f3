import hashlib
import json
import random
from dataclasses import asdict

import pytest

from oracles import (
    destab_rotation_scan,
    exchange_rotation_scan,
    flype_rotation_scan,
    scramble_all_sites,
    simple_conjugator_words,
)
from braidkit.garside import are_conjugate
from braidkit import garside, search
from braidkit.moves import (
    Conjugation,
    apply_move,
    find_exchange_decompositions,
    replay,
    sequence_to_json,
    stabilize,
    try_destabilize,
)
from braidkit.search import (
    TOPOLOGICAL,
    TRANSVERSE,
    SearchBounds,
    connect,
    scramble,
)
from braidkit.transverse import TRANSVERSE_MOVE_KINDS, self_linking
from braidkit.words import BraidWord, ResourceLimitError, parse_braid_word, random_word

BOUNDS = SearchBounds(max_strands=5, max_word_length=24, max_nodes=10_000)


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

    def test_weak_keys_meet_at_the_summit_element(self, monkeypatch):
        # s2 s1^5 s2 and its rotation s2^2 s1^5 have a ten-member summit set,
        # so under a cap of 2 both get weak keys.  Their normal forms differ,
        # but they reach the same summit element, so the keys are equal.
        monkeypatch.setattr(garside, "MAX_SUMMIT_SET", 2)
        monkeypatch.setattr(garside, "_key_cache", {})
        u = parse_braid_word("s2 s1^5 s2", 3)
        v = parse_braid_word("s2^2 s1^5", 3)
        assert garside.left_normal_form(u) != garside.left_normal_form(v)
        r = connect(u, v, SearchBounds(3, 10, 200))
        assert r.found and r.stats.weak_keys == 2
        monkeypatch.setattr(garside, "MAX_SUMMIT_SET", 10_000)
        assert are_conjugate(replay(r.sequence), v)

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

    def test_no_legal_move_is_a_value_error(self):
        # one strand and no room to stabilize: no site and no simple conjugator
        with pytest.raises(ValueError, match="1 strand.*max_strands = 1"):
            scramble(BraidWord(1), 1, 0, max_strands=1)
        assert scramble(BraidWord(1), 0, 0, max_strands=1)[1].steps == ()
        # a destabilization down to one strand leaves no move after it
        with pytest.raises(ValueError, match="max_strands = 1"):
            scramble(BraidWord(2, (1,)), 50, 0, max_strands=1)

    @pytest.mark.parametrize(
        "k, kwargs, message",
        [
            (0, {"max_strands": 0}, "max_strands must be >= 1, got 0"),
            (3, {"max_strands": 0}, "max_strands must be >= 1, got 0"),
            (0, {"max_strands": -3}, "max_strands must be >= 1, got -3"),
            (2, {"max_strands": -3}, "max_strands must be >= 1, got -3"),
            (0, {"move_set": "x"}, "unknown move set 'x'"),
            (1, {"move_set": "x"}, "unknown move set 'x'"),
            (-1, {}, "k must be >= 0"),
        ],
    )
    def test_argument_errors_are_named(self, k, kwargs, message):
        with pytest.raises(ValueError) as err:
            scramble(BraidWord(3, (1, 2)), k, 5, **kwargs)
        assert str(err.value) == message

    def test_same_draws_as_building_every_site(self):
        """scramble against the oracle that builds every site and then draws:
        the same word and sequence, or the same error with the same message."""
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(2000):
            n = rng.randint(1, 6)
            w = random_word(rng, n, 14)
            args = (w, rng.randint(0, 8), rng.randrange(1 << 30),
                    rng.choice((TOPOLOGICAL, TRANSVERSE)), rng.choice((None, n, n + 1, n + 3)))
            try:
                expected = scramble_all_sites(*args)
            except ValueError as e:
                with pytest.raises(type(e)) as err:
                    scramble(*args)
                assert str(err.value) == str(e), args
                outcomes.add(type(e).__name__)
                continue
            assert scramble(*args) == expected, args
            outcomes |= {step.kind for step in expected[1].steps}
        assert outcomes == {
            "ValueError", "ResourceLimitError", "conjugation",
            "destab+", "destab-", "exchange", "flype+", "flype-", "stab+", "stab-",
        }


def test_simple_conjugator_words_match_the_bubble_sort_oracle():
    for n in range(1, 7):
        assert search._simple_conjugator_words(n) == simple_conjugator_words(n)


def _site_words(seed: int, count: int) -> list[BraidWord]:
    """Two flype words, then seeded B1–B6 words, some stabilized and then
    conjugated letter for letter (g⁻¹·w·σₙ^{±1}·g)."""
    rng = random.Random(seed)
    words = [parse_braid_word(t, 3) for t in ("s1^5 s2^4 s1^6 s2^-1", "s1^-5 s2^-4 s1^-6 s2")]
    for _ in range(count):
        n = rng.randint(1, 6)
        w = random_word(rng, n, 10)
        if n < 6 and rng.random() < 0.4:
            w = stabilize(w, rng.choice((1, -1)))
            g = random_word(rng, w.n, 3)
            w = BraidWord(w.n, tuple(-x for x in reversed(g.letters)) + w.letters + g.letters)
        words.append(w)
    return words


def test_finders_and_sites_match_the_rotation_scans():
    """The place rules against trying every rotation: each finder, and the
    search's sites in order (destab, exchanges, flypes, stabilizations)."""
    found = {"destab": 0, "exchange": 0, "flype": 0}
    for w in _site_words(25, 600):
        if w.n < 2:
            continue
        destabs, exchanges = destab_rotation_scan(w), exchange_rotation_scan(w)
        assert len(destabs) <= 1 and try_destabilize(w) == next(iter(destabs), None), w
        assert find_exchange_decompositions(w) == exchanges, w
        flypes = flype_rotation_scan(w)
        stabs = [("stab+", {}), ("stab-", {})] if w.n < 7 else []
        topological = [site.move() for site in destabs + exchanges + flypes] + stabs
        transverse = [move for move in topological if move[0] in TRANSVERSE_MOVE_KINDS]
        for move_set, expected in ((TOPOLOGICAL, topological), (TRANSVERSE, transverse)):
            sites = search._sites(w, SearchBounds(max_strands=7, move_set=move_set))
            assert [site.move() for site in sites] == expected, (w, move_set)
        found["destab"] += len(destabs)
        found["exchange"] += len(exchanges)
        found["flype"] += len(flypes)
    assert min(found.values()) > 0, found


def test_each_applied_site_gives_the_replayed_word():
    """Replay (``apply_move``) re-matches a recorded site: an oracle for the
    result the search and scramble take straight from the site."""
    words = _site_words(24, 300)
    kinds, conjugated_destabs = set(), 0
    for w in words:
        for move_set in (TOPOLOGICAL, TRANSVERSE):
            sites = search._sites(w, SearchBounds(max_strands=7, move_set=move_set))
            sites += [Conjugation(s) for s in search._simple_conjugator_words(w.n)[:3]]
            for site in sites:
                kind, params = site.move()
                assert kind == site.kind
                assert site.apply(w) == apply_move(w, kind, params), (w, kind, params)
                kinds.add(kind)
                conjugated_destabs += kind.startswith("destab") and bool(params["conjugator"])
    assert kinds == {
        "conjugation", "destab+", "destab-", "exchange", "flype+", "flype-", "stab+", "stab-"
    }
    assert conjugated_destabs > 0


# sha256 of the sequences, outcomes and statistics of the corpus below,
# recorded at the commit before the search applied matched sites directly
# (it then encoded every site and re-applied the chosen one through
# apply_move).  Any change to a drawn move, a found path or a count moves it.
PINNED_CORPUS_SHA256 = "cbd1cb9ad278cd4f5a85d4c29f586c9ed8a85c721decbcf9f3771ed613a1147d"


def test_pinned_scramble_and_connect_corpus():
    rng = random.Random(31)
    h = hashlib.sha256()

    def record(r):
        sequence = sequence_to_json(r.sequence) if r.sequence else None
        h.update(json.dumps([r.outcome, asdict(r.stats), sequence]).encode())

    for _ in range(400):
        n = rng.randint(1, 6)
        w = random_word(rng, n, 10)
        for move_set in (TOPOLOGICAL, TRANSVERSE):
            _, seq = scramble(w, rng.randint(0, 6), rng.randrange(1 << 30), move_set, max_strands=6)
            h.update(json.dumps(sequence_to_json(seq)).encode())
    for _ in range(40):
        w = random_word(rng, rng.randint(2, 3), 6)
        for move_set in (TOPOLOGICAL, TRANSVERSE):
            bounds = SearchBounds(4, 14, 150, move_set)
            src, _ = scramble(w, rng.randint(2, 4), rng.randrange(1 << 30), move_set, max_strands=4)
            if len(src.letters) <= bounds.max_word_length:
                record(connect(src, w, bounds))
    for _ in range(20):
        u, v = random_word(rng, rng.randint(2, 3), 8), random_word(rng, 3, 8)
        for move_set in (TOPOLOGICAL, TRANSVERSE):
            record(connect(u, v, SearchBounds(4, 12, 60, move_set)))
    tx_plus = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
    tx_minus = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
    record(connect(tx_plus, tx_minus, SearchBounds(4, 24, 1000)))
    assert h.hexdigest() == PINNED_CORPUS_SHA256


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


@pytest.mark.parametrize(
    "field, option, value, message",
    [
        ("max_strands", "--max-strands", 0, "max_strands must be >= 1, got 0"),
        ("max_word_length", "--max-length", -1, "max_word_length must be >= 0, got -1"),
        ("max_word_length", "--max-length", 0, None),
        ("max_nodes", "--max-nodes", 0, "max_nodes must be >= 1, got 0"),
    ],
)
def test_bound_floor_is_named(capsys, field, option, value, message):
    from braidkit.cli import run

    code = run(["search", "-n", "3", "", "", option, str(value)])
    err = capsys.readouterr().err
    if message is None:
        assert getattr(SearchBounds(**{field: value}), field) == value
        assert code == 0 and err == ""
    else:
        with pytest.raises(ValueError, match=message):
            SearchBounds(**{field: value})
        assert code == 2 and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-n", "3", "s1", "s1", "--max-length", "0"],
         "source word has 1 letter, more than max_word_length = 0"),
        (["-n", "3", "s1 s1", "", "--max-length", "1"],
         "source word has 2 letters, more than max_word_length = 1"),
        (["-n", "3", "", "s2 s1 s2", "--max-length", "2"],
         "target word has 3 letters, more than max_word_length = 2"),
        (["-n", "4", "", "", "--max-strands", "3"],
         "source word has 4 strands, more than max_strands = 3"),
    ],
)
def test_word_past_a_bound_is_named(capsys, argv, message):
    from braidkit.cli import run

    code = run(["search", *argv])
    assert code == 2 and message in capsys.readouterr().err


def test_target_past_the_strand_bound_is_named():
    with pytest.raises(ValueError, match="target word has 4 strands, more than max_strands = 3"):
        connect(BraidWord(2), BraidWord(4), SearchBounds(max_strands=3))


def test_transverse_edges_are_the_transverse_kinds_of_all_edges():
    rng = random.Random(21)
    words = [random_word(rng, rng.randint(2, 4), 12) for _ in range(300)]
    words.append(parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3))  # a flype word
    kinds = set()
    for w in words:
        every = [site.move() for site in search._sites(w, SearchBounds())]
        kinds |= {kind for kind, _ in every}
        transverse = [site.move() for site in search._sites(w, SearchBounds(move_set=TRANSVERSE))]
        assert transverse == [(k, p) for k, p in every if k in TRANSVERSE_MOVE_KINDS]
    assert {"destab+", "destab-", "exchange", "flype-", "stab+", "stab-"} <= kinds
