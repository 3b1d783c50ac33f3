import hashlib
import json
import random

import pytest

from oracles import (
    destab_rotation_scan,
    eager_connect,
    exchange_rotation_scan,
    flype_rotation_scan,
    scramble_all_sites,
    simple_conjugator_words,
)
from braidkit.garside import are_conjugate
from braidkit import garside, search
from braidkit.moves import (
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
from braidkit.words import (
    BraidWord,
    ResourceLimitError,
    parse_braid_word,
    random_word,
    rotate,
)

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
        # which a cap of 2 would make weak.  Their normal forms differ, but
        # they reach the same summit element, so they are one class and
        # neither is keyed.
        cache: dict = {}
        monkeypatch.setattr(garside, "MAX_SUMMIT_SET", 2)
        monkeypatch.setattr(garside, "_key_cache", cache)
        u = parse_braid_word("s2 s1^5 s2", 3)
        v = parse_braid_word("s2^2 s1^5", 3)
        assert garside.left_normal_form(u) != garside.left_normal_form(v)
        r = connect(u, v, SearchBounds(3, 10, 200))
        assert r.found and r.stats.weak_keys == 0
        assert cache == {}
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



def _connect_corpus(seed: int, count: int) -> list[tuple]:
    """(source, target, bounds) triples on both move sets: half as the
    roundtrip benchmark's ops (a B2–B3 word of at most 6 letters, scrambled
    by 0–3 moves within 4 strands, searched back to it), half seeded B1–B5
    word pairs under log-uniform max_nodes from 5 to 2 000."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        move_set = rng.choice((TOPOLOGICAL, TRANSVERSE))
        if rng.random() < 0.5:
            w = random_word(rng, rng.randint(2, 3), 6)
            src, _ = scramble(w, rng.randint(0, 3), rng.randrange(1 << 30), move_set, max_strands=4)
            if len(src.letters) > 24:
                src = w
            out.append((src, w, SearchBounds(4, 24, 10_000, move_set)))
        else:
            n = rng.randint(1, 5)
            u, v = random_word(rng, n, 8), random_word(rng, n, 8)
            max_nodes = round(5 * 400 ** rng.random())
            bounds = SearchBounds(rng.randint(n, 5), rng.randint(8, 16), max_nodes, move_set)
            out.append((u, v, bounds))
    return out


class TestLazyKeys:
    """``connect`` keys a class only when a cheaper test cannot separate two
    nodes; ``eager_connect`` keys every node."""

    def test_same_results_as_eager_connect(self, monkeypatch):
        """Outcome, stats and sequence, each search from an empty key cache;
        and from that cache, no more members closed than the eager search."""
        cache: dict = {}
        monkeypatch.setattr(garside, "_key_cache", cache)
        outcomes = set()
        for args in _connect_corpus(27, 400):
            cache.clear()
            lazy = connect(*args)
            lazy_members = len(cache)
            cache.clear()
            eager = eager_connect(*args)
            assert lazy == eager, args
            assert lazy_members <= len(cache), args
            outcomes.add((lazy.outcome, args[2].move_set, args[2].max_nodes < 30))
        assert len(outcomes) == 8, outcomes

    def test_cold_and_warm_key_cache_agree(self, monkeypatch):
        """A cache holding every class the eager search met changes nothing."""
        cache: dict = {}
        monkeypatch.setattr(garside, "_key_cache", cache)
        for args in _connect_corpus(28, 150):
            cache.clear()
            cold = connect(*args)
            eager_connect(*args)
            assert connect(*args) == cold, args

    @pytest.mark.parametrize("max_strands", [4, 5])
    def test_flype_pair_search_closes_only_its_ends(self, monkeypatch, max_strands):
        """verify-paper's check (i) closes the two B3 classes, 56 members, and
        no class of the 4- or 5-strand nodes it reaches."""
        cache: dict = {}
        monkeypatch.setattr(garside, "_key_cache", cache)
        tx_plus = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
        tx_minus = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
        r = connect(tx_plus, tx_minus, SearchBounds(max_strands, 24, 100_000, TRANSVERSE))
        assert r.outcome == "exhausted" and r.stats.weak_keys == 0
        assert r.stats.nodes_expanded == max_strands - 2
        assert len(cache) == 56
        assert set(cache.values()) == {
            garside.super_summit_set(tx_plus), garside.super_summit_set(tx_minus)
        }

    def test_ends_in_one_bucket_are_keyed(self, monkeypatch):
        """TX+ and its rotation reach different summit elements of one
        bucket, so both are keyed, and the search ends on key equality
        before any move, having closed TX+'s 28-member summit set once."""
        cache: dict = {}
        monkeypatch.setattr(garside, "_key_cache", cache)
        tx_plus = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
        rotated = rotate(tx_plus, 1)
        assert garside._word_summit(tx_plus)[0] != garside._word_summit(rotated)[0]
        r = connect(tx_plus, rotated, SearchBounds(4, 24, 1000, TRANSVERSE))
        assert r.found and r.sequence.steps == ()
        assert r.stats.nodes_expanded == 0 and r.stats.weak_keys == 0
        assert len(cache) == 28

    def test_capped_found_sequences_replay_into_the_target_class(self, monkeypatch):
        monkeypatch.setattr(garside, "_key_cache", {})
        monkeypatch.setattr(garside, "MAX_SUMMIT_SET", 2)
        found = []
        weak = 0
        for args in _connect_corpus(29, 200):
            r = connect(*args)
            weak += r.stats.weak_keys
            if r.found:
                found.append((replay(r.sequence), args[1]))
        monkeypatch.setattr(garside, "MAX_SUMMIT_SET", 10_000)
        assert all(are_conjugate(final, target) for final, target in found)
        assert len(found) > 50 and weak > 50, (len(found), weak)


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
        search._conjugation_sites.cache_clear()
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


def test_conjugation_sites_match_the_bubble_sort_oracle():
    for n in range(1, 7):
        by = tuple(site.by for site in search._conjugation_sites(n))
        assert by == simple_conjugator_words(n)


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
            sites += search._conjugation_sites(w.n)[:3]
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


# sha256 of the sequences, outcomes and statistics of the corpus below.
# Any change to a drawn move, a found path or a count moves it.
PINNED_CORPUS_SHA256 = "82ea91c642f0fc0484bf2ec820eb881fdbaf55fe3a53466db891d9ccd215e310"


def test_pinned_scramble_and_connect_corpus():
    rng = random.Random(31)
    h = hashlib.sha256()

    def record(r):
        sequence = sequence_to_json(r.sequence) if r.sequence else None
        h.update(json.dumps([r.outcome, r.stats._asdict(), sequence]).encode())

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
    search._conjugation_sites.cache_clear()
    assert len(search._conjugation_sites(3)) == 5
    with pytest.raises(ResourceLimitError, match="bound of 3 strands"):
        search._conjugation_sites(4)


def test_dedup_statistics_accumulate():
    r = connect(BraidWord(3, (1, 1, 1, 2)), BraidWord(2, (1, 1, 1)), BOUNDS)
    assert r.stats.nodes_expanded >= 1
    assert r.stats.frontier_peak >= 1


def test_move_set_validation():
    with pytest.raises(ValueError):
        SearchBounds(move_set="sideways")


def test_cli_search_defaults_are_the_bounds_defaults():
    from braidkit.cli import _build_parser

    args = _build_parser().parse_args(["search", "-n", "3", "", ""])
    bounds = SearchBounds()
    assert (args.max_strands, args.max_length, args.max_nodes) == (
        bounds.max_strands, bounds.max_word_length, bounds.max_nodes
    )
    assert not args.transverse and bounds.move_set == TOPOLOGICAL


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
