import itertools
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import built_flype_sites, destab_rotation_scan, flype_rotation_scan
from braidkit.garside import are_conjugate, left_normal_form, super_summit_set
from braidkit.invariants import jones_polynomial
from braidkit import moves, search
from braidkit.moves import (
    BlockSlot,
    BlockStrandDiagram,
    Crossing,
    DestabResult,
    MoveSequence,
    MoveStep,
    Template,
    apply_flype,
    apply_move,
    builtin_templates,
    cyclic_free_reduce,
    destab_template,
    exchange_template,
    expand_weights,
    expanded_arities,
    find_exchange_decompositions,
    find_flype_decompositions,
    flype_template,
    instantiate_template,
    random_assignment,
    match_flype_3braid,
    replay,
    sequence_from_json,
    sequence_to_json,
    stabilize,
    template_from_json,
    template_to_json,
    try_destabilize,
    winding_iterates,
)
from braidkit.transverse import self_linking
from braidkit.words import (
    BraidWord,
    ResourceLimitError,
    closure_components,
    conjugate,
    exponent_sum,
    free_reduce,
    multiply,
    parse_braid_word,
    random_word,
    rotate,
    underlying_permutation,
)

TX_PLUS = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
TX_MINUS = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)


class TestStabilize:
    def test_basic(self):
        assert stabilize(BraidWord(2, (1,)), 1) == BraidWord(3, (1, 2))

    def test_unknot_stays_unknot(self):
        assert stabilize(BraidWord(1), 1) == BraidWord(2, (1,))

    def test_negative_on_flype_word(self):
        w = stabilize(TX_PLUS, -1)
        assert w.n == 4 and w.letters[-1] == -3
        assert exponent_sum(w) == 13

    def test_deltas(self):
        rng = random.Random(50)
        for _ in range(50):
            w = random_word(rng, rng.randint(1, 4), 8)
            for sign in (1, -1):
                s = stabilize(w, sign)
                assert (exponent_sum(s) - exponent_sum(w), s.n - w.n) == (sign, 1)


def depth_search_oracle(w: BraidWord) -> DestabResult | None:
    """The former breadth-first destabilization search: cyclic permutations,
    then conjugation by up to two permutation braids."""
    top = w.n - 1

    def check(u: BraidWord, g: BraidWord) -> DestabResult | None:
        hits = [j for j, x in enumerate(u.letters) if abs(x) == top]
        if len(hits) != 1:
            return None
        r = (hits[0] + 1) % len(u.letters)
        u_rot = rotate(u, r)
        sign = 1 if u_rot.letters[-1] > 0 else -1
        return DestabResult(BraidWord(w.n - 1, u_rot.letters[:-1]), sign, g, r)

    start, g0 = cyclic_free_reduce(w)
    found = check(start, g0)
    if found is not None:
        return found
    seen = {start.letters}
    frontier = [(start, g0)]
    simples = [site.by for site in search._conjugation_sites(w.n)]
    for _ in range(2):
        next_frontier = []
        for cand, g in frontier:
            for s in simples:
                u, g_red = cyclic_free_reduce(conjugate(cand, s))
                if u.letters in seen:
                    continue
                seen.add(u.letters)
                g_total = multiply(multiply(g, s), g_red)
                found = check(u, g_total)
                if found is not None:
                    return found
                next_frontier.append((u, g_total))
        frontier = next_frontier
    return None


def is_cyclically_reduced(u: BraidWord) -> bool:
    ls = u.letters
    return free_reduce(ls) == ls and (len(ls) < 2 or ls[0] != -ls[-1])


@st.composite
def words_and_conjugators(draw):
    n = draw(st.integers(2, 5))
    letter = st.sampled_from([i for i in range(1 - n, n) if i != 0])
    u = BraidWord(n, tuple(draw(st.lists(letter, max_size=12))))
    g = BraidWord(n, tuple(draw(st.lists(letter, max_size=8))))
    return u, g


class TestCyclicFreeReduce:
    def test_reduces_by_a_prefix_conjugator(self):
        rng = random.Random(53)
        for _ in range(500):
            w = random_word(rng, rng.randint(2, 5), 16)
            if rng.random() < 0.5:
                g = random_word(rng, w.n, 5)
                w = BraidWord(w.n, tuple(-x for x in reversed(g.letters)) + w.letters + g.letters)
            u, g = cyclic_free_reduce(w)
            assert conjugate(w, g) == u
            assert is_cyclically_reduced(u)
            assert free_reduce(w.letters)[: len(g)] == g.letters

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(words_and_conjugators())
    def test_conjugate_of_reduced_word_is_a_rotation(self, pair):
        # Free-group lemma: a cyclically reduced conjugate of a cyclically
        # reduced word is a cyclic permutation of it.
        u, _ = cyclic_free_reduce(pair[0])
        v, _ = cyclic_free_reduce(conjugate(u, pair[1]))
        assert v in {rotate(u, r) for r in range(max(len(u), 1))}


class TestDestabilize:
    def test_literal_match(self):
        found = try_destabilize(BraidWord(3, (1, 2)))
        assert found is not None and found.word == BraidWord(2, (1,)) and found.sign == 1

    def test_cyclic_match(self):
        found = try_destabilize(BraidWord(3, (2, 1)))
        assert found is not None and found.word == BraidWord(2, (1,))

    def test_trivial_strand(self):
        found = try_destabilize(BraidWord(2, (1,)))
        assert found is not None and found.word == BraidWord(1)

    def test_simple_enumeration_bounded(self, monkeypatch):
        # Destabilizing never enumerates simple elements, so no strand bound applies.
        def no_simples(n):
            raise AssertionError("try_destabilize built the simple elements")

        monkeypatch.setattr(search, "_conjugation_sites", no_simples)
        assert try_destabilize(BraidWord(12, (1, 2))) is None
        assert try_destabilize(BraidWord(12, (1, 11))).word == BraidWord(11, (1,))

    def test_matches_depth_search_oracle(self):
        rng = random.Random(52)
        corpus = [random_word(rng, rng.randint(2, 5), 12) for _ in range(250)]
        for _ in range(250):
            w = stabilize(random_word(rng, rng.randint(1, 4), 10), rng.choice([1, -1]))
            g = random_word(rng, w.n, 4)
            w = conjugate(w, g)
            if rng.random() < 0.5:
                w = left_normal_form(w).as_word()
            corpus.append(w)
        found = 0
        for w in corpus:
            got = try_destabilize(w)
            assert got == depth_search_oracle(w)
            found += got is not None
        assert found >= 100

    def test_parity_rule_on_cancelling_top_letters(self):
        """Free and cyclic reduction cancel σₙ₋₁ letters only in inverse
        pairs, so an even σₙ₋₁^{±1} count never destabilizes.  Seeded B2–B6
        words, half with one σₙ₋₁^{±1} among lower letters, get σₙ₋₁^{±1}
        pairs inserted inside and wrapped round the ends."""
        rng = random.Random(53)
        odd_hits = even_uncancelled = 0
        for _ in range(600):
            n = rng.randint(2, 6)
            top = n - 1
            letters = list(random_word(rng, n, 8).letters)
            if rng.random() < 0.5:
                letters = [x for x in letters if abs(x) != top]
                letters.insert(rng.randint(0, len(letters)), rng.choice((top, -top)))
            for _ in range(rng.randint(1, 3)):
                x = rng.choice((top, -top))
                if rng.random() < 0.5:
                    i = rng.randint(0, len(letters))
                    letters[i:i] = [x, -x]
                else:
                    letters = [x, *letters, -x]
            w = BraidWord(n, tuple(letters))
            got = try_destabilize(w)
            assert got == next(iter(destab_rotation_scan(w)), None), w
            count = letters.count(top) + letters.count(-top)
            if count % 2 == 0:
                assert got is None, w
                u = cyclic_free_reduce(w)[0].letters
                even_uncancelled += top in u or -top in u
            else:
                odd_hits += count >= 3 and got is not None
        assert odd_hits > 0 and even_uncancelled > 0, (odd_hits, even_uncancelled)

    def test_witness_replays(self):
        rng = random.Random(51)
        for _ in range(50):
            w = random_word(rng, rng.randint(1, 4), 8)
            sign = rng.choice([1, -1])
            stabilized = stabilize(w, sign)
            found = try_destabilize(stabilized)
            assert found is not None
            from braidkit.words import conjugate

            u = rotate(conjugate(stabilized, found.conjugator), found.rotation)
            assert u.letters[-1] == found.sign * (stabilized.n - 1)
            assert u.letters[:-1] == found.word.letters
            assert (
                exponent_sum(found.word) - exponent_sum(stabilized),
                found.word.n - stabilized.n,
            ) == (-found.sign, -1)
            # round trip: the destabilized word is conjugate to the original
            assert are_conjugate(found.word, w)


class TestExchange:
    def test_schema_instance(self):
        w = BraidWord(3, (1, 2, -1, -2))
        decs = find_exchange_decompositions(w)
        assert decs
        assert decs[0].apply(w) == BraidWord(3, (1, -2, -1, 2))

    def test_sign_bookkeeping(self):
        for a, b in [(3, 2), (1, 4), (2, 0)]:
            w = BraidWord(3, (1,) * a + (2,) + (1,) * b + (-2,))
            out = find_exchange_decompositions(w)[0].apply(w)
            assert out == BraidWord(3, (1,) * a + (-2,) + (1,) * b + (2,))
            assert exponent_sum(out) == a + b

    def test_involution(self):
        rng = random.Random(52)
        done = 0
        while done < 30:
            p = random_word(rng, 2, 5)
            q = random_word(rng, 2, 5)
            w = BraidWord(3, p.letters + (2,) + q.letters + (-2,))
            decs = find_exchange_decompositions(w)
            if not decs:
                continue
            done += 1
            d = decs[0]
            out = d.apply(w)
            back_decs = find_exchange_decompositions(out)
            roundtrip = [b.apply(out) for b in back_decs]
            assert any(r.letters == rotate(w, d.rotation).letters for r in roundtrip)

    def test_jones_preserved(self):
        # oracle: the polynomial invariants must not see the move
        rng = random.Random(53)
        done = 0
        while done < 20:
            p = random_word(rng, 2, 6)
            q = random_word(rng, 2, 6)
            w = BraidWord(3, p.letters + (2,) + q.letters + (-2,))
            decs = find_exchange_decompositions(w)
            if not decs:
                continue
            done += 1
            out = decs[0].apply(w)
            assert jones_polynomial(out) == jones_polynomial(w)
            assert exponent_sum(out) == exponent_sum(w) and out.n == w.n

    def test_invalid_decomposition(self):
        from braidkit.moves import ExchangeDecomposition

        with pytest.raises(ValueError, match="recorded exchange does not apply"):
            apply_move(BraidWord(3, (1, 2, 1, -2)), *ExchangeDecomposition(0, 0, 1).move())
        # Below 3 strands there is no exchange site, so none replays.
        with pytest.raises(ValueError, match="recorded exchange does not apply"):
            apply_move(BraidWord(2, (1, -1)), *ExchangeDecomposition(0, 0, 1).move())

    @pytest.mark.parametrize("p_len", [-10, -2, 3])
    def test_p_len_out_of_range(self, p_len):
        # p_len = -2 would index the same letter as the valid site p_len = 1.
        from braidkit.moves import ExchangeDecomposition

        w = BraidWord(3, (1, 2, -2))
        assert apply_move(w, *ExchangeDecomposition(0, 1, 1).move()) == BraidWord(3, (1, -2, 2))
        with pytest.raises(ValueError, match="recorded exchange does not apply"):
            apply_move(w, *ExchangeDecomposition(0, p_len, 1).move())


class TestFlype:
    def test_flype_pair(self):
        data = match_flype_3braid(TX_PLUS)
        assert (data.p, data.r, data.q, data.eps) == (5, 4, 6, -1)
        assert apply_flype(data) == TX_MINUS

    def test_link_pair(self):
        w = parse_braid_word("s1^3 s2^4 s1^-5 s2^-1", 3)
        assert apply_flype(match_flype_3braid(w)) == parse_braid_word("s1^3 s2^-1 s1^-5 s2^4", 3)

    def test_fixed_point(self):
        w = BraidWord(3, (1, 2, 1, 2))
        data = match_flype_3braid(w)
        assert data is not None and data.eps == 1 and data.r == 1
        assert apply_flype(data) == w

    def test_double_flype_is_cyclic_permutation(self):
        rng = random.Random(54)
        done = 0
        while done < 30:
            p = rng.choice([-1, 1]) * rng.randint(1, 4)
            r = rng.choice([-1, 1]) * rng.randint(1, 4)
            q = rng.choice([-1, 1]) * rng.randint(1, 4)
            eps = rng.choice([-1, 1])
            letters = (
                (1 if p > 0 else -1,) * abs(p)
                + (2 if r > 0 else -2,) * abs(r)
                + (1 if q > 0 else -1,) * abs(q)
                + (eps * 2,)
            )
            w = BraidWord(3, letters)
            d1 = match_flype_3braid(w)
            if d1 is None:
                continue
            done += 1
            once = apply_flype(d1)
            d2 = match_flype_3braid(once)
            assert d2 is not None
            twice = apply_flype(d2)
            assert any(twice == rotate(w, k) for k in range(len(w)))

    def test_no_match(self):
        assert match_flype_3braid(BraidWord(3, (1, 1))) is None
        assert find_flype_decompositions(BraidWord(2, (1,))) == []

    def test_jones_preserved(self):
        rng = random.Random(55)
        done = 0
        while done < 15:
            letters = tuple(rng.choice([1, -1]) for _ in range(rng.randint(1, 4)))
            letters += tuple(rng.choice([2, -2]) for _ in range(rng.randint(1, 4)))
            letters += tuple(rng.choice([1, -1]) for _ in range(rng.randint(1, 4)))
            letters += (rng.choice([2, -2]),)
            w = BraidWord(3, letters)
            d = match_flype_3braid(w)
            if d is None:
                continue
            done += 1
            out = apply_flype(d)
            assert jones_polynomial(out) == jones_polynomial(w)
            assert exponent_sum(out) == exponent_sum(w) and out.n == w.n


class TestMovePreservation:
    def test_component_count_preserved(self):
        rng = random.Random(56)
        for _ in range(50):
            w = random_word(rng, rng.randint(2, 4), 8)
            n_comp = closure_components(w).n_components
            assert closure_components(stabilize(w, 1)).n_components == n_comp
            assert closure_components(stabilize(w, -1)).n_components == n_comp
            found = try_destabilize(w)
            if found is not None:
                assert closure_components(found.word).n_components == n_comp
            for d in find_exchange_decompositions(w):
                assert closure_components(d.apply(w)).n_components == n_comp


class TestExpandWeights:
    def test_identity_cabling(self):
        d = BlockStrandDiagram((1, 1, 1), (Crossing(1, 1), Crossing(2, -1)), {})
        assert expand_weights(d, {}) == BraidWord(3, (1, -2))

    def test_band_crossing(self):
        d = BlockStrandDiagram((2, 1), (Crossing(1, 1),), {})
        w = expand_weights(d, {})
        assert len(w) == 2  # u*v crossings
        assert all(x > 0 for x in w.letters)
        assert underlying_permutation(w) == (2, 3, 1)

    def test_band_crossing_negative(self):
        d = BlockStrandDiagram((2, 1), (Crossing(1, -1),), {})
        w = expand_weights(d, {})
        assert all(x < 0 for x in w.letters)
        assert underlying_permutation(w) == (2, 3, 1)

    def test_destab_assembly(self):
        for sign in (1, -1):
            t = destab_template(sign)
            left, right = instantiate_template(t, {"P": BraidWord(2, (1,))})
            assert left == BraidWord(3, (1, 2 * sign))
            assert right == BraidWord(2, (1,))

    def test_output_length_law(self):
        rng = random.Random(57)
        for _ in range(30):
            weights = tuple(rng.randint(1, 3) for _ in range(3))
            items = []
            arities = {"P": 2}
            expected = 0
            running = list(weights)
            assignment = {}
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    pos = rng.randint(1, 2)
                    items.append(Crossing(pos, rng.choice([1, -1])))
                    expected += running[pos - 1] * running[pos]
                    running[pos - 1], running[pos] = running[pos], running[pos - 1]
                elif "P" not in assignment:
                    span = running[0] + running[1]
                    word = random_word(rng, span, 5) if span > 1 else BraidWord(1)
                    items.append(BlockSlot("P", 1))
                    assignment["P"] = word
                    expected += len(word)
            if "P" not in assignment:
                assignment["P"] = BraidWord(weights[0] + weights[1])
                # block never placed; drop it from the arity map
                arities = {}
                assignment = {}
            d = BlockStrandDiagram(weights, tuple(items), arities)
            w = expand_weights(d, assignment)
            assert len(w) == expected
            assert expanded_arities(d) == {b: word.n for b, word in assignment.items()}

    def test_arity_mismatch(self):
        t = destab_template(1)
        with pytest.raises(ValueError):
            instantiate_template(t, {"P": BraidWord(3, (1,))})


def _peak_bytes(call, error, match):
    """Peak traced allocation while ``call()`` raises ``error``."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInstanceBounds:
    """Oversized template instances are rejected before anything is built."""

    def test_crossing_letters(self):
        # one crossing of two 1 500-strand bands is 2.25·10⁶ letters
        d = BlockStrandDiagram((1500, 1500), (Crossing(1, 1),), {})
        peak = _peak_bytes(lambda: expand_weights(d, {}), ResourceLimitError, "MAX_PARSED_LETTERS")
        assert peak < 1 << 20, peak

    def test_block_letters(self):
        # each block word is in bounds, their sum is not
        d = BlockStrandDiagram((1, 1), (BlockSlot("P"), BlockSlot("P")), {"P": 2})
        with pytest.raises(ResourceLimitError, match="10002 letters"):
            expand_weights(d, {"P": BraidWord(2, (1,) * 5001)})

    @pytest.mark.parametrize("weight", [5_000_000, 10**9])
    def test_strand_count(self, monkeypatch, weight):
        from braidkit import invariants

        monkeypatch.setattr(invariants, "closure_components", None)
        obj = {"name": "wide", "weights": [weight], "left": [], "right": [], "blocks": {}}
        peak = _peak_bytes(lambda: template_from_json(obj), ResourceLimitError, "MAX_PARSED_LETTERS")
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize(
        "max_len,error,match",
        [(3_000_000, ResourceLimitError, "MAX_PARSED_LETTERS"), (-1, ValueError, ">= 0, got -1")],
    )
    def test_block_word_length(self, max_len, error, match):
        # rng=None: any draw would fail with AttributeError instead
        t = exchange_template()
        peak = _peak_bytes(lambda: random_assignment(t, max_len, None), error, match)
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("max_len", [True, 2.0, "3"])
    def test_block_word_length_must_be_an_int(self, max_len):
        # rng=None: any draw would fail with AttributeError instead
        with pytest.raises(ValueError) as err:
            random_assignment(exchange_template(), max_len, None)
        assert str(err.value) == f"max_len must be an integer, got {max_len!r}"

    def test_block_arity_below_one(self):
        obj = {
            "name": "nullary",
            "weights": [1, 1],
            "left": [{"b": ["P", 3]}],
            "right": [{"b": ["P", 3]}],
            "blocks": {"P": 0},
        }
        with pytest.raises(ValueError, match="block 'P' has arity 0"):
            template_from_json(obj)


class TestTemplates:
    def test_builtins_present(self):
        tpls = builtin_templates()
        assert sorted(tpls) == ["destab+", "destab-", "exchange", "flype+", "flype-"]

    def test_negative_flype_instantiates_flype_pair(self):
        t = builtin_templates()["flype-"]
        left, right = instantiate_template(
            t,
            {
                "P": BraidWord(2, (1,) * 5),
                "R": BraidWord(2, (1,) * 4),
                "Q": BraidWord(2, (1,) * 6),
            },
        )
        assert left == TX_PLUS and right == TX_MINUS

    def test_negative_flype_link_assignment(self):
        t = builtin_templates()["flype-"]
        left, right = instantiate_template(
            t,
            {
                "P": BraidWord(2, (1,) * 3),
                "R": BraidWord(2, (1,) * 4),
                "Q": BraidWord(2, (-1,) * 5),
            },
        )
        assert left == parse_braid_word("s1^3 s2^4 s1^-5 s2^-1", 3)
        assert right == parse_braid_word("s1^3 s2^-1 s1^-5 s2^4", 3)

    def test_exchange_identity_assignment(self):
        t = exchange_template()
        left, right = instantiate_template(t, {"P": BraidWord(2), "Q": BraidWord(2)})
        from braidkit.words import free_reduce

        assert free_reduce(left.letters) == () and free_reduce(right.letters) == ()

    def test_json_round_trip(self):
        for t in builtin_templates().values():
            assert template_from_json(template_to_json(t)) == t
        # a weighted band and unequal sides, so "right_weights" is written and read back
        wide = Template(
            "wide-destab",
            BlockStrandDiagram((3, 1, 1), (BlockSlot("P", 1), Crossing(2, 1)), {"P": 2}),
            BlockStrandDiagram((3, 1), (BlockSlot("P", 1),), {"P": 2}),
        )
        obj = template_to_json(wide)
        assert obj["right_weights"] == [3, 1]
        assert template_from_json(obj) == wide

    def test_json_booleans_rejected(self):
        obj = template_to_json(exchange_template())
        assert obj["weights"] == [1, 1, 1]
        with pytest.raises(ValueError, match="'weights'"):
            template_from_json({**obj, "weights": [True, 1, 1]})
        with pytest.raises(ValueError, match="'blocks'"):
            template_from_json({**obj, "blocks": {"P": 2, "Q": True}})

    @pytest.mark.parametrize("slot", [["R", True], [5, 2], [None, 2]])
    def test_json_block_slot_types(self, slot):
        # a position must be a JSON integer and a name a string; neither is coerced
        obj = template_to_json(flype_template(1))
        assert obj["left"][1] == {"b": ["R", 2]}
        obj["left"][1] = {"b": slot}
        with pytest.raises(ValueError, match="block item"):
            template_from_json(obj)

    def test_diagram_keeps_a_read_only_copy_of_its_arities(self):
        # a change to the caller's map after validation must not reach the diagram
        arities = {"P": 2}
        d = BlockStrandDiagram((1, 1, 1), (BlockSlot("P"), Crossing(2, 1)), arities)
        arities["P"] = 0
        assert d.block_arities == {"P": 2}
        assert expand_weights(d, {"P": BraidWord(2, (1,))}) == BraidWord(3, (1, 2))
        with pytest.raises(TypeError):
            d.block_arities["P"] = 0
        # the shipped templates build both sides from one map
        for t in (exchange_template(), flype_template(1)):
            with pytest.raises(TypeError):
                t.left.block_arities["P"] = 0
            assert t.left.block_arities["P"] == t.right.block_arities["P"] == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BlockStrandDiagram((True, 1), (), {}),
            lambda: BlockStrandDiagram((1, 1), (Crossing(1, True),), {}),
            lambda: BlockStrandDiagram((1, 1), (Crossing(1.0, 1),), {}),
            lambda: BlockStrandDiagram((1, 1), (BlockSlot("P"),), {"P": 2.0}),
            lambda: BlockStrandDiagram((1, 1), (BlockSlot("P"),), {"P": True}),
            lambda: BlockStrandDiagram((1, 1), (BlockSlot("P", True),), {"P": 1}),
            lambda: BlockStrandDiagram((1, 1), (BlockSlot(3),), {3: 1}),
            lambda: BlockStrandDiagram((1, 1), ((1, 1),), {}),
            lambda: Template(7, destab_template(1).right, destab_template(1).right),
            lambda: Template("destab+", destab_template(1).right, None),
        ],
        ids=["weight", "crossing sign", "crossing position", "float arity", "boolean arity",
             "slot position", "block name", "other item", "template name", "template side"],
    )
    def test_template_records_check_field_types(self, build):
        # as BraidWord does: an int field takes only an int, a name only a str
        with pytest.raises(ValueError):
            build()

    def test_mismatched_blocks_rejected(self):
        from braidkit.moves import Template

        a = flype_template(1)
        b = exchange_template()
        with pytest.raises(ValueError):
            Template("broken", a.left, b.right)


class TestMoveSequences:
    def test_replay_and_json(self):
        w = BraidWord(3, (1, 2))
        s1 = MoveStep("stab+", {}, stabilize(w, 1))
        w2 = s1.result
        found = try_destabilize(w2)
        s2 = MoveStep(
            "destab+" if found.sign > 0 else "destab-",
            {"conjugator": list(found.conjugator.letters), "rotation": found.rotation},
            found.word,
        )
        seq = MoveSequence(w, (s1, s2))
        assert replay(seq) == found.word
        assert replay(sequence_from_json(json.loads(json.dumps(sequence_to_json(seq))))) == found.word

    def test_replay_detects_corruption(self):
        w = BraidWord(3, (1, 2))
        bad = MoveSequence(w, (MoveStep("stab+", {}, BraidWord(4, (1, 2, -3))),))
        with pytest.raises(ValueError):
            replay(bad)

    def test_conjugation_step(self):
        w = BraidWord(3, (1, 2))
        out = apply_move(w, "conjugation", {"by": [2]})
        assert out == BraidWord(3, (-2, 1, 2, 2))


def flype_shaped_word(rng):
    """A random rotation of σ₁ᵖ·σ₂ʳ·σ₁^q·σ₂^ε with |p|, |r|, |q| ≤ 4."""
    letters = ()
    for index in (1, 2, 1):
        letters += (rng.choice([1, -1]) * index,) * rng.randint(1, 4)
    letters += (rng.choice([2, -2]),)
    return rotate(BraidWord(3, letters), rng.randrange(len(letters)))


def site_corpus():
    """TX±, seeded random B2–B4 words, and seeded flype-shaped B3 words."""
    rng = random.Random(130)
    words = [TX_PLUS, TX_MINUS]
    words += [random_word(rng, rng.choice([2, 3, 4]), 10) for _ in range(600)]
    words += [flype_shaped_word(rng) for _ in range(100)]
    return words


class TestSiteMoves:
    """``site.move()`` is the (kind, params) that apply_move replays."""

    def test_move_replays_every_site(self):
        sites = {"destab": 0, "exchange": 0, "flype": 0}
        for w in site_corpus():
            found = try_destabilize(w) if w.n >= 2 else None
            if found is not None:
                assert apply_move(w, *found.move()) == found.word
                sites["destab"] += 1
            for d in find_exchange_decompositions(w):
                assert apply_move(w, *d.move()) == d.apply(w)
                sites["exchange"] += 1
            for f in find_flype_decompositions(w):
                assert apply_move(w, *f.move()) == apply_flype(f)
                sites["flype"] += 1
        assert min(sites.values()) >= 50, sites

    def test_match_is_first_decomposition(self):
        for w in site_corpus():
            found = find_flype_decompositions(w)
            assert match_flype_3braid(w) == (found[0] if found else None)

    def test_flype_finders_match_the_rotation_scan(self):
        # every B3 word of at most 8 letters: 87 381 words, 3 920 sites on 3 120
        words, sites = 0, 0
        for length in range(9):
            for letters in itertools.product((1, -1, 2, -2), repeat=length):
                w = BraidWord(3, letters)
                found = flype_rotation_scan(w)
                assert find_flype_decompositions(w) == found
                assert match_flype_3braid(w) == (found[0] if found else None)
                words += 1
                sites += len(found)
        assert (words, sites) == (87_381, 3_920)

    def test_flype_matcher_against_built_words(self):
        # every B3 word of at most 8 letters: the 560 words built from their
        # exponents match at rotation 0 as built, and no other word matches
        built = built_flype_sites(8)
        assert len(built) == 560
        words = 0
        for length in range(9):
            for letters in itertools.product((1, -1, 2, -2), repeat=length):
                assert moves._flype_at(BraidWord(3, letters), 0) == built.get(letters)
                words += 1
        assert words == 87_381

    def test_shifted_flype_rejected(self):
        # Destab and exchange sites too: replay re-matches a site at its
        # rotation, read on the word the site matches (u = g⁻¹·w·g for a
        # destabilization), so a shifted or out-of-range rotation fails,
        # and so does a step whose params hold a key the site does not record.
        checked = {"destab": 0, "exchange": 0, "flype": 0}
        for w in site_corpus():
            for f in find_flype_decompositions(w):
                kind, params = f.move()
                with pytest.raises(ValueError, match=re.escape(f"recorded {kind} does not apply")):
                    apply_move(BraidWord(4, w.letters), kind, params)
            sites = [(d, len(w)) for d in find_exchange_decompositions(w)]
            sites += [(f, len(w)) for f in find_flype_decompositions(w)]
            found = try_destabilize(w) if w.n >= 2 else None
            if found is not None:
                sites.append((found, len(conjugate(w, found.conjugator))))
            for site, length in sites:
                kind, params = site.move()
                shifted = [{**params, "rotation": rotation}
                           for rotation in (site.rotation - 1, site.rotation + 1, length, -1)]
                for bad in shifted + [{**params, "eps": 1}]:
                    with pytest.raises(ValueError, match=re.escape(f"recorded {kind} does not apply")):
                        apply_move(w, kind, bad)
                checked[kind.rstrip("+-")] += 1
        assert min(checked.values()) >= 100, checked

    def test_extra_stab_and_conjugation_params_rejected(self):
        # Stabilization and conjugation steps replay through their sites by
        # the same rule: a record that is not exactly site.move() fails.
        w = BraidWord(3, (1, 2))
        assert apply_move(w, "stab+", {}) == BraidWord(4, (1, 2, 3))
        assert apply_move(w, "stab-", {}) == BraidWord(4, (1, 2, -3))
        assert apply_move(w, "conjugation", {"by": [1]}) == BraidWord(3, (2, 1))
        for kind, params in [
            ("stab+", {"sign": -1}),
            ("stab-", {"x": 0}),
            ("conjugation", {"by": [1], "junk": 1}),
        ]:
            with pytest.raises(ValueError, match=re.escape(f"recorded {kind} does not apply")):
                apply_move(w, kind, params)


class TestWinding:
    def test_trivial_assignment(self):
        iterates = winding_iterates(BraidWord(3), BraidWord(3), 3)
        assert all(w.letters == () for w in iterates)

    def test_invariants_along_iterates(self):
        P = BraidWord(3, (-1, -1, -2))
        Q = BraidWord(3, (-1, -2, -2))
        iterates = winding_iterates(P, Q, 2)
        assert len(iterates) == 3
        assert all(w.n == 4 for w in iterates)
        assert len({exponent_sum(w) for w in iterates}) == 1
        assert len({self_linking(w) for w in iterates}) == 1

    def test_block_enumeration_bounded(self, monkeypatch):
        # Criterion 10's blocks (3 letters on B3) are 85 words per sign.
        monkeypatch.setattr(moves, "MAX_WINDING_BLOCK_WORDS", 84)
        P = BraidWord(3, (-1, -1, -2))
        Q = BraidWord(3, (-1, -2, -2))
        with pytest.raises(ResourceLimitError, match="more than 84 block words"):
            winding_iterates(P, Q, 1)
        with pytest.raises(ResourceLimitError):
            winding_iterates(BraidWord(3, (1, 2) * 10), Q, 1)
        monkeypatch.setattr(moves, "MAX_WINDING_BLOCK_WORDS", 85)
        assert len(winding_iterates(P, Q, 0)) == 1

    def test_block_budget_spans_all_steps(self, monkeypatch):
        # Criterion 10 runs 4 steps over 85 blocks per sign: 340 block words.
        P = BraidWord(3, (-1, -1, -2))
        Q = BraidWord(3, (-1, -2, -2))
        monkeypatch.setattr(moves, "MAX_WINDING_BLOCK_WORDS", 339)
        with pytest.raises(ResourceLimitError, match="more than 339 block words"):
            winding_iterates(P, Q, 4)
        assert len(winding_iterates(P, Q, 3)) == 4
        monkeypatch.setattr(moves, "MAX_WINDING_BLOCK_WORDS", 340)
        assert len(winding_iterates(P, Q, 4)) == 5

    def test_pinned_sample_reaches_three_classes(self):
        P = BraidWord(3, (-1, -1, -2))
        Q = BraidWord(3, (-1, -2, -2))
        iterates = winding_iterates(P, Q, 2)
        keys = {super_summit_set(w) for w in iterates}
        assert len(keys) == 3
        js = [jones_polynomial(w) for w in iterates]
        assert all(j == js[0] for j in js)
