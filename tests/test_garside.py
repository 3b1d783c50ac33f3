import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkit.garside as garside_module
from braidkit import words
from braidkit.garside import (
    SuperSummitCapError,
    _conjugate_nf,
    _factors_word,
    _summit,
    _summit_closure,
    _word_summit,
    are_conjugate,
    cycling,
    decycling,
    left_normal_form,
    super_summit_set,
)
from oracles import plain_summit_closure
from braidkit.words import (
    BraidWord,
    ResourceLimitError,
    conjugate,
    invert,
    multiply,
    parse_braid_word,
    random_word,
)


class Untouched(tuple):
    """Letters that fail the test if a normal-form step reads them."""

    def __iter__(self):
        raise AssertionError("a factor was built")


def all_simples(n):
    """Every nontrivial permutation braid of Bₙ, as a permutation."""
    ident = tuple(range(1, n + 1))
    return [p for p in itertools.permutations(ident) if p != ident]


def exhaustive_summit_closure(start):
    """Oracle: close a summit element under all n! − 1 simple conjugations.

    Keeps the conjugates at start's (inf, canonical length); returns
    serialization -> NormalForm.
    """
    level = (start.inf, start.canonical_length)
    simples = all_simples(start.n)
    members = {start.serialize(): start}
    frontier = [start]
    while frontier:
        new_frontier = []
        for nf in frontier:
            for s in simples:
                cand = _conjugate_nf(nf, s)
                if (cand.inf, cand.canonical_length) != level or cand.serialize() in members:
                    continue
                members[cand.serialize()] = cand
                new_frontier.append(cand)
        frontier = new_frontier
    return members


@st.composite
def words_and_conjugators(draw):
    """A B3–B5 word of at most 12 letters and a conjugator of at most 6."""
    n = draw(st.integers(3, 5))
    letter = st.sampled_from([i for i in range(1 - n, n) if i != 0])
    w = BraidWord(n, tuple(draw(st.lists(letter, max_size=12))))
    g = BraidWord(n, tuple(draw(st.lists(letter, max_size=6))))
    return w, g


@st.composite
def short_words(draw):
    """A B2–B5 word of at most 10 letters."""
    n = draw(st.integers(2, 5))
    letter = st.sampled_from([i for i in range(1 - n, n) if i != 0])
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=10))))


def random_rewrite(rng, w):
    """One free insertion, far-commutation, or braid-relation rewrite of w."""
    letters = list(w.letters)
    ops = [("ins", rng.randrange(len(letters) + 1))]
    for k in range(len(letters) - 1):
        if abs(abs(letters[k]) - abs(letters[k + 1])) >= 2:
            ops.append(("comm", k))
    for k in range(len(letters) - 2):
        a, b, c = letters[k : k + 3]
        if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            ops.append(("yb", k))
    kind, k = rng.choice(ops)
    if kind == "comm":
        letters[k], letters[k + 1] = letters[k + 1], letters[k]
    elif kind == "yb":
        a, b = letters[k], letters[k + 1]
        letters[k : k + 3] = [b, a, b]
    else:
        x = rng.choice([i for i in range(1 - w.n, w.n) if i != 0])
        letters[k:k] = [x, -x]
    return BraidWord(w.n, tuple(letters))


class TestLeftNormalForm:
    def test_half_twist(self):
        nf = left_normal_form(parse_braid_word("s1 s2 s1", 3))
        assert nf.delta_power == 1 and nf.factors == ()
        assert nf.serialize() == "D^1 |"

    def test_braid_relation(self):
        a = left_normal_form(parse_braid_word("s1 s2 s1", 3))
        b = left_normal_form(parse_braid_word("s2 s1 s2", 3))
        assert a == b

    def test_inverse_generator(self):
        # oracle: sigma_1^{-1} = Delta^{-1} (Delta sigma_1^{-1}); the factor is
        # the permutation braid of Delta * sigma_1^{-1} = sigma_1 sigma_2
        nf = left_normal_form(parse_braid_word("s1^-1", 3))
        delta = parse_braid_word("s1 s2 s1", 3)
        factor_word = multiply(delta, invert(parse_braid_word("s1", 3)))
        from braidkit.words import underlying_permutation

        assert nf.delta_power == -1
        assert len(nf.factors) == 1
        assert nf.factors[0] == underlying_permutation(factor_word)

    def test_reconstruction_is_group_equal(self):
        rng = random.Random(10)
        for _ in range(50):
            w = random_word(rng, rng.randint(2, 5), 10)
            nf = left_normal_form(w)
            diff = multiply(invert(nf.as_word()), w)
            assert left_normal_form(diff).serialize() == "D^0 |"

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            w = random_word(rng, rng.randint(2, 5), 10)
            nf = left_normal_form(w)
            assert left_normal_form(nf.as_word()) == nf

    def test_rewriting_invariance(self):
        rng = random.Random(12)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 4), 10)
            nf = left_normal_form(w)
            v = w
            for _ in range(15):
                v = random_rewrite(rng, v)
            assert left_normal_form(v) == nf

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(short_words(), st.randoms(use_true_random=False))
    def test_rewriting_invariance_property(self, w, rng):
        # free insertions, far commutations and both sign forms of
        # σᵢσᵢ₊₁σᵢ = σᵢ₊₁σᵢσᵢ₊₁ leave the left normal form as it is
        v = w
        for _ in range(12):
            v = random_rewrite(rng, v)
        assert left_normal_form(v) == left_normal_form(w)

    def test_work_bound_rejects_before_any_factor(self):
        # 100 letters on B200: 200²·101·300 = 1.2·10⁹ units
        w = BraidWord(200, tuple(range(1, 101)))
        with pytest.raises(ResourceLimitError, match="MAX_NORMAL_FORM_WORK"):
            are_conjugate(w, w, want_witness=True)  # its exponent sums read the letters
        w = words._word(200, Untouched(w.letters))

        def table_sizes():
            return {name: f.cache_info().currsize for name, f in vars(garside_module).items()
                    if hasattr(f, "cache_info")}

        before = table_sizes()
        for call in (left_normal_form, super_summit_set):
            with pytest.raises(ResourceLimitError, match="MAX_NORMAL_FORM_WORK"):
                call(w)
        assert table_sizes() == before

    def test_work_bound_is_read_at_call_time(self, monkeypatch):
        w = parse_braid_word("s1 s2^-1", 3)  # 3²·3·5 = 135 units
        monkeypatch.setattr(garside_module, "MAX_NORMAL_FORM_WORK", 135)
        assert left_normal_form(w).serialize() == "D^-1 | 1 3 2 | 2 3 1"
        monkeypatch.setattr(garside_module, "MAX_NORMAL_FORM_WORK", 134)
        with pytest.raises(ResourceLimitError, match="MAX_NORMAL_FORM_WORK"):
            left_normal_form(w)


class TestCyclingDecycling:
    def test_one_factor_form_is_conjugation(self):
        from braidkit.garside import _cycling_step

        w = parse_braid_word("s1", 3)
        nf = left_normal_form(w)
        cycled, factor = _cycling_step(nf)
        mover = None if factor is None else garside_module._factors_word(3, [factor])
        assert mover is not None
        assert cycling(nf) == cycled == left_normal_form(conjugate(w, mover))

    def test_power_of_delta_unchanged(self):
        nf = left_normal_form(parse_braid_word("s1 s2 s1 s1 s2 s1", 3))
        assert nf.factors == ()
        assert decycling(nf) == nf
        assert cycling(nf) == nf

    def test_summit_of_mixed_word_matches_exhaustive_search(self):
        # oracle: minimal (inf, -length) over conjugates by all short words
        w = parse_braid_word("s1 s2^-1", 3)
        best = None
        for length in range(5):
            for gl in itertools.product([1, -1, 2, -2], repeat=length):
                nf = left_normal_form(conjugate(w, BraidWord(3, gl)))
                level = (nf.delta_power, -nf.canonical_length)
                best = level if best is None else max(best, level)
        summit, _ = _summit(left_normal_form(w))
        assert (summit.delta_power, -summit.canonical_length) == best

    def test_summit_is_a_fixed_point(self):
        # one cycling pass and one decycling pass reach the super summit set,
        # so a second pass from the summit element changes nothing
        rng = random.Random(14)
        for _ in range(1000):
            summit, _ = _summit(left_normal_form(random_word(rng, rng.randint(2, 6), 30)))
            assert _summit(summit) == (summit, [])

    def test_cycling_never_decreases_inf(self):
        rng = random.Random(13)
        for _ in range(50):
            nf = left_normal_form(random_word(rng, rng.randint(2, 4), 10))
            for _ in range(5):
                nxt = cycling(nf)
                assert nxt.delta_power >= nf.delta_power
                nf = nxt


class TestSuperSummitSet:
    def test_identity(self):
        key = super_summit_set(BraidWord(3))
        assert key.entries == ("D^0 |",)

    def test_generator_in_b3(self):
        # brute-force oracle: conjugate by all 6 permutation-braid words of B3
        # and close transitively, keeping minimal-length positive conjugates
        from braidkit.garside import _perm_word

        w = parse_braid_word("s1", 3)
        simple_words = [BraidWord(3, _perm_word(p)) for p in all_simples(3)]
        seen = {left_normal_form(w).serialize(): w}
        frontier = [w]
        while frontier:
            nxt = []
            for u in frontier:
                for g in simple_words:
                    v = conjugate(u, g)
                    nf = left_normal_form(v)
                    if (nf.delta_power, nf.canonical_length) != (0, 1):
                        continue
                    if nf.serialize() not in seen:
                        seen[nf.serialize()] = v
                        nxt.append(v)
            frontier = nxt
        oracle = tuple(sorted(seen))
        assert super_summit_set(w).entries == oracle
        assert len(oracle) == 2  # {sigma_1, sigma_2}

    def test_central_element_singleton(self):
        key = super_summit_set(parse_braid_word("s1 s2 s1 s1 s2 s1", 3))
        assert key.entries == ("D^2 |",)

    def test_cap_holds_on_a_cached_key(self, monkeypatch):
        # a key is cached only after closing within MAX_SUMMIT_SET, so a
        # lowered bound starts from an empty cache
        w, v = parse_braid_word("s1", 3), parse_braid_word("s2", 3)
        super_summit_set(w)  # caches the 2-member key of {s1, s2}
        monkeypatch.setattr(garside_module, "MAX_SUMMIT_SET", 1)
        garside_module._key_cache.clear()
        with pytest.raises(SuperSummitCapError, match="MAX_SUMMIT_SET"):
            super_summit_set(w)
        with pytest.raises(SuperSummitCapError):
            are_conjugate(w, v)
        with pytest.raises(SuperSummitCapError):
            are_conjugate(w, v, want_witness=True)
        assert not garside_module._key_cache

    def test_cap_escalates(self, monkeypatch):
        garside_module._key_cache.clear()
        monkeypatch.setattr(garside_module, "MAX_SUMMIT_SET", 1)
        w = parse_braid_word("s1", 3)  # summit set {s1, s2} has 2 > 1 elements
        with pytest.raises(SuperSummitCapError):
            super_summit_set(w)
        monkeypatch.setattr(garside_module, "MAX_SUMMIT_SET", 2)
        assert len(super_summit_set(w).entries) == 2

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(words_and_conjugators())
    def test_closure_matches_exhaustive_oracle(self, case):
        w, g = case
        summit, _ = _summit(left_normal_form(w))
        closure = _summit_closure(summit)
        members = {}  # serialization -> (member, conjugator word from summit)
        for nf, (parent, s) in closure.items():
            conj = BraidWord(summit.n)
            while parent is not None:
                conj = multiply(BraidWord(summit.n, garside_module._perm_word(s)), conj)
                parent, s = closure[parent]
            members[nf.serialize()] = (nf, conj)
        assert set(members) == set(exhaustive_summit_closure(summit))
        for nf, conj in members.values():
            assert left_normal_form(conjugate(summit.as_word(), conj)) == nf
        assert super_summit_set(conjugate(w, g)) == super_summit_set(w)

    def test_closure_matches_plain_closure(self, monkeypatch):
        # same members in the same order with the same parents, though only
        # about one member in two of each τ-orbit pair is expanded itself
        expanded = []
        expansion = garside_module._expansion
        monkeypatch.setattr(garside_module, "_expansion",
                            lambda nf: expanded.append(nf) or expansion(nf))
        rng = random.Random(23)
        members = 0
        for _ in range(150):
            n = rng.randint(3, 5)
            summit, _ = _summit(left_normal_form(random_word(rng, n, rng.randint(4, 12))))
            closure = _summit_closure(summit)
            assert list(closure.items()) == list(plain_summit_closure(summit).items())
            members += len(closure)
        assert members > 5000 and len(expanded) < 0.55 * members

    def test_closure_stops_at_the_goal(self):
        # a prefix of the full closure ending at the goal: the same parents,
        # so the same path from the start
        def path(closure, nf):
            steps = []
            parent, s = closure[nf]
            while parent is not None:
                steps.append(s)
                parent, s = closure[parent]
            return steps[::-1]

        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(3, 5)
            summit, _ = _summit(left_normal_form(random_word(rng, n, rng.randint(4, 12))))
            full = list(_summit_closure(summit).items())
            for k in sorted({0, len(full) // 2, len(full) - 1}):
                goal = full[k][0]
                closure = _summit_closure(summit, goal)
                assert list(closure.items()) == full[: k + 1]
                assert path(closure, goal) == path(dict(full), goal)
                conj = _factors_word(n, [(s, 1) for s in path(closure, goal)])
                assert left_normal_form(conjugate(summit.as_word(), conj)) == goal

    def test_conjugate_found_within_the_cap(self, monkeypatch):
        # v's summit element is the 11th of 22 members: a cap of 11 answers
        # True with a witness, a cap of 10 raises before reaching it
        u = parse_braid_word("s1 s2^-1 s3 s2 s1^-1 s3^2 s2 s1", 4)
        full = list(_summit_closure(_word_summit(u)[0]))
        assert len(full) == 22
        v = full[10].as_word()
        assert _word_summit(v)[0] == full[10]
        monkeypatch.setattr(garside_module, "_key_cache", {})
        monkeypatch.setattr(garside_module, "MAX_SUMMIT_SET", 11)
        with pytest.raises(SuperSummitCapError):
            super_summit_set(u)
        assert are_conjugate(u, v) is True
        ok, g = are_conjugate(u, v, want_witness=True)
        assert ok and left_normal_form(conjugate(u, g)) == left_normal_form(v)
        monkeypatch.setattr(garside_module, "MAX_SUMMIT_SET", 10)
        for want_witness in (False, True):
            with pytest.raises(SuperSummitCapError):
                are_conjugate(u, v, want_witness=want_witness)

    def test_non_conjugate_pair_past_the_cap_raises(self, monkeypatch):
        # TX± share exponent sum and summit level (-1, 14); TX+'s set has 28
        # members, none TX-'s summit element, so a False answer needs all 28
        u = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
        v = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
        su, sv = _word_summit(u)[0], _word_summit(v)[0]
        assert (su.inf, su.canonical_length) == (sv.inf, sv.canonical_length) == (-1, 14)
        assert len(_summit_closure(su)) == 28
        monkeypatch.setattr(garside_module, "MAX_SUMMIT_SET", 28)
        assert are_conjugate(u, v) is False
        monkeypatch.setattr(garside_module, "MAX_SUMMIT_SET", 27)
        for want_witness in (False, True):
            with pytest.raises(SuperSummitCapError):
                are_conjugate(u, v, want_witness=want_witness)

    def test_closure_work_bound(self, monkeypatch):
        # at most n - 1 conjugations per member, where all n! - 1 simples are 23
        calls = []

        def counted(nf, s):
            calls.append(s)
            return _conjugate_nf(nf, s)

        w = parse_braid_word("s1 s2^-1 s3 s2 s1^-1 s3^2 s2 s1", 4)
        summit, _ = _summit(left_normal_form(w))
        monkeypatch.setattr(garside_module, "_conjugate_nf", counted)
        members = _summit_closure(summit)
        assert len(members) > 1
        assert len(calls) <= 3 * len(members)


def test_join_is_least_common_multiple():
    from braidkit.garside import _join, _meet

    def divides(a, b):
        return _meet(a, b) == a

    for n in (3, 4):
        perms = list(itertools.permutations(range(1, n + 1)))
        for s in perms:
            for t in perms:
                j = _join(s, t)
                assert divides(s, j) and divides(t, j)
                assert all(divides(j, u) for u in perms if divides(s, u) and divides(t, u))


class TestKernelAgainstInversionSets:
    """The lattice kernel against definitions on inversion sets.

    A permutation braid is determined by which pairs of strands cross,
    labelled by start position: inv(p) = {(i, j) : i < j, p(i) > p(j)}.
    a ≼ b iff inv(a) ⊆ inv(b); a product a·c is simple iff the crossing
    counts add; a·∂a = Δ; τ is conjugation by Δ.  Nothing here calls a
    helper of ``garside``.
    """

    @staticmethod
    def lattice(n):
        perms = list(itertools.permutations(range(1, n + 1)))
        inv = {p: frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                            if p[i - 1] > p[j - 1]) for p in perms}
        return perms, inv

    @staticmethod
    def then(p, q):
        return tuple(q[v - 1] for v in p)

    @pytest.mark.parametrize("n", [3, 4])
    def test_kernel_matches_definitions(self, n):
        from braidkit.garside import _join, _meet, _renorm_pair, _right_complement, _tau

        perms, inv = self.lattice(n)
        ident, delta = perms[0], perms[-1]
        assert inv[ident] == frozenset() and len(inv[delta]) == n * (n - 1) // 2

        def divides(a, b):
            return inv[a] <= inv[b]

        def simple_product(a, c):
            return len(inv[self.then(a, c)]) == len(inv[a]) + len(inv[c])

        def greatest(cands):
            (top,) = [c for c in cands if all(divides(d, c) for d in cands)]
            return top

        def least(cands):
            (bottom,) = [c for c in cands if all(divides(c, d) for d in cands)]
            return bottom

        for a in perms:
            (rc,) = [x for x in perms if self.then(a, x) == delta]
            assert simple_product(a, rc) and _right_complement(a) == rc
            assert _tau(a) == self.then(self.then(delta, a), delta)
            for b in perms:
                assert _meet(a, b) == greatest([d for d in perms if divides(d, a) and divides(d, b)])
                assert _join(a, b) == least([u for u in perms if divides(a, u) and divides(b, u)])
                c = greatest([d for d in perms if divides(d, b) and simple_product(a, d)])
                if c == ident:
                    assert _renorm_pair(a, b) is None
                    continue
                c_inv = tuple(sorted(range(1, n + 1), key=lambda i: c[i - 1]))
                left, right = self.then(a, c), self.then(c_inv, b)
                assert _renorm_pair(a, b) == (left, right)
                assert not any(divides(d, right) and simple_product(left, d)
                               for d in perms if d != ident)


def test_answers_do_not_depend_on_cache_state():
    # every memo table in garside: the functions carrying an lru_cache
    tables = {name: f for name, f in vars(garside_module).items() if hasattr(f, "cache_info")}
    assert {"_renorm_pair", "_completion_step", "_join", "_right_complement", "_tau",
            "_word_summit"} <= set(tables)
    for name, table in tables.items():
        assert table.cache_info().maxsize is not None, name

    rng = random.Random(17)
    cases = []
    for _ in range(200):
        n = rng.randint(2, 5)
        w = random_word(rng, n, 10)
        cases.append((w, conjugate(w, random_word(rng, n, 4))))

    def answers():
        return [(super_summit_set(w).entries, are_conjugate(w, v, want_witness=True))
                for w, v in cases]

    first = answers()  # with whatever earlier work left in the caches
    for table in tables.values():
        table.cache_clear()
    garside_module._key_cache.clear()
    cold = answers()
    assert first == cold
    assert answers() == cold  # every class now comes from the key cache


def test_word_summit_is_the_summit_of_the_normal_form():
    rng = random.Random(19)
    corpus = [random_word(rng, rng.randint(2, 5), 12) for _ in range(300)]
    expected = [(s, tuple(g)) for s, g in (_summit(left_normal_form(w)) for w in corpus)]
    _word_summit.cache_clear()
    assert [_word_summit(w) for w in corpus] == expected  # cold
    assert [_word_summit(w) for w in corpus] == expected  # warm
    assert _word_summit.cache_info().hits >= len(corpus)


def test_word_summit_conjugator_reaches_the_summit():
    # the memo's conjugator factors g satisfy g⁻¹·w·g = summit, by normal form
    rng = random.Random(21)
    for _ in range(300):
        w = random_word(rng, rng.randint(2, 6), 12)
        summit, conj = _word_summit(w)
        g = _factors_word(w.n, list(conj))
        assert left_normal_form(conjugate(w, g)) == summit


class TestAreConjugate:
    def test_rotation_pair_with_witness(self):
        u, v = parse_braid_word("s1 s2", 3), parse_braid_word("s2 s1", 3)
        # the trivial identity behind the example: s1^-1 (s1 s2) s1 = s2 s1
        assert conjugate(u, parse_braid_word("s1", 3)) == v
        ok, g = are_conjugate(u, v, want_witness=True)
        assert ok
        assert left_normal_form(conjugate(u, g)) == left_normal_form(v)

    def test_opposite_signs_not_conjugate(self):
        assert not are_conjugate(parse_braid_word("s1", 2), parse_braid_word("s1^-1", 2))

    def test_flype_pair_not_conjugate(self):
        a = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
        b = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
        assert are_conjugate(a, b) is False

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            are_conjugate(BraidWord(2, (1,)), BraidWord(3, (1,)))

    def test_strand_mismatch_message(self):
        u, v = BraidWord(2, (1,)), BraidWord(3, (1, -2))
        for a, b in ((u, v), (v, u)):
            for want_witness in (False, True):
                with pytest.raises(ValueError) as err:
                    are_conjugate(a, b, want_witness=want_witness)
                assert str(err.value) == f"strand-count mismatch: {a.n} vs {b.n}"

    def test_soundness_and_witness_validity(self):
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randint(2, 4)
            w = random_word(rng, n, 8)
            g = random_word(rng, n, 6)
            v = conjugate(w, g)
            ok, witness = are_conjugate(w, v, want_witness=True)
            assert ok
            assert left_normal_form(conjugate(w, witness)) == left_normal_form(v)

    def test_decision_ignores_key_cache(self, monkeypatch):
        # neither form of the decision reads or writes the key cache
        rng = random.Random(16)
        pairs = []
        for _ in range(20):
            n = rng.randint(3, 4)
            w = random_word(rng, n, 8)
            pairs.append((w, conjugate(w, random_word(rng, n, 6)), True))
        tx_plus = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
        tx_minus = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
        pairs.append((tx_plus, tx_minus, False))
        wants = [want for _, _, want in pairs]

        class Poisoned(dict):
            def _touched(self, *args):
                raise AssertionError("_key_cache touched")

            get = __getitem__ = __setitem__ = __contains__ = setdefault = _touched

        monkeypatch.setattr(garside_module, "_key_cache", Poisoned())
        assert [are_conjugate(u, v) for u, v, _ in pairs] == wants
        assert [are_conjugate(u, v, want_witness=True)[0] for u, v, _ in pairs] == wants
        # the poison is reachable: the key path does read the cache
        with pytest.raises(AssertionError, match="_key_cache touched"):
            super_summit_set(pairs[0][0])

    def test_level_mismatch_needs_no_closure(self, monkeypatch):
        # s1 s2^-1 has a four-member super summit set at inf -1; the empty
        # word's summit is the identity.  Equal exponent sums, unequal levels:
        # both forms answer False before any closure, so a cap of 1 is not hit.
        monkeypatch.setattr(garside_module, "MAX_SUMMIT_SET", 1)
        monkeypatch.setattr(garside_module, "_key_cache", {})
        u, v = parse_braid_word("s1 s2^-1", 3), BraidWord(3)
        with pytest.raises(SuperSummitCapError):
            super_summit_set(u)
        assert are_conjugate(u, v) is False
        assert are_conjugate(u, v, want_witness=True) == (False, None)
        assert are_conjugate(v, u) is False

    def test_exponent_sum_separation(self):
        rng = random.Random(15)
        checked = 0
        while checked < 50:
            n = rng.randint(2, 4)
            u, v = random_word(rng, n, 8), random_word(rng, n, 8)
            from braidkit.words import exponent_sum

            if exponent_sum(u) == exponent_sum(v):
                continue
            checked += 1
            assert not are_conjugate(u, v)


def test_permutation_braid_word_length_is_inversions():
    import itertools

    from braidkit.garside import _perm_word
    from braidkit.words import underlying_permutation

    for images in itertools.permutations(range(1, 5)):
        w = BraidWord(4, _perm_word(images))
        inversions = sum(1 for a in range(4) for b in range(a + 1, 4) if images[a] > images[b])
        assert len(w) == inversions
        assert all(x > 0 for x in w.letters)
        assert underlying_permutation(w) == images


def test_key_sorting_deterministic():
    w = parse_braid_word("s1 s2^-1", 3)
    k1 = super_summit_set(w)
    k2 = super_summit_set(conjugate(w, parse_braid_word("s2 s1 s2", 3)))
    assert k1 == k2
    assert list(k1.entries) == sorted(k1.entries)


def test_key_entries_follow_factor_tuples():
    # from B10 on an image 10 sorts before 9 as text, so factor-tuple order
    # and string order part ways
    w = parse_braid_word("s9 s8", 10)
    members = _summit_closure(_summit(left_normal_form(w))[0])
    ordered = sorted(members, key=lambda nf: nf.factors)
    key = super_summit_set(w)
    assert key.entries == tuple(nf.serialize() for nf in ordered)
    assert len(key.entries) == 16
    assert list(key.entries) != sorted(key.entries)


# (n, u, v, witness, u's as_word(), v's as_word()) as letter tuples: v is a
# seeded conjugate of u, the witness is are_conjugate(u, v, want_witness=True)'s
# word and as_word() is taken of each left normal form.  Free reduction has a
# unique result, so any correct refactor of the conjugator bookkeeping keeps
# these letter for letter.
PINNED_WITNESSES = [(2, (-1, -1, -1, 1, -1), (-1, -1, -1), (), (-1, -1, -1), (-1, -1, -1)),
 (3, (2, -1, -1, 2, 1, -1, 1, -1), (-1, -1, 2, 2), (2,),
  (-1, -2, -1, -1, -2, -1, 2, 2, 1, 1, 2, 2), (-1, -2, -1, -1, -2, -1, 2, 1, 1, 2, 2, 2)),
 (4, (-1, 2, 1, 1), (-3, 2, -1, 2, 1, 1, -2, 3),
  (2, 1, 3, 2, 1, 1, 2, 3, -1, -2, -3, -2, -1, -3, -1, -2), (-1, 2, 1, 1),
  (-1, -2, -3, -1, -2, -1, -1, -2, -3, -1, -2, -1, 2, 1, 3, 1, 2, 3, 2, 1, 1, 2, 2, 2, 1,
   3)),
 (5, (-1,), (-2, -1, 2), (2, 1, 3, 2, 4, 3, -1, -2, -3, -4, -1, -2, -3, -1), (-1,),
  (-1, -2, -3, -4, -1, 4, 3, 2, 2)),
 (2, (1,), (1,), (), (1,), (1,)),
 (3, (-1, -2, -2, 2, -1, -1), (-2, -1, -2, -1, -1, 2), (1, -2, -1), (-1, -2, -1, -1),
  (-1, -2, -1, -1, -2, -1, -1, -2, -1, 2, 1, 1, 2, 2)),
 (4, (-2, 1, 3, -1), (-3, 1, -2, 1, 3, -1, -1, 3), (2, 3, -2, -1),
  (-1, -2, -3, -1, 3, 2, 1, 3), (-1, -2, -3, -1, -2, -1, 2, 3, 2, 2, 3, 3)),
 (5, (3, -1, -1, -1, 2, 2, 1), (1, 3, 3, -1, -1, -1, 2, 2, 1, -3, -1),
  (2, 1, 3, 2, 1, 4, 3, 2, 1, 1, 2, 1, 3, 2, 1, 4, 3, 2, 2, 1, 3, 2, 1, 4, 3, 2, 1, 1, 2, 1,
   3, 2, 1, 4, 2, 1, 3, 4, 3, 2, 1, 2, 3, 4, 3, 2, 3, -1, -2, -3, -4, -3, -1, -2, -4, -2,
   -3, -2, -1, -1, -2, -3, -4, -2, -3, -2, -2, -3, -4, -1, -2, -3, -1, -2, -1, -1, -2, -3,
   -4, -1, -2, -3, -1, -2),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -1, -1, -2, -3, -4, -1, -2, -3, -1, -2, -1, -1, 2, 1,
   3, 2, 1, 4, 3, 2, 1, 1, 2, 1, 3, 2, 1, 4, 3, 2, 3, 2, 2, 1),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -1, -1, -2, -3, -4, -1, -2, -3, -1, -2, -1, 2, 1, 3,
   2, 1, 4, 3, 2, 1, 1, 2, 1, 3, 2, 1, 4, 2, 3, 3, 3, 2)),
 (2, (-1, 1, -1), (-1,), (), (-1,), (-1,)),
 (3, (1, -2, -2, 1, -1), (2, 1, -2, 1, -2, -1, -2), (1, 1, 2, 1),
  (-1, -2, -1, -1, -2, 1, 2, 2, 1), (-1, -2, -1, -1, -2, -1, 2, 1, 1, 2, 2)),
 (4, (-1, -3, 1, -2), (3, -1, -1, -3, 1, -2, 1, -3), (1, 2, 3, -2, -3, -2),
  (-1, -2, -3, -1, -2, -1, 2, 3, 2, 1), (-1, -2, -3, 1)),
 (5, (4, -4, 2, -1, -2, -3, 4), (-3, 4, 2, -1, -2),
  (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 3), (-1, -2, -3, 1, 4),
  (-1, -2, -3, -4, -1, -2, -3, -1, 3, 2, 1, 4, 3, 1, 4)),
 (2, (1, 1, 1, -1), (1, 1), (), (1, 1), (1, 1)),
 (3, (-2, 1, 2, 2, 1, -1, 2, 2), (1, 2, 2, 2), (1, 2, 2, 1, 1, -2, -1),
  (-1, -2, -1, 2, 1, 1, 2, 2, 2, 2), (1, 2, 2, 2)),
 (4, (2, -1, -1, -1), (1, 3, 2, -1, -1, -1, -3, -1), (2, 3, -2, -3, -2, -1),
  (-1, -2, -3, -1, -2, -1, -1, -2, -3, -1, -2, -1, -1, -2, 1, 2, 3, 2, 1, 1, 2, 3, 2, 1, 1,
   2),
  (-1, -2, -3, -1, -2, -1, -1, -2, -3, -1, -2, -1, -1, -2, -3, -1, -2, -1, -1, -2, -3, -1,
   3, 2, 2, 1, 3, 2, 1, 1, 2, 1, 3, 2, 2, 1, 3, 2, 2, 1, 3, 2)),
 (5, (-2, 1, -2), (-2, -4, -3, -1, -2, 1, -2, 1, 3, 4, 2),
  (3, 4, 1, 2, 3, 4, 1, 2, -4, -1, -2, -3, -1),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -1, -1, -2, -3, -4, -1, -2, -3, -1, 3, 2, 1, 4, 3, 2,
   1, 1, 2, 1, 3, 2, 4, 3, 2, 2, 1),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -1, -1, -2, -3, -4, -1, -2, -3, -1, -2, 3, 2, 1, 4,
   1, 2, 1, 3, 2, 4, 3, 2, 2, 1, 3, 4, 1, 2)),
 (2, (-1, -1, -1, 1, 1), (-1,), (), (-1,), (-1,)),
 (3, (-2, -1, 2, 1, -2), (1, 1, -2, -1, 2, 1, -2, -1, -1), (-1, -1),
  (-1, -2, -1, -1, -2, 1, 2, 2, 1),
  (-1, -2, -1, -1, -2, -1, -1, -2, -1, 2, 2, 2, 2, 1, 1, 1, 2)),
 (4, (3, -2, 1, -2), (2, -1, 3, -2, 1, -2, 1, -2), (1, -2),
  (-1, -2, -3, -1, -2, -1, -1, -2, -3, -1, 3, 2, 2, 1, 3, 1, 2, 3, 2, 1),
  (-1, -2, -3, -1, -2, -1, -1, -2, -3, -1, -2, -1, -1, -2, -3, 1, 2, 1, 3, 1, 2, 3, 2, 1, 1,
   2, 3, 2, 2, 1)),
 (5, (4, 2, -1, 1), (-4, -1, 4, 2, 1, 4), (1, 2, 3, 4, -1, -2, -3, -4, -1, -2, -3, -1, -2),
  (2, 4), (-1, 2, 1, 4)),
 (2, (1, -1, -1, 1), (), (), (), ()),
 (3, (1, -1, -2, -1, 1), (-2, 1, -2, -1, 2), (1, -2, -1), (-1, -2, -1, 2, 1),
  (-1, -2, -1, -1, 2, 2, 2)),
 (4, (2, -3, -3, -3, 2, -2), (1, 2, -3, -3, -3, -1), (1, 2, 3, 3, 2),
  (-1, -2, -3, -1, -2, -1, -1, -2, -3, -1, -2, -1, -1, -2, -3, -1, -2, -1, 2, 3, 2, 1, 1, 2,
   3, 2, 1, 1, 2, 3, 2, 1, 3, 2),
  (-1, -2, -3, -1, -2, -1, -1, -2, -3, -1, -2, -1, -1, -2, -3, -1, -2, -1, 2, 3, 2, 2, 1, 3,
   2, 1, 2, 1, 3, 2, 2, 1, 3, 2)),
 (5, (4,), (3, 3, 3, 3, 4, -3, -3, -3, -3),
  (-1, -2, -3, -4, -1, -2, -3, -2, -1, -3, -4, -1, -2, -3, -1, -2, -1, -1, -2, -3, -4, -1,
   -2, -3, -1, -3, -4, -1, -2, -3, -1, -2, -1),
  (4,),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -1, -1, -2, -3, -4, -1, -2, -3, -1, -2, -1, -1, -2,
   -3, -4, -1, -2, -3, -1, -2, -1, -1, -2, 1, 3, 2, 1, 4, 3, 2, 1, 1, 2, 1, 3, 2, 1, 4, 3,
   1, 2, 3, 2, 1, 4, 3, 2, 1, 4, 3, 3, 4, 4, 3, 3, 4)),
 (2, (1,), (1,), (), (1,), (1,)),
 (3, (-1, 1, -2, 1, 1), (-1, -1, -2, -2, 1, 1, 2, 1, 1), (1, 2, 1, 1, 2, -1, -2),
  (-1, -2, -1, 2, 1, 1, 1), (-1, -2, -1, -1, -2, -1, 2, 1, 1, 1, 2, 2, 1)),
 (4, (-1, -2, -3), (-3, 1, -2, -1, -2, -3, 2, -1, 3), (3, -1, -2, -1), (-1, -2, -3),
  (-1, -2, -3, -1, -2, -1, -1, -2, -3, 2, 1, 3, 1, 2, 3)),
 (5, (1, 2, 2, 1, 1, 2, 3, -4), (3, -2, -4, 1, 1, 2, 2, 1, 1, 2, 3, -4, -1, 4, 2, -3),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -4, -2, -3, -1, -2, -3, -4, -2, -3, -2, -1),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -1, 2, 3, 2, 4, 3, 2, 2, 3, 3, 2, 2, 1, 3, 2, 4, 3),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -1, -1, -2, -3, -4, -1, -2, -3, -1, 3, 2, 4, 3, 2, 1,
   3, 2, 4, 2, 1, 3, 2, 4, 3, 2, 1, 1, 2, 2, 1, 3, 1, 2)),
 (2, (-1, 1, 1, -1, 1), (1,), (), (1,), (1,)),
 (3, (1, -2), (-2, 1), (1,), (-1, -2, -1, 2, 2, 1), (-1, -2, -1, 2, 1, 1)),
 (4, (1, -3, 3, -1, -1), (3, 1, 2, -1, -2, -1, -3), (-2, -3, -2, -1), (-1,),
  (-1, -2, -3, -1, -2, 3, 2, 1, 2)),
 (5, (-1, -4, 3), (-2, -1, -4, 3, 2), (2,),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -1, 2, 1, 3, 2, 1, 4, 3, 2, 3),
  (-1, -2, -3, -4, -1, -2, -3, -1, -2, -1, 2, 1, 3, 2, 4, 3, 2, 3, 2))]


def test_witness_and_word_letters_are_pinned():
    for n, u, v, witness, u_word, v_word in PINNED_WITNESSES:
        u, v = BraidWord(n, u), BraidWord(n, v)
        ok, g = are_conjugate(u, v, want_witness=True)
        assert ok and g.letters == witness
        assert left_normal_form(u).as_word().letters == u_word
        assert left_normal_form(v).as_word().letters == v_word


# sha256 of [left_normal_form(w).serialize(), super_summit_set(w).entries] over
# the seeded words below.  Any change to a factor, a key member or their
# order moves it.
PINNED_FORMS_SHA256 = "5925e5077d3f8d8a3392b0842caaed75416972f1f42a2874c63fdc53841b6ba0"


def test_normal_forms_and_keys_are_pinned():
    rng = random.Random(32)
    digest = hashlib.sha256()
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 5), 12)
        digest.update(json.dumps([left_normal_form(w).serialize(), super_summit_set(w).entries]).encode())
    assert digest.hexdigest() == PINNED_FORMS_SHA256
