"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is exact (integer or polynomial equality, zero
tolerance); the stated time budgets are asserted where the criterion
states one.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

import pytest

from braidkit.garside import are_conjugate, left_normal_form, super_summit_set
from braidkit.invariants import (
    alexander_polynomial,
    bracket_coeff_table,
    jones_polynomial,
    template_soundness_check,
)
from braidkit.moves import (
    apply_flype,
    builtin_templates,
    match_flype_3braid,
    stabilize,
    winding_iterates,
)
from braidkit.search import TRANSVERSE, SearchBounds, connect, scramble
from braidkit.transverse import (
    component_invariants,
    is_transverse_move,
    self_linking,
)
from braidkit.words import BraidWord, conjugate, exponent_sum, parse_braid_word, random_word

TX_PLUS = parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
TX_MINUS = parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
LINK_PRE = parse_braid_word("s1^3 s2^4 s1^-5 s2^-1", 3)
LINK_POST = parse_braid_word("s1^3 s2^-1 s1^-5 s2^4", 3)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_01_flype_pair_numbers():
    t0 = time.perf_counter()
    values = (
        exponent_sum(TX_PLUS),
        exponent_sum(TX_MINUS),
        TX_PLUS.n,
        TX_MINUS.n,
        self_linking(TX_PLUS),
        self_linking(TX_MINUS),
    )
    elapsed = time.perf_counter() - t0
    ok = values == (14, 14, 3, 3, 11, 11) and elapsed < 0.001
    report("1 flype-pair numbers: e=14/14, n=3/3, beta=11/11",
           ok, f"{elapsed*1000:.3f} ms")


def test_criterion_02_flype_application():
    first = apply_flype(match_flype_3braid(TX_PLUS))
    second = apply_flype(match_flype_3braid(LINK_PRE))
    ok = first == TX_MINUS and second == LINK_POST
    report("2 flype maps both word pairs letter-exactly", ok)


def test_criterion_03_link_obstruction():
    t0 = time.perf_counter()
    pre = component_invariants(LINK_PRE)
    post = component_invariants(LINK_POST)
    elapsed = time.perf_counter() - t0
    ok = (
        pre.n_components == post.n_components == 2
        and pre.per_component == (-1, -3)
        and post.per_component == (-3, -1)
        and pre.pairwise_linking == (((1, 2), 1),)
        and post.pairwise_linking == (((1, 2), 1),)
        and elapsed < 0.010
    )
    report("3 link obstruction: beta (-1,-3) -> (-3,-1), lk=1 both",
           ok, f"{elapsed*1000:.2f} ms")


def test_criterion_04_topological_equality_oracle():
    t0 = time.perf_counter()
    tab_plus, states_plus = bracket_coeff_table(TX_PLUS)
    tab_minus, states_minus = bracket_coeff_table(TX_MINUS)
    jones_equal = jones_polynomial(TX_PLUS) == jones_polynomial(TX_MINUS)
    alex_equal = alexander_polynomial(TX_PLUS) == alexander_polynomial(TX_MINUS)
    elapsed = time.perf_counter() - t0
    ok = (
        jones_equal
        and alex_equal
        and states_plus == states_minus == 2**16
        and elapsed < 5.0
    )
    report("4 Jones and Alexander agree on the flype pair (2^16 states each)",
           ok, f"{elapsed:.2f} s")


def test_criterion_05_non_conjugacy():
    t0 = time.perf_counter()
    result = are_conjugate(TX_PLUS, TX_MINUS)
    elapsed = time.perf_counter() - t0
    ok = result is False and elapsed < 10.0
    report("5 flype pair not conjugate in B3 (super summit sets)",
           ok, f"{elapsed:.2f} s")


def test_criterion_06_beta_invariance_suite():
    rng = random.Random(600)
    move_failures = 0
    drop_failures = 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        w = random_word(rng, n, 12)
        beta = self_linking(w)
        scrambled, seq = scramble(
            w, rng.randint(0, 6), rng.randrange(1 << 30), move_set=TRANSVERSE
        )
        if not all(is_transverse_move(s.kind) for s in seq.steps):
            move_failures += 1
        elif self_linking(scrambled) != beta:
            move_failures += 1
        if self_linking(stabilize(w, -1)) != beta - 2:
            drop_failures += 1
    ok = move_failures == 0 and drop_failures == 0
    report("6 beta constant along 1000 transverse sequences; 1000 stab- drops of 2",
           ok, f"{move_failures}+{drop_failures} failures")


def test_criterion_07_template_soundness_fuzzing():
    t0 = time.perf_counter()
    failures = {}
    for name, template in sorted(builtin_templates().items()):
        rep = template_soundness_check(template, trials=100, max_len=6, seed=700)
        failures[name] = len(rep.failures)
    # mutation check: flype template with the trailing half-twist sign flipped
    from braidkit.moves import BlockSlot, BlockStrandDiagram, Crossing, Template

    good = builtin_templates()["flype-"]
    corrupted = Template(
        "flype-corrupted",
        good.left,
        BlockStrandDiagram(
            (1, 1, 1),
            (BlockSlot("P", 1), Crossing(2, 1), BlockSlot("Q", 1), BlockSlot("R", 2)),
            {"P": 2, "Q": 2, "R": 2},
        ),
    )
    mutant = template_soundness_check(corrupted, trials=100, max_len=6, seed=701)
    elapsed = time.perf_counter() - t0
    ok = all(v == 0 for v in failures.values()) and len(mutant.failures) >= 1 and elapsed < 120
    report("7 five templates pass 100 fuzz trials each; corrupted template detected",
           ok, f"{failures}, mutant failures={len(mutant.failures)}, {elapsed:.1f} s")


def test_criterion_08_garside_correctness():
    from test_garside import random_rewrite

    rng = random.Random(800)
    nf_failures = 0
    conj_failures = 0
    for _ in range(500):
        n = rng.randint(2, 4)
        w = random_word(rng, n, 10)
        nf = left_normal_form(w)
        v = w
        for _ in range(20):
            v = random_rewrite(rng, v)
        if left_normal_form(v) != nf:
            nf_failures += 1
        g = random_word(rng, n, 6)
        if not are_conjugate(w, conjugate(w, g)):
            conj_failures += 1
    ok = nf_failures == 0 and conj_failures == 0
    report("8 normal form invariant under 500x20 rewritings; 500 conjugacy checks",
           ok, f"{nf_failures}+{conj_failures} failures")


def test_criterion_09_markov_search_round_trip():
    rng = random.Random(900)
    bounds = SearchBounds(max_strands=5, max_word_length=24, max_nodes=10_000)
    failures = 0
    for _ in range(50):
        n = rng.randint(2, 3)
        w = random_word(rng, n, 6)
        scrambled, _ = scramble(w, rng.randint(0, 3), rng.randrange(1 << 30), max_strands=5)
        if len(scrambled.letters) > 24:
            scrambled = w  # keep within declared input bounds
        result = connect(scrambled, w, bounds)
        if not result.found:
            failures += 1
    report("9 50 seeded scrambles reconnected by search", failures == 0,
           f"{failures} failures")


def test_criterion_10_winding_phenomenon():
    P = BraidWord(3, (-1, -1, -2))
    Q = BraidWord(3, (-1, -2, -2))
    iterates = winding_iterates(P, Q, 4)
    assert len(iterates) == 5
    keys = {super_summit_set(w) for w in iterates}
    jones = [jones_polynomial(w) for w in iterates]
    ok = len(keys) >= 3 and all(j == jones[0] for j in jones)
    report("10 winding yields >=3 conjugacy classes with equal Jones",
           ok, f"{len(keys)} distinct classes")


def test_criterion_11_bounded_transverse_exhaustion():
    bounds = SearchBounds(
        max_strands=4, max_word_length=24, max_nodes=100_000, move_set=TRANSVERSE
    )
    result = connect(TX_PLUS, TX_MINUS, bounds)
    # Bounded exhaustion is consistency evidence for the flype pair being
    # transversally distinct; it is not a proof.
    ok = result.outcome == "exhausted"
    report("11 transverse search between the flype pair exhausts",
           ok, f"expanded {result.stats.nodes_expanded} nodes")
