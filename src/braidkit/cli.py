"""
Command-line surface for the library.

Exit codes: 0 success (or an affirmative answer), 1 a negative answer
(not conjugate, search exhausted, no matching move, fuzz failures),
2 usage error or a documented resource bound hit (``ResourceLimitError``,
such as the super summit set cap), 3 internal consistency failure.

``verify-paper`` re-runs, end to end, every computation in the published
argument that the two transverse 3-braids σ₁⁵σ₂⁴σ₁⁶σ₂⁻¹ and
σ₁⁵σ₂⁻¹σ₁⁶σ₂⁴ share their topological type and self-linking number yet
are not exchangeable by transverse moves.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field

from . import garside, invariants, moves, search, transverse, words
from .transverse import InternalConsistencyError
from .words import BraidSyntaxError, BraidWord


def _parse_word(text: str, n: int | None) -> BraidWord:
    if n is None:
        raise BraidSyntaxError("a strand count is required: pass -n <strands>")
    return words.parse_braid_word(text, n)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _invariants_payload(w: BraidWord) -> dict:
    inv = transverse.component_invariants(w)
    jones = invariants.jones_polynomial(w)
    alex = invariants.alexander_with_flag(w)
    return {
        "word": words.word_to_json(w),
        "exponent_sum": words.exponent_sum(w),
        "braid_index": w.n,
        "self_linking": inv.beta_total,
        "components": inv.n_components,
        "component_self_linking": list(inv.per_component),
        "pairwise_linking": [[list(pair), lk] for pair, lk in inv.pairwise_linking],
        "jones": jones.to_json("q"),
        "jones_text": invariants.jones_text(jones),
        "alexander": alex.polynomial.to_json("t"),
        "alexander_text": alex.polynomial.text("t"),
        "alexander_normalized": alex.normalized,
    }


def _cmd_normalize(args) -> int:
    w = _parse_word(args.word, args.n)
    nf = garside.left_normal_form(w)
    if args.json:
        _print_json({**asdict(nf), "serialized": nf.serialize()})
    else:
        print(nf.serialize())
    return 0


def _cmd_conjugate(args) -> int:
    u = _parse_word(args.word1, args.n)
    v = _parse_word(args.word2, args.n)
    ok, witness = garside.are_conjugate(u, v, want_witness=True)
    if args.json:
        _print_json(
            {
                "conjugate": ok,
                "witness": words.word_to_json(witness) if witness is not None else None,
            }
        )
    else:
        if ok:
            print(f"conjugate; witness g = {words.format_word(witness) or '(empty)'}")
        else:
            print("not conjugate")
    return 0 if ok else 1


def _cmd_invariants(args) -> int:
    w = _parse_word(args.word, args.n)
    payload = _invariants_payload(w)
    if args.json:
        _print_json(payload)
    else:
        print(f"word            {words.format_word(w) or '(empty)'}")
        print(f"braid index     {payload['braid_index']}")
        print(f"exponent sum    {payload['exponent_sum']}")
        print(f"self-linking    {payload['self_linking']}")
        print(f"components      {payload['components']}")
        print(f"component beta  {payload['component_self_linking']}")
        print(f"pairwise lk     {payload['pairwise_linking']}")
        print(f"jones           {payload['jones_text']}")
        print(f"alexander       {payload['alexander_text']}")
    return 0


def _cmd_move(args) -> int:
    if args.replay:
        with open(args.replay, encoding="utf-8") as fh:
            seq = moves.sequence_from_json(json.load(fh))
        final = moves.replay(seq)
        if args.json:
            _print_json({"replayed": True, "final": words.word_to_json(final)})
        else:
            print(f"replayed {len(seq.steps)} steps -> {words.format_word(final) or '(empty)'}")
        return 0

    if args.kind is None or args.word is None:
        raise BraidSyntaxError("move requires a kind and a word (or --replay <file>)")
    w = _parse_word(args.word, args.n)
    kind = args.kind
    if kind in ("stab+", "stab-"):
        sites = [moves.Stabilization(1 if kind == "stab+" else -1)]
    else:
        if kind == "destab":
            found = [moves.try_destabilize(w)]
            no_match = f"no destabilization: no single s{w.n - 1} once cyclically reduced"
        elif kind == "exchange":
            found, no_match = moves.find_exchange_decompositions(w), "no exchange decomposition"
        else:  # flype: argparse admits no other kind
            found, no_match = moves.find_flype_decompositions(w), "no flype match"
        sites = [site for site in found if site is not None]
        if not sites:
            print(no_match, file=sys.stderr)
            return 1
    if not 0 <= args.index < len(sites):
        raise BraidSyntaxError(f"--index must be in 0..{len(sites) - 1}: the word has "
                               f"{len(sites)} {kind} decompositions")
    result = sites[args.index].apply(w)
    if args.json:
        _print_json({"result": words.word_to_json(result)})
    else:
        print(words.format_word(result) or "(empty)")
    return 0


def _cmd_search(args) -> int:
    u = _parse_word(args.word1, args.n)
    v = _parse_word(args.word2, args.n)
    bounds = search.SearchBounds(
        max_strands=args.max_strands,
        max_word_length=args.max_length,
        max_nodes=args.max_nodes,
        move_set=search.TRANSVERSE if args.transverse else search.TOPOLOGICAL,
    )
    result = search.connect(u, v, bounds)
    if args.json:
        payload = {"outcome": result.outcome, "stats": asdict(result.stats)}
        if result.sequence is not None:
            payload["sequence"] = moves.sequence_to_json(result.sequence)
        _print_json(payload)
    else:
        print(f"{result.outcome} (expanded {result.stats.nodes_expanded} nodes)")
        if result.sequence is not None:
            for step in result.sequence.steps:
                print(f"  {step.kind}: {words.format_word(step.result) or '(empty)'}")
    return 0 if result.found else 1


def _cmd_template(args) -> int:
    builtins = moves.builtin_templates()
    if args.name in builtins:
        template = builtins[args.name]
    else:
        with open(args.name, encoding="utf-8") as fh:
            template = moves.template_from_json(json.load(fh))
    if args.seed is None:
        raise BraidSyntaxError("template check is randomized: pass --seed")
    report = invariants.template_soundness_check(template, args.trials, args.max_len, args.seed)
    if args.json:
        # asdict turns each failure's words into {"n", "letters"}, their word_to_json form
        _print_json(asdict(report))
    else:
        print(f"template {report.template}: {report.trials} trials, {len(report.failures)} failures")
        for f in report.failures:
            print(f"  trial {f.trial}: {f.mismatch} mismatch ({f.detail})")
    return 0 if report.ok else 1


def _cmd_winding(args) -> int:
    P = _parse_word(args.P, args.n)
    Q = _parse_word(args.Q, args.n)
    iterates = moves.winding_iterates(P, Q, args.k)
    distinct = len({garside.super_summit_set(w) for w in iterates})
    if args.json:
        _print_json(
            {
                "iterates": [words.word_to_json(w) for w in iterates],
                "distinct_classes": distinct,
            }
        )
    else:
        for i, w in enumerate(iterates):
            print(f"w{i}: {words.format_word(w) or '(empty)'}")
        print(f"distinct conjugacy classes: {distinct}")
    return 0


@dataclass
class _Check:
    label: str
    anchor: str
    passed: bool
    detail: str
    # Wall time since the previous check; left out of equality.
    seconds: float = field(default=0.0, compare=False)


def verify_paper(seed: int = 0) -> list[_Check]:
    """Every computation in the flype-pair argument, as executable checks."""
    checks: list[_Check] = []
    last = time.perf_counter()

    def add(check: _Check) -> None:
        nonlocal last
        now = time.perf_counter()
        check.seconds = round(now - last, 3)
        last = now
        checks.append(check)

    tx_plus = words.parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
    tx_minus = words.parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
    link_pre = words.parse_braid_word("s1^3 s2^4 s1^-5 s2^-1", 3)
    link_post_expected = words.parse_braid_word("s1^3 s2^-1 s1^-5 s2^4", 3)

    e1, e2 = words.exponent_sum(tx_plus), words.exponent_sum(tx_minus)
    add(
        _Check(
            "(a) exponent sums and braid index",
            "exponent sum 14 for both words; braid index 3 for both",
            (e1, e2, tx_plus.n, tx_minus.n) == (14, 14, 3, 3),
            f"e = {e1}, {e2}; n = {tx_plus.n}, {tx_minus.n}",
        )
    )

    b1, b2 = transverse.self_linking(tx_plus), transverse.self_linking(tx_minus)
    add(
        _Check(
            "(b) self-linking of both words",
            "beta = e - n = 14 - 3 = 11 for both",
            (b1, b2) == (11, 11),
            f"beta = {b1}, {b2}",
        )
    )

    data = moves.match_flype_3braid(tx_plus)
    flyped = moves.apply_flype(data) if data is not None else None
    add(
        _Check(
            "(c) negative flype maps one word to the other",
            "s1^5 s2^4 s1^6 s2^-1 -> s1^5 s2^-1 s1^6 s2^4, letter for letter",
            flyped == tx_minus,
            f"got {words.format_word(flyped) if flyped else 'no match'}",
        )
    )

    jp = invariants.jones_polynomial(tx_plus)
    jm = invariants.jones_polynomial(tx_minus)
    ap = invariants.alexander_polynomial(tx_plus)
    am = invariants.alexander_polynomial(tx_minus)
    add(
        _Check(
            "(d) topological-equality oracles agree",
            "the two closures share Jones and Alexander polynomials",
            jp == jm and ap == am,
            f"jones equal: {jp == jm}; alexander equal: {ap == am}",
        )
    )

    conj = garside.are_conjugate(tx_plus, tx_minus)
    add(
        _Check(
            "(e) the two words are not conjugate in B3",
            "distinct closed-braid isotopy classes at braid index 3",
            conj is False,
            f"are_conjugate = {conj}",
        )
    )

    inv_pre = transverse.component_invariants(link_pre)
    post = moves.apply_flype(moves.match_flype_3braid(link_pre))
    inv_post = transverse.component_invariants(post)
    f_ok = (
        post == link_post_expected
        and inv_pre.n_components == 2
        and inv_pre.per_component == (-1, -3)
        and inv_post.per_component == (-3, -1)
        and inv_pre.pairwise_linking == (((1, 2), 1),)
        and inv_post.pairwise_linking == (((1, 2), 1),)
    )
    add(
        _Check(
            "(f) the 2-component link obstruction",
            "component beta (-1,-3) before the flype, (-3,-1) after; lk = 1 both",
            f_ok,
            f"pre {inv_pre.per_component} lk {inv_pre.pairwise_linking}; "
            f"post {inv_post.per_component} lk {inv_post.pairwise_linking}",
        )
    )

    import random as _random

    rng = _random.Random(seed)
    g_fail = 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        length = rng.randint(0, 12)
        alphabet = [i for i in range(1 - n, n) if i != 0]
        w = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length)))
        beta0 = transverse.self_linking(w)
        scrambled, seq = search.scramble(
            w, rng.randint(0, 6), rng.randrange(1 << 30), move_set=search.TRANSVERSE
        )
        if any(not transverse.is_transverse_move(s.kind) for s in seq.steps):
            g_fail += 1
        elif transverse.self_linking(scrambled) != beta0:
            g_fail += 1
    add(
        _Check(
            "(g) beta invariance under transverse moves",
            "1000 seeded random transverse move sequences keep beta constant",
            g_fail == 0,
            f"{g_fail} failures",
        )
    )

    h_fail = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        length = rng.randint(0, 10) if n > 1 else 0
        alphabet = [i for i in range(1 - n, n) if i != 0]
        w = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length)))
        before, after = transverse.negative_stabilization_beta_drop(w)
        if after != before - 2:
            h_fail += 1
    drop = transverse.negative_stabilization_beta_drop(tx_plus)
    add(
        _Check(
            "(h) negative stabilization drops beta by 2",
            "beta(stab-(w)) = beta(w) - 2; on the first word, 11 -> 9",
            h_fail == 0 and drop == (11, 9),
            f"{h_fail} failures; flype word drop {drop}",
        )
    )

    bounds = search.SearchBounds(
        max_strands=4, max_word_length=24, max_nodes=100_000, move_set=search.TRANSVERSE
    )
    result = search.connect(tx_plus, tx_minus, bounds)
    add(
        _Check(
            "(i) bounded transverse search exhausts",
            "no transverse move path within (4 strands, length 24, 1e5 nodes); "
            "evidence, not proof",
            result.outcome == "exhausted",
            f"{result.outcome} after {result.stats.nodes_expanded} expansions",
        )
    )
    return checks


def _cmd_verify_paper(args) -> int:
    t0 = time.perf_counter()
    checks = verify_paper(seed=args.seed if args.seed is not None else 0)
    elapsed = time.perf_counter() - t0
    if args.json:
        _print_json(
            {
                "checks": [asdict(c) for c in checks],
                "all_passed": all(c.passed for c in checks),
                "seconds": round(elapsed, 3),
            }
        )
    else:
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            print(f"[{mark}] {c.label}")
            print(f"       {c.anchor}")
            print(f"       {c.detail}")
        print(f"{'all checks passed' if all(c.passed for c in checks) else 'FAILURES PRESENT'} "
              f"({elapsed:.1f}s)")
    return 0 if all(c.passed for c in checks) else 3


class _CommandParser(argparse.ArgumentParser):
    """A subcommand parser that lets options sit between its positionals.

    A plain parse fills every optional positional from the first run of
    positionals, so ``move exchange --index 0 -n 3 WORD`` would leave the word
    unclaimed.  Intermixed parsing reads the options first, then the
    positionals; it calls back into ``parse_known_args``, hence the guard.

    Leftover arguments are an error of this command, with its own usage.  An
    option it does not take leaves its value to the positionals, so when
    options are left over only they are named.
    """

    _intermixed = False

    def parse_known_args(self, args=None, namespace=None):
        if self._intermixed:
            return super().parse_known_args(args, namespace)
        self._intermixed = True
        try:
            namespace, extras = self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixed = False
        if extras:
            options = [a for a in extras if a.startswith("-")]
            self.error("unrecognized arguments: " + " ".join(options or extras))
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured JSON output")
    worded = argparse.ArgumentParser(add_help=False, parents=[common])
    worded.add_argument("-n", type=int, default=None, help="strand count for word arguments")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="seed for randomized commands")

    parser = argparse.ArgumentParser(
        prog="braidkit",
        description="closed braids: Garside conjugacy, Markov-move templates, "
        "transverse invariants, and polynomial oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("normalize", parents=[worded], help="Garside left normal form")
    p.add_argument("word")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("conjugate", parents=[worded], help="decide conjugacy of two words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("invariants", parents=[worded], help="beta, components, Jones, Alexander")
    p.add_argument("word")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("move", parents=[worded], help="apply a move, or replay a recorded sequence")
    p.add_argument("kind", nargs="?", choices=["stab+", "stab-", "destab", "exchange", "flype"])
    p.add_argument("word", nargs="?")
    p.add_argument("--replay", metavar="FILE", help="replay a MoveSequence JSON file")
    p.add_argument("--index", type=int, default=0, help="which site of the move kind (default 0)")
    p.set_defaults(func=_cmd_move)

    p = sub.add_parser("search", parents=[worded], help="bounded move-graph search between two words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--transverse", action="store_true", help="transverse move set only")
    p.add_argument("--max-strands", type=int, default=search.SearchBounds.max_strands)
    p.add_argument("--max-length", type=int, default=search.SearchBounds.max_word_length)
    p.add_argument("--max-nodes", type=int, default=search.SearchBounds.max_nodes)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("template", parents=[seeded], help="template tools")
    p.add_argument("action", choices=["check"])
    p.add_argument("name", help="builtin name (destab+/destab-/exchange/flype+/flype-) or JSON file")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=_cmd_template)

    p = sub.add_parser("winding", parents=[worded], help="exchange-move winding iterates")
    p.add_argument("P")
    p.add_argument("Q")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_winding)

    p = sub.add_parser(
        "verify-paper", parents=[seeded], help="re-run the published flype-pair computations"
    )
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (BraidSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
