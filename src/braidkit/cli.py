"""
Command-line surface for the library.

Exit codes: 0 success (or an affirmative answer), 1 a negative answer
(not conjugate, search exhausted, no matching move, fuzz failures),
2 usage error or a documented resource bound hit (``ResourceLimitError``,
such as the super summit set cap), 3 internal consistency failure.

Each command computes one result, ``(exit code, JSON payload, text)``, and
only :func:`run` prints it: the payload under ``--json``, the text otherwise.
A command with no result (a ``move`` with no matching site) returns no
payload; its message went to stderr.

``verify-paper`` re-runs, end to end, every computation in the published
argument that the two transverse 3-braids σ₁⁵σ₂⁴σ₁⁶σ₂⁻¹ and
σ₁⁵σ₂⁻¹σ₁⁶σ₂⁴ share their topological type and self-linking number yet
are not exchangeable by transverse moves.  Each check reports its own wall
time in ``seconds``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import NamedTuple

from . import garside, invariants, moves, search, transverse, words
from .words import BraidSyntaxError, BraidWord, InternalConsistencyError


def _parse_word(text: str, n: int | None) -> BraidWord:
    if n is None:
        raise BraidSyntaxError("a strand count is required: pass -n <strands>")
    return words.parse_braid_word(text, n)


def _text(w: BraidWord | None) -> str:
    return words.format_word(w) or "(empty)"


def _cmd_normalize(args):
    nf = garside.left_normal_form(_parse_word(args.word, args.n))
    return 0, {**nf._asdict(), "serialized": nf.serialize()}, nf.serialize()


def _cmd_conjugate(args):
    u = _parse_word(args.word1, args.n)
    v = _parse_word(args.word2, args.n)
    ok, witness = garside.are_conjugate(u, v, want_witness=True)
    payload = {
        "conjugate": ok,
        "witness": words.word_to_json(witness) if witness is not None else None,
    }
    text = f"conjugate; witness g = {_text(witness)}" if ok else "not conjugate"
    return (0 if ok else 1), payload, text


def _cmd_invariants(args):
    w = _parse_word(args.word, args.n)
    inv = transverse.component_invariants(w)
    jones = invariants.jones_polynomial(w)
    alex = invariants.alexander_with_flag(w)
    payload = {
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
    rows = [
        ("braid index", "braid_index"),
        ("exponent sum", "exponent_sum"),
        ("self-linking", "self_linking"),
        ("components", "components"),
        ("component beta", "component_self_linking"),
        ("pairwise lk", "pairwise_linking"),
        ("jones", "jones_text"),
        ("alexander", "alexander_text"),
    ]
    lines = [f"{'word':<16}{_text(w)}"] + [f"{label:<16}{payload[key]}" for label, key in rows]
    return 0, payload, "\n".join(lines)


def _cmd_move(args):
    if args.replay:
        with open(args.replay, encoding="utf-8") as fh:
            seq = moves.sequence_from_json(json.load(fh))
        final = moves.replay(seq)
        return (0, {"replayed": True, "final": words.word_to_json(final)},
                f"replayed {len(seq.steps)} steps -> {_text(final)}")

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
            return 1, None, None
    if not 0 <= args.index < len(sites):
        raise BraidSyntaxError(f"--index must be in 0..{len(sites) - 1}: the word has "
                               f"{len(sites)} {kind} decompositions")
    result = sites[args.index].apply(w)
    return 0, {"result": words.word_to_json(result)}, _text(result)


def _cmd_search(args):
    u = _parse_word(args.word1, args.n)
    v = _parse_word(args.word2, args.n)
    bounds = search.SearchBounds(
        max_strands=args.max_strands,
        max_word_length=args.max_length,
        max_nodes=args.max_nodes,
        move_set=search.TRANSVERSE if args.transverse else search.TOPOLOGICAL,
    )
    result = search.connect(u, v, bounds)
    payload = {"outcome": result.outcome, "stats": result.stats._asdict()}
    lines = [f"{result.outcome} (expanded {result.stats.nodes_expanded} nodes)"]
    if result.sequence is not None:
        payload["sequence"] = moves.sequence_to_json(result.sequence)
        lines += [f"  {step.kind}: {_text(step.result)}" for step in result.sequence.steps]
    return (0 if result.found else 1), payload, "\n".join(lines)


def _cmd_template(args):
    builtins = moves.builtin_templates()
    if args.name in builtins:
        template = builtins[args.name]
    else:
        with open(args.name, encoding="utf-8") as fh:
            template = moves.template_from_json(json.load(fh))
    if args.seed is None:
        raise BraidSyntaxError("template check is randomized: pass --seed")
    report = invariants.template_soundness_check(template, args.trials, args.max_len, args.seed)
    lines = [f"template {report.template}: {report.trials} trials, {len(report.failures)} failures"]
    lines += [f"  trial {f.trial}: {f.mismatch} mismatch ({f.detail})" for f in report.failures]
    failures = [
        {**f._asdict(), "left": words.word_to_json(f.left), "right": words.word_to_json(f.right)}
        for f in report.failures
    ]
    return (0 if report.ok else 1), {**report._asdict(), "failures": failures}, "\n".join(lines)


def _cmd_winding(args):
    P = _parse_word(args.P, args.n)
    Q = _parse_word(args.Q, args.n)
    iterates = moves.winding_iterates(P, Q, args.k)
    distinct = len({garside.super_summit_set(w) for w in iterates})
    payload = {
        "iterates": [words.word_to_json(w) for w in iterates],
        "distinct_classes": distinct,
    }
    lines = [f"w{i}: {_text(w)}" for i, w in enumerate(iterates)]
    lines.append(f"distinct conjugacy classes: {distinct}")
    return 0, payload, "\n".join(lines)


class _Check(NamedTuple):
    label: str
    anchor: str
    passed: bool
    detail: str
    seconds: float  # the check's own wall time, rounded to ms


def verify_paper(seed: int = 0) -> list[_Check]:
    """Every computation in the flype-pair argument, as executable checks.

    Each check returns ``(passed, detail)`` and is timed on its own; (g) and
    (h) draw, in that order, from one ``random.Random(seed)``.
    """
    tx_plus = words.parse_braid_word("s1^5 s2^4 s1^6 s2^-1", 3)
    tx_minus = words.parse_braid_word("s1^5 s2^-1 s1^6 s2^4", 3)
    link_pre = words.parse_braid_word("s1^3 s2^4 s1^-5 s2^-1", 3)
    link_post_expected = words.parse_braid_word("s1^3 s2^-1 s1^-5 s2^4", 3)
    rng = random.Random(seed)

    def exponent_sums():
        e1, e2 = words.exponent_sum(tx_plus), words.exponent_sum(tx_minus)
        return ((e1, e2, tx_plus.n, tx_minus.n) == (14, 14, 3, 3),
                f"e = {e1}, {e2}; n = {tx_plus.n}, {tx_minus.n}")

    def self_linking():
        b1, b2 = transverse.self_linking(tx_plus), transverse.self_linking(tx_minus)
        return (b1, b2) == (11, 11), f"beta = {b1}, {b2}"

    def flype():
        data = moves.match_flype_3braid(tx_plus)
        flyped = moves.apply_flype(data) if data is not None else None
        return flyped == tx_minus, f"got {words.format_word(flyped) if flyped else 'no match'}"

    def oracles():
        jp = invariants.jones_polynomial(tx_plus)
        jm = invariants.jones_polynomial(tx_minus)
        ap = invariants.alexander_polynomial(tx_plus)
        am = invariants.alexander_polynomial(tx_minus)
        return jp == jm and ap == am, f"jones equal: {jp == jm}; alexander equal: {ap == am}"

    def not_conjugate():
        conj = garside.are_conjugate(tx_plus, tx_minus)
        return conj is False, f"are_conjugate = {conj}"

    def link_obstruction():
        inv_pre = transverse.component_invariants(link_pre)
        post = moves.apply_flype(moves.match_flype_3braid(link_pre))
        inv_post = transverse.component_invariants(post)
        passed = (
            post == link_post_expected
            and inv_pre.n_components == 2
            and inv_pre.per_component == (-1, -3)
            and inv_post.per_component == (-3, -1)
            and inv_pre.pairwise_linking == (((1, 2), 1),)
            and inv_post.pairwise_linking == (((1, 2), 1),)
        )
        return passed, (f"pre {inv_pre.per_component} lk {inv_pre.pairwise_linking}; "
                        f"post {inv_post.per_component} lk {inv_post.pairwise_linking}")

    def beta_invariance():
        fail = 0
        for _ in range(1000):
            w = words.random_word(rng, rng.randint(2, 4), 12)
            beta0 = transverse.self_linking(w)
            scrambled, seq = search.scramble(
                w, rng.randint(0, 6), rng.randrange(1 << 30), move_set=search.TRANSVERSE
            )
            if (any(not transverse.is_transverse_move(s.kind) for s in seq.steps)
                    or transverse.self_linking(scrambled) != beta0):
                fail += 1
        return fail == 0, f"{fail} failures"

    def stabilization_drop():
        fail = 0
        for _ in range(200):
            w = words.random_word(rng, rng.randint(1, 4), 10)
            before, after = transverse.negative_stabilization_beta_drop(w)
            if after != before - 2:
                fail += 1
        drop = transverse.negative_stabilization_beta_drop(tx_plus)
        return fail == 0 and drop == (11, 9), f"{fail} failures; flype word drop {drop}"

    def bounded_search():
        bounds = search.SearchBounds(
            max_strands=4, max_word_length=24, max_nodes=100_000, move_set=search.TRANSVERSE
        )
        result = search.connect(tx_plus, tx_minus, bounds)
        return (result.outcome == "exhausted",
                f"{result.outcome} after {result.stats.nodes_expanded} expansions")

    table = [
        ("(a) exponent sums and braid index",
         "exponent sum 14 for both words; braid index 3 for both", exponent_sums),
        ("(b) self-linking of both words", "beta = e - n = 14 - 3 = 11 for both", self_linking),
        ("(c) negative flype maps one word to the other",
         "s1^5 s2^4 s1^6 s2^-1 -> s1^5 s2^-1 s1^6 s2^4, letter for letter", flype),
        ("(d) topological-equality oracles agree",
         "the two closures share Jones and Alexander polynomials", oracles),
        ("(e) the two words are not conjugate in B3",
         "distinct closed-braid isotopy classes at braid index 3", not_conjugate),
        ("(f) the 2-component link obstruction",
         "component beta (-1,-3) before the flype, (-3,-1) after; lk = 1 both", link_obstruction),
        ("(g) beta invariance under transverse moves",
         "1000 seeded random transverse move sequences keep beta constant", beta_invariance),
        ("(h) negative stabilization drops beta by 2",
         "beta(stab-(w)) = beta(w) - 2; on the first word, 11 -> 9", stabilization_drop),
        ("(i) bounded transverse search exhausts",
         "no transverse move path within (4 strands, length 24, 1e5 nodes); evidence, not proof",
         bounded_search),
    ]
    checks = []
    for label, anchor, check in table:
        start = time.perf_counter()
        passed, detail = check()
        checks.append(_Check(label, anchor, passed, detail,
                             round(time.perf_counter() - start, 3)))
    return checks


def _cmd_verify_paper(args):
    seed = args.seed if args.seed is not None else 0
    t0 = time.perf_counter()
    checks = verify_paper(seed=seed)
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks)
    payload = {"checks": [c._asdict() for c in checks], "all_passed": ok,
               "seconds": round(elapsed, 3), "seed": seed}
    lines = []
    for c in checks:
        lines += [f"[{'PASS' if c.passed else 'FAIL'}] {c.label}", f"       {c.anchor}",
                  f"       {c.detail}"]
    lines.append(f"{'all checks passed' if ok else 'FAILURES PRESENT'} ({elapsed:.1f}s)")
    return (0 if ok else 3), payload, "\n".join(lines)


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
    defaults = search.SearchBounds._field_defaults
    p.add_argument("--max-strands", type=int, default=defaults["max_strands"])
    p.add_argument("--max-length", type=int, default=defaults["max_word_length"])
    p.add_argument("--max-nodes", type=int, default=defaults["max_nodes"])
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
    """Parse argv, compute the command's one result, and print it as text or JSON."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload, text = args.func(args)
        if payload is not None:
            print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
