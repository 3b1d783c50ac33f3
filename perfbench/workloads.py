"""The four workloads: seeded op lists, the timed call of one op, and exact checks.

Each workload is a closed loop: one process runs one op at a time.  Input
sizes and the pinned pools below are fixed: do not re-seed or shrink them to
hide a regression.  ``--seed`` varies the op order and, except for roundtrip
and the Alexander words of wide, the contents (trial letters, rotations,
conjugators, the verify-paper seed); a second seed runs the same workload on
inputs no change was tuned on.

Costs in this domain are exponential in word length (bracket: 2^L states) and
heavy-tailed in the conjugacy class (summit-set size), so a workload whose
sizes were drawn at random would change its total cost by 2x from seed to
seed.  Sizes are therefore pinned (fuzz: fixed block-length profiles; wide:
one op per pool word; roundtrip: a pinned corpus).

All calls go through module attributes (``invariants.jones_polynomial``,
``search.connect``) so that the wrappers of ``tracing.install`` see them.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from braidkit import cli, garside, invariants, moves, search, words
from braidkit.laurent import LaurentPolynomial
from braidkit.words import BraidWord

HERE = Path(__file__).resolve().parent
WIDE_GOLDEN = HERE / "golden" / "wide.json"

# The corpus seed of the pinned pools (roundtrip sources, wide pool words).
POOL_SEED = 20040314


class OpFailed:
    """Result slot of an op that raised; it fails its check."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


def _rng(workload: str, seed: int | str) -> random.Random:
    # String seeds hash with SHA-512, so the stream is the same in every process.
    return random.Random(f"{workload}:{seed}")


def _random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    alphabet = [i for i in range(1 - n, n) if i != 0]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length)))


# ---------------------------------------------------------------------------
# paper: the reproduction suite users run


class Paper:
    """One op is ``cli.verify_paper(seed=...)``, which runs checks (a)-(i)."""

    name = "paper"

    # Pinned at this commit: check label -> detail string.
    expected = (
        ("(a) exponent sums and braid index", "e = 14, 14; n = 3, 3"),
        ("(b) self-linking of both words", "beta = 11, 11"),
        ("(c) negative flype maps one word to the other", "got s1^5 s2^-1 s1^6 s2^4"),
        ("(d) topological-equality oracles agree", "jones equal: True; alexander equal: True"),
        ("(e) the two words are not conjugate in B3", "are_conjugate = False"),
        (
            "(f) the 2-component link obstruction",
            "pre (-1, -3) lk (((1, 2), 1),); post (-3, -1) lk (((1, 2), 1),)",
        ),
        ("(g) beta invariance under transverse moves", "0 failures"),
        ("(h) negative stabilization drops beta by 2", "0 failures; flype word drop (11, 9)"),
        ("(i) bounded transverse search exhausts", "exhausted after 2 expansions"),
    )

    def make_ops(self, seed: int | str, smoke: bool) -> list:
        return [_rng(self.name, seed).randrange(1 << 30)]

    def run_op(self, op):
        return cli.verify_paper(seed=op)

    def check(self, ops, results) -> list[bool]:
        return [
            not isinstance(r, OpFailed)
            and all(c.passed for c in r)
            and tuple((c.label, c.detail) for c in r) == self.expected
            for r in results
        ]


# ---------------------------------------------------------------------------
# fuzz: template soundness trials (bracket state sums dominate)


def _mutant_flype() -> moves.Template:
    """flype- with the trailing half-twist sign flipped (acceptance criterion 7)."""
    good = moves.builtin_templates()["flype-"]
    right = moves.BlockStrandDiagram(
        (1, 1, 1),
        (
            moves.BlockSlot("P", 1),
            moves.Crossing(2, 1),
            moves.BlockSlot("Q", 1),
            moves.BlockSlot("R", 2),
        ),
        {"P": 2, "Q": 2, "R": 2},
    )
    return moves.Template("flype-corrupted", good.left, right)


class Fuzz:
    """One op is a one-trial ``template_soundness_check``.

    The block-length profiles of each template are pinned, so the bracket
    work (2^L states per side) is the same for every seed; the seed picks the
    trial seed, hence the letters, of each profile.  Templates with one or two
    blocks get every profile in {0..max_len}^blocks.  The three-block flypes
    get the 36 profiles (a, b, (a+b) mod 6): each pair of block lengths
    appears once, at a ninth of the cost of all 216.
    """

    name = "fuzz"
    max_len = 5

    def profiles(self, blocks: int) -> set[tuple[int, ...]]:
        lengths = range(self.max_len + 1)
        if blocks < 3:
            return set(itertools.product(lengths, repeat=blocks))
        return {(a, b, (a + b) % (self.max_len + 1)) for a in lengths for b in lengths}

    def templates(self) -> dict[str, moves.Template]:
        out = dict(sorted(moves.builtin_templates().items()))
        out["flype-corrupted"] = _mutant_flype()
        return out

    def make_ops(self, seed: int | str, smoke: bool) -> list:
        rng = _rng(self.name, seed)
        ops = []
        for name, template in self.templates().items():
            blocks = sorted(b for b, span in moves.expanded_arities(template.left).items() if span >= 2)
            wanted = self.profiles(len(blocks))
            if smoke:
                wanted = {p for p in wanted if sum(p) == 2 * len(blocks)}
            trial_seeds: dict[tuple, int] = {}
            while len(trial_seeds) < len(wanted):
                s = rng.randrange(1 << 30)
                assignment = moves.random_assignment(template, self.max_len, random.Random(s))
                profile = tuple(len(assignment[b]) for b in blocks)
                if profile in wanted:
                    trial_seeds.setdefault(profile, s)
            ops.extend((name, template, trial_seeds[p]) for p in sorted(trial_seeds))
        rng.shuffle(ops)
        return ops

    def run_op(self, op):
        _, template, trial_seed = op
        return invariants.template_soundness_check(template, 1, self.max_len, trial_seed)

    def check(self, ops, results) -> list[bool]:
        ok = [
            not isinstance(r, OpFailed) and r.trials == 1 and r.template == template.name
            for (_, template, _), r in zip(ops, results)
        ]
        mutant = [i for i, (name, _, _) in enumerate(ops) if name == "flype-corrupted"]
        detected = sum(len(results[i].failures) for i in mutant if ok[i])
        for i, (name, _, _) in enumerate(ops):
            if name == "flype-corrupted":
                ok[i] = ok[i] and detected >= 1
            else:
                ok[i] = ok[i] and not results[i].failures
        return ok


# ---------------------------------------------------------------------------
# roundtrip: scramble a word, then search back to it (summit sets dominate)


class Roundtrip:
    """One op is ``connect(scramble(w, k, s), w)`` under topological moves.

    The ops are a pinned corpus: 200 B2-B3 source words, each with 5 pinned
    scramble paths, so classes recur across ops and the process-global key
    cache is reused as in a user's searches.  The seed only orders the ops,
    which decides the op that pays each class's cold closure.  Paths are
    pinned because the summit sets they reach vary: with seeded paths, the
    99th-percentile op moved by 15% from seed to seed.  Strands are capped at
    4: with criterion 9's cap of 5, single ops close B5 summit sets for up to
    20 s and the total of one seed is twice that of the next.
    """

    name = "roundtrip"
    pool_size = 200
    reps = 5
    max_strands = 4
    bounds = search.SearchBounds(max_strands=max_strands, max_word_length=24, max_nodes=10_000)

    def corpus(self) -> list[tuple[BraidWord, int, int]]:
        rng = random.Random(POOL_SEED)
        out = []
        for _ in range(self.pool_size):
            n = rng.randint(2, 3)
            w = _random_word(rng, n, rng.randint(0, 6))
            out.extend((w, rng.randint(0, 3), rng.randrange(1 << 30)) for _ in range(self.reps))
        return out

    def make_ops(self, seed: int | str, smoke: bool) -> list:
        ops = self.corpus()[: 8 if smoke else None]
        _rng(self.name, seed).shuffle(ops)
        return ops

    def run_op(self, op):
        w, k, s = op
        scrambled, _ = search.scramble(w, k, s, max_strands=self.max_strands)
        if len(scrambled.letters) > self.bounds.max_word_length:
            scrambled = w  # keep within the declared input bounds, as criterion 9 does
        return scrambled, search.connect(scrambled, w, self.bounds)

    def check(self, ops, results) -> list[bool]:
        ok = []
        for (w, _, _), r in zip(ops, results):
            if isinstance(r, OpFailed):
                ok.append(False)
                continue
            scrambled, found = r
            source = BraidWord(scrambled.n, words.free_reduce(scrambled.letters))
            if not found.found or found.sequence is None or found.sequence.initial != source:
                ok.append(False)
                continue
            final = moves.replay(found.sequence)
            ok.append(final.n == w.n and garside.are_conjugate(final, w))
        return ok


# ---------------------------------------------------------------------------
# wide: strand-heavy invariants and witness conjugacy (cost grows with n)


def _poly(terms) -> LaurentPolynomial:
    return LaurentPolynomial(tuple((int(e), int(c)) for e, c in terms))


def _rotate(w: BraidWord, rng: random.Random) -> BraidWord:
    return words.rotate(w, rng.randrange(len(w.letters))) if w.letters else w


class Wide:
    """Alexander on B6-B9, Jones on B5-B8, witness conjugacy on B4.

    One op per word of the pinned pool in ``golden/wide.json``.  The seed
    rotates the Jones words and the B4 pairs (a conjugation, so the recorded
    values still hold), draws the conjugators of the B4 pairs, and orders the
    ops.
    """

    name = "wide"

    def golden(self) -> dict:
        return json.loads(WIDE_GOLDEN.read_text())

    def make_ops(self, seed: int | str, smoke: bool) -> list:
        rng = _rng(self.name, seed)
        gold = self.golden()
        ops = []
        for entry in gold["alexander"][: 1 if smoke else None]:
            # Not rotated: a rotation (a conjugation) changes the polynomial
            # work of Burau and the determinant by up to 2.5x (34x on one B8
            # word), which would swamp the run-to-run spread.
            w = BraidWord(entry["n"], tuple(entry["letters"]))
            ops.append(("alexander", w, _poly(entry["alexander"])))
        for entry in gold["jones"][: 2 if smoke else None]:
            w = BraidWord(entry["n"], tuple(entry["letters"]))
            ops.append(("jones", _rotate(w, rng), _poly(entry["jones"])))
        for entry in gold["conj"][: 2 if smoke else None]:
            u = _rotate(BraidWord(entry["n"], tuple(entry["u"])), rng)
            if entry["v"] is None:
                v = words.conjugate(u, _random_word(rng, u.n, rng.randint(1, 4)))
            else:
                v = _rotate(BraidWord(entry["n"], tuple(entry["v"])), rng)
            ops.append(("conj", (u, v), entry["conjugate"]))
        rng.shuffle(ops)
        return ops

    def run_op(self, op):
        kind, arg, _ = op
        if kind == "alexander":
            return invariants.alexander_polynomial(arg)
        if kind == "jones":
            return invariants.jones_polynomial(arg)
        return garside.are_conjugate(arg[0], arg[1], want_witness=True)

    def check(self, ops, results) -> list[bool]:
        ok = []
        for (kind, arg, expected), r in zip(ops, results):
            if isinstance(r, OpFailed):
                ok.append(False)
            elif kind == "alexander":
                at_one = sum(c for _, c in r.terms)
                knot = words.closure_components(arg).n_components == 1
                ok.append(r == expected and (not knot or abs(at_one) == 1))
            elif kind == "jones":
                at_one = sum(c for _, c in r.terms)
                c = words.closure_components(arg).n_components
                ok.append(r == expected and at_one == (-2) ** (c - 1))
            else:
                answer, g = r
                u, v = arg
                ok.append(
                    answer == expected
                    and (
                        not answer
                        or garside.left_normal_form(words.conjugate(u, g))
                        == garside.left_normal_form(v)
                    )
                )
        return ok


WORKLOADS = {w.name: w for w in (Paper(), Fuzz(), Roundtrip(), Wide())}
