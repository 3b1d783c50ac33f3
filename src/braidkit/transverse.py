"""
Transverse-knot bookkeeping on closed braids.

A closed braid transverse to the standard contact structure carries the
self-linking (Bennequin) number β = e − n, where e is the algebraic
crossing number (the exponent sum of the word) and n the braid index.
β is invariant under conjugation, positive stabilization, and the exchange
move, and drops by exactly 2 under negative stabilization.  For links the
same quantity splits over components: each component C contributes
β(C) = (signed crossings internal to C) − (strands of C), and each pair
contributes twice its linking number, so that

    β_total = Σ_C β(C) + 2·Σ_{C<C'} lk(C, C').

Components are numbered as in :func:`braidkit.words.closure_components`
(component 1 contains strand start position 1).
"""

from __future__ import annotations

from typing import NamedTuple

from .moves import stabilize
from .words import (
    BraidWord,
    InternalConsistencyError,
    ResourceLimitError,
    closure_components,
    crossing_records,
    exponent_sum,
)


# Most component pairs c(c − 1)/2 whose linking numbers are listed: 500
# components are 124 750 pairs, and `braidkit invariants -n 500 "" --json`
# takes 1.6 s and 103 MB with Python 3.11 on a 2-CPU Xeon.
MAX_COMPONENT_PAIRS = 125_000


TRANSVERSE_MOVE_KINDS = frozenset({"conjugation", "stab+", "destab+", "exchange"})


class TransverseInvariants(NamedTuple):
    """β in total, per closure component, and pairwise linking numbers."""

    beta_total: int
    per_component: tuple[int, ...]  # per_component[c-1] = β of component c
    pairwise_linking: tuple[tuple[tuple[int, int], int], ...]  # ((c, c'), lk) with c < c'

    @property
    def n_components(self) -> int:
        return len(self.per_component)

    def linking(self, c1: int, c2: int) -> int:
        pair = (min(c1, c2), max(c1, c2))
        for p, v in self.pairwise_linking:
            if p == pair:
                return v
        raise KeyError(pair)


def self_linking(w: BraidWord) -> int:
    """β = exponent sum − braid index (the total e − n, links included)."""
    return exponent_sum(w) - w.n


def _check_pairs(c: int, qualifier: str) -> None:
    pairs = c * (c - 1) // 2
    if pairs > MAX_COMPONENT_PAIRS:
        raise ResourceLimitError(
            f"{qualifier}{c} components have {qualifier}{pairs} pairs, more than "
            f"MAX_COMPONENT_PAIRS = {MAX_COMPONENT_PAIRS}"
        )


def component_invariants(w: BraidWord) -> TransverseInvariants:
    """Per-component β and pairwise linking numbers of the closure.

    Past :data:`MAX_COMPONENT_PAIRS` component pairs it raises
    :class:`ResourceLimitError` before listing any pair.  Each distinct σᵢ
    merges at most two strand orbits into one, so there are at least
    n − |{|x| : x in w}| components; that bound is checked first, in O(L)
    time, before the closure permutation is built.
    """
    _check_pairs(w.n - len({abs(x) for x in w.letters}), "at least ")
    comps = closure_components(w)
    c = comps.n_components
    _check_pairs(c, "")
    internal = [0] * (c + 1)
    strands = [0] * (c + 1)
    cross: dict[tuple[int, int], int] = {}
    for cid, cyc in enumerate(comps.cycles, start=1):
        strands[cid] = len(cyc)
    for rec in crossing_records(w):
        a, b = rec.strands
        ca, cb = comps.component(a), comps.component(b)
        if ca == cb:
            internal[ca] += rec.sign
        else:
            pair = (min(ca, cb), max(ca, cb))
            cross[pair] = cross.get(pair, 0) + rec.sign
    linking = []
    for c1 in range(1, c + 1):
        for c2 in range(c1 + 1, c + 1):
            total = cross.get((c1, c2), 0)
            if total % 2 != 0:
                raise InternalConsistencyError(
                    f"odd signed cross-component crossing count {total} "
                    f"for components {(c1, c2)}"
                )
            linking.append(((c1, c2), total // 2))
    per = tuple(internal[cid] - strands[cid] for cid in range(1, c + 1))
    inv = TransverseInvariants(self_linking(w), per, tuple(linking))
    if inv.beta_total != sum(per) + 2 * sum(v for _, v in linking):
        raise InternalConsistencyError("β additivity over components failed")
    return inv


def is_transverse_move(step) -> bool:
    """Whether a move (a kind string or a MoveStep) is a transversal isotopy.

    Conjugation, positive stabilization/destabilization, and the exchange
    move qualify; negative (de)stabilization changes the transverse type.
    Flypes are excluded: their transverse legality is exactly the question
    the flype-pair examples settle in the negative.
    """
    kind = step if isinstance(step, str) else step.kind
    return kind in TRANSVERSE_MOVE_KINDS


def negative_stabilization_beta_drop(w: BraidWord) -> tuple[int, int]:
    """(β of w, β of its negative stabilization); the second is always 2 less."""
    return self_linking(w), self_linking(stabilize(w, -1))
