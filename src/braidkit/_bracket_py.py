"""
Exhaustive Kauffman-bracket state sum: the test oracle for the bracket.

Given a braid word it enumerates every smoothing state of the closure
diagram (exactly 2^L states for L letters), counts the loops of each
smoothed diagram with a union-find, and accumulates

    A^(a−b) · (−A² − A⁻²)^(loops−1)

into a coefficient table over the A-exponent.  State bit 0 is the
A-smoothing, bit 1 the B-smoothing; for a positive letter the A-smoothing
is the identity smoothing and the B-smoothing the cup-cap, for a negative
letter the two are interchanged.

The work is exponential in the word length, so no production code calls
it: :func:`braidkit.invariants.kauffman_bracket` computes the same table by
a Temperley–Lieb transfer, and the tests check the two against each other.
"""

from __future__ import annotations

from math import comb


def bracket_coeffs(n: int, letters) -> dict[int, int]:
    """Bracket coefficient table summed over all 2^L smoothing states."""
    L = len(letters)
    idx = [abs(x) - 1 for x in letters]
    neg = [1 if x < 0 else 0 for x in letters]
    max_nodes = n + L
    binoms = [[comb(c, k) for k in range(c + 1)] for c in range(max_nodes + 1)]
    coeffs: dict[int, int] = {}

    for s in range(1 << L):
        parent = list(range(max_nodes))
        cur = list(range(n))
        nodes = n
        bcount = 0
        for j in range(L):
            bit = (s >> j) & 1
            bcount += bit
            if bit ^ neg[j]:
                p = idx[j]
                a, b = cur[p], cur[p + 1]
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    parent[a] = b
                cur[p] = cur[p + 1] = nodes
                nodes += 1
        for j in range(n):
            a, b = cur[j], j
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[a] = b
        loops = 0
        for x in range(nodes):
            if parent[x] == x:
                loops += 1
        e0 = L - 2 * bcount
        c1 = loops - 1
        sgn = -1 if c1 % 2 else 1
        row = binoms[c1]
        base = e0 - 2 * c1
        for k in range(c1 + 1):
            e = base + 4 * k
            coeffs[e] = coeffs.get(e, 0) + sgn * row[k]
    return {e: c for e, c in coeffs.items() if c != 0}
