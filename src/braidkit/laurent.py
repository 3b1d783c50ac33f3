"""
Exact integer Laurent polynomials, square matrices over them, and their determinant.

These are the coefficient rings of the topological-equality oracles: the
reduced Burau representation lives in matrices over ℤ[t, t⁻¹], and the
Kauffman bracket / Jones polynomial are elements of ℤ[A, A⁻¹] and
ℤ[q, q⁻¹].  Everything is exact; there is no floating point anywhere.
:func:`table_determinant` is the one determinant: it takes rows of
exponent → coefficient tables, evaluates them at t = 2^K as one integer
determinant and reads its base-2^K digits back as coefficients.
:meth:`PolyMatrix.determinant` adapts a matrix to it.

Kronecker packing (a polynomial as its value at 2^K, K a whole number of
bytes) serves that determinant and two transfers of
:mod:`braidkit.invariants`, the Burau product and the Kauffman bracket:
:func:`_width` picks K for a coefficient bound, :func:`_pack` writes
balanced digits into an int and :func:`_read_digits` reads them back,
each in time linear in the digits.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod
from typing import NamedTuple

from .words import _not_a_sequence, _validated_make, json_field


class _LaurentFields(NamedTuple):
    terms: tuple[tuple[int, int], ...] = ()


class LaurentPolynomial(_LaurentFields):
    """An integer Laurent polynomial, stored as sorted (exponent, coeff) pairs.

    Canonical form: zero coefficients are dropped and exponents are strictly
    increasing, so equality and hashing are structural.  ``+`` and ``-``
    take two polynomials; there is no ``*``.
    """

    __slots__ = ()

    def __new__(cls, terms=()):
        self = tuple.__new__(cls, (tuple(tuple(t) for t in terms),))
        self.__post_init__()
        return self

    def __post_init__(self):
        terms = self.terms
        if not all(len(t) == 2 and type(t[0]) is int and type(t[1]) is int for t in terms):
            raise ValueError(f"terms must be (exponent, coefficient) integer pairs: {terms!r}")
        exps = [e for e, _ in terms]
        if exps != sorted(exps) or len(set(exps)) != len(exps) or any(c == 0 for _, c in terms):
            raise ValueError(f"terms not canonical: {terms!r}")

    _make = _validated_make
    __radd__ = __mul__ = __rmul__ = _not_a_sequence

    @staticmethod
    def from_dict(coeffs: dict[int, int]) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple(sorted((e, c) for e, c in coeffs.items() if c != 0)))

    @staticmethod
    def zero() -> "LaurentPolynomial":
        return LaurentPolynomial()

    @staticmethod
    def one() -> "LaurentPolynomial":
        return LaurentPolynomial(((0, 1),))

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPolynomial":
        return LaurentPolynomial(((exp, coeff),) if coeff else ())

    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return self.terms[0][0]

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return self.terms[-1][0]

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial.from_dict(out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial(tuple((e + k, c) for e, c in self.terms))

    def equals_up_to_units(self, other: "LaurentPolynomial") -> bool:
        """Equality modulo multiplication by ±t^k."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        a = self.shift(-self.min_exp)
        b = other.shift(-other.min_exp)
        return a == b or a == -b

    def text(self, var: str = "t") -> str:
        """Render as ``-1*t^-4 + 1*t^-3 + 1*t^-1`` (exponents ascending)."""
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{var}^{e}" for e, c in self.terms)

    def to_json(self, var: str = "t") -> dict:
        return {"variable": var, "terms": [[e, c] for e, c in self.terms]}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPolynomial":
        terms = json_field(obj, "terms", list, "polynomial")
        for t in terms:
            if not (isinstance(t, list) and len(t) == 2 and all(type(x) is int for x in t)):
                raise ValueError(
                    "polynomial field 'terms' must hold [exponent, coefficient] integer pairs"
                )
        return LaurentPolynomial(terms)


class _PolyMatrixFields(NamedTuple):
    rows: tuple[tuple[LaurentPolynomial, ...], ...]


class PolyMatrix(_PolyMatrixFields):
    """A square matrix over ℤ[t, t⁻¹]."""

    __slots__ = ()

    def __new__(cls, rows):
        self = tuple.__new__(cls, (tuple(tuple(r) for r in rows),))
        self.__post_init__()
        return self

    def __post_init__(self):
        d = len(self.rows)
        if any(len(r) != d for r in self.rows):
            raise ValueError("matrix is not square")

    _make = _validated_make
    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence

    @property
    def dim(self) -> int:
        return len(self.rows)

    def determinant(self) -> LaurentPolynomial:
        """The determinant, by :func:`table_determinant` on the entries' tables."""
        tables = [[p.as_dict() for p in row] for row in self.rows]
        return LaurentPolynomial.from_dict(table_determinant(tables))


def table_determinant(rows: Sequence[Sequence[dict[int, int]]]) -> dict[int, int]:
    """Determinant of a square matrix whose entries are exponent → coefficient tables.

    One integer determinant by Kronecker substitution: rows are shifted to
    start at t⁰ and evaluated at t = 2^K; as ‖det‖₁ ≤ P = ∏ᵢ Σⱼ ‖mᵢⱼ‖₁,
    K = 8·_width(P) bits makes the coefficients the balanced base-2^K
    digits of the integer determinant, which :func:`_read_digits` reads.
    Bareiss finds it (divisions exact by Sylvester's identity; a zero pivot
    row swaps with a later one, negated to keep det); a zero row or pivot
    column gives 0.  The result has no zero coefficient, its exponents
    ascending.
    """
    d = len(rows)
    if any(not any(row) for row in rows):
        return {}
    lows = [min(min(p) for p in row if p) for row in rows]
    bound = prod(sum(abs(c) for p in row for c in p.values()) for row in rows)
    width = _width(bound)
    a = [
        [sum(c << (8 * width * (e - low)) for e, c in p.items()) for p in row]
        for row, low in zip(rows, lows)
    ]
    prev = 1
    for k in range(d - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, d) if a[i][k]), None)
            if swap is None:
                return {}
            a[k], a[swap] = a[swap], [-x for x in a[k]]
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    value = a[d - 1][d - 1] if d else 1
    digits = _read_digits(value, width)
    return {e: c for e, c in enumerate(digits, sum(lows)) if c}


def _width(bound: int) -> int:
    """The fewest bytes w with bound < 2^(8w − 1): balanced digits in w-byte
    slots then hold every coefficient of absolute value at most bound."""
    return bound.bit_length() // 8 + 1


def _halves(width: int, count: int) -> int:
    """Σⱼ 2^(8·width − 1)·2^(8·width·j) over j < count: half of every slot."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * count, "little")


def _pack(digits: Sequence[int], width: int) -> int:
    """Σⱼ dⱼ·2^(8·width·j) for balanced digits |dⱼ| < 2^(8·width − 1), in linear time.

    The digits are written in two's complement, one width-byte slot each;
    flipping the top bit of every slot adds half a slot to each digit, and
    the halves are taken off once, so no shift touches the whole integer.
    """
    raw = b"".join(d.to_bytes(width, "little", signed=True) for d in digits)
    halves = _halves(width, len(digits))
    return (int.from_bytes(raw, "little") ^ halves) - halves


def _read_digits(value: int, width: int) -> list[int]:
    """The balanced base-2^(8·width) digits of value, lowest first, in linear time.

    The inverse of :func:`_pack` (either list may end in zero digits): half
    a slot is added to every digit at once, the top bit of every slot is
    flipped back, and each slot is read as a two's complement digit.
    """
    count = abs(value).bit_length() // (8 * width) + 1
    halves = _halves(width, count)
    raw = ((value + halves) ^ halves).to_bytes(width * count, "little")
    return [
        int.from_bytes(raw[i : i + width], "little", signed=True)
        for i in range(0, len(raw), width)
    ]
