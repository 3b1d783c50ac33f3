"""
Exact integer Laurent polynomials and small matrices over them.

These are the coefficient rings of the topological-equality oracles: the
reduced Burau representation lives in matrices over ℤ[t, t⁻¹], and the
Kauffman bracket / Jones polynomial are elements of ℤ[A, A⁻¹] and
ℤ[q, q⁻¹].  Everything is exact; there is no floating point anywhere.
A determinant is one integer determinant at t = 2^K, its base-2^K digits
read back as coefficients; the tests keep the cofactor expansion as oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .words import json_field


@dataclass(frozen=True)
class LaurentPolynomial:
    """An integer Laurent polynomial, stored as sorted (exponent, coeff) pairs.

    Canonical form: zero coefficients are dropped and exponents are strictly
    increasing, so equality and hashing are structural.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(tuple(t) for t in self.terms))
        exps = [e for e, _ in self.terms]
        if exps != sorted(exps) or len(set(exps)) != len(exps) or any(c == 0 for _, c in self.terms):
            raise ValueError(f"terms not canonical: {self.terms!r}")

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
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial.from_dict(out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial.from_dict(out)

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


@dataclass(frozen=True)
class PolyMatrix:
    """A square matrix over ℤ[t, t⁻¹]."""

    rows: tuple[tuple[LaurentPolynomial, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        d = len(self.rows)
        if any(len(r) != d for r in self.rows):
            raise ValueError("matrix is not square")

    @staticmethod
    def identity(dim: int) -> "PolyMatrix":
        one, zero = LaurentPolynomial.one(), LaurentPolynomial.zero()
        return PolyMatrix(tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.dim
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = LaurentPolynomial.zero()
                for k in range(d):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(tuple(row))
        return PolyMatrix(tuple(out))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return PolyMatrix(
            tuple(
                tuple(self.rows[i][j] - other.rows[i][j] for j in range(self.dim))
                for i in range(self.dim)
            )
        )

    def determinant(self) -> LaurentPolynomial:
        """One integer determinant by Kronecker substitution.

        Rows are shifted to start at t⁰ and evaluated at t = 2^K; as ‖det‖₁ ≤
        P = ∏ᵢ Σⱼ ‖mᵢⱼ‖₁, K = P.bit_length() + 1 makes the coefficients the
        balanced base-2^K digits of the integer determinant.  Bareiss finds it
        (divisions exact by Sylvester's identity; a zero pivot row swaps with a
        later one, negated to keep det); a zero row or pivot column gives 0.
        """
        d = len(self.rows)
        if any(all(p.is_zero() for p in row) for row in self.rows):
            return LaurentPolynomial.zero()
        lows = [min(p.min_exp for p in row if p.terms) for row in self.rows]
        bound = prod(sum(abs(c) for p in row for _, c in p.terms) for row in self.rows)
        k_bits = bound.bit_length() + 1
        a = [
            [sum(c << (k_bits * (e - low)) for e, c in p.terms) for p in row]
            for row, low in zip(self.rows, lows)
        ]
        prev = 1
        for k in range(d - 1):
            if not a[k][k]:
                swap = next((i for i in range(k + 1, d) if a[i][k]), None)
                if swap is None:
                    return LaurentPolynomial.zero()
                a[k], a[swap] = a[swap], [-x for x in a[k]]
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        value = a[d - 1][d - 1] if d else 1
        mask, half = (1 << k_bits) - 1, 1 << (k_bits - 1)
        coeffs, e = {}, sum(lows)
        while value:
            value += half  # the balanced digit is the low K bits minus half
            coeffs[e] = (value & mask) - half
            value >>= k_bits
            e += 1
        return LaurentPolynomial.from_dict(coeffs)
