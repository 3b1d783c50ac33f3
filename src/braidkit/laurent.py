"""
Exact integer Laurent polynomials and small matrices over them.

These are the coefficient rings of the topological-equality oracles: the
reduced Burau representation lives in matrices over ℤ[t, t⁻¹], and the
Kauffman bracket / Jones polynomial are elements of ℤ[A, A⁻¹] and
ℤ[q, q⁻¹].  Everything is exact; there is no floating point anywhere.
Determinants use fraction-free (Bareiss) elimination, polynomial in the
dimension; the tests keep the cofactor expansion as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def substitute_inverse(self) -> "LaurentPolynomial":
        """t ↦ t⁻¹."""
        return LaurentPolynomial(tuple(sorted((-e, c) for e, c in self.terms)))

    def scale(self, k: int) -> "LaurentPolynomial":
        if k == 0:
            return LaurentPolynomial()
        return LaurentPolynomial(tuple((e, c * k) for e, c in self.terms))

    def divide_exact(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division; raises ValueError when the quotient is not integral."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPolynomial()
        # Reduce to ordinary polynomial long division by clearing denominators.
        num = dict(self.shift(-self.min_exp).terms)
        den = other.shift(-other.min_exp).terms
        dlead_exp, dlead_coeff = den[-1]
        quot: dict[int, int] = {}
        while num:
            nlead_exp = max(num)
            nlead_coeff = num[nlead_exp]
            if nlead_exp < dlead_exp or nlead_coeff % dlead_coeff != 0:
                raise ValueError("division not exact")
            qe, qc = nlead_exp - dlead_exp, nlead_coeff // dlead_coeff
            quot[qe] = qc
            for e, c in den:
                e2 = e + qe
                num[e2] = num.get(e2, 0) - c * qc
                if num[e2] == 0:
                    del num[e2]
        shift = self.min_exp - other.min_exp
        return LaurentPolynomial.from_dict({e + shift: c for e, c in quot.items()})

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
        """Fraction-free (Bareiss) elimination: O(d³) exact ring operations.

        Step k replaces a[i][j] by (p·a[i][j] − a[i][k]·a[k][j]) / p_prev for
        i, j > k, where p = a[k][k] and p_prev is the previous step's pivot
        (1 at step 0, where the division is skipped).  Sylvester's identity
        makes every division exact, so the entries stay in ℤ[t, t⁻¹].  A zero
        pivot is replaced by a later row (flipping the sign); a zero pivot
        column means the determinant is 0.  The cofactor expansion is the
        test oracle.
        """
        a = [list(r) for r in self.rows]
        d = len(a)
        if d == 0:
            return LaurentPolynomial.one()
        negate = False
        prev = None
        for k in range(d - 1):
            if a[k][k].is_zero():
                swap = next((i for i in range(k + 1, d) if not a[i][k].is_zero()), None)
                if swap is None:
                    return LaurentPolynomial.zero()
                a[k], a[swap] = a[swap], a[k]
                negate = not negate
            p = a[k][k]
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    x = p * a[i][j] - a[i][k] * a[k][j]
                    a[i][j] = x if prev is None else x.divide_exact(prev)
            prev = p
        det = a[d - 1][d - 1]
        return -det if negate else det
