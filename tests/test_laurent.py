import math
import random

import pytest

from braidkit.invariants import burau_reduced
from braidkit import laurent
from braidkit.laurent import LaurentPolynomial, PolyMatrix
from braidkit.words import BraidWord, random_word

from oracles import cofactor_determinant, identity, matrix_mul, matrix_sub, poly_mul


def L(coeffs):
    return LaurentPolynomial.from_dict(coeffs)


def random_poly(rng, span=4, terms=4):
    return L({rng.randint(-span, span): rng.randint(-5, 5) for _ in range(terms)})


def permutation_sign(perm):
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


class TestArithmetic:
    def test_canonical_drops_zeros(self):
        assert L({0: 1, 2: 0}).terms == ((0, 1),)

    def test_add_sub(self):
        p, q = L({-1: 1, 2: 3}), L({2: -3, 0: 4})
        assert (p + q).as_dict() == {-1: 1, 0: 4}
        assert (p - p).is_zero()

    def test_mul(self):
        p = L({-1: 1, 0: -1, 1: 1})  # trefoil alexander
        q = L({0: 1, 1: 1})
        assert poly_mul(p, q).as_dict() == {-1: 1, 2: 1}

    def test_ring_axioms_spot_checks(self):
        rng = random.Random(30)
        for _ in range(100):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
            assert poly_mul(a, b + c) == poly_mul(a, b) + poly_mul(a, c)
            assert poly_mul(a, b) == poly_mul(b, a)

    def test_monomial_shift(self):
        assert L({1: 2}).shift(-3).as_dict() == {-2: 2}


class TestEqualsUpToUnits:
    def test_unit_shift_and_sign(self):
        p = L({0: 1, 1: -2})
        assert p.equals_up_to_units(p.shift(5))
        assert p.equals_up_to_units((-p).shift(-3))
        assert not p.equals_up_to_units(L({0: 1, 1: 2}))

    def test_zero(self):
        assert L({}).equals_up_to_units(L({}))
        assert not L({}).equals_up_to_units(L({0: 1}))


class TestText:
    def test_format(self):
        p = L({-4: -1, -3: 1, -1: 1})
        assert p.text("t") == "-1*t^-4 + 1*t^-3 + 1*t^-1"

    def test_zero(self):
        assert L({}).text() == "0"

    def test_json_round_trip(self):
        rng = random.Random(32)
        for _ in range(50):
            p = random_poly(rng)
            assert LaurentPolynomial.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "obj",
        [
            {"terms": [[0, 3.7], ["2", "1"]]},
            {"terms": [[0, 3.7]]},
            {"terms": [["2", "1"]]},
            {"terms": [[0, 1, 2]]},
            {"terms": [[True, 1]]},
            {"variable": "t"},
        ],
    )
    def test_json_rejects_non_integer_terms(self, obj):
        with pytest.raises(ValueError, match="'terms'"):
            LaurentPolynomial.from_json(obj)


class TestKroneckerPacking:
    def test_width_holds_the_bound(self):
        # the fewest bytes w with bound < 2^(8w − 1)
        for bits in range(0, 200):
            for bound in ((1 << bits) - 1, 1 << bits):
                w = laurent._width(bound)
                assert bound < 1 << (8 * w - 1)
                assert w == 1 or bound >= 1 << (8 * w - 9)

    def test_read_inverts_pack(self):
        # balanced digits of every slot width, the extreme ones and a
        # negative top digit included; either list may end in zero digits
        rng = random.Random(39)
        for width in range(1, 21):
            top = (1 << (8 * width - 1)) - 1
            for _ in range(40):
                digits = [
                    rng.choice((rng.randint(-top, top), top, -top, 0))
                    for _ in range(rng.randint(0, 30))
                ]
                value = laurent._pack(digits, width)
                assert value == sum(d << (8 * width * j) for j, d in enumerate(digits))
                read = laurent._read_digits(value, width)
                size = max(len(read), len(digits))
                assert read + [0] * (size - len(read)) == digits + [0] * (size - len(digits))


class TestPolyMatrix:
    def test_identity_multiplication(self):
        rng = random.Random(33)
        m = PolyMatrix(tuple(tuple(random_poly(rng, 2, 2) for _ in range(3)) for _ in range(3)))
        assert matrix_mul(m, identity(3)) == m

    def test_associativity_spot_check(self):
        rng = random.Random(34)
        mats = [
            PolyMatrix(tuple(tuple(random_poly(rng, 2, 2) for _ in range(2)) for _ in range(2)))
            for _ in range(3)
        ]
        a, b, c = mats
        assert matrix_mul(matrix_mul(a, b), c) == matrix_mul(a, matrix_mul(b, c))

    def test_determinant_2x2(self):
        t = LaurentPolynomial.monomial
        m = PolyMatrix(((t(1), t(0)), (t(2, 3), t(-1))))
        # det = t * t^-1 - 1 * 3t^2
        assert m.determinant().as_dict() == {0: 1, 2: -3}

    def test_determinant_multiplicative(self):
        rng = random.Random(35)
        for _ in range(20):
            a = PolyMatrix(tuple(tuple(random_poly(rng, 1, 2) for _ in range(3)) for _ in range(3)))
            b = PolyMatrix(tuple(tuple(random_poly(rng, 1, 2) for _ in range(3)) for _ in range(3)))
            assert matrix_mul(a, b).determinant() == poly_mul(a.determinant(), b.determinant())

    def test_determinant_matches_cofactor_on_burau(self):
        rng = random.Random(36)
        empty = [BraidWord(n) for n in range(2, 10)]  # ψ = I, so det 0
        for w in empty + [random_word(rng, rng.randint(2, 9), 30) for _ in range(200)]:
            m = matrix_sub(burau_reduced(w), identity(w.n - 1))
            assert m.determinant() == cofactor_determinant(m), w

    def test_determinant_matches_cofactor_on_every_pivot_path(self):
        # Each kind forces one path of the elimination: a zero leading entry
        # (row swap, sign flip), a zero pivot later on (a leading 2×2 minor
        # that vanishes), a zero pivot column, equal rows, permutations, and
        # a coefficient of either sign equal to the row-norm product from
        # which the substitution's digit width is chosen.
        rng = random.Random(37)
        zero = LaurentPolynomial.zero()

        def sparse_poly():
            return zero if rng.random() < 0.3 else random_poly(rng, 2, 2)

        for d in range(7):
            kinds = ("random", "zero_lead", "zero_minor", "zero_column", "equal_rows", "perm", "norm")
            for kind in kinds:
                for rep in range(4):
                    rows = [[sparse_poly() for _ in range(d)] for _ in range(d)]
                    if kind == "zero_lead" and d:
                        rows[0][0] = zero
                    elif kind == "zero_minor" and d >= 2:
                        c = random_poly(rng, 1, 2)
                        rows[1][0], rows[1][1] = poly_mul(c, rows[0][0]), poly_mul(c, rows[0][1])
                    elif kind == "zero_column" and d:
                        col = rng.randrange(d)
                        for r in rows:
                            r[col] = zero
                    elif kind == "equal_rows" and d >= 2:
                        i, j = rng.sample(range(d), 2)
                        rows[j] = list(rows[i])
                    elif kind in ("perm", "norm"):
                        perm = list(range(d))
                        rng.shuffle(perm)
                        rows = [
                            [LaurentPolynomial.one() if c == perm[r] else zero for c in range(d)]
                            for r in range(d)
                        ]
                    if kind == "norm" and d:
                        # powers of two, so the product is 2^m and a width one
                        # bit short misreads +2^m as −2^m
                        sign = permutation_sign(perm) * (-1) ** rep
                        for r in range(d):
                            rows[r][perm[r]] = LaurentPolynomial.monomial(
                                rng.randint(-2, 2), (sign if r == 0 else 1) << rng.randint(0, 3)
                            )
                    m = PolyMatrix(tuple(tuple(r) for r in rows))
                    det = m.determinant()
                    assert det == cofactor_determinant(m), (kind, m)
                    if kind == "perm":
                        assert det == LaurentPolynomial.monomial(0, permutation_sign(perm))
                    elif kind == "norm" and d:
                        bound = math.prod(sum(abs(c) for p in r for _, c in p.terms) for r in rows)
                        assert [c for _, c in det.terms] == [(-1) ** rep * bound]
                    elif kind in ("zero_column", "equal_rows") and d >= 2:
                        assert det.is_zero()

    def test_determinant_matches_sympy_berkowitz(self):
        # An independent algorithm: multiply the matrix by t^k so that every
        # entry is an ordinary polynomial, then det scales by t^(k·d).
        import sympy

        t = sympy.Symbol("t")
        rng = random.Random(38)
        for _ in range(30):
            w = random_word(rng, rng.randint(3, 7), 20)
            m = matrix_sub(burau_reduced(w), identity(w.n - 1))
            d = m.dim
            k = max([0] + [-p.min_exp for r in m.rows for p in r if not p.is_zero()])
            sym = sympy.Matrix(
                d, d, lambda i, j: sum(c * t ** (e + k) for e, c in m.rows[i][j].terms)
            )
            expected = sympy.Poly(sym.det(method="berkowitz"), t)
            got = {e + k * d: c for e, c in m.determinant().terms}
            assert got == {e: int(c) for (e,), c in expected.terms() if c}, w
