"""Tests for exact polynomial arithmetic, printing and parsing."""

import copy
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from subelliptic import polyring
from subelliptic.polyring import (
    GaussRational,
    ParseError,
    Poly,
    canonical_str,
    mono_conj,
    parse_poly,
    require_holomorphic,
    two_re,
)
from subelliptic.numcheck import _column, _float_terms

Z = Poly.variable("z")
ZB = Poly.variable("zb")
W = Poly.variable("w")
WB = Poly.variable("wb")
GR = GaussRational


def random_gauss(rng: random.Random) -> GaussRational:
    return GR(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
    )


def random_poly(rng: random.Random, max_terms: int = 6, max_exp: int = 4) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(4))
        terms[m] = random_gauss(rng)
    return Poly(terms)


class TestGaussRational:
    def test_field_ops(self):
        a = GR(Fraction(1, 2), 3)
        b = GR(2, Fraction(-1, 4))
        assert a + b == GR(Fraction(5, 2), Fraction(11, 4))
        assert a * b == GR(Fraction(7, 4), Fraction(47, 8))
        assert (a / b) * b == a
        assert -a + a == GR(0)

    def test_conj_and_abs_sq(self):
        a = GR(3, -4)
        assert a.conj() == GR(3, 4)
        assert a * a.conj() == GR(25)

    def test_pow(self):
        i = GR(0, 1)
        assert i ** 2 == GR(-1)
        assert i ** 4 == GR(1)
        assert GR(2, 1) ** 0 == GR(1)

    def test_to_complex(self):
        assert GR(Fraction(1, 2), Fraction(-3, 4)).to_complex() == 0.5 - 0.75j

    def test_division_by_zero(self):
        for zero in (GR(0), GaussRational(), GaussRational(Fraction(0), Fraction(0, 3))):
            with pytest.raises(ZeroDivisionError):
                GR(Fraction(1, 3), 2) / zero

    def test_immutable(self):
        a = GR(Fraction(1, 2), 3)
        for name in ("a", "b", "d", "re", "im"):
            with pytest.raises(AttributeError):
                setattr(a, name, 1)
        assert pickle.loads(pickle.dumps(a)) == a

    @pytest.mark.parametrize("part", [0.5, "1", None, 1j])
    def test_a_part_that_is_not_rational_is_a_type_error(self, part):
        name = type(part).__name__
        with pytest.raises(TypeError, match=f"must be rational, not {name}"):
            GR(part)
        with pytest.raises(TypeError, match=f"must be rational, not {name}"):
            GR(1, part)


# A reference Gaussian rational: a pair (re, im) of Fractions.


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def random_part(rng: random.Random) -> Fraction:
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-40, 40), rng.randint(1, 36))


def random_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Rational, purely imaginary, negative or zero parts, and mixed values."""
    return random_part(rng), random_part(rng)


def assert_lowest_terms(c: GaussRational) -> None:
    assert type(c.a) is int and type(c.b) is int and type(c.d) is int
    assert c.d > 0 and math.gcd(c.a, c.b, c.d) == 1


class TestGaussRationalAgainstFractionPairs:
    """Every operation agrees with the same operation on Fraction pairs."""

    def test_operations(self):
        rng = random.Random(20261020)
        seen = set()
        for _ in range(600):
            x, y = random_pair(rng), random_pair(rng)
            n = rng.randint(1, 5)
            gx, gy = GaussRational(*x), GaussRational(*y)
            seen.add("zero" if x == (0, 0) else "real" if not x[1]
                     else "imaginary" if not x[0] else "mixed")
            results = [
                (gx + gy, ref_add(x, y)),
                (gx - gy, ref_sub(x, y)),
                (gx * gy, ref_mul(x, y)),
                (-gx, (-x[0], -x[1])),
                (gx.conj(), (x[0], -x[1])),
                (gx.scale(y[0]), (x[0] * y[0], x[1] * y[0])),
                (gx.scale(3), (3 * x[0], 3 * x[1])),
                (gx ** 0, (1, 0)),
                (gx ** n, ref_pow(x, n)),
            ]
            if y != (0, 0):
                results.append((gx / gy, ref_div(x, y)))
            else:
                with pytest.raises(ZeroDivisionError):
                    gx / gy
            for got, want in results:
                assert_lowest_terms(got)
                assert type(got.re) is Fraction and type(got.im) is Fraction
                assert (got.re, got.im) == want
                assert got.is_zero() == (want == (0, 0))
            abs_sq = (gx * gx.conj()).re
            assert type(abs_sq) is Fraction and abs_sq == x[0] ** 2 + x[1] ** 2
        assert seen == {"zero", "real", "imaginary", "mixed"}

    def test_equal_values_compare_and_hash_equal(self):
        halves = [
            GaussRational(Fraction(2, 4)),
            GaussRational(Fraction(1, 2), 0),
            GaussRational(Fraction(1, 2)),
            GaussRational(Fraction(3, 4)) * GaussRational(Fraction(2, 3)),
            GaussRational(Fraction(1, 2), Fraction(1, 2))
            * GaussRational(Fraction(1, 2), Fraction(-1, 2)),
            GaussRational(1) / GaussRational(2),
        ]
        for h in halves:
            assert_lowest_terms(h)
            assert (h.a, h.b, h.d) == (1, 0, 2)
            assert h == halves[0] and hash(h) == hash(halves[0])
        assert len(set(halves)) == 1
        assert GaussRational(0) == GaussRational(Fraction(0, 5), 0) == GaussRational.zero()
        assert GaussRational(Fraction(1, 2)) != GaussRational(0, Fraction(1, 2))

    def test_a_coefficient_is_its_triple(self):
        """The tuple's hash and equality are the value's; its sequence
        arithmetic and ordering are off, and the items cannot be set."""
        rng = random.Random(20261023)
        seen = set()
        for _ in range(200):
            c = GaussRational(*random_pair(rng))
            seen.add("zero" if c.is_zero() else "negative" if c.a < 0 or c.b < 0
                     else "positive")
            assert tuple(c) == (c.a, c.b, c.d)
            assert hash(c) == hash((c.a, c.b, c.d))
            assert c == GaussRational(c.re, c.im)
            for operation in (lambda: 3 * c, lambda: (1, 0) + c, lambda: c < c):
                with pytest.raises(TypeError):
                    operation()
            with pytest.raises(AttributeError):
                setattr(c, "a", 1)
            for twin in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
                assert type(twin) is GaussRational and twin == c
        assert seen == {"zero", "negative", "positive"}

    def test_to_complex_is_bit_identical(self):
        rng = random.Random(20261021)
        values = [random_pair(rng) for _ in range(300)]
        values += [(Fraction(10 ** 30 + 1, 3 ** 40), Fraction(-(7 ** 50), 10 ** 41 + 3)),
                   (Fraction(1, 3), Fraction(-2, 3)), (Fraction(0), Fraction(-1, 7))]
        for re, im in values:
            got = GaussRational(re, im).to_complex()
            want = complex(re) + 1j * complex(im)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


class TestDerivedForms:
    """The printed, conjugate and monic forms are computed once per Poly."""

    @staticmethod
    def twins():
        built = Poly({(0, 0, 2, 0): GR(3), (1, 0, 0, 1): GR(0, -2)})
        parsed = parse_poly("-2*i*z*wb + 3*w^2")
        grown = (W - Z * WB.scale(GR(0, 2)) * Poly.one()) + W * W.scale(GR(3)) - W
        return built, parsed, grown

    def test_equal_polynomials_have_equal_forms(self):
        built, parsed, grown = self.twins()
        assert built == parsed == grown
        for p in (built, parsed, grown):
            assert canonical_str(p) == "-2*i*z*wb + 3*w^2"
            assert p.conj() == parse_poly("2*i*zb*w + 3*wb^2")
            assert p.monic() == parse_poly("z*wb + 3/2*i*w^2")

    def test_a_second_call_does_no_new_work(self, monkeypatch):
        p = self.twins()[0]
        first = (canonical_str(p), p.conj(), p.monic())

        def no_work(*_):
            raise AssertionError("a derived form was computed twice")

        monkeypatch.setattr(Poly, "sorted_terms", no_work)
        monkeypatch.setattr(polyring, "mono_conj", no_work)
        monkeypatch.setattr(polyring, "display_key", no_work)
        again = (canonical_str(p), p.conj(), p.monic())
        assert all(a is b for a, b in zip(first, again))
        # A monic form is its own monic form, and knows it without a search.
        assert first[2].monic() is first[2]

    def test_forms_are_still_immutable(self):
        p = self.twins()[0]
        canonical_str(p), p.conj(), p.monic()
        for name in ("terms", "_hash", "_str", "_conj", "_monic", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)

    def test_a_pickle_round_trip_keeps_equality_and_hash(self):
        p = self.twins()[1]
        forms = (canonical_str(p), p.conj(), p.monic(), hash(p))
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert twin == p and hash(twin) == hash(p)
            assert (canonical_str(twin), twin.conj(), twin.monic(), hash(twin)) == forms

    def test_the_monic_form_needs_no_ideal_layer(self):
        child = (
            "import sys; from subelliptic.polyring import parse_poly; "
            "print(parse_poly('2*w').monic(), 'subelliptic.localideal' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert proc.stdout == "w False\n", proc.stderr

    def test_zero_and_monic_polynomials_are_their_own_monic_form(self):
        zero, one = Poly.zero(), Poly.one()
        assert canonical_str(zero) == "0" and zero.conj() == zero
        assert zero.monic() is zero and W.monic() is W and one.monic() is one


class TestPolyArithmetic:
    def test_zero_and_one(self):
        assert Poly.zero().is_zero()
        assert not Poly.one().is_zero()
        assert Poly.one().constant_term() == GR(1)
        p = Z * W - Z * W
        assert p.is_zero() and not p.terms

    def test_product_example(self):
        # (w + z^2)(w - z^2) = w^2 - z^4
        p = (W + Z ** 2) * (W - Z ** 2)
        assert p == W ** 2 - Z ** 4

    def test_norm_square_expansion(self):
        # |w^3 + z^5 w^2|^2 expands to 4 cross terms
        f = W ** 3 + Z ** 5 * W ** 2
        sq = f * f.conj()
        expected = (
            W ** 3 * WB ** 3
            + Z ** 5 * W ** 2 * WB ** 3
            + ZB ** 5 * W ** 3 * WB ** 2
            + Z ** 5 * ZB ** 5 * W ** 2 * WB ** 2
        )
        assert sq == expected
        assert sq.is_conj_symmetric()

    def test_scale_and_neg(self):
        p = Z + W
        assert p.scale(GR(0)).is_zero()
        assert p.scale(GR(-2)) == -(p + p)

    def test_product_matches_a_reference_on_fraction_pairs(self):
        """Poly.__mul__ against a term-by-term product whose coefficients are
        (re, im) pairs of Fractions, so neither the triple arithmetic nor the
        product loop of `Poly` is used."""
        rng = random.Random(110)
        for _ in range(60):
            p, q = random_poly(rng), random_poly(rng)
            want = {}
            for m1, c1 in p.terms.items():
                for m2, c2 in q.terms.items():
                    m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                    term = ref_mul((c1.re, c1.im), (c2.re, c2.im))
                    want[m] = ref_add(want.get(m, (Fraction(0), Fraction(0))), term)
            want = {m: c for m, c in want.items() if c != (0, 0)}
            assert {m: (c.re, c.im) for m, c in (p * q).terms.items()} == want

    def test_pow_matches_repeated_mul(self):
        p = Z + WB
        q = Poly.one()
        for n in range(10):
            assert p ** n == q
            q = q * p

    @pytest.mark.parametrize("n,products", [(1, 0), (2, 1), (5, 3), (8, 3)])
    def test_pow_takes_only_the_needed_products(self, monkeypatch, n, products):
        calls = []
        mul = Poly.__mul__

        def counting_mul(a, b):
            calls.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        (Z + W) ** n
        assert len(calls) == products

    def test_single_term_power_equals_the_squaring_loop(self, monkeypatch):
        """c*x^e to the n is c^n*x^(n*e), built without a Poly product."""
        rng = random.Random(20261019)
        cases = []
        for _ in range(60):
            c = random_gauss(rng)
            while c.is_zero():
                c = random_gauss(rng)
            p = Poly({tuple(rng.randint(0, 3) for _ in range(4)): c})
            n = rng.randint(0, 40)
            cases.append((p, n, polyring._power(p, n, Poly.one())))
        cases += [(Z, 0, Poly.one()), (-Z, 3, -(Z * Z * Z))]
        calls = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        for p, n, want in cases:
            got = p ** n
            assert got == want and len(got.terms) == 1
            assert str(got) == str(want)
        assert calls == []

    def test_results_built_unchecked_hold_no_zero_coefficient(self):
        """Negation, conjugation, a nonzero scaling, a derivative and a
        monomial division skip the zero filter; each still equals the value
        built through checked arithmetic."""
        rng = random.Random(20261020)
        for _ in range(100):
            p = random_poly(rng)
            c = random_gauss(rng)
            m = tuple(rng.randint(0, 2) for _ in range(4))
            results = [
                (-p, Poly.zero() - p),
                (p.conj().conj(), p),
                (p.scale(c), Poly.constant(c) * p),
                (p.wirtinger("w"), Poly(p.wirtinger("w").terms)),
                ((p * Poly({m: GR(1)})).divide_monomial(m), p),
            ]
            for got, want in results:
                assert got == want
                assert not any(k.is_zero() for k in got.terms.values())

    @pytest.mark.parametrize("base", [GR(2, 1), Z + WB])
    def test_negative_power_raises(self, base):
        with pytest.raises(ValueError, match="negative power"):
            base ** -1

    def test_immutability(self):
        p = Z + W
        with pytest.raises(AttributeError):
            p.terms = {}
        hash(p)
        with pytest.raises(AttributeError):
            p._hash = 0

    def test_pickle_and_copy_round_trip(self):
        rng = random.Random(107)
        for p in [Poly.zero(), Z + WB, *(random_poly(rng) for _ in range(30))]:
            hash(p)
            for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
                assert type(q) is Poly
                assert q == p and hash(q) == hash(p)
                assert canonical_str(q) == canonical_str(p)

    def test_equal_polys_hash_equal(self):
        """The kept hash ignores term order, as equality does."""
        rng = random.Random(108)
        for _ in range(50):
            p = random_poly(rng)
            items = list(p.terms.items())
            rng.shuffle(items)
            q = Poly(dict(items))
            assert q == p
            assert hash(p) == hash(q) == hash(p) == hash(frozenset(p.terms.items()))
            assert hash(p + Poly.zero()) == hash(p)

    def test_conj_involution_random(self):
        rng = random.Random(101)
        for _ in range(150):
            p = random_poly(rng)
            assert p.conj().conj() == p

    def test_conj_is_ring_hom_random(self):
        rng = random.Random(102)
        for _ in range(100):
            p, q = random_poly(rng), random_poly(rng)
            assert (p * q).conj() == p.conj() * q.conj()
            assert (p + q).conj() == p.conj() + q.conj()

    def test_two_re_is_real(self):
        rng = random.Random(103)
        for _ in range(50):
            p = random_poly(rng)
            assert two_re(p).is_conj_symmetric()


class TestWirtinger:
    def test_basic_partials(self):
        p = Z ** 3 * WB + W ** 2
        assert p.wirtinger("z") == Z ** 2 * WB * Poly.constant(GR(3))
        assert p.wirtinger("w") == W * Poly.constant(GR(2))
        assert p.wirtinger("zb").is_zero()
        assert p.wirtinger("wb") == Z ** 3

    def test_leibniz_random(self):
        rng = random.Random(104)
        for _ in range(100):
            p, q = random_poly(rng, 4, 3), random_poly(rng, 4, 3)
            for v in ("z", "zb", "w", "wb"):
                lhs = (p * q).wirtinger(v)
                rhs = p.wirtinger(v) * q + p * q.wirtinger(v)
                assert lhs == rhs

    def test_commuting_partials_random(self):
        rng = random.Random(105)
        for _ in range(60):
            p = random_poly(rng)
            assert p.wirtinger("z").wirtinger("wb") == p.wirtinger("wb").wirtinger("z")

    def test_conjugation_swaps_partials(self):
        rng = random.Random(106)
        for _ in range(60):
            p = random_poly(rng)
            assert p.wirtinger("z").conj() == p.conj().wirtinger("zb")
            assert p.wirtinger("w").conj() == p.conj().wirtinger("wb")


class TestDegreesAndContent:
    def test_degrees(self):
        p = Z * ZB + W ** 3
        assert p.total_degree() == 3
        assert Poly.zero().total_degree() == -1

    def test_monomial_content(self):
        p = W ** 3 + Z ** 5 * W ** 2
        assert p.monomial_content() == (0, 0, 2, 0)
        q = p.divide_monomial((0, 0, 2, 0))
        assert q == W + Z ** 5
        with pytest.raises(ValueError):
            Poly.zero().monomial_content()

    def test_mono_conj(self):
        assert mono_conj((1, 2, 3, 4)) == (2, 1, 4, 3)
        assert mono_conj(mono_conj((5, 0, 1, 7))) == (5, 0, 1, 7)


def _float_value(p: Poly, z0: complex, w0: complex) -> complex:
    return _column(_float_terms(p), [z0], [w0])[0]


class TestEvaluation:
    def test_exact_eval(self):
        p = Z * ZB + W
        v = p.eval_exact(GR(1, 2), GR(0, 1))
        # |1+2i|^2 + i = 5 + i
        assert v == GR(5, 1)

    def test_exact_matches_complex_random(self):
        """The float evaluator, the column kernel at one point, agrees with the
        exact one at Gaussian-rational points."""
        rng = random.Random(107)
        for _ in range(60):
            p = random_poly(rng, 5, 3)
            z0, w0 = random_gauss(rng), random_gauss(rng)
            exact = p.eval_exact(z0, w0).to_complex()
            approx = _float_value(p, z0.to_complex(), w0.to_complex())
            assert abs(exact - approx) < 1e-9 * (1 + abs(exact))

    def test_kernel_matches_exact_at_float_points(self):
        """At float points, each read exactly as a Gaussian rational, the
        column kernel at one point agrees with the exact evaluation."""
        rng = random.Random(108)

        def exactly(x: complex) -> GaussRational:
            return GR(Fraction(x.real), Fraction(x.imag))

        for _ in range(20):
            p = random_poly(rng, 8, 4)
            z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            w0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            exact = p.eval_exact(exactly(z0), exactly(w0)).to_complex()
            assert abs(_float_value(p, z0, w0) - exact) < 1e-12 * (1 + abs(exact))

    def test_real_poly_evals_real(self):
        rng = random.Random(109)
        for _ in range(40):
            p = random_poly(rng, 4, 3)
            q = two_re(p) + (p * p.conj())
            z0, w0 = random_gauss(rng), random_gauss(rng)
            assert q.eval_exact(z0, w0).im == 0


class TestPrinting:
    def test_canonical_example(self):
        p = Poly.constant(GR(3)) * W ** 2 + Poly.constant(GR(2)) * Z ** 5 * W
        assert canonical_str(p) == "3*w^2 + 2*z^5*w"

    def test_term_order_degree_then_z_major(self):
        p = W ** 2 + Z * W + Z ** 3
        assert canonical_str(p) == "z*w + w^2 + z^3"

    def test_signs_and_units(self):
        assert canonical_str(Z - W) == "z - w"
        assert canonical_str(-Z) == "-z"
        assert canonical_str(Poly.zero()) == "0"
        assert canonical_str(Poly.one()) == "1"
        assert canonical_str(Poly.constant(GR(0, -1)) * W) == "-i*w"

    def test_mixed_coefficient_parenthesized(self):
        p = Poly.constant(GR(1, -2)) * Z
        assert canonical_str(p) == "(1 - 2*i)*z"
        q = Poly.constant(GR(Fraction(1, 2), Fraction(3, 4))) * W
        assert canonical_str(q) == "(1/2 + 3/4*i)*w"

    def test_fraction_coefficients(self):
        p = Poly.constant(GR(Fraction(-3, 4))) * Z * ZB
        assert canonical_str(p) == "-3/4*z*zb"


def fraction_coeff_str(c: GaussRational) -> str:
    """The coefficient printer as written on Fraction parts, for comparison."""

    def frac_str(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    re, im = c.re, c.im
    if not re and not im:
        return "0"
    if not im:
        return frac_str(re)
    if not re:
        mag = "" if abs(im) == 1 else frac_str(abs(im)) + "*"
        return ("-" if im < 0 else "") + mag + "i"
    im_mag = "" if abs(im) == 1 else frac_str(abs(im)) + "*"
    joiner = " + " if im > 0 else " - "
    return "(" + frac_str(re) + joiner + im_mag + "i)"


PARTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2),
         Fraction(1, 3), Fraction(-5)]
COEFFS = [GR(re, im) for re in PARTS for im in PARTS if re or im]


class TestPrinterMatchesFractionPrinter:
    def _both(self, monkeypatch, p: Poly) -> tuple[str, str]:
        got = canonical_str(p)
        with monkeypatch.context() as m:
            m.setattr(polyring, "coeff_str", fraction_coeff_str)
            want = canonical_str(p)
        return got, want

    @pytest.mark.parametrize("mono", [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 2, 0), (3, 0, 1, 1)])
    def test_every_small_coefficient_times_a_monomial(self, monkeypatch, mono):
        assert len(COEFFS) == 48
        for c in COEFFS:
            assert polyring.coeff_str(c) == fraction_coeff_str(c)
            got, want = self._both(monkeypatch, Poly({mono: c}))
            assert got == want

    def test_random_polynomials(self, monkeypatch):
        rng = random.Random(20261022)
        for _ in range(100):
            got, want = self._both(monkeypatch, random_poly(rng))
            assert got == want


class TestParsePrintRoundTrip:
    def test_rational_and_imaginary_coefficients(self):
        rng = random.Random(20261023)
        monos = ["", "z", "w^2", "z*wb", "zb^2*w"]
        for _ in range(150):
            pieces = []
            for mono in rng.sample(monos, rng.randint(1, 4)):
                q = Fraction(rng.randint(1, 12), rng.randint(1, 6))
                coeff = f"{q}*i" if rng.random() < 0.5 else str(q)
                sign = rng.choice(["+", "-"])
                pieces.append(f"{sign} {coeff}" + (f"*{mono}" if mono else ""))
            p = parse_poly(" ".join(pieces))
            text = canonical_str(p)
            assert parse_poly(text) == p
            assert canonical_str(parse_poly(text)) == text


class TestParsing:
    def test_simple(self):
        assert parse_poly("z + w") == Z + W
        assert parse_poly("2*z^3*w") == Poly.constant(GR(2)) * Z ** 3 * W
        assert parse_poly("w^3 + z^5*w^2") == W ** 3 + Z ** 5 * W ** 2

    def test_imaginary_forms(self):
        i = Poly.constant(GR(0, 1))
        assert parse_poly("i") == i
        assert parse_poly("2i") == i + i
        assert parse_poly("2*i") == i + i
        assert parse_poly("3/4*i*w") == Poly.constant(GR(0, Fraction(3, 4))) * W
        assert parse_poly("(1 + 2*i)*z") == Poly.constant(GR(1, 2)) * Z

    def test_parens_and_powers(self):
        assert parse_poly("(z + w)^2") == (Z + W) ** 2
        assert parse_poly("-(z - w)") == W - Z
        assert parse_poly("z*(w + 1)") == Z * W + Z

    def test_fractions(self):
        assert parse_poly("1/2*z") == Poly.constant(GR(Fraction(1, 2))) * Z
        assert parse_poly("7/3") == Poly.constant(GR(Fraction(7, 3)))

    def test_conjugate_variables(self):
        assert parse_poly("z*zb + w*wb") == Z * ZB + W * WB

    def test_error_positions(self):
        with pytest.raises(ParseError, match="column 5"):
            parse_poly("z + $")
        with pytest.raises(ParseError, match="line 2"):
            parse_poly("z +\n q")
        with pytest.raises(ParseError):
            parse_poly("z + ")
        with pytest.raises(ParseError):
            parse_poly("(z + w")
        with pytest.raises(ParseError):
            parse_poly("1/0")

    def test_deep_nesting_is_a_parse_error(self):
        """Nesting beyond the interpreter's recursion limit is reported as a
        ParseError at the token reached, not as a RecursionError."""
        depth = sys.getrecursionlimit()
        text = "(" * depth + "w" + ")" * depth
        with pytest.raises(ParseError, match=r"^expression nested too deeply \(line 1, ") as err:
            parse_poly(text)
        assert 1 <= err.value.column <= len(text)
        assert parse_poly("(" * 50 + "w" + ")" * 50) == W

    def test_digits_that_int_rejects_are_unexpected(self):
        """'²'.isdigit() is True, yet int('²') fails."""
        with pytest.raises(ParseError, match=r"unexpected character '²' \(line 1, column 3\)"):
            parse_poly("w^²")

    def test_round_trip_random(self):
        rng = random.Random(110)
        for _ in range(150):
            p = random_poly(rng)
            assert parse_poly(canonical_str(p)) == p

    def test_require_holomorphic(self):
        require_holomorphic(Z ** 2 * W)
        with pytest.raises(ValueError, match="holomorphic"):
            require_holomorphic(Z * ZB, "f")
