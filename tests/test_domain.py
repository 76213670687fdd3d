"""Tests for domain construction, Levi determinant, and type bounds."""

import copy
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from subelliptic.polyring import GaussRational, Poly, canonical_str, parse_poly, two_re
from subelliptic.domain import (
    TYPE_WITNESS,
    DomainError,
    DomainSpec,
    LeviData,
    apply_L,
    borderline_domain,
    cross_power_domain,
    defining_function,
    expand_r,
    flat_domain,
    levi_by_hessian,
    type_lower_bound,
    vertical_order,
)
from test_acceptance import random_holo


class TestValidation:
    def test_components_must_be_holomorphic(self):
        with pytest.raises(ValueError):
            DomainSpec(name="bad", f=(parse_poly("w + zb"),))

    def test_components_must_vanish_at_origin(self):
        with pytest.raises(DomainError):
            DomainSpec(name="bad", f=(parse_poly("1 + w"),))

    def test_sample_radius_must_be_positive(self):
        with pytest.raises(DomainError):
            DomainSpec(name="bad", f=(parse_poly("w"),), sample_radius=0.0)

    def test_sample_radius_must_be_finite(self):
        with pytest.raises(DomainError, match="finite"):
            DomainSpec(name="bad", f=(parse_poly("w"),), sample_radius=math.inf)

    def test_cross_power_parameter_ordering(self):
        with pytest.raises(DomainError):
            cross_power_domain(3, 2, 2)
        with pytest.raises(DomainError):
            cross_power_domain(2, 2, 5)
        with pytest.raises(DomainError):
            cross_power_domain(3, 0, 5)


class TestRecords:
    def test_domain_spec_rejects_assignment(self):
        spec = flat_domain()
        with pytest.raises(AttributeError):
            spec.sample_radius = 1.0
        with pytest.raises(AttributeError):
            del spec.name
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert spec == flat_domain()

    def test_domain_spec_equal_and_hashable_by_value(self):
        spec = DomainSpec(name="flat", f=(parse_poly("w"),))
        assert spec == flat_domain() and hash(spec) == hash(flat_domain())
        assert spec != DomainSpec(name="flat", f=(parse_poly("w"),), sample_radius=0.2)
        assert spec != flat_domain().f
        assert len({spec, flat_domain(), borderline_domain()}) == 2
        assert repr(spec) == (
            f"DomainSpec(name='flat', f=({parse_poly('w')!r},), g=(), "
            "params=None, sample_radius=0.1)"
        )

    def test_domain_spec_with_params_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(cross_power_domain(3, 2, 5))

    def test_domain_spec_copies_and_pickles(self):
        spec = cross_power_domain(3, 2, 5)
        for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == spec

    def test_domain_spec_validates_on_replace_and_make(self):
        spec = flat_domain()
        with pytest.raises(DomainError, match="sample_radius"):
            spec._replace(sample_radius=0.0)
        with pytest.raises(ValueError, match="must be holomorphic"):
            DomainSpec._make(("bad", (parse_poly("w"),), (parse_poly("zb"),)))
        assert spec._replace(name="flat") == DomainSpec._make(spec) == spec
        assert type(DomainSpec._make(spec)) is DomainSpec

    def test_result_records_take_keywords(self):
        r, lam = parse_poly("z"), parse_poly("w")
        data = LeviData(r=r, lam=lam, r_z=r, r_w=lam)
        assert (data.r, data.lam, data.r_z, data.r_w) == (r, lam, r, lam)


class TestDefiningFunction:
    @pytest.mark.parametrize(
        "spec",
        [flat_domain(), cross_power_domain(3, 2, 5), borderline_domain()],
    )
    def test_r_is_real_and_normalized(self, spec):
        data = expand_r(spec)
        assert data.r.is_conj_symmetric()
        assert data.r.constant_term().is_zero()
        assert data.r_z.constant_term() == GaussRational.one()

    def test_g_components_subtract(self):
        spec = borderline_domain()
        r = defining_function(spec)
        w, wb = parse_poly("w"), parse_poly("wb")
        plain = parse_poly("z") + parse_poly("zb")
        for p in spec.f:
            plain = plain + p * p.conj()
        assert r == plain - w * wb


class TestLeviForm:
    def test_flat_levi_is_one(self):
        assert canonical_str(expand_r(flat_domain()).lam) == "1"

    def test_single_component_identity(self):
        # With g empty and a single f, the mixed Hessian terms cancel exactly
        # and the determinant collapses to |df/dw|^2.
        data = expand_r(cross_power_domain(3, 2, 5))
        fw = parse_poly("w^3 + z^5*w^2").wirtinger("w")
        assert data.lam == fw * fw.conj()

    def test_pure_square_identity_is_generic(self):
        rng = random.Random(20250814)
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = (rng.randint(0, 3), 0, rng.randint(0, 3), 0)
                if m == (0, 0, 0, 0):
                    continue
                terms[m] = GaussRational(
                    Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))
                )
            if not terms:
                continue
            f = Poly(terms)
            spec = DomainSpec(name="random", f=(f,))
            expected = Poly.zero()
            fw = f.wirtinger("w")
            expected = fw * fw.conj()
            assert expand_r(spec).lam == expected

    def test_multi_component_picks_up_jacobian_corrections(self):
        # For several components the determinant is not just sum |f_j,w|^2;
        # here it factors as (1 + |z|^2)(1 + |w^2|^2), checked by hand.
        spec = DomainSpec(name="two", f=(parse_poly("w"), parse_poly("z*w")))
        expected = parse_poly("1 + z*zb") * parse_poly("1 + w^2*wb^2")
        assert expand_r(spec).lam == expected

    def test_borderline_levi_exact(self):
        lam = expand_r(borderline_domain()).lam
        assert canonical_str(lam) == "4*w*wb + 5*w^4 + 5*wb^4 + 25*w^4*wb^4"

    def test_levi_form_is_real(self):
        cubic = DomainSpec(
            name="borderline(3)",
            f=(parse_poly("w + w^3"), parse_poly("w^2")),
            g=(parse_poly("w"),),
        )
        for spec in (cross_power_domain(3, 2, 4), borderline_domain(), cubic):
            assert expand_r(spec).lam.is_conj_symmetric()

    def test_sum_of_squares_matches_the_hessian_pairing(self):
        rng = random.Random(20261019)
        with_g = 0
        for _ in range(100):
            f = tuple(small_component(rng) for _ in range(rng.randint(1, 2)))
            g = tuple(small_component(rng) for _ in range(rng.randint(0, 1)))
            with_g += bool(g)
            spec = DomainSpec(name="random", f=f, g=g)
            assert expand_r(spec).lam == hessian_levi(defining_function(spec)), spec
        assert with_g >= 40

    def test_the_hessian_route_gives_expand_rs_lambda(self):
        """`levi_by_hessian` equals `expand_r`'s lambda, exactly, on 120
        seeded specs of 1-3 f and 0-2 g components, in under 10 s (about
        1 s on a 2-core VM)."""
        rng = random.Random(20261021)
        start, with_g = time.perf_counter(), 0
        for case in range(120):
            f = tuple(random_holo(rng, 3, 2) for _ in range(rng.randint(1, 3)))
            g = tuple(random_holo(rng, 3, 2) for _ in range(rng.randint(0, 2)))
            with_g += bool(g)
            data = expand_r(DomainSpec(name=f"random-{case}", f=f, g=g))
            assert levi_by_hessian(data) == data.lam, (f, g)
        assert with_g >= 60
        assert time.perf_counter() - start < 10.0


def small_component(rng: random.Random) -> Poly:
    """Like random_component, smaller, so the Hessian reference stays cheap."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        m = (rng.randint(0, 2), 0, rng.randint(0, 3), 0)
        terms[m if m != (0, 0, 0, 0) else (0, 0, 1, 0)] = GaussRational(
            Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1))
        )
    return Poly(terms) or parse_poly("w")


def hessian_levi(r: Poly) -> Poly:
    """The Levi determinant of any real r from its complex Hessian:

        r_wwb |r_z|^2 + r_zzb |r_w|^2 - 2 Re(r_zwb r_w r_zb).
    """
    r_z, r_w = r.wirtinger("z"), r.wirtinger("w")
    r_zb, r_wb = r.wirtinger("zb"), r.wirtinger("wb")
    r_zzb = r_z.wirtinger("zb")
    r_wwb = r_w.wirtinger("wb")
    r_zwb = r_z.wirtinger("wb")
    return r_wwb * r_z * r_zb + r_zzb * r_w * r_wb - two_re(r_zwb * r_w * r_zb)


class TestTangentialField:
    def test_annihilates_the_defining_function(self):
        for spec in (flat_domain(), cross_power_domain(3, 2, 5), borderline_domain()):
            data = expand_r(spec)
            assert apply_L(data.r, data).is_zero()

    def test_reduces_to_d_dw_at_origin(self):
        data = expand_r(cross_power_domain(3, 2, 5))
        h = parse_poly("w + z^2")
        image = apply_L(h, data)
        assert image.constant_term() == h.wirtinger("w").constant_term()

    def test_is_a_derivation(self):
        data = expand_r(cross_power_domain(3, 2, 4))
        a, b = parse_poly("w^2 + z"), parse_poly("z*w")
        left = apply_L(a * b, data)
        right = apply_L(a, data) * b + a * apply_L(b, data)
        assert left == right


class TestContactOrder:
    def test_vertical_curve_on_the_family(self):
        r = defining_function(cross_power_domain(3, 2, 5))
        assert vertical_order(r) == 6

    def test_curve_inside_zero_set(self):
        r = parse_poly("z*zb + z*w*wb")
        assert vertical_order(r) == math.inf

    def test_integral_contact_collapses_to_int(self):
        r = defining_function(cross_power_domain(3, 2, 5))
        value = vertical_order(r)
        assert isinstance(value, int)


def monomial_curve_contact(r: Poly, c: GaussRational, s: int):
    """Vanishing order of r along t -> (c*t^s, t); t sits in the z slot."""
    pullback = Poly.zero()
    for (a, b, e, d), coeff in r.terms.items():
        coeff = coeff * c ** a * c.conj() ** b
        pullback = pullback + Poly({(s * a + e, s * b + d, 0, 0): coeff})
    if pullback.is_zero():
        return math.inf
    return min(sum(m) for m in pullback.terms)


def random_component(rng: random.Random) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = (rng.randint(0, 3), 0, rng.randint(0, 4), 0)
        terms[m if m != (0, 0, 0, 0) else (0, 0, 1, 0)] = GaussRational(
            Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))
        )
    return Poly(terms) or parse_poly("w")


class TestTypeLowerBound:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (flat_domain(), 2),
            (cross_power_domain(3, 2, 4), 6),
            (cross_power_domain(3, 2, 5), 6),
            (cross_power_domain(4, 3, 6), 8),
            (borderline_domain(), 4),
        ],
    )
    def test_known_types(self, spec, expected):
        assert type_lower_bound(spec) == expected

    def test_vertical_curve_is_the_witness_on_models(self):
        spec = cross_power_domain(3, 2, 5)
        assert TYPE_WITNESS == "(0, t)"
        assert type_lower_bound(spec) == vertical_order(defining_function(spec)) == 6

    def test_no_monomial_curve_beats_the_vertical(self):
        coeffs = [GaussRational(*c) for c in
                  [(1,), (-1,), (0, 1), (0, -1), (2,), (1, 1), (Fraction(1, 2), -3)]]
        rng = random.Random(20261018)
        specs = [flat_domain(), borderline_domain(), cross_power_domain(3, 2, 5)]
        for _ in range(60):
            f = tuple(random_component(rng) for _ in range(rng.randint(1, 2)))
            g = tuple(random_component(rng) for _ in range(rng.randint(0, 2)))
            specs.append(DomainSpec(name="random", f=f, g=g + f[:rng.randint(0, 1)]))
        for spec in specs:
            r = defining_function(spec)
            bound = type_lower_bound(spec)
            assert monomial_curve_contact(r, GaussRational.zero(), 1) == bound
            for c in coeffs:
                for s in range(1, 9):
                    assert monomial_curve_contact(r, c, s) <= bound, (spec, c, s)
