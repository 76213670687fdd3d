"""Tests for local ideal membership, standard bases, and radical certificates."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from subelliptic import localideal, polyring
from subelliptic.polyring import (
    GaussRational,
    Poly,
    _from_triple,
    canonical_str,
    display_key,
    mono_degree,
    mono_div,
    mono_divides,
    mono_mul,
    parse_poly,
)
from subelliptic.localideal import (
    BudgetExhausted,
    LocalIdeal,
    Membership,
    RadicalCertificate,
    _as_poly,
    _Budget,
    _buchberger,
    _conjugate_closure,
    _lead_ecart,
    _power_sweep,
    _prepare,
    _spoly,
    hermitian_square_rows,
    nf_mora,
    radical_extend,
)
from linear_oracle import certify_membership


def certs_view(certs):
    return [(c.rule, c.order, canonical_str(c.element)) for c in certs]


def leading_monomial(p):
    return _lead_ecart(p.terms)[0]


def mono_lcm(m, n):
    """The least common multiple of two monomials (the references below
    form it; the engine computes it inline)."""
    return (max(m[0], n[0]), max(m[1], n[1]), max(m[2], n[2]), max(m[3], n[3]))


def element(reducer):
    """The monic polynomial a reducer stands for."""
    lm, _, tail = reducer
    terms = {lm: GaussRational.one()}
    for m0, m1, m2, m3, _, a, b, d in tail:
        terms[m0, m1, m2, m3] = _from_triple(a, b, d)
    return Poly(terms)


def basis_elements(ideal):
    """The basis of an ideal as a tuple of Polys, or None when it ran out."""
    basis = ideal.basis
    return None if basis is None else tuple(map(element, basis))


class TestLocalOrder:
    def test_constant_dominates(self):
        assert leading_monomial(parse_poly("1 + z + w^2")) == (0, 0, 0, 0)

    def test_lower_degree_wins(self):
        assert leading_monomial(parse_poly("z^3 + w")) == (0, 0, 1, 0)

    def test_lex_breaks_degree_ties(self):
        # z and w have the same degree; z is larger in the tie-break.
        assert leading_monomial(parse_poly("z + w")) == (1, 0, 0, 0)

    def test_ecart_measures_tail_spread(self):
        assert _lead_ecart(parse_poly("w + z^3").terms)[1] == 2
        assert _lead_ecart(parse_poly("w").terms)[1] == 0

    def test_monic_normalizes_display_leader(self):
        p = parse_poly("3*w^2 + 2*z^5*w")
        assert canonical_str(p.monic()) == "w^2 + 2/3*z^5*w"

    def test_a_reducer_stands_for_the_monic_element(self):
        """The leading monomial is the display leader, which Poly.monic()
        scales by, and the reducer of p is p.monic() itself: lead
        coefficient 1, every other term divided."""
        rng = random.Random(20261021)
        for _ in range(200):
            coeff = rng.choice([gauss_integer, gauss_fraction])
            p = random_poly(rng, 4, coeff=coeff)
            lead = leading_monomial(p)
            assert lead == min(p.terms, key=display_key) == p.sorted_terms()[0][0]
            assert p.monic().terms[lead] == GaussRational.one()
            (reducer,) = _prepare([p])
            assert element(reducer) == p.monic()
            assert reducer[1] == p.total_degree() - mono_degree(reducer[0])
        # Many terms of few degrees: the local order breaks most ties here.
        for _ in range(200):
            terms = {tuple(rng.randint(0, 2) for _ in range(4)): gauss_fraction(rng)
                     for _ in range(rng.randint(1, 8))}
            p = Poly(terms) or Poly.one()
            assert leading_monomial(p) == p.sorted_terms()[0][0]


class TestStandardBasis:
    def setup_method(self):
        self.ideal = LocalIdeal(
            [parse_poly("3*w^2 + 2*z^5*w"), parse_poly("6*w + 2*z^5")]
        )

    def test_basis_elements(self):
        got = {canonical_str(g) for g in basis_elements(self.ideal)}
        assert got == {"w + 1/3*z^5", "z^10"}

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("w + 1/3*z^5", Membership.YES),
            ("w^2", Membership.YES),
            ("z^10", Membership.YES),
            ("z^11", Membership.YES),
            ("w", Membership.NO),
            ("z^5", Membership.NO),
            ("z^9", Membership.NO),
            ("1", Membership.NO),
        ],
    )
    def test_membership(self, text, expected):
        assert self.ideal.membership(parse_poly(text)) is expected

    def test_zero_is_always_a_member(self):
        assert self.ideal.membership(Poly.zero()) is Membership.YES

    def test_duplicate_generators_collapse(self):
        ideal = LocalIdeal([parse_poly("w"), parse_poly("w"), Poly.zero()])
        assert len(ideal.generators) == 1
        # Only exact copies collapse, the first occurrence wins, and scalar
        # multiples stay separate generators.
        ideal = LocalIdeal([parse_poly(t) for t in ["w", "z", "w", "2*w", "0"]])
        assert ideal.generator_strings() == ("w", "z", "2*w")


class TestLocalVersusGlobal:
    def test_membership_may_need_a_local_unit(self):
        # w^3*(1+z) lies in the ideal, so w^3 does too once 1+z is inverted;
        # no polynomial cofactor identity exists without the unit.
        ideal = LocalIdeal([parse_poly("z*w + w^3"), parse_poly("z^2 - w^2")])
        assert ideal.membership(parse_poly("w^3")) is Membership.YES
        gens = list(ideal.generators)
        assert certify_membership(parse_poly("w^3"), gens, 4)


def gauss_integer(rng):
    return GaussRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-1, 1)))


def gauss_fraction(rng):
    """Parts drawn as the benchmark's pool draws them; a third purely imaginary."""
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return GaussRational(Fraction(0) if rng.random() < 1 / 3 else re, im)


def random_poly(rng, degree, allow_conj=True, coeff=gauss_integer):
    terms = {}
    n_vars = 4 if allow_conj else 2
    for _ in range(rng.randint(1, 3)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            slot = rng.randrange(n_vars)
            exps[slot if allow_conj else 2 * slot] += 1
        c = coeff(rng)
        if not c.is_zero():
            terms[tuple(exps)] = c
    return Poly(terms) if terms else Poly.one()


def vanishing_poly(rng, degree):
    """A random_poly with conjugate variables and no constant term."""
    while True:
        p = random_poly(rng, degree)
        if p.constant_term().is_zero():
            return p


class TestMembershipProperties:
    def test_combinations_of_generators_are_members(self):
        rng = random.Random(20240814)
        checked = 0
        while checked < 40:
            g1 = random_poly(rng, 3)
            g2 = random_poly(rng, 3)
            if g1.is_zero() or g2.is_zero():
                continue
            ideal = LocalIdeal([g1, g2])
            if ideal.basis is None:
                continue
            a = random_poly(rng, 2)
            b = random_poly(rng, 2)
            combo = a * g1 + b * g2
            assert ideal.membership(combo) is Membership.YES
            checked += 1

    def test_members_are_closed_under_sum_and_scaling(self):
        ideal = LocalIdeal([parse_poly("w^2 + z*w"), parse_poly("z^3")])
        p = parse_poly("z*w^2 + z^2*w")
        q = parse_poly("z^4 + z^3*w")
        assert ideal.membership(p) is Membership.YES
        assert ideal.membership(q) is Membership.YES
        assert ideal.membership(p + q) is Membership.YES
        assert ideal.membership(p * parse_poly("1 + zb")) is Membership.YES


class TestUnitDetection:
    def test_unit_from_constant_term(self):
        assert LocalIdeal([parse_poly("1 + w")]).unit_witness() == parse_poly("1 + w")
        assert LocalIdeal(
            [parse_poly("w + w^2"), parse_poly("1 - w")]
        ).unit_witness() == parse_poly("1 - w")

    def test_vanishing_generators_never_span_a_unit(self):
        # Every combination sum a_i*g_i vanishes at 0 when all g_i do, so
        # scanning generator constant terms is a complete test.
        assert LocalIdeal([parse_poly("z"), parse_poly("w")]).unit_witness() is None
        assert LocalIdeal(
            [parse_poly("z + w^5"), parse_poly("zb"), parse_poly("wb")]
        ).unit_witness() is None


class TestBudgets:
    def test_exhausted_budget_yields_no_basis(self, monkeypatch):
        monkeypatch.setattr(localideal, "DEFAULT_STEP_BUDGET", 0)
        tiny = LocalIdeal([parse_poly("z*w + w^3"), parse_poly("z^2 - w^2")])
        assert tiny.basis is None
        assert tiny.membership(parse_poly("w^3")) is Membership.UNDECIDED

    def test_budget_only_delays_never_flips_answers(self):
        gens = [parse_poly("z*w + w^3"), parse_poly("z^2 - w^2")]
        full = LocalIdeal(gens)
        assert full.membership(parse_poly("w^3")) is Membership.YES
        starved = full.membership(parse_poly("w^3"), step_budget=1)
        assert starved in (Membership.YES, Membership.UNDECIDED)

    def test_zero_is_a_member_without_a_basis(self, monkeypatch):
        """0 lies in every ideal, so no standard basis is needed to say so."""
        monkeypatch.setattr(localideal, "DEFAULT_STEP_BUDGET", 0)
        starving = LocalIdeal([parse_poly("z*w + w^3"), parse_poly("z^2 - w^2")])
        assert starving.membership(Poly.zero()) is Membership.YES
        assert starving.reduce_modulo(Poly.zero()).is_zero()
        assert starving.basis is None

    def test_zero_step_budget_means_zero(self):
        """An explicit 0 allows no reduction step; it is not the default."""
        ideal = LocalIdeal([parse_poly("w^2")])
        assert ideal.membership(parse_poly("w^3")) is Membership.YES
        assert ideal.membership(parse_poly("w^3"), step_budget=0) is Membership.UNDECIDED

    def test_with_extra_reuses_the_computed_basis(self):
        base = LocalIdeal([parse_poly("w^2"), parse_poly("z^3")])
        bigger = base.with_extra([parse_poly("z*w")])
        assert bigger.membership(parse_poly("z^2*w^2")) is Membership.YES
        assert set(base.generator_strings()) < set(bigger.generator_strings())


class TestReduceModulo:
    GENS = ("w^2 + z*w", "z^3")

    def setup_method(self):
        self.gens = [parse_poly(text) for text in self.GENS]
        self.ideal = LocalIdeal(self.gens)

    def test_difference_is_a_member(self):
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(30):
            p = random_poly(rng, 4)
            reduced = self.ideal.reduce_modulo(p)
            assert self.ideal.membership(p - reduced) is Membership.YES
            outcomes.add(reduced.is_zero())
            if self.ideal.membership(p) is Membership.NO:
                assert not reduced.is_zero()
        assert outcomes == {True, False}

    def test_members_reduce_to_zero(self):
        rng = random.Random(20261019)
        for _ in range(20):
            member = random_poly(rng, 2) * self.gens[0] + random_poly(rng, 2) * self.gens[1]
            assert self.ideal.reduce_modulo(member).is_zero()

    def test_an_exhausted_normal_form_only_strips_the_input(self, monkeypatch):
        """With the basis complete, a normal form that runs out loses its
        partial remainder: the input comes back with only its terms
        divisible by single-term basis elements stripped."""
        ideal = LocalIdeal([parse_poly("w - z^2"), parse_poly("z^3")])
        p = parse_poly("w + z^4")
        assert canonical_str(ideal.reduce_modulo(p)) == "z^2"
        monkeypatch.setattr(localideal, "DEFAULT_STEP_BUDGET", 0)
        assert canonical_str(ideal.reduce_modulo(p)) == "w"

    def test_failed_basis_returns_the_input(self, monkeypatch):
        monkeypatch.setattr(localideal, "DEFAULT_STEP_BUDGET", 0)
        starving = LocalIdeal([parse_poly("z*w + w^3"), parse_poly("z^2 - w^2")])
        assert starving.basis is None
        p = parse_poly("w^3 + z*w")
        assert starving.reduce_modulo(p) is p


class TestHermitianSquares:
    def test_rank_one_square(self):
        fw = parse_poly("3*w^2 + 2*z^5*w")
        lam = fw * fw.conj()
        rows = hermitian_square_rows(lam)
        assert rows is not None and len(rows) == 1
        weight, row = rows[0]
        assert weight == Fraction(9)
        assert canonical_str(row) == "w^2 + 2/3*z^5*w"

    def test_scaled_variable_square(self):
        p = parse_poly("w").scale(GaussRational(2)) * parse_poly("wb").scale(
            GaussRational(2)
        )
        rows = hermitian_square_rows(p)
        assert [(w, canonical_str(r)) for w, r in rows] == [(Fraction(4), "w")]

    def test_diagonal_sum_of_squares(self):
        p = parse_poly("z*zb + w*wb")
        rows = hermitian_square_rows(p)
        assert [(w, canonical_str(r)) for w, r in rows] == [
            (Fraction(1), "z"),
            (Fraction(1), "w"),
        ]

    def test_indefinite_cross_term_is_rejected(self):
        assert hermitian_square_rows(parse_poly("z*wb + zb*w")) is None

    def test_negative_square_is_rejected(self):
        p = parse_poly("z*zb").scale(GaussRational(-1))
        assert hermitian_square_rows(p) is None

    def test_non_real_input_is_rejected(self):
        assert hermitian_square_rows(parse_poly("z")) is None

    def test_borderline_levi_determinant_is_not_a_square_combination(self):
        lam = parse_poly("4*w*wb + 5*w^4 + 5*wb^4 + 25*w^4*wb^4")
        assert hermitian_square_rows(lam) is None

    def test_zero_decomposes_trivially(self):
        assert hermitian_square_rows(Poly.zero()) == []

    def test_random_positive_combinations_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            rows_in = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for _ in range(rng.randint(1, 2)):
                    m = (rng.randint(0, 2), 0, rng.randint(0, 2), 0)
                    terms[m] = GaussRational(
                        Fraction(rng.randint(1, 3)), Fraction(rng.randint(-1, 1))
                    )
                rows_in.append(Poly(terms))
            p = Poly.zero()
            for row in rows_in:
                p = p + (row * row.conj()).scale(
                    GaussRational(Fraction(rng.randint(1, 4)))
                )
            if p.is_zero():
                continue
            rows_out = hermitian_square_rows(p)
            assert rows_out is not None
            rebuilt = Poly.zero()
            for weight, row in rows_out:
                rebuilt = rebuilt + (row * row.conj()).scale(GaussRational(weight))
            assert rebuilt == p

    def test_pointwise_domination_is_exact(self):
        # Each weighted square is dominated by the decomposed polynomial at
        # every point, checked in exact rational arithmetic.
        fw = parse_poly("3*w^2 + 2*z^5*w")
        lam = fw * fw.conj()
        rows = hermitian_square_rows(lam)
        rng = random.Random(99)
        for _ in range(25):
            z0 = GaussRational(Fraction(rng.randint(-4, 4), 8), Fraction(rng.randint(-4, 4), 8))
            w0 = GaussRational(Fraction(rng.randint(-4, 4), 8), Fraction(rng.randint(-4, 4), 8))
            total = lam.eval_exact(z0, w0)
            assert total.im == 0 and total.re >= 0
            for weight, row in rows:
                val = row.eval_exact(z0, w0)
                assert weight * (val * val.conj()).re <= total.re


class TestRadicalExtend:
    def test_equal_certificates_are_one_set_element(self):
        def certificate():
            return RadicalCertificate(
                element=parse_poly("w"),
                order=2,
                rule="monomial-root",
                witness="w^2 reduces to 0",
                probe_ideal=("w^2",),
                probe_log=((1, "no"), (2, "yes")),
            )

        assert len({certificate(), certificate()}) == 1

    def test_import_leaves_dataclasses_out(self):
        """The certificates are named tuples, so the ideal layer needs no
        `dataclasses` (nor the `inspect` and `ast` it imports)."""
        child = "import sys, subelliptic.localideal; print('dataclasses' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert proc.stdout == "False\n", proc.stderr

    def test_hermitian_square_generator(self):
        h = parse_poly("w") * parse_poly("w + z^2")
        certs = radical_extend(LocalIdeal([h * h.conj()]))
        assert certs_view(certs) == [
            ("hermitian-square", 2, "w^2 + z^2*w"),
            ("conjugation", 1, "wb^2 + zb^2*wb"),
        ]

    def test_pure_power_probe(self):
        certs = radical_extend(LocalIdeal([parse_poly("z^5")]))
        assert certs_view(certs) == [
            ("monomial-root", 5, "z"),
            ("conjugation", 1, "zb^5"),
            ("conjugation", 1, "zb"),
        ]
        probe = certs[0]
        assert probe.probe_log == (
            (1, "no"),
            (2, "no"),
            (3, "no"),
            (4, "no"),
            (5, "yes"),
        )
        assert probe.probe_ideal == ("z^5",)

    def test_variable_generator_needs_no_probe(self):
        certs = radical_extend(LocalIdeal([parse_poly("w")]))
        assert certs_view(certs) == [("conjugation", 1, "wb")]

    def test_cohort_commits_together(self):
        certs = radical_extend(LocalIdeal([parse_poly("z^2"), parse_poly("w^2")]))
        roots = [(c.order, canonical_str(c.element)) for c in certs if c.rule == "monomial-root"]
        assert roots == [(2, "z"), (2, "w")]

    def test_rebalanced_row(self):
        g = parse_poly("z^3*w")
        certs = radical_extend(LocalIdeal([g * g.conj()]))
        assert certs_view(certs) == [
            ("hermitian-square", 2, "z^3*w"),
            ("hermitian-square", 6, "z*w"),
            ("conjugation", 1, "zb^3*wb"),
            ("conjugation", 1, "zb*wb"),
        ]

    def test_zero_probe_budget_certifies_no_root(self, monkeypatch):
        """z^5 needs one reduction step, which a zero probe budget forbids."""
        monkeypatch.setattr(localideal, "PROBE_BUDGET", 0)
        certs = radical_extend(LocalIdeal([parse_poly("z^5")]))
        assert all(c.rule != "monomial-root" for c in certs)

    def test_order_cap_bounds_the_probe(self):
        shallow = radical_extend(LocalIdeal([parse_poly("z^5")]), order_cap=3)
        assert all(c.rule != "monomial-root" for c in shallow)
        deep = radical_extend(LocalIdeal([parse_poly("z^5")]), order_cap=5)
        assert any(c.rule == "monomial-root" for c in deep)

    def test_conjugation_closure(self):
        ideal = LocalIdeal([parse_poly("z^5"), parse_poly("w^2 + z*w")])
        certs = radical_extend(ideal)
        known = {p.monic() for p in ideal.generators}
        known |= {c.element.monic() for c in certs}
        for key_poly in list(ideal.generators) + [c.element for c in certs]:
            assert key_poly.conj().monic() in known

    def test_deterministic(self):
        gens = [parse_poly("z^5"), parse_poly("w^2 + z*w")]
        first = certs_view(radical_extend(LocalIdeal(gens)))
        second = certs_view(radical_extend(LocalIdeal(gens)))
        assert first == second

    def test_conjugate_values_match_pointwise(self):
        # |conj(q)(p)| = |q(p)| exactly at every point, the inequality behind
        # order-1 conjugation certificates.
        certs = radical_extend(LocalIdeal([parse_poly("z^5"), parse_poly("w^2 + z*w")]))
        rng = random.Random(3)
        for cert in certs:
            if cert.rule != "conjugation":
                continue
            for _ in range(10):
                z0 = GaussRational(Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 4))
                w0 = GaussRational(Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 4))
                element = cert.element.eval_exact(z0, w0)
                source = cert.source.eval_exact(z0, w0)
                assert (element * element.conj()).re == (source * source.conj()).re


class TestMinAlgebraicRadicalOrder:
    def test_basic_orders(self):
        ideal = LocalIdeal([parse_poly("z^5")])
        assert _power_sweep({"z": parse_poly("z")}, ideal, 8)[0] == 5
        assert _power_sweep({"w": parse_poly("w")}, ideal, 8)[0] is None

    def test_cap_is_respected(self):
        ideal = LocalIdeal([parse_poly("z^5")])
        assert _power_sweep({"z": parse_poly("z")}, ideal, 4)[0] is None

    def test_undecided_stops_the_search(self, monkeypatch):
        monkeypatch.setattr(localideal, "DEFAULT_STEP_BUDGET", 0)
        starving = LocalIdeal([parse_poly("z*w + w^3"), parse_poly("z^2 - w^2")])
        assert _power_sweep({"w": parse_poly("w")}, starving, 8)[0] is None


class TestPowerSweep:
    def test_bases_in_the_ideal_at_one_power_share_the_cohort(self):
        ideal = LocalIdeal([parse_poly("z^3"), parse_poly("w^3")])
        bases = {"z": parse_poly("z"), "w": parse_poly("w")}
        power, cohort, logs, dropped = _power_sweep(bases, ideal, 8)
        assert (power, cohort, dropped) == (3, ["z", "w"], [])
        assert logs["z"] == logs["w"] == [(1, "no"), (2, "no"), (3, "yes")]

    def test_undecided_base_retires_while_the_others_go_on(self):
        """w^4 needs three reduction steps, z^1..z^5 at most one each."""
        ideal = LocalIdeal([parse_poly("z^5"), parse_poly("w^2 - z^3")])
        bases = {"w": parse_poly("w"), "z": parse_poly("z")}
        power, cohort, logs, dropped = _sweep_under(1, bases, ideal, 8)
        assert (power, cohort, dropped) == (5, ["z"], [])
        assert logs["w"] == [(1, "no"), (2, "no"), (3, "no"), (4, "undecided")]
        assert logs["z"] == [(m, "no") for m in range(1, 5)] + [(5, "yes")]

    def test_base_outside_on_the_conjugate_side_skips_the_direct_probe(self):
        """wb^8 is not in (z^3, zb^3), so w^8 is never asked of (z^3)."""
        ideal = LocalIdeal([parse_poly("z^3")])
        calls = _count_memberships(ideal)
        result = _power_sweep({"w": parse_poly("w")}, ideal, 8)
        assert result == (None, [], {"w": [(1, "no"), (2, "no"), (8, "no")]}, ["w"])
        assert calls == ["w", "w^2"]

    def test_conjugate_side_yes_keeps_the_base_alive(self, monkeypatch):
        """wb^8 lies in (wb, w), so w is swept on up to w^8 against (wb)."""
        ideal = LocalIdeal([parse_poly("wb")])
        assert _conjugate_closure(ideal).membership(parse_poly("wb^8")) is Membership.YES
        calls = _count_memberships(ideal)
        closure_calls = _count_closure_memberships(monkeypatch)
        result = _power_sweep({"w": parse_poly("w")}, ideal, 8)
        assert result == (None, [], {"w": [(m, "no") for m in range(1, 9)]}, [])
        assert calls == ["w"] + [f"w^{m}" for m in range(2, 9)]
        assert closure_calls == ["wb^8"]

    @pytest.mark.parametrize(
        "generators,bases_built",
        [(("z^3", "zb^3"), 1), (("z^3",), 2)],
        ids=["closed", "open"],
    )
    def test_closed_ideal_builds_no_second_basis(self, monkeypatch, generators, bases_built):
        """An ideal holding every conjugate is its own I + conj(I)."""
        buchberger, built = localideal._buchberger, []

        def counting_buchberger(reducers, budget):
            built.append(len(reducers))
            return buchberger(reducers, budget)

        monkeypatch.setattr(localideal, "_buchberger", counting_buchberger)
        ideal = LocalIdeal([parse_poly(text) for text in generators])
        result = _power_sweep({"w": parse_poly("w")}, ideal, 8)
        assert result == (None, [], {"w": [(1, "no"), (2, "no"), (8, "no")]}, ["w"])
        assert len(built) == bases_built

    def test_base_in_the_ideal_at_the_second_power_never_probes_the_cap(self):
        ideal = LocalIdeal([parse_poly("z^2"), parse_poly("w^5")])
        calls = _count_memberships(ideal)
        bases = {"z": parse_poly("z"), "w": parse_poly("w")}
        power, cohort, logs, dropped = _power_sweep(bases, ideal, 8)
        assert (power, cohort, dropped) == (2, ["z"], [])
        assert logs == {"z": [(1, "no"), (2, "yes")], "w": [(1, "no"), (2, "no")]}
        assert calls == ["z", "w", "z^2", "w^2"]

    def test_no_cap_probe_when_the_third_power_is_the_cap(self):
        ideal = LocalIdeal([parse_poly("z^3")])
        calls = _count_memberships(ideal)
        result = _power_sweep({"w": parse_poly("w")}, ideal, 3)
        assert result == (None, [], {"w": [(1, "no"), (2, "no"), (3, "no")]}, [])
        assert calls == ["w", "w^2", "w^3"]

    def test_undecided_prune_probe_leaves_the_sweep_as_it_was(self, monkeypatch):
        """(zb + wb)^8 needs more than one step against J, (z + w)^3 exactly one."""
        b = parse_poly("z + w")
        ideal = LocalIdeal([b ** 3])
        closure = _conjugate_closure(ideal)
        assert closure.membership(b.conj() ** 8, step_budget=1) is Membership.UNDECIDED
        calls = _count_memberships(ideal)
        closure_calls = _count_closure_memberships(monkeypatch)
        power, cohort, logs, dropped = _sweep_under(1, {"b": b}, ideal, 8)
        assert (power, cohort, dropped) == (3, ["b"], [])
        assert logs["b"] == [(1, "no"), (2, "no"), (3, "yes")]
        assert closure_calls == [canonical_str(b.conj() ** 8)]
        assert calls == [canonical_str(b ** m) for m in (1, 2, 3)]

    @pytest.mark.parametrize(
        "generators",
        [
            ("(-2 + i)*z*wb + (-2 + i)*z*w^2", "-wb + (-3 - i)*w*wb + 2*z^2*wb"),
            ("(-2 - i)*wb + (1 + i)*w^2*wb", "-2*wb - zb*w + (-1 - i)*z*zb^2"),
        ],
        ids=["draw-9", "draw-46"],
    )
    def test_the_prune_budget_bounds_the_standard_basis_of_j(self, monkeypatch, generators):
        """J = I + conj(I) is completed under PRUNE_BUDGET steps, and no more.

        The ideals are draws 9 and 46 of the conjugate-variables differential
        test.  Completing either J takes thousands of steps, so its basis runs
        out, every cap probe answers undecided and both bases are swept to
        the cap.  Each of I's own memberships here costs no step.
        """
        ideal = LocalIdeal(parse_poly(text) for text in generators)
        assert ideal.basis is not None
        spent = []
        spend = localideal._Budget.spend

        def counted(budget):
            spent.append(budget)
            assert len(spent) <= localideal.PRUNE_BUDGET + 1, "outran the prune budget"
            spend(budget)

        monkeypatch.setattr(localideal._Budget, "spend", counted)
        bases = {"z": parse_poly("z"), "w": parse_poly("w")}
        result = _power_sweep(bases, ideal, 32)
        logs = {v: [(m, "no") for m in range(1, 33)] for v in bases}
        assert result == (None, [], logs, [])
        assert len(spent) == localideal.PRUNE_BUDGET + 1

    def test_each_question_runs_under_the_budget_of_its_kind(self, monkeypatch):
        """I is asked under PROBE_BUDGET; J is completed and asked under PRUNE_BUDGET."""
        ideal = LocalIdeal([parse_poly("z^3")])
        assert ideal.basis is not None
        asked, completed = [], []
        membership, complete = LocalIdeal.membership, LocalIdeal._complete

        def recording_membership(j, p, step_budget=None):
            asked.append((j is ideal, canonical_str(p), step_budget))
            return membership(j, p, step_budget)

        def recording_complete(j, steps):
            completed.append((j is ideal, steps))
            return complete(j, steps)

        monkeypatch.setattr(LocalIdeal, "membership", recording_membership)
        monkeypatch.setattr(LocalIdeal, "_complete", recording_complete)
        result = _power_sweep({"w": parse_poly("w")}, ideal, 8)
        assert result == (None, [], {"w": [(1, "no"), (2, "no"), (8, "no")]}, ["w"])
        probe, prune = localideal.PROBE_BUDGET, localideal.PRUNE_BUDGET
        assert asked == [(True, "w", probe), (True, "w^2", probe), (False, "wb^8", prune)]
        assert completed == [(False, prune)]

        # zb^8 lies outside the tangent cone (z + w, zb + wb) of J, so the
        # cone question drops z under PRUNE_BUDGET and J is never asked.
        # Adding zb to the cone leaves a zero set of dimension 1 < 2: the
        # completion reduces one S-polynomial, wb, under the prune budget,
        # and zb^8 itself is never reduced.
        cone_ideal = LocalIdeal([parse_poly("z + w")])
        assert cone_ideal.basis is not None
        asked.clear()
        completed.clear()
        reduced, nf_mora = [], localideal.nf_mora

        def recording_nf_mora(f, reducers, budget):
            reduced.append((canonical_str(_as_poly(f)), budget.remaining))
            return nf_mora(f, reducers, budget)

        monkeypatch.setattr(localideal, "nf_mora", recording_nf_mora)
        result = _power_sweep({"z": parse_poly("z")}, cone_ideal, 8)
        assert result == (None, [], {"z": [(1, "no"), (2, "no"), (8, "no")]}, ["z"])
        assert [question[1:] for question in asked] == [("z", probe), ("z^2", probe)]
        assert completed == [(False, prune)]
        assert reduced == [("z", probe), ("z^2", probe), ("wb", prune)]

    def test_agrees_with_the_ascending_sweep_on_random_ideals(self):
        rng = random.Random(20261018)
        bases = {"z": parse_poly("z"), "w": parse_poly("w")}
        outcomes = set()
        for _ in range(60):
            ideal = LocalIdeal(
                random_poly(rng, 4, allow_conj=False) for _ in range(rng.randint(1, 3))
            )
            step_budget = rng.choice([None, 0, 1, 3])
            cap = rng.randint(0, 8)
            want = _ascending_sweep(bases, ideal, cap, step_budget)
            power, cohort, logs, dropped = _sweep_under(step_budget, bases, ideal, cap)
            assert (power, cohort) == want[:2]
            assert all(logs[v][-1] == (cap, "no") and v not in cohort for v in dropped)
            assert {v: logs[v] for v in cohort} == {v: want[2][v] for v in cohort}
            # An undecided base retires, so no cohort log records one.
            assert all(answer != "undecided" for v in cohort for _, answer in logs[v])
            outcomes.add(power is None)
            outcomes.add("short" if cap < 3 else "long")
        assert outcomes == {True, False, "short", "long"}

    def test_agrees_with_the_ascending_sweep_with_conjugate_variables(self):
        rng = random.Random(20261019)
        bases = {"z": parse_poly("z"), "w": parse_poly("w")}
        outcomes = set()
        for _ in range(60):
            ideal = LocalIdeal(vanishing_poly(rng, 3) for _ in range(rng.randint(1, 3)))
            step_budget = rng.choice([None, 0, 1, 3])
            cap = rng.randint(0, 8)
            want = _ascending_sweep(bases, ideal, cap, step_budget)
            power, cohort, logs, dropped = _sweep_under(step_budget, bases, ideal, cap)
            assert (power, cohort) == want[:2]
            assert all(logs[v][-1] == (cap, "no") and v not in cohort for v in dropped)
            assert {v: logs[v] for v in cohort} == {v: want[2][v] for v in cohort}
            assert all(answer != "undecided" for v in cohort for _, answer in logs[v])
            outcomes.add(power is None)
            outcomes.add("short" if cap < 3 else "long")
        assert outcomes == {True, False, "short", "long"}

    def test_a_conjugate_side_no_is_never_contradicted(self):
        """conj(b)^cap outside I + conj(I) means b^cap is outside I."""
        rng = random.Random(20261020)
        answers = []
        for _ in range(40):
            ideal = LocalIdeal(vanishing_poly(rng, 2) for _ in range(rng.randint(1, 2)))
            b = vanishing_poly(rng, 2)
            cap = rng.randint(2, 4)
            power = b ** cap
            answer = _conjugate_closure(ideal).membership(
                power.conj(), step_budget=localideal.PRUNE_BUDGET
            )
            answers.append(answer)
            if answer is Membership.NO:
                assert ideal.membership(power) is not Membership.YES
                assert not certify_membership(power, list(ideal.generators), 2)
        assert answers.count(Membership.NO) >= 10
        assert Membership.YES in answers


def _cone_draws():
    """Ideals and the powers the cone question is asked about, from one seed."""
    rng = random.Random(20261022)
    for _ in range(200):
        ideal = LocalIdeal(
            vanishing_poly(rng, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))
        )
        if rng.random() < 0.5:
            b = Poly.variable(rng.choice(localideal.VARIABLES))
        else:
            b = vanishing_poly(rng, 2)
        yield ideal, b ** rng.randint(2, 6)


class TestTangentCone:
    """outside_cone proves a single term outside the ideal by a dimension count."""

    @pytest.mark.parametrize(
        "leads,dimension",
        [(("z", "zb^2"), 2), (("z", "zb", "w*wb"), 1), ((), 4), (("1", "z"), -1)],
    )
    def test_dimension_of_the_leading_monomials(self, leads, dimension):
        monos = [leading_monomial(parse_poly(text)) for text in leads]
        assert localideal._dimension(monos) == dimension

    def test_a_dimension_drop_is_no_member(self):
        """Where the dimension count answers True, p is no member and has no certificate."""
        outside = 0
        for ideal, power in _cone_draws():
            if ideal.outside_cone(power):
                outside += 1
                assert len(power.terms) == 1
                assert ideal.membership(power) is not Membership.YES
                assert not certify_membership(power, list(ideal.generators), 2)
        assert outside >= 10

    def test_equal_dimensions_answer_false(self):
        """In J = (z + w, z*w) the cone (z + w, w^2) holds z in its radical.

        Adding z leaves the dimension at 2, for a member z^2 and for z,
        which is no member: the count proves nothing either way, and J is
        asked as before.
        """
        ideal = LocalIdeal([parse_poly("z + w"), parse_poly("z*w")])
        for text, member in (("z^2", Membership.YES), ("z", Membership.NO)):
            p = parse_poly(text)
            assert ideal.outside_cone(p) is False
            assert ideal.membership(p) is member
        assert ideal._cone_dimension == 2

    def test_only_a_single_term_is_asked(self, monkeypatch):
        """p = z + zb + w^2 is not one term, so the answer is False at no cost."""
        p = parse_poly("z + zb + w^2")
        ideal = LocalIdeal([p])
        assert ideal.basis is not None

        def no_reduction(*args):
            raise AssertionError("outside_cone reduced a polynomial")

        monkeypatch.setattr(localideal, "nf_mora", no_reduction)
        monkeypatch.setattr(localideal, "_buchberger", no_reduction)
        assert ideal.outside_cone(p) is False


class TestRuledOutCarry:
    """A variable that a sweep drops on the conjugate side stays out of later ones."""

    @staticmethod
    def memberships(monkeypatch, text):
        calls = []
        membership = LocalIdeal.membership

        def counted(ideal, p, step_budget=None):
            calls.append(canonical_str(p))
            return membership(ideal, p, step_budget=step_budget)

        monkeypatch.setattr(LocalIdeal, "membership", counted)
        certs = radical_extend(LocalIdeal([parse_poly(text)]), order_cap=8)
        return certs_view(certs), calls

    def test_a_pass_that_only_conjugates_sweeps_nothing_again(self, monkeypatch):
        """zb^8 and wb^8 lie outside (z - w^2, zb - wb^2), which holds the conjugate."""
        certs, calls = self.memberships(monkeypatch, "z - w^2")
        assert certs == [("conjugation", 1, "zb - wb^2")]
        assert calls == ["z", "w", "z^2", "w^2", "zb^8", "wb^8"]

    def test_any_other_commit_lets_the_variable_back_in(self, monkeypatch):
        """J answers YES for zb^8, so z is swept to the cap; w is dropped.

        The second pass sweeps z alone and commits it as a monomial root,
        so the third pass sweeps w again.
        """
        certs, calls = self.memberships(monkeypatch, "z + zb*w")
        assert certs == [
            ("conjugation", 1, "zb + z*wb"),
            ("monomial-root", 1, "z"),
            ("conjugation", 1, "zb"),
        ]
        first_pass = ["z", "w", "z^2", "w^2", "zb^8", "wb^8"] + [f"z^{m}" for m in range(3, 9)]
        assert calls == first_pass + ["z"] + ["w", "w^2", "wb^8"]

    def test_a_skipped_variable_is_outside_at_every_power(self, monkeypatch):
        """Each variable left out of a sweep is known, or its cap power is outside.

        The certificates are also those of a run whose sweeps report no drop,
        so that no variable is ever left out.
        """
        rng = random.Random(20261021)
        sweep, reduce_modulo = localideal._power_sweep, LocalIdeal.reduce_modulo
        events = []

        def recording_sweep(bases, ideal, cap):
            events.append(("sweep", set(bases), ideal))
            return sweep(bases, ideal, cap)

        def recording_reduce_modulo(ideal, p):
            events.append(("commit", p))
            return reduce_modulo(ideal, p)

        def sweep_without_drops(bases, ideal, cap):
            return (*sweep(bases, ideal, cap)[:3], [])

        monkeypatch.setattr(LocalIdeal, "reduce_modulo", recording_reduce_modulo)
        skipped = 0
        for _ in range(30):
            generators = [vanishing_poly(rng, 2) for _ in range(rng.randint(1, 2))]
            cap = rng.randint(3, 5)
            events.clear()
            monkeypatch.setattr(localideal, "_power_sweep", recording_sweep)
            certs = radical_extend(LocalIdeal(generators), order_cap=cap)
            monkeypatch.setattr(localideal, "_power_sweep", sweep_without_drops)
            assert radical_extend(LocalIdeal(generators), order_cap=cap) == certs
            keys = {g.monic() for g in generators}
            for event in events:
                if event[0] == "commit":
                    keys.add(event[1].monic())
                    continue
                _, names, ideal = event
                for v in localideal.VARIABLES:
                    if v in names or Poly.variable(v) in keys:
                        continue
                    skipped += 1
                    power = Poly.variable(v) ** cap
                    assert ideal.membership(power) is not Membership.YES
                    assert not certify_membership(power, list(ideal.generators), 2)
        assert skipped >= 10


def _count_memberships(ideal, calls=None):
    """Record the canonical string of every polynomial the ideal is asked about."""
    calls = [] if calls is None else calls
    membership = ideal.membership

    def counted(p, step_budget=None):
        calls.append(canonical_str(p))
        return membership(p, step_budget=step_budget)

    ideal.membership = counted
    return calls


def _count_closure_memberships(monkeypatch):
    """Record what every J = I + conj(I) that a sweep builds is asked about."""
    calls = []
    closure = localideal._conjugate_closure

    def counted_closure(ideal):
        j = closure(ideal)
        _count_memberships(j, calls)
        return j

    monkeypatch.setattr(localideal, "_conjugate_closure", counted_closure)
    return calls


def _sweep_under(step_budget, bases, ideal, cap):
    """_power_sweep with probes of I under step_budget (None meaning
    DEFAULT_STEP_BUDGET) and the cap prune under min(PRUNE_BUDGET, step_budget).
    """
    steps = localideal.DEFAULT_STEP_BUDGET if step_budget is None else step_budget
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localideal, "PROBE_BUDGET", steps)
        patch.setattr(localideal, "PRUNE_BUDGET", min(localideal.PRUNE_BUDGET, steps))
        return _power_sweep(bases, ideal, cap)


def _ascending_sweep(bases, ideal, cap, step_budget):
    """The sweep without the prune probe: b, b^2, ... up to b^cap."""
    logs = {name: [] for name in bases}
    alive = list(bases)
    for m in range(1, cap + 1):
        cohort = []
        for name in list(alive):
            answer = ideal.membership(bases[name] ** m, step_budget=step_budget)
            logs[name].append((m, answer.value))
            if answer is Membership.YES:
                cohort.append(name)
            elif answer is Membership.UNDECIDED:
                alive.remove(name)
        if cohort:
            return m, cohort, logs
        if not alive:
            break
    return None, [], logs


def _reference_nf(f, basis, budget):
    """Mora's loop as written before reducers carried their leading data."""

    def lead(p):
        return max(p.terms, key=lambda m: (-sum(m), m))

    def spread(p):
        return p.total_degree() - sum(lead(p))

    if f.is_zero():
        return f
    reducers = list(basis)
    h = f
    while not h.is_zero():
        lm_h = lead(h)
        candidates = [
            g for g in reducers if all(a <= b for a, b in zip(lead(g), lm_h))
        ]
        if not candidates:
            return h
        budget.spend()
        g = min(candidates, key=spread)
        if spread(g) > spread(h):
            reducers.append(h)
        lm_g = lead(g)
        shift = tuple(a - b for a, b in zip(lm_h, lm_g))
        h = h - Poly({shift: h.terms[lm_h] / g.terms[lm_g]}) * g
    return h


def _prepared_nf(f, basis, budget):
    """nf_mora on f's term map through reducers prepared once; it must
    leave both unchanged."""
    reducers, f_map = _prepare(basis), f.terms
    prepared, f_kept = list(reducers), dict(f_map)
    try:
        return _as_poly(nf_mora(f_map, reducers, budget))
    finally:
        assert reducers == prepared
        assert f_map == f_kept


def _run_nf(nf, f, basis, steps):
    budget = _Budget(steps)
    try:
        return nf(f, basis, budget), budget.remaining
    except BudgetExhausted:
        return "exhausted", budget.remaining


def _lead_signs(p):
    lc = p.terms[leading_monomial(p)]
    return {"imaginary lead"} if not lc.re else {"negative lead"} if lc.re < 0 else set()


def _check_against_reference(rng, coeff, monkeypatch):
    """Same remainder, same steps left, and exhaustion at the same budget.

    Returns the outcomes seen: how the reference loop ended, the signs of
    the leading coefficients involved, and whether a remainder coefficient
    had a denominator.
    """
    cap = 200
    monkeypatch.setattr(localideal, "DEFAULT_STEP_BUDGET", cap)
    outcomes = set()
    for _ in range(60):
        basis = [random_poly(rng, 3, coeff=coeff) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            basis = list(basis_elements(LocalIdeal(basis)) or basis)
        f = random_poly(rng, 5, coeff=coeff) * random_poly(rng, 2, coeff=coeff)
        if rng.random() < 0.5:
            f = f + random_poly(rng, 2, coeff=coeff) * basis[0]
        for p in [f, *basis]:
            if not p.is_zero():
                outcomes |= _lead_signs(p)
        nf, remaining = _run_nf(_reference_nf, f, basis, cap)
        if nf == "exhausted":
            budgets = {0, cap // 2, cap}
            outcomes.add("exhausted")
        else:
            steps = cap - remaining
            budgets = {0, max(steps - 1, 0), steps}
            outcomes.add("zero" if nf.is_zero() else "remainder")
        for budget in sorted(budgets):
            got = _run_nf(_prepared_nf, f, basis, budget)
            assert got == _run_nf(_reference_nf, f, basis, budget)
            if got[0] == "exhausted":
                continue
            for c in got[0].terms.values():
                assert type(c) is GaussRational
                assert type(c.re) is Fraction and type(c.im) is Fraction
                if c.re.denominator > 1 or c.im.denominator > 1:
                    outcomes.add("denominator")
    return outcomes


class TestMoraNormalForm:
    def test_agrees_with_the_reference_loop(self, monkeypatch):
        outcomes = _check_against_reference(
            random.Random(20261019), gauss_integer, monkeypatch
        )
        assert outcomes >= {"zero", "remainder"}

    def test_rational_coefficients_agree_with_the_reference_loop(self, monkeypatch):
        """Denominators, gcd normalisation and non-real or negative leads."""
        outcomes = _check_against_reference(
            random.Random(20261018), gauss_fraction, monkeypatch
        )
        assert outcomes >= {
            "zero", "remainder", "imaginary lead", "negative lead", "denominator"
        }


# The completion pipeline on Poly, as it was before a basis was completed as
# reducers: it is the reference the reducer pipeline must reproduce.


def _reference_spoly(f, g):
    mf, mg = leading_monomial(f), leading_monomial(g)
    gamma = mono_lcm(mf, mg)
    left = Poly({mono_div(gamma, mf): GaussRational.one() / f.terms[mf]}) * f
    right = Poly({mono_div(gamma, mg): GaussRational.one() / g.terms[mg]}) * g
    return left - right


def _reference_buchberger(gens, budget):
    """Completion with a pair list re-sorted before every pop."""
    basis = [p for p in gens if not p.is_zero()]
    leads = [leading_monomial(p) for p in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]

    def pair_key(ij):
        lcm = mono_lcm(leads[ij[0]], leads[ij[1]])
        return (mono_degree(lcm), lcm)

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        mi, mj = leads[i], leads[j]
        if mono_lcm(mi, mj) == mono_mul(mi, mj):
            continue
        spoly = _reference_spoly(basis[i], basis[j])
        h = _as_poly(nf_mora(spoly.terms, _prepare(basis), budget))
        if not h.is_zero():
            basis.append(h)
            leads.append(leading_monomial(h))
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    return basis


def _reference_monic(p):
    return p.scale(GaussRational.one() / p.terms[min(p.terms, key=display_key)])


def _reference_minimalize(basis):
    ordered = sorted(
        basis,
        key=lambda p: (
            mono_degree(leading_monomial(p)),
            leading_monomial(p),
            len(p.terms),
            p.total_degree(),
        ),
    )
    kept = []
    for p in ordered:
        lm = leading_monomial(p)
        if any(mono_divides(leading_monomial(q), lm) for q in kept):
            continue
        kept.append(p)
    return [_reference_monic(p) for p in kept]


def _reference_tail_strip(basis):
    out = list(basis)
    while True:
        monos = [leading_monomial(g) for g in out if len(g.terms) == 1]
        if not monos:
            return out
        stripped = []
        for g in out:
            lead = leading_monomial(g)
            stripped.append(Poly({
                m: c for m, c in g.terms.items()
                if m == lead or not any(mono_divides(mm, m) for mm in monos)
            }))
        if sum(len(g.terms) for g in stripped) == sum(len(g.terms) for g in out):
            return stripped
        out = stripped


def _reference_basis(gens, steps, outcomes):
    """The finished basis the Poly pipeline gives, or None when it runs out."""
    try:
        computed = _reference_buchberger(gens, _Budget(steps))
    except BudgetExhausted:
        outcomes.add("exhausted")
        return None
    minimal = _reference_minimalize(computed)
    stripped = _reference_tail_strip(minimal)
    outcomes.add("stripped" if stripped != minimal else "complete")
    return tuple(stripped)


def _random_ideal(rng):
    factors = [parse_poly(text) for text in ("z", "w", "z*w", "z + w")]
    coeff = rng.choice([gauss_integer, gauss_fraction])
    allow_conj = rng.random() < 0.25
    return [
        rng.choice(factors) * random_poly(rng, 3, allow_conj=allow_conj, coeff=coeff)
        for _ in range(rng.randint(2, 3))
    ]


class TestSPolynomial:
    def test_agrees_with_the_reference_and_keeps_triples_reduced(self):
        """Pair by pair on seeded reducers, _spoly's triple map is the
        reference S-polynomial of the elements the reducers stand for, and
        each coefficient is a triple nf_mora can read: d > 0,
        gcd(a, b, d) = 1 and not zero.  A multiple of an element makes tails
        that share monomials, so merges and cancellations both occur."""
        rng = random.Random(20261040)
        seen = set()
        for _ in range(60):
            coeff = rng.choice([gauss_integer, gauss_fraction])
            p = random_poly(rng, 3, coeff=coeff)
            polys = [p, p * random_poly(rng, 2, coeff=coeff), random_poly(rng, 3, coeff=coeff)]
            reducers = _prepare(polys)
            for f, g in itertools.permutations(reducers, 2):
                got = _spoly(f, g)
                assert _as_poly(got) == _reference_spoly(element(f), element(g))
                for a, b, d in got.values():
                    assert d > 0 and gcd(a, b, d) == 1 and (a or b)
                shifted = [
                    {mono_mul(mono_div(mono_lcm(f[0], g[0]), lm), t[:4]) for t in tail}
                    for lm, _, tail in (f, g)
                ]
                shared = shifted[0] & shifted[1]
                if shared:
                    seen.add("merged" if shared & set(got) else "cancelled")
                seen.add("nonzero" if got else "zero")
        assert seen == {"merged", "cancelled", "nonzero", "zero"}


class TestBuchberger:
    def test_pair_heap_agrees_with_the_sorted_pair_list(self):
        """Same elements, same steps left, exhaustion at the same budget.

        The completion starts from prepared reducers and returns reducers,
        each of which stands for the monic form of the reference element.
        """
        rng = random.Random(20261020)
        factors = [parse_poly(text) for text in ("z", "w", "z*w", "z + w")]
        outcomes = set()
        for _ in range(40):
            gens = [
                rng.choice(factors) * random_poly(rng, 3, allow_conj=False)
                for _ in range(rng.randint(2, 3))
            ]
            for steps in (10, 1000):
                want = _complete(_reference_buchberger, gens, steps)
                got = _complete(
                    lambda g, budget: _buchberger(_prepare(g), budget), gens, steps
                )
                if want[0] == "exhausted":
                    assert got == want
                    outcomes.add("exhausted")
                    continue
                assert [element(r) for r in got[0]] == [p.monic() for p in want[0]]
                assert got[1] == want[1]
                outcomes.add("grown" if len(want[0]) > len(gens) else "complete")
        assert outcomes == {"exhausted", "grown", "complete"}

    @pytest.mark.parametrize("steps", [10, 1000])
    def test_reducer_pipeline_agrees_with_the_poly_pipeline(self, monkeypatch, steps):
        """basis and with_extra(...).basis equal the Poly pipeline's, Poly for
        Poly, and run out of budget exactly where it does."""
        monkeypatch.setattr(localideal, "DEFAULT_STEP_BUDGET", steps)
        rng = random.Random(20261022)
        outcomes = set()
        for _ in range(40):
            gens, more = _random_ideal(rng), _random_ideal(rng)[:rng.randint(1, 2)]
            ideal = LocalIdeal(gens)
            want = _reference_basis(list(ideal.generators), steps, outcomes)
            assert basis_elements(ideal) == want
            bigger = ideal.with_extra(more)
            seed = list(bigger.generators) if want is None else list(want) + more
            assert basis_elements(bigger) == _reference_basis(seed, steps, outcomes)
        assert outcomes == {"exhausted", "stripped", "complete"}


def _strip_until_no_term_drops(reducers, passes):
    """Tail stripping as a loop that repeats until the term count stops
    dropping: the reference _tail_strip must reproduce.  Appends to passes
    once per pass."""
    out = reducers
    while True:
        monos = [lm for lm, _, tail in out if not tail]
        if not monos:
            return out
        passes.append(None)
        stripped = []
        for lm, ecart, tail in out:
            kept = [t for t in tail if not any(mono_divides(mm, t[:4]) for mm in monos)]
            if len(kept) < len(tail):
                ecart = max(t[4] for t in kept) - mono_degree(lm) if kept else 0
            stripped.append((lm, ecart, kept))
        if sum(len(r[2]) for r in stripped) == sum(len(r[2]) for r in out):
            return stripped
        out = stripped


def _random_reducers(rng):
    """Reducers over small monomials, some of them single-term, and some
    whose whole tail lies over a single-term lead, so that stripping one
    element exposes another and the next can cascade from it."""
    def mono(low):
        while True:
            m = tuple(rng.randint(0, 3) for _ in range(4))
            if mono_degree(m) >= low:
                return m

    reducers = []
    for _ in range(rng.randint(1, 7)):
        lm = mono(1)
        deg = mono_degree(lm)
        if rng.random() < 0.3:
            tail_monos = []
        elif rng.random() < 0.4 and reducers:
            over = rng.choice(reducers)[0]
            tail_monos = [mono_mul(over, mono(0)) for _ in range(rng.randint(1, 3))]
        else:
            tail_monos = [mono(deg) for _ in range(rng.randint(1, 4))]
        tail_monos = [m for m in dict.fromkeys(tail_monos) if m != lm]
        tail = [(*m, mono_degree(m), rng.randint(-3, 3) or 1, rng.randint(-3, 3), rng.randint(1, 4))
                for m in tail_monos]
        ecart = max((t[4] for t in tail), default=deg) - deg
        reducers.append((lm, max(ecart, 0), tail))
    return reducers


class TestTailStrip:
    def test_agrees_with_the_loop_until_no_term_drops(self):
        """Same reducers, in the same order, with the same ecarts, whether
        there is nothing to strip, one pass strips it all, or emptied tails
        call for one more pass or a chain of them."""
        rng = random.Random(20261025)
        seen = set()
        for _ in range(400):
            reducers, passes = _random_reducers(rng), []
            want = _strip_until_no_term_drops(reducers, passes)
            assert localideal._tail_strip(reducers) == want
            seen.add(min(len(passes), 4))
        assert seen == {0, 1, 2, 3, 4}


def _complete(buchberger, gens, steps):
    budget = _Budget(steps)
    try:
        return buchberger(gens, budget), budget.remaining
    except BudgetExhausted:
        return "exhausted", budget.remaining


class TestPreparedReducers:
    def test_memberships_prepare_each_basis_element_once(self, monkeypatch):
        """An ideal prepares each generator once; its completed basis is never
        prepared again, and with_extra prepares only the new generators.

        Homogeneous generators keep every ecart 0, so Mora's trick never
        fires outside completion.
        """
        made, completing = {"completion": 0, "ideal": 0}, []
        reducer, buchberger = localideal._reducer, localideal._buchberger

        def counted_reducer(*args):
            made["completion" if completing else "ideal"] += 1
            return reducer(*args)

        def counted_buchberger(*args):
            completing.append(True)
            try:
                return buchberger(*args)
            finally:
                completing.pop()

        monkeypatch.setattr(localideal, "_reducer", counted_reducer)
        monkeypatch.setattr(localideal, "_buchberger", counted_buchberger)
        ideal = LocalIdeal([parse_poly("z^3 - w^3"), parse_poly("z*w^2 + 2*z^2*w")])
        probes = [parse_poly(text) ** k for text in ("z", "w", "z + w", "z - 2*w")
                  for k in range(1, 11)]
        answers = {ideal.membership(p) for p in probes}
        assert answers == {Membership.YES, Membership.NO}
        assert made["completion"] > 0
        assert len(ideal.basis) > made["ideal"] == len(ideal.generators) == 2
        bigger = ideal.with_extra([parse_poly("z^2*w - w^3")])
        assert {bigger.membership(p) for p in probes} == {Membership.YES, Membership.NO}
        assert len(bigger.basis) > 1 and made["ideal"] == 3

    def test_completion_builds_no_coefficient_object(self, monkeypatch):
        """S-polynomials and remainders stay triple maps, so completing a
        basis makes no GaussRational: all of its arithmetic ends in
        _from_triple."""
        gens = [parse_poly("z^3 - 1/2*w^3"), parse_poly("(2 + i)*z*w^2 + 2/3*z^2*w")]
        made, from_triple = [], polyring._from_triple

        def counted(*triple):
            made.append(triple)
            return from_triple(*triple)

        for module in (polyring, localideal):
            monkeypatch.setattr(module, "_from_triple", counted)
        assert len(LocalIdeal(gens).basis) > len(gens)
        assert made == []

    def test_a_no_answer_builds_no_remainder(self, monkeypatch):
        ideal = LocalIdeal([parse_poly("w^2 - z^3"), parse_poly("z^5")])
        ideal.basis
        wrapped = []
        from_triple = localideal._from_triple

        def counted(*triple):
            wrapped.append(triple)
            return from_triple(*triple)

        monkeypatch.setattr(localideal, "_from_triple", counted)
        assert ideal.membership(parse_poly("w + z^2 + 3*z*w^4")) is Membership.NO
        assert ideal.membership(parse_poly("w^3")) is Membership.NO
        assert wrapped == []
        assert not ideal.reduce_modulo(parse_poly("w + z")).is_zero()
        assert wrapped


class TestOracleCrossChecks:
    def setup_method(self):
        self.gens = [parse_poly("3*w^2 + 2*z^5*w"), parse_poly("6*w + 2*z^5")]
        self.ideal = LocalIdeal(self.gens)

    @pytest.mark.parametrize(
        "text,cap", [("w + 1/3*z^5", 2), ("w^2", 4), ("z^10", 8)]
    )
    def test_yes_answers_have_cofactor_witnesses(self, text, cap):
        p = parse_poly(text)
        assert self.ideal.membership(p) is Membership.YES
        assert certify_membership(p, self.gens, cap)

    @pytest.mark.parametrize("text", ["w", "z^5", "z^9"])
    def test_no_answers_have_no_witness_at_depth_eight(self, text):
        p = parse_poly(text)
        assert self.ideal.membership(p) is Membership.NO
        assert not certify_membership(p, self.gens, 8)

    def test_random_combinations_agree(self):
        rng = random.Random(11)
        g1, g2 = parse_poly("w^2 + z^3"), parse_poly("z*w")
        ideal = LocalIdeal([g1, g2])
        for _ in range(15):
            # Each coefficient is drawn before its exponents.
            ca = GaussRational(rng.randint(1, 3))
            a = Poly({(rng.randint(0, 2), 0, rng.randint(0, 1), 0): ca})
            cb = GaussRational(rng.randint(-3, -1))
            b = Poly({(rng.randint(0, 1), 0, rng.randint(0, 2), 0): cb})
            combo = a * g1 + b * g2
            assert ideal.membership(combo) is Membership.YES
            assert certify_membership(combo, [g1, g2], 5)
