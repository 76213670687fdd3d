"""End-to-end tests for the multiplier-chain engine.

The model domains used here have fully hand-checkable chains, so most
expectations below are pinned to exact certificate sequences, exact
rational orders, and exact trace snapshots.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from subelliptic import kohn, localideal
from subelliptic.polyring import GaussRational, Poly, parse_poly, canonical_str, mono_degree
from subelliptic.localideal import LocalIdeal, _power_sweep, hermitian_square_rows
from subelliptic.domain import (
    DomainSpec,
    flat_domain,
    cross_power_domain,
    borderline_domain,
    descent_direction,
    expand_r,
    apply_L,
    type_lower_bound,
)
from subelliptic.kohn import (
    KohnError,
    Outcome,
    _Ledger,
    run_kohn,
    serialize_trace,
    audit_trace,
)


# SHA-256 of serialize_trace for the cross-power grid under the default
# arguments.  Any change to the event stream of these runs must show here.
TRACE_DIGESTS = {
    (3, 2, 4): "758c4937fbd5b977d11e53a222b8bdd9e292ec8e99bfe66516fc45dec9fdaa53",
    (3, 2, 5): "dee80937a9d47f503facf0738741fb2a0acc75f6be7c4e08a18e5f79fcc1dfd0",
    (3, 2, 6): "6665549fde72d38080a2f20b8640611515b9ffe3c2b2130c8c3706d90e5527f3",
    (4, 3, 6): "aad2ad28d3157acb9586b405118c43b93ab617397ad6b4edcd37e3061e342e5b",
}

# SHA-256 of serialize_trace for more specs under the default arguments.
# Their traces also pass through the tails of the standard bases (the
# reduced commits of radical_extend appear in probe_ideal snapshots), so
# these pins show a change in which basis a step works with.
MORE_TRACE_DIGESTS = [
    (cross_power_domain(4, 2, 5),
     "e326d9677fb2cb70b262bd723be3011c4a855f4e480a83e1d1d4f97e0e56f0b0"),
    (cross_power_domain(5, 3, 7),
     "42710fc8112db9a1e2dc368bbc46e26a3cea59a327adb80500c246da8f4bb3e0"),
    (cross_power_domain(6, 4, 8),
     "8f5ff323898bfe71a1a82544a7e092176380f1ec08049ab964f0fbd1159a0974"),
    (cross_power_domain(5, 2, 8),
     "4253d7754ccf22a669197d3aed34525062394a1dc3e59d6ff9be26187a0c8c66"),
    (borderline_domain(),
     "2cf64a52b21fc47a811ab88e4c766114537069005d9d3b6efd85ac09ae7de96d"),
    (
        DomainSpec(
            name="two-component",
            f=(parse_poly("w^2 + z*w^2"), parse_poly("w^3")),
            g=(parse_poly("z*w^2"),),
        ),
        "419e24fd7e1bffbcba0fdd33d547c0cec0ae08917c3672c2fcb0c25702d30c51",
    ),
]

# Mora reduction steps spent by run_kohn on the same grid: the
# machine-independent count that sits beside every timing of these runs.
MORA_STEPS = {(3, 2, 4): 119, (3, 2, 5): 136, (3, 2, 6): 154, (4, 3, 6): 197}


def mora_steps(monkeypatch, spec):
    """Reduction steps of run_kohn on spec, counted as the traced benchmark counts them."""
    nf_mora, spent = localideal.nf_mora, []

    def counting_nf_mora(f, reducers, budget):
        before = budget.remaining
        try:
            return nf_mora(f, reducers, budget)
        finally:
            spent.append(before - max(budget.remaining, 0))

    monkeypatch.setattr(localideal, "nf_mora", counting_nf_mora)
    run_kohn(spec)
    return sum(spent)


@pytest.fixture(scope="module")
def flat_run():
    return run_kohn(flat_domain())


@pytest.fixture(scope="module")
def square_run():
    return run_kohn(DomainSpec(name="square", f=(parse_poly("w^2"),)))


@pytest.fixture(scope="module")
def run_325():
    return run_kohn(cross_power_domain(3, 2, 5))


@pytest.fixture(scope="module")
def family_runs():
    params = [(3, 2, 4), (3, 2, 5), (3, 2, 6), (4, 3, 6)]
    return {p: run_kohn(cross_power_domain(*p)) for p in params}


class TestFlatDomain:
    def test_summary(self, flat_run):
        assert flat_run.summary() == "unit found, step 1, order 1/2, max radical order 0"

    def test_unit_is_levi_determinant(self, flat_run):
        """For f = (w) the Levi determinant is already the constant 1."""
        assert flat_run.events[-1]["witness"] == "1"
        assert flat_run.outcome is Outcome.SUCCESS

    def test_no_radical_needed(self, flat_run):
        radicals = [e for e in flat_run.events if e["kind"] == "radical"]
        assert not any(e["certificates"] for e in radicals)
        assert flat_run.max_radical_order == 0

    def test_audit_clean(self, flat_run):
        assert audit_trace(flat_run) == []


class TestPureSquareDomain:
    """r = 2Re(z) + |w^2|^2, the smallest domain needing a radical."""

    def test_summary(self, square_run):
        assert square_run.summary() == "unit found, step 1, order 1/8, max radical order 2"

    def test_hermitian_then_derivative(self, square_run):
        radical = next(e for e in square_run.events if e["kind"] == "radical")
        rules = [(c["rule"], c["element"], c["multiplier_order"]) for c in radical["certificates"]]
        assert ("hermitian-square", "w", "1/4") in rules
        row = next(e for e in square_run.events if e["kind"] == "row")
        units = [c for c in row["children"] if c["child"] == "1" and c["status"] == "kept"]
        assert units and units[0]["via"] == "dw"
        assert units[0]["order"] == "1/8"

    def test_audit_clean(self, square_run):
        assert audit_trace(square_run) == []


class TestCrossPower325:
    """The (tau, l, k) = (3, 2, 5) chain, pinned move by move."""

    def test_summary(self, run_325):
        assert run_325.summary() == "unit found, step 2, order 1/40, max radical order 5"
        assert run_325.final_order == Fraction(1, 40)

    def test_step1_extracts_the_levi_row(self, run_325):
        radical = next(
            e for e in run_325.events if e["kind"] == "radical" and e["step"] == 1
        )
        picked = {(c["rule"], c["element"]) for c in radical["certificates"]}
        assert ("hermitian-square", "w^2 + 2/3*z^5*w") in picked
        assert ("conjugation", "wb^2 + 2/3*zb^5*wb") in picked
        orders = {c["element"]: c["multiplier_order"] for c in radical["certificates"]}
        assert orders["w^2 + 2/3*z^5*w"] == "1/4"

    def test_row1_keeps_only_the_derivative(self, run_325):
        row = next(e for e in run_325.events if e["kind"] == "row" and e["step"] == 1)
        assert row["h_w_shortcut"] is True
        kept = [c for c in row["children"] if c["status"] == "kept"]
        assert [(c["via"], c["child"], c["order"]) for c in kept] == [
            ("dw", "2*w + 2/3*z^5", "1/8")
        ]
        statuses = {c["status"] for c in row["children"] if c["via"] == "L"}
        assert statuses <= {"zero", "subsumed"}

    def test_step2_certificate_sequence(self, run_325):
        radical = next(
            e for e in run_325.events if e["kind"] == "radical" and e["step"] == 2
        )
        assert radical["epsilon"] == "1/8"
        seq = [
            (c["rule"], c["element"], c["order"], c["multiplier_order"])
            for c in radical["certificates"]
        ]
        assert seq == [
            ("monomial-root", "w", 2, "1/16"),
            ("conjugation", "2*wb + 2/3*zb^5", 1, "1/8"),
            ("conjugation", "wb", 1, "1/16"),
            ("monomial-root", "z", 5, "1/40"),
            ("conjugation", "zb", 1, "1/40"),
        ]

    def test_w_probe_snapshot_is_the_entry_ideal(self, run_325):
        """w^2 is certified against I_2-sharp itself, before any commit."""
        radical = next(
            e for e in run_325.events if e["kind"] == "radical" and e["step"] == 2
        )
        w_cert = next(c for c in radical["certificates"] if c["element"] == "w")
        assert w_cert["probe_log"] == [[1, "no"], [2, "yes"]]
        assert "2*w + 2/3*z^5" in w_cert["probe_ideal"]
        assert "w^2 + 2/3*z^5*w" in w_cert["probe_ideal"]
        assert len(w_cert["probe_ideal"]) == 5

    def test_z_needs_every_power_up_to_k(self, run_325):
        radical = next(
            e for e in run_325.events if e["kind"] == "radical" and e["step"] == 2
        )
        z_cert = next(c for c in radical["certificates"] if c["element"] == "z")
        assert z_cert["probe_log"] == [[1, "no"], [2, "no"], [3, "no"], [4, "no"], [5, "yes"]]
        assert "w" in z_cert["probe_ideal"]

    def test_z_floor_recomputes_from_the_snapshot(self, run_325):
        """Replaying the recorded probe ideal reproduces the radical floor."""
        radical = next(
            e for e in run_325.events if e["kind"] == "radical" and e["step"] == 2
        )
        z_cert = next(c for c in radical["certificates"] if c["element"] == "z")
        ideal = LocalIdeal([parse_poly(s) for s in z_cert["probe_ideal"]])
        assert _power_sweep({"z": parse_poly("z")}, ideal, 8)[0] == 5

    def test_ledger_orders(self, run_325):
        orders = run_325.multipliers
        assert orders["w^2 + 2/3*z^5*w"] == Fraction(1, 4)
        assert orders["w + 1/3*z^5"] == Fraction(1, 8)
        assert orders["w"] == Fraction(1, 16)
        assert orders["z"] == Fraction(1, 40)

    def test_final_order_ignores_subsumed_children(self, run_325):
        """L(z) = -r_w is redundant; it must not drag the order to 1/80."""
        row2 = next(e for e in run_325.events if e["kind"] == "row" and e["step"] == 2)
        l_of_z = next(c for c in row2["children"] if c["parent"] == "z" and c["via"] == "L")
        assert l_of_z["status"] == "subsumed"
        assert l_of_z["order"] == "1/80"
        assert run_325.final_order == Fraction(1, 40)

    def test_radical_report(self, run_325):
        """Each radical step's largest certificate order and monomial-root orders."""
        report = [
            (
                e["step"],
                max(c["order"] for c in e["certificates"]),
                {c["element"]: c["order"] for c in e["certificates"]
                 if c["rule"] == "monomial-root"},
            )
            for e in run_325.events
            if e["kind"] == "radical" and e["certificates"]
        ]
        assert report == [(1, 2, {}), (2, 5, {"w": 2, "z": 5})]

    def test_audit_clean(self, run_325):
        assert audit_trace(run_325) == []


class TestCrossPowerFamily:
    """The whole Proposition family: order 1/(8lk-8k), floor k, step 2."""

    @pytest.mark.parametrize(
        "tau,l,k",
        [(3, 2, 4), (3, 2, 5), (3, 2, 6), (4, 3, 6)],
        ids=["324", "325", "326", "436"],
    )
    def test_family_run(self, family_runs, tau, l, k):
        result = family_runs[(tau, l, k)]
        assert result.outcome is Outcome.SUCCESS
        assert result.steps_used == 2
        assert result.final_order == Fraction(1, 8 * l * k - 8 * k)
        assert result.max_radical_order == k

        radical = next(
            e for e in result.events if e["kind"] == "radical" and e["step"] == 2
        )
        w_cert = next(c for c in radical["certificates"] if c["element"] == "w")
        assert w_cert["order"] == tau - l + 1
        assert w_cert["probe_log"][-1] == [tau - l + 1, "yes"]
        z_cert = next(c for c in radical["certificates"] if c["element"] == "z")
        assert z_cert["order"] == k
        assert z_cert["probe_log"] == [[m, "no"] for m in range(1, k)] + [[k, "yes"]]
        assert audit_trace(result) == []

    @pytest.mark.parametrize(
        "params", sorted(TRACE_DIGESTS), ids=lambda p: "".join(map(str, p))
    )
    def test_trace_is_byte_identical(self, family_runs, params):
        """The serialized event stream of the contract grid never changes."""
        text = serialize_trace(family_runs[params])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TRACE_DIGESTS[params]

    @pytest.mark.parametrize(
        "params", sorted(MORA_STEPS), ids=lambda p: "".join(map(str, p))
    )
    def test_mora_step_count(self, monkeypatch, params):
        assert mora_steps(monkeypatch, cross_power_domain(*params)) == MORA_STEPS[params]

    def test_ineffectiveness_divergence(self, family_runs):
        """Fixed type 6, yet the certified order degrades as k grows."""
        orders = [family_runs[(3, 2, k)].final_order for k in (4, 5, 6)]
        assert orders == [Fraction(1, 32), Fraction(1, 40), Fraction(1, 48)]
        assert orders[0] > orders[1] > orders[2]
        for k in (4, 5, 6):
            assert type_lower_bound(cross_power_domain(3, 2, k)) == 6


class TestBorderlineDomain:
    def test_classic_chain_still_succeeds(self):
        """The hypothesis failure is analytic, not algebraic: the chain
        terminates because the boundary has finite type 4."""
        result = run_kohn(borderline_domain())
        assert result.summary() == "unit found, step 2, order 1/32, max radical order 4"
        assert audit_trace(result) == []

    def test_mora_step_count(self, monkeypatch):
        """No cap probe of w^32 asks the direct side, whose YES cost 757 steps."""
        assert mora_steps(monkeypatch, borderline_domain()) == 431


class TestLedger:
    def test_scalar_multiples_share_the_larger_order(self):
        ledger = _Ledger()
        ledger.add(parse_poly("2*w"), Fraction(1, 4))
        ledger.add(parse_poly("w"), Fraction(1, 8))
        assert ledger.order_of(parse_poly("3*w")) == Fraction(1, 4)
        ledger.add(parse_poly("w"), Fraction(1, 2))
        assert ledger.entries == {parse_poly("w"): Fraction(1, 2)}

    def test_missing_entry_raises(self):
        with pytest.raises(KohnError, match="no ledger entry for z"):
            _Ledger().order_of(parse_poly("z"))


class TestStalling:
    def test_negative_levi_determinant_at_the_origin_stalls(self):
        """lambda = -1 + ... on f = (z*w), g = (w): the origin is not a
        pseudoconvex boundary point, so no order may be certified there."""
        spec = DomainSpec(name="concave", f=(parse_poly("z*w"),), g=(parse_poly("w"),))
        result = run_kohn(spec)
        assert result.outcome is Outcome.STALLED
        assert result.final_order is None
        assert result.summary() == (
            "stalled after 0 steps (Levi determinant is negative at the origin "
            "(lambda(0) = -1))"
        )
        assert [e["kind"] for e in result.events] == ["init", "outcome"]

    def test_minus_a_sum_of_hermitian_squares_stalls(self):
        """lambda = -12*|w|^2 on f = (w^2), g = (2*w^2) is negative off w = 0,
        and boundary points off w = 0 come arbitrarily near the origin."""
        spec = DomainSpec(
            name="concave-square", f=(parse_poly("w^2"),), g=(parse_poly("2*w^2"),)
        )
        assert canonical_str(expand_r(spec).lam) == "-12*w*wb"
        result = run_kohn(spec)
        assert result.outcome is Outcome.STALLED
        assert result.final_order is None
        assert result.summary() == (
            "stalled after 0 steps (Levi determinant is negative near the origin: "
            "its lowest-degree part -12*w*wb is -12 at the boundary direction (0, 1))"
        )
        assert [e["kind"] for e in result.events] == ["init", "outcome"]

    @pytest.mark.parametrize(
        "f,g,reason",
        [
            ("w^2", "z*w",
             "its lowest-degree part -z*zb + 4*w*wb is -1 at the boundary direction (i, 0)"),
            ("w^2", "w^2 + z*w",
             "its lowest-degree part -z*zb - 2*z*wb - 2*zb*w is -1 at the boundary "
             "direction (i, 0)"),
            ("w^3", "z*w - w^2",
             "its lowest-degree part -z*zb + 2*z*wb + 2*zb*w - 4*w*wb is -1 at the "
             "boundary direction (i, 0)"),
        ],
    )
    def test_indefinite_lowest_part_stalls(self, f, g, reason):
        """lambda's lowest part is negative along a boundary direction, so
        non-pseudoconvex boundary points come arbitrarily near the origin;
        the run refuses at step 0 instead of certifying an order or running
        on without end."""
        spec = DomainSpec(name="indefinite", f=(parse_poly(f),), g=(parse_poly(g),))
        result = run_kohn(spec)
        assert result.outcome is Outcome.STALLED
        assert result.final_order is None
        assert result.summary() == (
            f"stalled after 0 steps (Levi determinant is negative near the origin: {reason})"
        )
        assert [e["kind"] for e in result.events] == ["init", "outcome"]

    def test_zero_and_borderline_levi_determinants_pass_step_zero(self):
        """lambda = 0 on f = g = (w) and the borderline lambda are not refused;
        the first runs on to a fixpoint at step 1."""
        assert descent_direction(Poly.zero()) is None
        assert descent_direction(expand_r(borderline_domain()).lam) is None
        spec = DomainSpec(name="cancel", f=(parse_poly("w"),), g=(parse_poly("w"),))
        assert expand_r(spec).lam.is_zero()
        result = run_kohn(spec)
        assert result.summary() == (
            "stalled after 1 steps (ideal chain reached a fixpoint without a unit)"
        )
        assert [e["kind"] for e in result.events][:3] == ["init", "unit-check", "radical"]

    def test_descent_direction_contains_both_sign_rules(self):
        """On real polynomials and negative constants: wherever p(0) < 0 or
        -p is a nonzero sum of hermitian squares, a direction is found, and
        every direction found makes p's lowest-degree part negative."""
        rng = random.Random(20261019)
        outcomes = set()
        samples = [_random_real_poly(rng) for _ in range(200)]
        samples += [Poly.constant(GaussRational(Fraction(-n, 3))) for n in (1, 2, 7)]
        for p in samples:
            assert p.is_conj_symmetric()
            descent = descent_direction(p)
            rows = hermitian_square_rows(-p)
            if p.constant_term().re < 0 or rows:
                assert descent is not None
                outcomes.add("constant" if p.constant_term().re < 0 else "rows")
            if descent is None:
                outcomes.add("none")
                continue
            h, v = descent
            d = min(sum(m) for m in p.terms)
            assert h == Poly({m: c for m, c in p.terms.items() if sum(m) == d})
            assert h.eval_exact(*v).re < 0
            if not rows and p.constant_term().re >= 0:
                outcomes.add("indefinite")
        assert outcomes == {"constant", "rows", "none", "indefinite"}

    def test_step_cap_reports_stalled(self):
        result = run_kohn(cross_power_domain(3, 2, 5), max_steps=1)
        assert result.outcome is Outcome.STALLED
        assert result.final_order is None
        assert result.summary() == "stalled after 1 steps (no unit within 1 steps)"
        outcome = result.events[-1]
        assert outcome["kind"] == "outcome" and outcome["outcome"] == "stalled"

    def test_starved_budget_stalls_and_says_so(self, monkeypatch):
        """With no reduction step every basis fails, every membership is
        undecided, and each nonzero row child is kept unverified."""
        monkeypatch.setattr(localideal, "DEFAULT_STEP_BUDGET", 0)
        result = run_kohn(DomainSpec(name="zw", f=(parse_poly("z*w"),)), max_steps=4)
        assert result.outcome is Outcome.STALLED
        assert result.reason == (
            "no unit within 4 steps; some memberships were undecided under the budget"
        )
        assert _row_statuses(result) == {"zero", "kept-unverified"}
        assert audit_trace(result) == []

    def test_starved_budget_keeps_unverified_children_on_success(self, monkeypatch):
        """An unverified child is L of a multiplier, a multiplier at half
        its parent's order whether or not it lies in the ideal."""
        monkeypatch.setattr(localideal, "DEFAULT_STEP_BUDGET", 0)
        result = run_kohn(cross_power_domain(3, 2, 4))
        assert result.outcome is Outcome.SUCCESS
        assert "kept-unverified" in _row_statuses(result)
        assert audit_trace(result) == []


class TestWorkDoneOnce:
    """The ideal only grows, so run_kohn reuses what an earlier move proved."""

    @pytest.mark.parametrize(
        "params", sorted(TRACE_DIGESTS) + [(4, 2, 5)], ids=lambda p: "".join(map(str, p))
    )
    def test_adopted_basis_is_the_same_ideal(self, monkeypatch, params):
        """The closure's basis spans the ideal of the entry generators plus
        the certificate elements: a fresh basis of that ideal has the same
        leading monomials (unique for a minimal standard basis) and gives
        the same answer on every row child of the step."""
        closures, radical_extend = [], kohn.radical_extend

        def recording_radical_extend(ideal, **kwargs):
            closure = radical_extend(ideal, **kwargs)
            closures.append((ideal, closure))
            return closure

        monkeypatch.setattr(kohn, "radical_extend", recording_radical_extend)
        result = run_kohn(cross_power_domain(*params))
        rows = {e["step"]: e["children"] for e in result.events if e["kind"] == "row"}
        asked = 0
        for step, (entry, closure) in enumerate(closures, start=1):
            assert closure
            elements = tuple(c.element for c in closure)
            fresh = LocalIdeal(entry.generators + elements)
            assert closure.ideal.generators == tuple(dict.fromkeys(entry.generators + elements))
            assert {r[0] for r in closure.ideal.basis} == {r[0] for r in fresh.basis}
            for record in rows.get(step, ()):
                if record["child"] is not None:
                    child = parse_poly(record["child"])
                    assert closure.ideal.membership(child) is fresh.membership(child)
                    asked += 1
        assert len(closures) == 2 and asked

    def test_each_parent_expanded_and_each_basis_completed_once(self, monkeypatch):
        """apply_L runs once per distinct parent, and outside radical_extend
        run_kohn completes no basis but a closure's, which it adopts."""
        expanded, apply = [], kohn.apply_L
        closed, radical_extend = [], kohn.radical_extend
        outside, complete = [], LocalIdeal._complete

        def counting_apply_L(h, data):
            expanded.append(canonical_str(h))
            return apply(h, data)

        def marking_radical_extend(ideal, **kwargs):
            closed.append(None)  # while the closure runs
            closure = radical_extend(ideal, **kwargs)
            closed[-1] = closure.ideal
            return closure

        def recording_complete(ideal, steps):
            if not closed or closed[-1] is not None:
                outside.append(ideal)
            return complete(ideal, steps)

        monkeypatch.setattr(kohn, "apply_L", counting_apply_L)
        monkeypatch.setattr(kohn, "radical_extend", marking_radical_extend)
        monkeypatch.setattr(LocalIdeal, "_complete", recording_complete)
        result = run_kohn(cross_power_domain(4, 3, 6))
        parents = [
            record["parent"]
            for event in result.events
            if event["kind"] == "row"
            for record in event["children"]
            if record["via"] == "L"
        ]
        assert len(parents) > len(set(parents))
        assert sorted(expanded) == sorted(set(parents))
        assert len(closed) == 2
        assert all(any(ideal is c for c in closed) for ideal in outside)

    @pytest.mark.parametrize(
        "spec",
        [
            cross_power_domain(3, 2, 4),
            DomainSpec(name="pool-a2", f=(parse_poly("w^2 + (2 - 1/3*i)*z"),)),
        ],
        ids=lambda s: s.name,
    )
    def test_r_w_is_asked_about_once(self, monkeypatch, spec):
        """The shortcut question is the dw child of r, which is r_w: once it
        is answered YES the child is recorded absorbed without a query."""
        r_w, asked = expand_r(spec).r_w, []
        membership = LocalIdeal.membership

        def counting_membership(ideal, p, step_budget=None):
            if p == r_w:
                asked.append(p)
            return membership(ideal, p, step_budget)

        monkeypatch.setattr(LocalIdeal, "membership", counting_membership)
        result = run_kohn(spec)
        r = canonical_str(expand_r(spec).r)
        dw_of_r = [
            record
            for event in result.events
            if event["kind"] == "row"
            for record in event["children"]
            if record["parent"] == r and record["via"] == "dw"
        ]
        assert result.outcome is Outcome.SUCCESS
        assert [record["child"] for record in dw_of_r] == [canonical_str(r_w)] * len(dw_of_r)
        assert dw_of_r and {record["status"] for record in dw_of_r} == {"absorbed"}
        assert len(asked) == 1


class TestCapPrune:
    """A power sweep's cap prune, seen from a whole run."""

    def test_the_zw_cap_prune_is_answered_on_the_tangent_cone(self, monkeypatch):
        """zb^32 lies outside the tangent cone of J = I + conj(I), so the
        sweep drops z without asking J about zb^32 or I about z^32, and the
        trace is the one J's answer gave."""
        asked, membership = [], LocalIdeal.membership

        def recording_membership(ideal, p, step_budget=None):
            asked.append(canonical_str(p))
            return membership(ideal, p, step_budget)

        monkeypatch.setattr(LocalIdeal, "membership", recording_membership)
        result = run_kohn(DomainSpec(name="zw", f=(parse_poly("w^2 - z*w"),)))
        assert result.summary() == "unit found, step 1, order 1/8, max radical order 2"
        assert asked and not {"zb^32", "z^32"} & set(asked)
        digest = hashlib.sha256(serialize_trace(result).encode("utf-8")).hexdigest()
        assert digest == "4ee7bbbc91048de2c4ec85159627596362c1b1858d1e9d68dfeb5818c2af54d9"

    @pytest.mark.parametrize(
        "text,digest",
        [
            ("w^2 - z*w", "4ee7bbbc91048de2c4ec85159627596362c1b1858d1e9d68dfeb5818c2af54d9"),
            ("w^2 + (-5/2 + 6*i)*z*w",
             "327dff77bf314f41808633582ac8431ab3823decd58f3f109353845627d0f9de"),
        ],
        ids=["real", "complex"],
    )
    def test_the_zw_cap_prune_costs_the_same_at_every_cap(self, monkeypatch, text, digest):
        """The dimension drop answers the prune, so no step reduces a high power.

        The trace is the same at every radical cap, and so is the number of
        Mora steps.  A power above degree 32 still reaches nf_mora, as a
        membership that no lead divides, but it costs no step.
        """
        nf_mora, spent = localideal.nf_mora, []

        def recording_nf_mora(f, reducers, budget):
            before = budget.remaining
            try:
                return nf_mora(f, reducers, budget)
            finally:
                spent.append((max(map(mono_degree, f)), before - max(budget.remaining, 0)))

        monkeypatch.setattr(localideal, "nf_mora", recording_nf_mora)
        steps = set()
        for cap in (8, 32, 64, 128):
            spent.clear()
            result = run_kohn(DomainSpec(name="zw", f=(parse_poly(text),)), radical_cap=cap)
            assert hashlib.sha256(serialize_trace(result).encode("utf-8")).hexdigest() == digest
            assert all(used == 0 for degree, used in spent if degree > 32)
            steps.add(sum(used for _, used in spent))
        assert len(steps) == 1


def _random_real_poly(rng):
    """A conj-symmetric polynomial: signed hermitian squares of holomorphic
    polynomials, sometimes plus q + conj(q) for a q in all four variables."""

    def small(variables):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            exps = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 2)):
                exps[rng.choice(variables)] += 1
            terms[tuple(exps)] = GaussRational(rng.randint(-2, 2), rng.randint(-1, 1))
        return Poly(terms)

    p = Poly.zero()
    for _ in range(rng.randint(1, 2)):
        h = small((0, 2))
        p = p + (h * h.conj()).scale(GaussRational(rng.choice((-1, 1))))
    if rng.random() < 0.3:
        q = small((0, 1, 2, 3))
        p = p + q + q.conj()
    return p


def _row_statuses(result):
    return {
        child["status"]
        for event in result.events
        if event["kind"] == "row"
        for child in event["children"]
    }


class TestTraceMachinery:
    def test_replay_is_bit_exact(self, run_325):
        again = run_kohn(cross_power_domain(3, 2, 5))
        assert serialize_trace(again) == serialize_trace(run_325)

    @pytest.mark.parametrize(
        "spec,digest", MORE_TRACE_DIGESTS, ids=[s.name for s, _ in MORE_TRACE_DIGESTS]
    )
    def test_more_traces_are_byte_identical(self, spec, digest):
        text = serialize_trace(run_kohn(spec))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_serialization_round_trips(self, run_325):
        text = serialize_trace(run_325)
        assert json.loads(text) == run_325.events

    def test_events_bracketed_by_init_and_outcome(self, run_325):
        assert run_325.events[0]["kind"] == "init"
        assert run_325.events[-1]["kind"] == "outcome"

    def test_row_children_match_the_field(self, run_325):
        """Every recorded L-image equals r_z*h_w - r_w*h_z for its parent."""
        data = expand_r(cross_power_domain(3, 2, 5))
        for event in run_325.events:
            if event["kind"] != "row":
                continue
            for child in event["children"]:
                if child["via"] != "L" or child["child"] is None:
                    continue
                parent = parse_poly(child["parent"])
                assert canonical_str(apply_L(parent, data)) == child["child"]

    def test_audit_flags_a_doctored_order(self, run_325):
        """A doctored order, and a rule the audit does not know, are flagged."""
        for field, value, complaint in [
            ("multiplier_order", "1/2", "claimed"),
            ("rule", "algebraic-power", "unknown rule"),
        ]:
            events = json.loads(serialize_trace(run_325))
            doctored = run_325.__class__(
                outcome=run_325.outcome,
                steps_used=run_325.steps_used,
                final_order=run_325.final_order,
                max_radical_order=run_325.max_radical_order,
                multipliers=run_325.multipliers,
                reason=run_325.reason,
                events=events,
            )
            for event in doctored.events:
                if event["kind"] == "radical" and event["step"] == 2:
                    event["certificates"][0][field] = value
            problems = audit_trace(doctored)
            assert problems and complaint in problems[0]
