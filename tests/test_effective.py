"""Tests for the derivative-based effective chain."""

from fractions import Fraction

import pytest

from subelliptic.polyring import parse_poly, canonical_str
from subelliptic.domain import DomainSpec, flat_domain, cross_power_domain
from subelliptic.kohn import run_kohn
from subelliptic.effective import (
    EffectiveResult,
    HypoStatus,
    HypothesisFailedError,
    InfiniteTypeError,
    ZetaStep,
    select_component,
    zeta_chain,
    compare_orders,
)


def spec_of(*components, name="test"):
    return DomainSpec(name=name, f=tuple(parse_poly(c) for c in components))


class TestSelectComponent:
    def test_flat(self):
        assert select_component(flat_domain()) == (0, 1)

    def test_cross_power_picks_tau(self):
        assert select_component(cross_power_domain(3, 2, 5)) == (0, 3)

    def test_smallest_order_wins(self):
        assert select_component(spec_of("w^3", "w^2")) == (1, 2)

    def test_tie_goes_to_the_smallest_index(self):
        assert select_component(spec_of("w^3", "w^3 + z^2")) == (0, 3)
        assert select_component(spec_of("w^3 + z^2", "w^3")) == (0, 3)

    def test_component_blind_to_vertical_curve_is_skipped(self):
        """z*w vanishes identically on (0, t); the other component decides."""
        assert select_component(spec_of("z*w", "w^2")) == (1, 2)

    def test_infinite_type_rejected(self):
        with pytest.raises(InfiniteTypeError):
            select_component(spec_of("z", "z*w"))


class TestZetaChain:
    def test_chain_325_pinned(self):
        result = zeta_chain(cross_power_domain(3, 2, 5), HypoStatus.VERIFIED)
        steps = [(s.index, canonical_str(s.poly), s.order) for s in result.chain]
        assert steps == [
            (1, "3*w^2 + 2*z^5*w", Fraction(1, 4)),
            (2, "6*w + 2*z^5", Fraction(1, 8)),
            (3, "6", Fraction(1, 16)),
        ]
        assert result.tau == 3
        assert result.final_order == Fraction(1, 16)
        assert result.sound is True
        assert result.summary() == "unit found, component 0, tau 3, order 1/16"

    def test_flat_chain(self):
        result = zeta_chain(flat_domain(), HypoStatus.VERIFIED)
        assert [canonical_str(s.poly) for s in result.chain] == ["1"]
        assert result.final_order == Fraction(1, 4)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_order_does_not_depend_on_k(self, k):
        result = zeta_chain(cross_power_domain(3, 2, k), HypoStatus.VERIFIED)
        assert result.final_order == Fraction(1, 16)

    def test_tau_4_halves_once_more(self):
        result = zeta_chain(cross_power_domain(4, 3, 6), HypoStatus.VERIFIED)
        assert len(result.chain) == 4
        assert result.final_order == Fraction(1, 32)

    def test_failed_hypothesis_refuses(self):
        with pytest.raises(HypothesisFailedError):
            zeta_chain(cross_power_domain(3, 2, 5), HypoStatus.FAILED)

    def test_infinite_type_is_undecided_before_the_refusal(self):
        """No force could run a spec of infinite vertical type, so a failed
        hypothesis does not get it refused with advice to pass --force."""
        spec = DomainSpec(name="z", f=(parse_poly("z"),))
        for force in (False, True):
            with pytest.raises(InfiniteTypeError):
                zeta_chain(spec, HypoStatus.FAILED, force=force)

    def test_forced_run_is_marked_unsound(self):
        result = zeta_chain(cross_power_domain(3, 2, 5), HypoStatus.FAILED, force=True)
        assert result.sound is False
        assert result.summary().endswith("(UNSOUND: hypothesis failed, forced)")
        assert result.final_order == Fraction(1, 16)

    def test_asserted_hypothesis_counts_as_sound(self):
        result = zeta_chain(flat_domain(), HypoStatus.ASSERTED)
        assert result.sound is True

    def test_records_take_keywords(self):
        step = ZetaStep(index=1, poly=parse_poly("1"), order=Fraction(1, 4))
        result = EffectiveResult(
            component_index=0, tau=1, chain=(step,), final_order=step.order, sound=True
        )
        assert result == zeta_chain(flat_domain(), HypoStatus.VERIFIED)
        assert result.chain[0].index == 1


class TestCompareOrders:
    def test_cross_power_325(self):
        spec = cross_power_domain(3, 2, 5)
        classic = run_kohn(spec)
        effective = zeta_chain(spec, HypoStatus.VERIFIED)
        assert compare_orders(spec, classic, effective) == {
            "type": 6,
            "optimal": Fraction(1, 6),
            "classic": Fraction(1, 40),
            "effective": Fraction(1, 16),
        }

    def test_flat(self):
        spec = flat_domain()
        classic = run_kohn(spec)
        effective = zeta_chain(spec, HypoStatus.VERIFIED)
        assert compare_orders(spec, classic, effective) == {
            "type": 2,
            "optimal": Fraction(1, 2),
            "classic": Fraction(1, 2),
            "effective": Fraction(1, 4),
        }

    def test_stalled_classic_reports_none(self):
        spec = cross_power_domain(3, 2, 5)
        stalled = run_kohn(spec, max_steps=1)
        row = compare_orders(spec, stalled, None)
        assert row["classic"] is None
        assert row["effective"] is None
