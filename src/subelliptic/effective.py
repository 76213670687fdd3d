"""Effective multiplier chain built from derivatives of one component.

Instead of closing radicals step by step, this variant selects the component
of f with the smallest vanishing order tau along the vertical curve (0, t)
and differentiates it in w until a unit appears.  Each derivative halves the
certified order, so the run always ends after tau steps with order
2^(-(tau+1)), at the price of requiring the comparison hypothesis between
f and g to hold near the origin.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .polyring import Poly, canonical_str
from .domain import DomainSpec, UndecidedError, type_lower_bound, vertical_order

if TYPE_CHECKING:  # for annotations only: this module never runs the Kohn engine
    from .kohn import KohnResult


class EffectiveError(RuntimeError):
    """Base class for failures of the effective procedure."""


class InfiniteTypeError(EffectiveError, UndecidedError):
    """Every component vanishes identically along the vertical curve."""


class HypothesisFailedError(EffectiveError):
    """The comparison hypothesis failed and --force was not given."""


class HypoStatus(enum.Enum):
    VERIFIED = "verified"
    ASSERTED = "asserted"
    FAILED = "failed"


class ZetaStep(NamedTuple):
    index: int
    poly: Poly
    order: Fraction


class EffectiveResult(NamedTuple):
    component_index: int
    tau: int
    chain: tuple[ZetaStep, ...]
    final_order: Fraction
    sound: bool

    def summary(self) -> str:
        tag = "" if self.sound else " (UNSOUND: hypothesis failed, forced)"
        return (
            f"unit found, component {self.component_index}, tau {self.tau}, "
            f"order {self.final_order}{tag}"
        )


def select_component(spec: DomainSpec) -> tuple[int, int]:
    """Index and vanishing order tau of the best component.

    The vanishing order of f_j(0, t) at t = 0 is computed for every
    component; the smallest order tau wins and ties go to the smallest
    index.
    """
    orders = [vertical_order(component) for component in spec.f]
    tau = min(orders, default=math.inf)
    if tau == math.inf:
        raise InfiniteTypeError(
            "every component of f vanishes identically along (0, t); "
            "the origin has infinite type in the vertical direction"
        )
    return orders.index(tau), tau


def zeta_chain(
    spec: DomainSpec,
    hypothesis: HypoStatus,
    force: bool = False,
) -> EffectiveResult:
    """Differentiate the selected component until a unit appears.

    zeta_1 = d/dw of the component carries order 1/4 and every further
    derivative halves the order; after tau steps the chain must reach a
    nonvanishing constant, anything else indicates the selection was
    inconsistent.  A spec of infinite vertical type raises
    InfiniteTypeError before the hypothesis is looked at, since no force
    could run it.  With a failed hypothesis the run refuses unless force is
    set, in which case the result is labeled unsound.
    """
    index, tau = select_component(spec)
    if hypothesis is HypoStatus.FAILED and not force:
        raise HypothesisFailedError(
            "comparison hypothesis failed on samples; pass --force to run anyway "
            "(the certified order would be unsound)"
        )
    component = spec.f[index]
    chain: list[ZetaStep] = []
    zeta = component
    for j in range(1, tau + 1):
        zeta = zeta.wirtinger("w")
        chain.append(ZetaStep(index=j, poly=zeta, order=Fraction(1, 2 ** (j + 1))))
    last = chain[-1].poly
    if last.constant_term().is_zero():
        raise EffectiveError(
            f"internal inconsistency: zeta_{tau} = {canonical_str(last)} is not a "
            f"unit although component {index} vanishes to order {tau} along (0, t)"
        )
    return EffectiveResult(
        component_index=index,
        tau=tau,
        chain=tuple(chain),
        final_order=Fraction(1, 2 ** (tau + 1)),
        sound=hypothesis is not HypoStatus.FAILED,
    )


def compare_orders(
    spec: DomainSpec,
    classic: Optional[KohnResult],
    effective: Optional[EffectiveResult],
) -> dict:
    """Side-by-side orders: the type bound, the optimal order 1/type (None
    when the type is infinite) and both runs.  Like the effective run, it
    raises InfiniteTypeError when no component of f has finite vertical order.
    """
    select_component(spec)
    bound = type_lower_bound(spec)
    row = {
        "type": bound,
        "optimal": None if bound == math.inf else Fraction(1, bound),
        "classic": classic.final_order if classic is not None else None,
        "effective": effective.final_order if effective is not None else None,
    }
    return row
