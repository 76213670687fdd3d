"""Exact multiplier-ideal chain computation on model domains.

Starting from the defining function r (order 1) and the Levi determinant
lambda (order 1/2), the chain alternates two moves:

  * a radical step that closes the current ideal under sound real-radical
    certificates, each new multiplier inheriting an order of subellipticity
    from its certificate rule, and
  * a row step that applies the tangential field L (plus the d/dw shortcut
    when r_w already belongs to the ideal), children inheriting half of the
    parent order.

The run succeeds at the step where the ideal contains a unit; the order of
subellipticity certified by the run is the minimum order in the multiplier
ledger at that point.  Every move is recorded in a serializable trace that
a rerun reproduces bit-for-bit and audit_trace checks rule by rule.  A
boundary that a step-0 test proves not pseudoconvex near the origin is
refused (run_kohn, domain.descent_direction).

The ideal only grows, so work whose answer is already known is not redone:

  * after a radical step the ideal is the one radical_extend hands back:
    the entry generators followed by the certificate elements, which the
    ledger and the trace name, with the standard basis the closure already
    built for them, so it is not completed a second time.
  * each parent is differentiated once: L(h) and h_w are kept for the whole
    run.  A child that a membership query put inside, or that joined the
    ideal as a kept child after an exact NO, lies in every later ideal, so
    it is recorded as absorbed without a second query; likewise r_w, once
    inside, switches the d/dw shortcut on for good and counts as inside for
    the dw child of r, which is r_w.  A kept-unverified child is asked
    again.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .polyring import Poly, canonical_str
from .localideal import (
    DEFAULT_ORDER_CAP,
    LocalIdeal,
    Membership,
    radical_extend,
)
from .domain import DomainSpec, UndecidedError, apply_L, descent_direction, expand_r

DEFAULT_MAX_STEPS = 16


class KohnError(UndecidedError):
    """Raised when a run reaches an internally inconsistent state."""


class Outcome(enum.Enum):
    SUCCESS = "success"
    STALLED = "stalled"


@dataclass
class KohnResult:
    """A run's outcome and events.  `multipliers` is its order ledger, kept on
    purpose: re-deriving the ledger's max-merge from the events would copy it."""

    outcome: Outcome
    steps_used: int
    final_order: Optional[Fraction]
    max_radical_order: int
    multipliers: dict[str, Fraction]
    reason: str
    events: list[dict]

    def summary(self) -> str:
        if self.outcome is Outcome.SUCCESS:
            return (
                f"unit found, step {self.steps_used}, order {self.final_order}, "
                f"max radical order {self.max_radical_order}"
            )
        return f"stalled after {self.steps_used} steps ({self.reason})"


class _Ledger:
    """Certified multiplier orders keyed by monic form."""

    def __init__(self):
        self.entries: dict[Poly, Fraction] = {}

    def add(self, poly: Poly, order: Fraction) -> None:
        """Record order for poly unless a larger one is already known."""
        key = poly.monic()
        self.entries[key] = max(self.entries.get(key, order), order)

    def order_of(self, poly: Poly) -> Fraction:
        key = poly.monic()
        if key not in self.entries:
            raise KohnError(f"no ledger entry for {canonical_str(poly)}")
        return self.entries[key]

    def min_order(self) -> Fraction:
        return min(self.entries.values())


def _cert_event(cert, multiplier_order: Fraction) -> dict:
    return {
        "element": canonical_str(cert.element),
        "order": cert.order,
        "rule": cert.rule,
        "witness": cert.witness,
        "source": canonical_str(cert.source) if cert.source is not None else None,
        "multiplier_order": str(multiplier_order),
        "probe_ideal": list(cert.probe_ideal) if cert.probe_ideal is not None else None,
        "probe_log": [list(entry) for entry in cert.probe_log]
        if cert.probe_log is not None
        else None,
    }


def run_kohn(
    spec: DomainSpec,
    max_steps: int = DEFAULT_MAX_STEPS,
    radical_cap: int = DEFAULT_ORDER_CAP,
) -> KohnResult:
    """Run the multiplier chain on spec until a unit appears or it stalls.

    The chain presumes a pseudoconvex boundary, so the run stalls at step 0
    when domain.descent_direction finds a boundary direction at 0 along
    which the lowest-degree part of lambda is negative: boundary points
    arbitrarily near 0 are then not pseudoconvex.  That covers lambda(0) < 0
    and -lambda a nonzero sum of hermitian squares.  A lambda whose lowest
    part is >= 0 but which is negative at higher order is not caught here;
    `subelliptic verify` samples it.
    """
    data = expand_r(spec)
    ledger = _Ledger()
    ledger.add(data.r, Fraction(1))
    ledger.add(data.lam, Fraction(1, 2))
    events: list[dict] = [
        {
            "kind": "init",
            "step": 0,
            "domain": spec.name,
            "r": canonical_str(data.r),
            "lambda": canonical_str(data.lam),
        }
    ]
    max_radical_order = 0
    saw_undecided = False

    current = LocalIdeal([data.r, data.lam])
    expanded: dict[Poly, tuple[Poly, Poly]] = {}  # parent -> (L(parent), parent_w)
    inside: set[Poly] = set()  # children proven to lie in the ideal
    shortcut = False

    def finish(step: int, witness: Optional[Poly], stall: str = "") -> KohnResult:
        """Record the outcome event and build the result.

        A unit witness means success; without one the run stalled for the
        given reason.
        """
        if witness is not None:
            order = ledger.min_order()
            outcome, reason = Outcome.SUCCESS, "unit found"
            detail = {
                "order": str(order),
                "max_radical_order": max_radical_order,
                "witness": canonical_str(witness),
            }
        else:
            order = None
            outcome, reason = Outcome.STALLED, stall
            if saw_undecided:
                reason += "; some memberships were undecided under the budget"
            detail = {"reason": reason}
        events.append({"kind": "outcome", "outcome": outcome.value, "step": step, **detail})
        return KohnResult(
            outcome=outcome,
            steps_used=step,
            final_order=order,
            max_radical_order=max_radical_order,
            multipliers={canonical_str(p): o for p, o in ledger.entries.items()},
            reason=reason,
            events=events,
        )

    def check_unit(step: int, stage: str, ideal: LocalIdeal) -> Optional[Poly]:
        witness = ideal.unit_witness()
        events.append(
            {
                "kind": "unit-check",
                "step": step,
                "stage": stage,
                "found": witness is not None,
                "witness": canonical_str(witness) if witness is not None else None,
            }
        )
        return witness

    descent = descent_direction(data.lam)
    if descent is not None:
        h, v = descent
        value = h.eval_exact(*v)
        where = (f"at the origin (lambda(0) = {value})" if h.total_degree() == 0 else
                 f"near the origin: its lowest-degree part {canonical_str(h)} is {value} "
                 f"at the boundary direction ({v[0]}, {v[1]})")
        return finish(0, None, f"Levi determinant is negative {where}")

    witness = check_unit(1, "pre-loop", current)
    if witness is not None:
        return finish(1, witness)

    for step in range(1, max_steps + 1):
        # -- radical step: entry orders are frozen before any commit
        epsilon = min(ledger.order_of(g) for g in current.generators)
        certificates = radical_extend(current, order_cap=radical_cap)
        cert_events = []
        for cert in certificates:
            if cert.rule in ("conjugation", "hermitian-square"):
                multiplier_order = ledger.order_of(cert.source) / cert.order
            else:
                multiplier_order = epsilon / cert.order
            ledger.add(cert.element, multiplier_order)
            max_radical_order = max(max_radical_order, cert.order)
            cert_events.append(_cert_event(cert, multiplier_order))
        events.append(
            {
                "kind": "radical",
                "step": step,
                "epsilon": str(epsilon),
                "certificates": cert_events,
            }
        )
        current = certificates.ideal
        if current.basis is None:
            saw_undecided = True

        witness = check_unit(step, "after-radical", current)
        if witness is not None:
            return finish(step, witness)

        # -- row step: L(h) for every known multiplier, plus the d/dw
        #    shortcut when r_w itself already lies inside.  Under the
        #    shortcut, L(h) = r_z*h_w - r_w*h_z generates the same ideal
        #    as h_w alone, so the trace records it as subsumed and only
        #    h_w enters the pool; a subsumed child never carries its own
        #    ledger entry.  Once r_w is inside it stays inside, so it is
        #    asked about once: the dw child of r is r_w itself, and it is
        #    recorded as absorbed without a second query.
        if not shortcut and current.membership(data.r_w) is Membership.YES:
            shortcut = True
            inside.add(data.r_w)
        child_events = []
        kept: dict[Poly, Poly] = {}  # monic form -> first child with it
        refused: list[Poly] = []  # children answered NO
        for parent in current.generators:
            parent_order = ledger.order_of(parent)
            child_order = parent_order / 2
            if parent not in expanded:
                expanded[parent] = (apply_L(parent, data), parent.wirtinger("w"))
            l_child, w_child = expanded[parent]
            moves = [("L", l_child), ("dw", w_child)] if shortcut else [("L", l_child)]
            for via, child in moves:
                record = {
                    "parent": canonical_str(parent),
                    "via": via,
                    "child": None,
                    "status": "zero",
                    "order": None,
                }
                if not child.is_zero():
                    record["child"] = canonical_str(child)
                    if via == "L" and shortcut:
                        record["status"] = "subsumed"
                        record["order"] = str(child_order)
                        child_events.append(record)
                        continue
                    answer = (
                        Membership.YES if child in inside else current.membership(child)
                    )
                    if answer is Membership.YES:
                        inside.add(child)
                        record["status"] = "absorbed"
                    else:
                        if answer is Membership.UNDECIDED:
                            saw_undecided = True
                        else:
                            refused.append(child)
                        ledger.add(child, child_order)
                        record["status"] = (
                            "kept" if answer is Membership.NO else "kept-unverified"
                        )
                        record["order"] = str(ledger.order_of(child))
                        kept.setdefault(child.monic(), child)
                child_events.append(record)
        events.append(
            {
                "kind": "row",
                "step": step,
                "h_w_shortcut": shortcut,
                "children": child_events,
            }
        )
        if kept:
            current = current.with_extra(kept.values())
            inside.update(refused)

        witness = check_unit(step, "after-row", current)
        if witness is not None:
            return finish(step, witness)

        if not certificates and not kept:
            return finish(step, None, "ideal chain reached a fixpoint without a unit")

    return finish(max_steps, None, f"no unit within {max_steps} steps")


def serialize_trace(result: KohnResult) -> str:
    """Canonical JSON for the run trace; equal runs serialize identically."""
    return json.dumps(result.events, sort_keys=True, indent=2)


def audit_trace(result: KohnResult) -> list[str]:
    """Check every recorded order against the rule that produced it.

    Returns human-readable violations; an empty list means the ledger
    arithmetic in the trace is internally consistent.
    """
    problems: list[str] = []
    orders: dict[str, Fraction] = {}
    for event in result.events:
        if event["kind"] == "init":
            orders[event["r"]] = Fraction(1)
            orders[event["lambda"]] = Fraction(1, 2)
        elif event["kind"] == "radical":
            epsilon = Fraction(event["epsilon"])
            for cert in event["certificates"]:
                claimed = Fraction(cert["multiplier_order"])
                if cert["rule"] in ("conjugation", "hermitian-square"):
                    source = cert["source"]
                    if source is None or source not in orders:
                        problems.append(
                            f"certificate for {cert['element']} cites an unknown "
                            f"source {source}"
                        )
                        continue
                    expected = orders[source] / cert["order"]
                elif cert["rule"] == "monomial-root":
                    expected = epsilon / cert["order"]
                else:
                    problems.append(
                        f"certificate for {cert['element']} names an unknown rule "
                        f"{cert['rule']}"
                    )
                    continue
                if claimed != expected:
                    problems.append(
                        f"{cert['rule']} certificate for {cert['element']}: claimed "
                        f"order {claimed}, rule gives {expected}"
                    )
                previous = orders.get(cert["element"])
                if previous is None or claimed > previous:
                    orders[cert["element"]] = claimed
        elif event["kind"] == "row":
            for child in event["children"]:
                if child["status"] not in ("kept", "kept-unverified", "subsumed"):
                    continue
                parent_order = orders.get(child["parent"])
                if parent_order is None:
                    problems.append(
                        f"row child {child['child']} cites an unknown parent "
                        f"{child['parent']}"
                    )
                    continue
                claimed = Fraction(child["order"])
                expected = parent_order / 2
                if child["status"] == "subsumed":
                    if claimed != expected:
                        problems.append(
                            f"subsumed row child {child['child']}: claimed order "
                            f"{claimed}, rule gives {expected}"
                        )
                    continue
                if claimed < expected:
                    problems.append(
                        f"row child {child['child']}: claimed order {claimed} "
                        f"is below the inherited {expected}"
                    )
                previous = orders.get(child["child"])
                if previous is None or claimed > previous:
                    orders[child["child"]] = claimed
    return problems
